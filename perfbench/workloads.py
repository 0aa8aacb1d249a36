"""The three workloads: inputs made from the seed, set-up, one timed round, checks.

A workload's ``setup`` is what a user pays before the first result (config
load and validation, the landscape search, the saddle frame). ``run_round``
is the timed unit: the same operations every round, so the share of failed
operations is the same in every run. ``verify`` runs after the timed section
and returns a list of failure messages.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import verify

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"


def _landscape(model, box, density, start_well, gamma):
    """Critical points, landscape report and saddle frame: the analysis every
    CLI command runs first, and so part of every workload's set-up."""
    from metastable.landscape import build_landscape, find_critical_points
    from metastable.rates import build_saddle_frame

    cps = find_critical_points(model, box, density)
    report = build_landscape(model, cps, start_well_hint=start_well)
    return cps, report, build_saddle_frame(model, report, gamma)


def _config_model(cfg):
    from metastable import potentials

    block = cfg["potential"]
    if block["family"] == potentials.QUARTIC_1D:
        return potentials.quartic_double_well()
    return potentials.separable_double_well(block["parameters"])


def _round_seed(seed: int, r: int) -> int:
    return seed * 1000 + r


class MeanTime:
    """``metastable simulate --dump-trajectories`` on the quartic well.

    Two epsilons, 500 trajectories each. The slowest trajectories of each
    ensemble set its number of Python steps; the config's horizon of 80 time
    units (about 3.3 and 2.3 mean hitting times) times about 2% and 7% of
    them out, so every ensemble runs exactly 80,000 steps and the round's
    cost does not hang on the luck of the slowest draw. Each round uses a
    fresh base seed derived from the workload seed.
    """

    config = CONFIGS / "mc_mean_time.json"
    ops_per_round = 1
    # shortest trajectories per epsilon re-run alone for the per-stream check
    rerun_per_eps = 3

    def __init__(self, out: Path, seed: int):
        self.out, self.seed = out, seed
        self.rounds = []  # (base seed, output directory, exit code)

    def setup(self):
        from metastable import cli

        self.cfg = cli.load_config(str(self.config), None, seed=_round_seed(self.seed, 0))
        self.model = _config_model(self.cfg)
        land = self.cfg["landscape"]
        _, self.report, _ = _landscape(
            self.model, land["box"], land["grid_density"], land["start_well"], self.cfg["gamma"])

    def run_round(self, r: int) -> int:
        from metastable import cli

        seed = _round_seed(self.seed, r)
        out = self.out / f"round{r}"
        rc = cli.main(["simulate", str(self.config), "--seed", str(seed),
                       "--dump-trajectories", "--out", str(out)])
        self.rounds.append((seed, out, rc))
        return int(rc != 0)

    def verify(self) -> list:
        bad = []
        n_traj = self.cfg["ensemble"]["n_traj"]
        for seed, out, rc in self.rounds:
            if rc != 0:
                continue
            hitting = json.loads((out / "hitting.json").read_text())["hitting"]
            with (out / "trajectories.csv").open() as fh:
                rows = list(csv.reader(fh))[1:]
            bad += [f"round seed {seed}: {m}" for m in
                    verify.check_mean_time(hitting, rows, self.cfg["gamma"], n_traj)]
            rerun = self.rerun_alone(seed, hitting, verify.shortest(rows, self.rerun_per_eps))
            bad += [f"round seed {seed}: {m}" for m in verify.check_streams(rows, rerun)]
        return bad

    def rerun_alone(self, seed, hitting, rows) -> dict:
        """Each listed trajectory alone through the engine, on its own stream id."""
        from metastable.dynamics import IntegratorConfig, StopSpec, batch_hit_times

        integ = self.cfg["integrator"]
        grid = self.cfg["epsilon_grid"]
        n_traj = self.cfg["ensemble"]["n_traj"]
        start = np.concatenate([self.report.minimum_m.location, [0.0]])
        stop = StopSpec(target_center=np.concatenate([self.report.minimum_s.location, [0.0]]),
                        target_radius=self.cfg["balls"]["radius"])
        out = {}
        for eps_s, tid, _, _ in rows:
            i = grid.index(float(eps_s))
            pred = next(h["predicted_mean_time"] for h in hitting if h["epsilon"] == grid[i])
            config = IntegratorConfig(scheme=integ["scheme"], dt=integ["dt"],
                                      max_time=min(integ["max_time"], 50.0 * pred), rng_seed=seed)
            times, _, _ = batch_hit_times(self.model, self.cfg["gamma"], grid[i], start[None, :],
                                          stop, config, np.array([i * n_traj + int(tid)]))
            out[(eps_s, int(tid))] = float(times[0])
        return out


class Committor:
    """``hitting.estimate_equilibrium_potential`` on a 2-D polynomial double well.

    U = q1^4/4 - q1^2/2 + 1/4 + 2 q2^2, written as a generic polynomial so the
    monomial gradient path runs. Points come in pairs x, -x on a line through
    the saddle whose tilt comes from the seed; the last pair sits in the
    target and avoid balls.

    At eps = 0.05 with balls of radius 0.3 the slowest of the 2,240 rows
    hits a ball within about 20 time units (the mean is under 3), so the
    round is spent on the bulk of the rows and their chunk-compaction copies,
    not on the luck of the slowest draw. The first noise chunk (1,680 live rows,
    55 MB) is mmapped, and its compaction copy sets the peak RSS, above
    anything the later, heap-allocated chunks reach.
    """

    terms = [(0.25, (4, 0)), (-0.5, (2, 0)), (0.25, (0, 0)), (2.0, (0, 2))]
    epsilon = 0.05
    gamma = 1.0
    radius = 0.3
    n_traj = 140
    offsets = (0.1, 0.3, 0.6, 1.0)  # along the line; 1.0 lands in the balls
    ops_per_round = 1

    def __init__(self, out: Path, seed: int):
        self.out, self.seed = out, seed
        self.rounds = []  # (base seed, estimates or None)

    def setup(self):
        from metastable.potentials import polynomial_potential

        self.model = polynomial_potential(2, self.terms)
        _, report, self.frame = _landscape(
            self.model, [(-2.0, 2.0), (-2.0, 2.0)], 9, [1.0, 0.0], self.gamma)
        center = self.frame.center
        target = np.concatenate([report.minimum_m.location, [0.0, 0.0]])
        tilt = np.random.default_rng(self.seed).uniform(-0.1, 0.1, size=4)
        tilt[0] = 0.0
        direction = target - center + tilt
        self.points = []
        for s in self.offsets:
            self.points += [center + s * direction, center - s * direction]
        self.target, self.avoid = target, 2 * center - target

    def run_round(self, r: int) -> int:
        from metastable.dynamics import IntegratorConfig
        from metastable.errors import MetastableError
        from metastable.hitting import Ball, EnsembleConfig, estimate_equilibrium_potential

        seed = _round_seed(self.seed, r)
        cfg = EnsembleConfig(
            model=self.model, epsilon=self.epsilon, gamma=self.gamma, n_traj=self.n_traj,
            start=self.frame.center, target=Ball(self.target, self.radius),
            avoid=Ball(self.avoid, self.radius),
            integrator=IntegratorConfig(dt=1.0e-3, max_time=5.0e4), base_seed=seed)
        try:
            self.rounds.append((seed, estimate_equilibrium_potential(cfg, self.points)))
        except MetastableError as exc:
            print(f"committor round {r}: {type(exc).__name__}: {exc}")
            self.rounds.append((seed, None))
            return 1
        return 0

    def verify(self) -> list:
        bad = []
        for seed, est in self.rounds:
            if est is None:
                continue
            bad += [f"round seed {seed}: {m}" for m in verify.check_committor(
                [e.h for e in est], [e.h_star for e in est], [e.timeout_fraction for e in est],
                self.n_traj, len(self.offsets) - 1)]
        return bad


class FlowQuadrature:
    """Zero-noise flows from grid starts in both wells, then two capacity runs.

    The start grid is the one of the shipped zero_noise_flow check, mirrored
    into both wells. Each well runs the same six grid points, spread evenly
    over the grid's list of sub-saddle starts; the seed moves each by up to
    half a grid step in q and in p. A flow's cost follows its start (its
    trace runs 270 to 380 RK4 steps across the grid), so a seed that picked
    grid points at random would change the round's work by several percent.
    """

    configs = (CONFIGS / "capacity_quartic.json", CONFIGS / "capacity_separable.json")
    starts_per_well = 6
    tol = 1.0e-6
    max_time = 300.0
    ops_per_round = 2 * starts_per_well + len(configs)

    def __init__(self, out: Path, seed: int):
        self.out, self.seed = out, seed
        self.rounds = []  # (flow results, capacity output directories)

    def setup(self):
        from metastable import cli
        from metastable.potentials import hamiltonian

        self.cfgs = [cli.load_config(str(p), None) for p in self.configs]
        self.landscapes = []
        for cfg in self.cfgs:
            land = cfg["landscape"]
            model = _config_model(cfg)
            self.landscapes.append(
                (model,) + _landscape(model, land["box"], land["grid_density"],
                                      land["start_well"], cfg["gamma"]))
        self.model, _, report, _ = self.landscapes[0]
        self.gamma = self.cfgs[0]["gamma"]
        self.minima = np.array([report.minimum_m.location, report.minimum_s.location])
        rng = np.random.default_rng(self.seed)
        qs, ps = np.linspace(0.08, 1.30, 14), np.linspace(-0.55, 0.55, 14)
        half_step = 0.5 * np.array([qs[1] - qs[0], ps[1] - ps[0]])
        below = report.saddle.energy - 1.0e-3
        self.starts = []
        for sign in (1.0, -1.0):
            grid = [np.array([sign * q, p]) for q in qs for p in ps]
            grid = [x for x in grid if hamiltonian(self.model, x) < below]
            for i in np.linspace(0, len(grid) - 1, self.starts_per_well).round().astype(int):
                moved = grid[i] + rng.uniform(-1.0, 1.0, size=2) * half_step
                self.starts.append(moved if hamiltonian(self.model, moved) < below else grid[i])

    def run_round(self, r: int) -> int:
        from metastable import cli
        from metastable.dynamics import run_zero_noise_flow

        flows = [run_zero_noise_flow(self.model, self.gamma, x, tol=self.tol,
                                     max_time=self.max_time, minima=self.minima)
                 for x in self.starts]
        failed = sum(not f.converged for f in flows)
        outs = []
        for path in self.configs:
            out = self.out / f"round{r}" / path.stem
            failed += int(cli.main(["capacity", str(path), "--out", str(out)]) != 0)
            outs.append(out)
        self.rounds.append((flows, outs))
        return failed

    def verify(self) -> list:
        bad = []
        for (_, cps, _, _), cfg in zip(self.landscapes, self.cfgs):
            d = cfg["potential"]["dimension"]
            expected = [(-1.0,), (0.0,), (1.0,)] if d == 1 else [(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)]
            bad += verify.check_critical_points([c.location for c in cps], expected)
        first_flows, first_outs = self.rounds[0]
        wells = [float(m[0]) for m in self.minima]
        for x, f in zip(self.starts, first_flows):
            if not f.converged:  # counted as a failed operation
                continue
            ref = verify.quartic_flow_limit(x, self.gamma, self.max_time)
            bad += [f"flow from {x}: {m}" for m in
                    verify.check_flow(f.limit_point, f.energy_trace, ref, wells, self.tol)]
        capacity = [self._capacity(out) for out in first_outs]
        quartic = self.cfgs[0]
        truncation = 0.25 + quartic["quadrature"]["truncation_offset"]  # U(0) = 1/4
        if capacity[0] is not None:
            bad += verify.check_z_eps(capacity[0], truncation)
        for name, cap in zip(("quartic", "separable"), capacity):
            if cap is not None:
                bad += [f"{name}: {m}" for m in verify.check_asymptotics(cap)]
        # later rounds repeat the first bit for bit
        for r, (flows, outs) in enumerate(self.rounds[1:], start=1):
            same = all(
                np.array_equal(a.energy_trace, b.energy_trace)
                and np.array_equal(a.limit_point, b.limit_point)
                for a, b in zip(first_flows, flows)
            ) and [self._capacity(o) for o in outs] == capacity
            if not same:
                bad.append(f"round {r} differs from round 0")
        return bad

    @staticmethod
    def _capacity(out: Path):
        path = out / "capacity.json"
        return json.loads(path.read_text())["capacity"] if path.is_file() else None


WORKLOADS = {
    "mc_mean_time": MeanTime,
    "committor_profile": Committor,
    "flow_quadrature": FlowQuadrature,
}
