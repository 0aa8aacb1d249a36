"""Self-tests of the correctness checks.

Runs one round of each workload, shows that every check passes on the real
output, then feeds each check a deliberately corrupted copy and shows that
it fails. Run from the repository root (about a minute):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import csv
import json
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

import verify  # noqa: E402
from workloads import Committor, FlowQuadrature, MeanTime  # noqa: E402

OUT = Path(__file__).resolve().parent / "out" / "selftest"
SEED = 7


class Tally:
    def __init__(self):
        self.bad = 0

    def clean(self, what, failures):
        ok = not failures
        self.bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} real output passes: {what}" + ("" if ok else f" {failures}"))

    def caught(self, what, failures, expect):
        """The corruption must trip the check whose message contains ``expect``."""
        hit = [f for f in failures if expect in f]
        self.bad += not hit
        print(f"{'ok  ' if hit else 'FAIL'} corruption caught: {what}"
              + (f" ({hit[0]})" if hit else f" (got {failures})"))


def one_round(cls):
    workload = cls(OUT / cls.__name__, SEED)
    workload.setup()
    if workload.run_round(0):
        raise SystemExit(f"{cls.__name__}: the round itself failed")
    return workload


def mean_time(t: Tally):
    wl = one_round(MeanTime)
    _, out, _ = wl.rounds[0]
    hitting = json.loads((out / "hitting.json").read_text())["hitting"]
    with (out / "trajectories.csv").open() as fh:
        rows = list(csv.reader(fh))[1:]
    gamma, n = wl.cfg["gamma"], wl.cfg["ensemble"]["n_traj"]

    def check(h, r=rows):
        return verify.check_mean_time(h, r, gamma, n)

    t.clean("mc_mean_time", check(hitting))

    def edit(field, fn, which=0):
        h = copy.deepcopy(hitting)
        h[which][field] = fn(h[which][field])
        return h

    t.caught("predicted_mean_time off by 1e-6", check(edit("predicted_mean_time", lambda v: v * (1 + 1e-6))),
             "closed form")
    t.caught("mean shifted by 1%", check(edit("mean", lambda v: v * 1.01)), "fsum")
    t.caught("mean tripled (MC/EK factor)", check(edit("mean", lambda v: v * 3.0)), "MC/EK factor")
    swapped = copy.deepcopy(hitting)
    swapped[0]["mean"], swapped[1]["mean"] = swapped[1]["mean"], swapped[0]["mean"]
    t.caught("means swapped between epsilons", check(swapped), "does not rise")
    t.caught("one trajectory lost from the counts", check(edit("n_timeout", lambda v: v + 1)), "timeouts !=")
    t.caught("CI halved", check(edit("ci95_half_width", lambda v: v / 2)), "ci95")
    t.caught("CSV row dropped", check(hitting, rows[1:]), "trajectories.csv has")

    short = verify.shortest(rows, wl.rerun_per_eps)
    rerun = wl.rerun_alone(wl.rounds[0][0], hitting, short)
    t.clean("per-stream re-run", verify.check_streams(rows, rerun))
    moved = [list(r) for r in rows]
    victim = next(i for i, r in enumerate(moved) if r[:2] == short[0][:2])
    moved[victim][2] = f"{float(moved[victim][2]) + 1e-3:.9g}"
    t.caught("hit time of a short trajectory moved by one step", verify.check_streams(moved, rerun),
             "alone")


def committor(t: Tally):
    wl = one_round(Committor)
    est = wl.rounds[0][1]
    h = [e.h for e in est]
    hs = [e.h_star for e in est]
    to = [e.timeout_fraction for e in est]
    ball = len(wl.offsets) - 1

    def check(h=h, hs=hs, to=to):
        return verify.check_committor(h, hs, to, wl.n_traj, ball)

    t.clean("committor_profile", check())
    swapped = list(h)
    swapped[2 * ball], swapped[2 * ball + 1] = swapped[2 * ball + 1], swapped[2 * ball]
    t.caught("in-ball pair swapped", check(h=swapped), "in-ball")
    flipped = list(h)
    flipped[4] = 1.0 - flipped[4]  # pair 2: target and avoid exchanged at x
    t.caught("h(x) replaced by 1 - h(x)", check(h=flipped), "h(x) + h(-x)")
    flipped_star = list(hs)
    flipped_star[4] = 1.0 - flipped_star[4]
    t.caught("h*(x) replaced by 1 - h*(x)", check(hs=flipped_star), "h_star(x)")
    t.caught("a timeout reported", check(to=[1.0 / wl.n_traj] + to[1:]), "timeouts")


def flow_quadrature(t: Tally):
    wl = one_round(FlowQuadrature)
    t.clean("flow_quadrature", wl.verify())
    flows, outs = wl.rounds[0]
    wells = [float(m[0]) for m in wl.minima]
    x, f = wl.starts[0], flows[0]
    ref = verify.quartic_flow_limit(x, wl.gamma, wl.max_time)
    wrong = np.array([-f.limit_point[0], 0.0])
    t.caught("flow settles in the wrong well", verify.check_flow(wrong, f.energy_trace, ref, wells, wl.tol),
             "flow settles")
    rising = f.energy_trace.copy()
    rising[len(rising) // 2, 1] += 1e-6
    t.caught("energy trace rises once", verify.check_flow(f.limit_point, rising, ref, wells, wl.tol),
             "energy rises")

    cps = [c.location for c in wl.landscapes[0][1]]
    t.caught("spurious critical point", verify.check_critical_points(
        cps + [np.array([0.5])], [(-1.0,), (0.0,), (1.0,)]), "critical points")
    t.caught("critical point off by 1e-6", verify.check_critical_points(
        [cps[0] + 1e-6] + cps[1:], [(-1.0,), (0.0,), (1.0,)]), "critical points")

    cap = json.loads((outs[0] / "capacity.json").read_text())["capacity"]
    truncation = 0.25 + wl.cfgs[0]["quadrature"]["truncation_offset"]
    bumped = copy.deepcopy(cap)
    bumped[1]["z_eps"] *= 1 + 1e-6
    t.caught("z_eps off by 1e-6", verify.check_z_eps(bumped, truncation), "quad")
    for key in verify.RATIOS:
        stalled = copy.deepcopy(cap)
        by_eps = sorted(stalled, key=lambda r: -r["epsilon"])
        by_eps[2][key] = by_eps[1][key]  # smallest eps no closer to 1 than the middle one
        t.caught(f"{key} stops shrinking", verify.check_asymptotics(stalled), key)


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    t = Tally()
    for part in (committor, flow_quadrature, mean_time):
        part(t)
    print("self-test passed" if t.bad == 0 else f"self-test: {t.bad} expectation(s) not met")
    return int(t.bad != 0)


if __name__ == "__main__":
    sys.exit(main())
