"""Monte Carlo estimation of mean first-hitting times and committors.

Trajectories are embarrassingly parallel: each owns a Philox stream keyed by
(base_seed, stream_id), so estimates are reproducible and independent of how
the index range is partitioned across workers.  Statistics merge through a
fixed pairwise tree, which makes the reduction order (and hence the floating
point result) a function of the trajectory indices only.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .dynamics import (
    HIT_AVOID,
    HIT_TARGET,
    TIMEOUT,
    IntegratorConfig,
    StopSpec,
    _take,
    batch_hit_times,
)
from .errors import InputError, NumericsError
from .landscape import LandscapeReport
from .potentials import PotentialModel, hamiltonian


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise InputError("ball radius must be positive")


@dataclass(frozen=True)
class EnsembleConfig:
    model: PotentialModel
    epsilon: float
    gamma: float
    n_traj: int
    start: np.ndarray
    target: Ball
    avoid: Optional[Ball] = None
    integrator: IntegratorConfig = IntegratorConfig()
    base_seed: int = 0
    stream_base: int = 0

    def __post_init__(self):
        object.__setattr__(self, "start", np.asarray(self.start, dtype=float))
        if self.n_traj < 1:
            raise InputError("n_traj must be at least 1")
        if self.epsilon <= 0 or self.gamma <= 0:
            raise InputError("epsilon and gamma must be positive")
        if self.avoid is not None:
            gap = np.linalg.norm(self.target.center - self.avoid.center)
            if gap <= self.target.radius + self.avoid.radius:
                raise InputError("target and avoid balls must be disjoint")

    def stop_spec(self) -> StopSpec:
        return StopSpec(
            target_center=self.target.center,
            target_radius=self.target.radius,
            avoid_center=None if self.avoid is None else self.avoid.center,
            avoid_radius=0.0 if self.avoid is None else self.avoid.radius,
        )


@dataclass(frozen=True)
class HittingStats:
    n_completed: int
    n_timeout: int
    mean: float
    variance: float
    ci95_half_width: float
    min: float
    max: float
    wall_time: float
    base_seed: int
    stream_range: tuple
    # per trajectory, in stream order: hit times and HIT_*/TIMEOUT codes
    times: np.ndarray = field(repr=False, compare=False)
    reasons: np.ndarray = field(repr=False, compare=False)


def target_radius_for(epsilon: float, rule: str = "desk") -> float:
    """Ball radius rule: 'epsilon' is the asymptotic choice, 'desk' floors it.

    Hitting an epsilon-ball at small epsilon inflates runtime without moving
    the leading-order asymptotics, so the default keeps r >= 0.2.
    """
    if rule == "epsilon":
        return float(epsilon)
    if rule == "desk":
        return float(max(epsilon, 0.2))
    raise InputError(f"unknown radius rule {rule!r}")


def _pairwise_moments(values: np.ndarray):
    """(n, mean, M2) reduced over a fixed pairwise tree in index order."""
    stats = [(1, float(v), 0.0) for v in values]
    if not stats:
        return (0, 0.0, 0.0)
    while len(stats) > 1:
        merged = []
        for i in range(0, len(stats) - 1, 2):
            merged.append(_merge_moments(stats[i], stats[i + 1]))
        if len(stats) % 2:
            merged.append(stats[-1])
        stats = merged
    return stats[0]


def _merge_moments(a, b):
    na, ma, sa = a
    nb, mb, sb = b
    n = na + nb
    delta = mb - ma
    mean = ma + delta * nb / n
    m2 = sa + sb + delta * delta * na * nb / n
    return (n, mean, m2)


def _run_chunk(args):
    return batch_hit_times(*args)


def _run_ensemble(model, gamma, epsilon, starts, stop, config, stream_ids, jobs: int = 1):
    """``batch_hit_times`` over ``jobs`` worker processes, rows and per-row columns split in ranges."""
    n = len(starts)
    if jobs <= 1 or n < 2 * jobs:
        return batch_hit_times(model, gamma, epsilon, starts, stop, config, stream_ids)
    bounds = np.linspace(0, n, jobs + 1, dtype=int)
    tasks = [
        (model, gamma, _take(r, epsilon), starts[r],
         replace(stop, target_radius=_take(r, stop.target_radius), avoid_radius=_take(r, stop.avoid_radius)),
         replace(config, max_time=_take(r, config.max_time)), stream_ids[r])
        for r in (slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]))
        if r.stop > r.start
    ]
    times = np.empty(n)
    reasons = np.empty(n, dtype=np.int8)
    finals = np.empty_like(starts)
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(_run_chunk, tasks))
    at = 0
    for t, r, f in results:
        times[at : at + len(t)] = t
        reasons[at : at + len(t)] = r
        finals[at : at + len(t)] = f
        at += len(t)
    return times, reasons, finals


def _run_groups(cfg: EnsembleConfig, group_starts, blocks=None, jobs: int = 1):
    """Run several sub-ensembles of n_traj trajectories in one fused batch.

    Group g runs on stream block blocks[g] (default g), i.e. streams
    [stream_base + b n_traj, stream_base + (b+1) n_traj); per-trajectory
    noise is stream-keyed, so the fused run is bit-identical to running the
    groups separately (it just shares the slow tail across the batch).
    Groups given the same block share their streams (common random numbers),
    which couples trajectories across groups for low-variance comparisons of
    nearby starts.  Returns a list of (times, reasons) per group.
    """
    n = cfg.n_traj
    if blocks is None:
        blocks = range(len(group_starts))
    starts = np.concatenate([np.tile(np.asarray(s, dtype=float), (n, 1)) for s in group_starts])
    stream_ids = cfg.stream_base + np.concatenate([b * n + np.arange(n) for b in blocks])
    config = replace(cfg.integrator, rng_seed=cfg.base_seed)
    times, reasons, _ = _run_ensemble(cfg.model, cfg.gamma, cfg.epsilon, starts, cfg.stop_spec(),
                                      config, stream_ids, jobs)
    return [(times[g * n : (g + 1) * n], reasons[g * n : (g + 1) * n]) for g in range(len(group_starts))]


def estimate_mean_hitting_times(cfgs: Sequence[EnsembleConfig], jobs: int = 1) -> list:
    """Mean/variance/CI of the first hitting time of the target ball, per ensemble.

    The ensembles share model, gamma, scheme, dt, base seed, target center and
    avoid ball, and run as one ``batch_hit_times`` call with per-row epsilon,
    target radius and max_time, so they share one slow tail; noise is keyed by
    stream, so each path is that of a separate run.  Every HittingStats
    reports the fused call's wall time.  Timeouts are excluded from the
    moments but counted; an all-timeout ensemble is an estimation failure.
    """
    def shared(c):  # what a fused batch holds in common
        avoid = c.avoid and (c.avoid.center.tolist(), c.avoid.radius)
        return c.model, c.gamma, c.integrator.scheme, c.integrator.dt, c.base_seed, c.target.center.tolist(), avoid

    cfgs = list(cfgs)
    if not cfgs or any(shared(c) != shared(cfgs[0]) for c in cfgs):
        raise InputError("fused ensembles must share model, gamma, scheme, dt, seed, target center and avoid ball")
    if any(np.linalg.norm(c.start - c.target.center) <= c.target.radius for c in cfgs):
        raise InputError("start lies inside the target ball")
    t0 = time.perf_counter()
    sizes = [c.n_traj for c in cfgs]
    starts = np.concatenate([np.tile(c.start, (c.n_traj, 1)) for c in cfgs])
    stream_ids = np.concatenate([c.stream_base + np.arange(c.n_traj) for c in cfgs])
    stop = replace(cfgs[0].stop_spec(), target_radius=np.repeat([c.target.radius for c in cfgs], sizes))
    config = replace(cfgs[0].integrator, rng_seed=cfgs[0].base_seed,
                     max_time=np.repeat([c.integrator.max_time for c in cfgs], sizes))
    epsilon = np.repeat([c.epsilon for c in cfgs], sizes)
    all_times, all_reasons, _ = _run_ensemble(cfgs[0].model, cfgs[0].gamma, epsilon, starts, stop,
                                              config, stream_ids, jobs)
    wall = time.perf_counter() - t0
    out = []
    for cfg, at in zip(cfgs, np.cumsum(sizes) - sizes):
        times, reasons = all_times[at : at + cfg.n_traj], all_reasons[at : at + cfg.n_traj]
        hit = reasons == HIT_TARGET
        if not np.any(hit):
            raise NumericsError(f"all {cfg.n_traj} trajectories at epsilon={cfg.epsilon} "
                                f"timed out at max_time={cfg.integrator.max_time}")
        n, mean, m2 = _pairwise_moments(times[hit])
        variance = m2 / (n - 1) if n > 1 else 0.0
        out.append(HittingStats(
            n_completed=n, n_timeout=int((reasons == TIMEOUT).sum()), mean=mean, variance=variance,
            ci95_half_width=1.96 * np.sqrt(variance / n), min=float(times[hit].min()),
            max=float(times[hit].max()), wall_time=wall, base_seed=cfg.base_seed,
            stream_range=(int(cfg.stream_base), int(cfg.stream_base + cfg.n_traj)), times=times, reasons=reasons,
        ))
    return out


def estimate_mean_hitting_time(cfg: EnsembleConfig, jobs: int = 1) -> HittingStats:
    """``estimate_mean_hitting_times`` for one ensemble."""
    return estimate_mean_hitting_times([cfg], jobs)[0]


# -- committor estimation -------------------------------------------------------


@dataclass(frozen=True)
class CommittorEstimate:
    x: np.ndarray
    h: float          # P_x(tau_M < tau_S)
    h_star: float     # same estimate started from (q, -p)
    n: int
    ci95: float
    timeout_fraction: float
    unreliable: bool


def estimate_equilibrium_potential(
    cfg: EnsembleConfig,
    points: Sequence,
    jobs: int = 1,
) -> list:
    """Committor h(x) = P(hit target ball before avoid ball) at given points.

    h_star re-runs each point with reversed momentum; at p = 0 that is the
    same start, so h_star = h without a second run.  Point k runs on stream
    block 2k and its reversed start on block 2k + 1.  Points whose timeout
    fraction exceeds one half are flagged unreliable.
    """
    if cfg.avoid is None:
        raise InputError("committor estimation needs both target and avoid balls")
    d = cfg.model.dimension
    xs = [np.asarray(point, dtype=float) for point in points]
    group_starts, blocks, pairs = [], [], []
    for k, x in enumerate(xs):
        forward = reverse = len(group_starts)
        group_starts.append(x)
        blocks.append(2 * k)
        if np.any(x[d:] != 0.0):
            reverse = len(group_starts)
            group_starts.append(np.concatenate([x[:d], -x[d:]]))
            blocks.append(2 * k + 1)
        pairs.append((forward, reverse))
    groups = _run_groups(cfg, group_starts, blocks, jobs)

    def fractions(group):
        _, reasons = groups[group]
        n_m = int((reasons == HIT_TARGET).sum())
        n_to = int((reasons == TIMEOUT).sum())
        return n_m / cfg.n_traj, n_to / cfg.n_traj

    out = []
    for x, (forward, reverse) in zip(xs, pairs):
        h, to_frac = fractions(forward)
        h_star, _ = fractions(reverse)
        out.append(
            CommittorEstimate(
                x=x,
                h=h,
                h_star=h_star,
                n=cfg.n_traj,
                ci95=1.96 * np.sqrt(h * (1 - h) / cfg.n_traj),
                timeout_fraction=to_frac,
                unreliable=bool(to_frac > 0.5),
            )
        )
    return out


# -- Arrhenius slope -------------------------------------------------------------


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float


def barrier_slope_fit(series) -> SlopeFit:
    """Least-squares fit of log(mean time) against 1/epsilon.

    The slope estimates the energy barrier, the intercept log of the
    prefactor.
    """
    eps = np.array([e for e, _ in series], dtype=float)
    means = np.array([s.mean if isinstance(s, HittingStats) else float(s) for _, s in series])
    if len(np.unique(eps)) < 3:
        raise InputError("slope fit needs at least 3 distinct epsilon values")
    if np.any(means <= 0):
        raise InputError("mean hitting times must be positive")
    x = 1.0 / eps
    y = np.log(means)
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return SlopeFit(slope=float(coef[0]), intercept=float(coef[1]), r_squared=r2)


# -- start insensitivity ------------------------------------------------------------


@dataclass(frozen=True)
class InsensitivityReport:
    epsilon: float
    beta: float
    radius: float
    means: np.ndarray       # index 0 is the ball center
    max_relative_spread: float


def start_insensitivity_probe(
    cfg: EnsembleConfig,
    beta: float,
    n_points: int,
    jobs: int = 1,
    share_streams: bool = True,
) -> InsensitivityReport:
    """Spread of mean hitting times across starts in the ball B(start, eps^beta).

    Reports max_i |mean_i / mean_0 - 1| where index 0 is the ball center;
    the sampled starts are uniform in the phase-space ball.  By default the
    per-start ensembles share their noise streams (common random numbers):
    trajectories from nearby starts couple, so the spread estimate compares
    paired samples instead of independent ones.
    """
    if not 0.5 < beta <= 1.0:
        raise InputError("beta must lie in (1/2, 1]")
    radius = cfg.epsilon**beta
    dim = len(cfg.start)
    rng = np.random.default_rng(cfg.base_seed ^ 0x5EED)
    starts = [cfg.start]
    for _ in range(n_points):
        direction = rng.standard_normal(dim)
        direction /= np.linalg.norm(direction)
        r = radius * rng.uniform() ** (1.0 / dim)
        starts.append(cfg.start + r * direction)
    means = []
    blocks = [0] * len(starts) if share_streams else None
    for times, reasons in _run_groups(cfg, starts, blocks, jobs):
        hit = reasons == HIT_TARGET
        if not np.any(hit):
            raise NumericsError("a probe start produced no completed trajectories")
        _, mean, _ = _pairwise_moments(times[hit])
        means.append(mean)
    means = np.array(means)
    spread = float(np.max(np.abs(means / means[0] - 1.0))) if radius > 0 else 0.0
    return InsensitivityReport(
        epsilon=cfg.epsilon,
        beta=float(beta),
        radius=float(radius),
        means=means,
        max_relative_spread=spread,
    )


# -- committor envelope check ----------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeReport:
    slope: float
    intercept: float
    n_used: int
    conclusive: bool


def committor_envelope_check(
    estimates: Sequence[CommittorEstimate],
    report: LandscapeReport,
    model: PotentialModel,
    epsilon: float,
    resolve_floor: Optional[float] = None,
) -> EnvelopeReport:
    """Regress log(1 - h) on (V(x) - V(sigma,0)) / epsilon.

    The sharp committor envelope predicts unit slope with a polynomial
    prefactor absorbed into the intercept; the check is conclusive when at
    least three points resolve 1 - h above the Monte Carlo floor.
    """
    v_sigma = report.saddle.energy
    xs, ys = [], []
    for est in estimates:
        floor = resolve_floor if resolve_floor is not None else 3.0 / est.n
        one_minus = 1.0 - est.h
        if one_minus < floor or est.h <= 0.0 or est.unreliable:
            continue
        xs.append((hamiltonian(model, est.x) - v_sigma) / epsilon)
        ys.append(np.log(one_minus))
    if len(xs) < 3:
        return EnvelopeReport(slope=float("nan"), intercept=float("nan"), n_used=len(xs), conclusive=False)
    A = np.stack([np.array(xs), np.ones(len(xs))], axis=1)
    coef, _, _, _ = np.linalg.lstsq(A, np.array(ys), rcond=None)
    return EnvelopeReport(slope=float(coef[0]), intercept=float(coef[1]), n_used=len(xs), conclusive=True)
