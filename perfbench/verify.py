"""Correctness checks on the outputs of each workload.

Every check returns a list of failure messages; an empty list is a pass.
The checks compare with values computed here, apart from the program
(closed forms, ``math.fsum`` sums, ``scipy`` integrators), or test a
property the method must have. They take plain data, so the self-tests can
feed them corrupted copies of real outputs.
"""

from __future__ import annotations

import math

import numpy as np

# -- mc_mean_time ----------------------------------------------------------------


def closed_form_mean_time(epsilon: float, gamma: float) -> float:
    """(2 pi / mu) sqrt(|U''(0)| / U''(1)) e^{1/(4 eps)} for U = (q^2 - 1)^2 / 4."""
    mu = 0.5 * (-gamma + math.sqrt(gamma * gamma + 4.0))
    return 2.0 * math.pi / mu * math.sqrt(1.0 / 2.0) * math.exp(0.25 / epsilon)


def check_mean_time(hitting: list, rows: list, gamma: float, n_traj: int) -> list:
    """hitting: the ``hitting`` list of hitting.json; rows: trajectories.csv rows."""
    bad = []
    for rec in hitting:
        eps = rec["epsilon"]
        expect = closed_form_mean_time(eps, gamma)
        if abs(rec["predicted_mean_time"] - expect) > 1.0e-9 * expect:
            bad.append(f"eps={eps}: predicted_mean_time {rec['predicted_mean_time']!r} != closed form {expect!r}")
        factor = rec["mean"] / expect
        if not 0.4 <= factor <= 2.5:
            bad.append(f"eps={eps}: MC/EK factor {factor:.3f} outside [0.4, 2.5]")
        if rec["n_completed"] + rec["n_timeout"] != n_traj:
            bad.append(f"eps={eps}: {rec['n_completed']} completed + {rec['n_timeout']} timeouts != {n_traj}")
        mine = [r for r in rows if float(r[0]) == eps]
        done = [float(r[2]) for r in mine if r[3] == "hit_target"]
        if len(mine) != n_traj or len(done) != rec["n_completed"]:
            bad.append(f"eps={eps}: trajectories.csv has {len(mine)} rows, {len(done)} hits")
            continue
        n = len(done)
        mean = math.fsum(done) / n
        var = math.fsum((t - mean) ** 2 for t in done) / (n - 1)
        ci = 1.96 * math.sqrt(var / n)
        # the CSV carries 9 significant digits
        if abs(rec["mean"] - mean) > 1.0e-7 * mean:
            bad.append(f"eps={eps}: mean {rec['mean']!r} != fsum of trajectories.csv {mean!r}")
        if abs(rec["ci95_half_width"] - ci) > 1.0e-6 * ci:
            bad.append(f"eps={eps}: ci95 {rec['ci95_half_width']!r} != recomputed {ci!r}")
    by_eps = sorted(hitting, key=lambda r: -r["epsilon"])
    for hi, lo in zip(by_eps, by_eps[1:]):
        if not lo["mean"] > hi["mean"]:
            bad.append(f"mean does not rise as eps falls: {hi['epsilon']}->{hi['mean']:.3f}, "
                       f"{lo['epsilon']}->{lo['mean']:.3f}")
    return bad


def shortest(rows: list, per_eps: int) -> list:
    """The ``per_eps`` shortest completed trajectories of each epsilon, as CSV rows."""
    out = []
    for eps in sorted({r[0] for r in rows}):
        done = [r for r in rows if r[0] == eps and r[3] == "hit_target"]
        out += sorted(done, key=lambda r: float(r[2]))[:per_eps]
    return out


def check_streams(rows: list, rerun: dict) -> list:
    """rerun maps (epsilon string, trajectory id) to the hit time of a one-row re-run."""
    bad = []
    index = {(r[0], int(r[1])): r[2] for r in rows}
    for key, t in rerun.items():
        if index.get(key) != f"{t:.9g}":
            bad.append(f"eps={key[0]} trajectory {key[1]}: alone {t:.9g}, in the ensemble {index.get(key)}")
    return bad


# -- committor_profile -------------------------------------------------------------


def check_committor(h: list, h_star: list, timeout: list, n: int, in_ball: int) -> list:
    """Points come in pairs (x, -x) at indices (2k, 2k+1); pair ``in_ball`` has x in the target ball."""
    bad = []
    for name, vals in (("h", h), ("h_star", h_star)):
        for k in range(0, len(vals), 2):
            a, b = vals[k], vals[k + 1]
            se = math.sqrt((a * (1 - a) + b * (1 - b)) / n)
            if abs(a + b - 1.0) > 4.0 * se:
                bad.append(f"pair {k // 2}: {name}(x) + {name}(-x) = {a + b:.4f}, 4 SE = {4 * se:.4f}")
    if h[2 * in_ball] != 1.0 or h[2 * in_ball + 1] != 0.0:
        bad.append(f"in-ball points give h = {h[2 * in_ball]}, {h[2 * in_ball + 1]}, not 1 and 0")
    if any(t != 0.0 for t in timeout):
        bad.append(f"timeouts: {timeout}")
    return bad


# -- flow_quadrature ------------------------------------------------------------------


def quartic_flow_limit(start, gamma: float, t_end: float) -> np.ndarray:
    """End point of q' = p, p' = -(q^3 - q) - gamma p by scipy's DOP853 at rtol 1e-10."""
    from scipy.integrate import solve_ivp

    def field(_t, x):
        return [x[1], -(x[0] ** 3 - x[0]) - gamma * x[1]]

    sol = solve_ivp(field, (0.0, t_end), np.asarray(start, dtype=float), method="DOP853",
                    rtol=1.0e-10, atol=1.0e-12)
    return sol.y[:, -1]


def check_flow(limit_point, energy_trace, reference_end, minima, tol: float) -> list:
    """The flow settles to the minimum the reference integration reaches; V never rises."""
    bad = []
    wells = [np.array([m, 0.0]) for m in minima]
    ref = min(wells, key=lambda w: np.linalg.norm(reference_end - w))
    if np.linalg.norm(reference_end - ref) > tol:
        bad.append(f"reference integration ends at {reference_end}, not at a minimum")
    if limit_point is None or np.linalg.norm(np.asarray(limit_point) - ref) > tol:
        bad.append(f"flow settles at {limit_point}, reference at {ref}")
    tr = np.asarray(energy_trace)
    rates = np.diff(tr[:, 1]) / np.maximum(np.diff(tr[:, 0]), 1.0e-12)
    # the tolerance of the shipped zero_noise_flow check: RK4 round-off only
    if rates.size and rates.max() > 1.0e-8:
        bad.append(f"energy rises at rate {rates.max():.3g}")
    return bad


def check_critical_points(points: list, expected: list) -> list:
    pts = sorted(tuple(np.atleast_1d(p).tolist()) for p in points)
    want = sorted(tuple(p) for p in expected)
    if len(pts) != len(want) or any(
        max(abs(a - b) for a, b in zip(p, w)) > 1.0e-9 for p, w in zip(pts, want)
    ):
        return [f"critical points {pts}, expected {want}"]
    return []


def partition_quad_1d(epsilon: float, truncation: float) -> float:
    """Int e^{-U/eps} sqrt(2 pi eps) erf(sqrt((T - U)/eps)) dq over {U <= T}, by scipy quad."""
    from scipy.integrate import quad
    from scipy.special import erf

    edge = math.sqrt(1.0 + 2.0 * math.sqrt(truncation))  # U(edge) = T

    def f(q):
        u = (q * q - 1.0) ** 2 / 4.0
        return math.exp(-u / epsilon) * math.sqrt(2 * math.pi * epsilon) * erf(
            math.sqrt(max(truncation - u, 0.0) / epsilon))

    val, _ = quad(f, -edge, edge, points=[-1.0, 0.0, 1.0], epsabs=0.0, epsrel=1.0e-13, limit=400)
    return val


def check_z_eps(capacity: list, truncation: float) -> list:
    bad = []
    for rec in capacity:
        ref = partition_quad_1d(rec["epsilon"], truncation)
        if abs(rec["z_eps"] - ref) > 1.0e-8 * ref:
            bad.append(f"eps={rec['epsilon']}: z_eps {rec['z_eps']!r} != quad {ref!r}")
    return bad


RATIOS = ("z_laplace_ratio", "numerator_ratio", "capacity_ratio", "ek_cross_check_ratio")


def check_asymptotics(capacity: list) -> list:
    """|ratio - 1| strictly shrinks as epsilon decreases, for every ratio."""
    bad = []
    by_eps = sorted(capacity, key=lambda r: -r["epsilon"])
    for key in RATIOS:
        gaps = [abs(r[key] - 1.0) for r in by_eps]
        if any(b >= a for a, b in zip(gaps, gaps[1:])):
            bad.append(f"{key}: |ratio - 1| = {gaps} does not shrink as eps falls")
    return bad
