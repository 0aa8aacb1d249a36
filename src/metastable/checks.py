"""Acceptance checks: one named, parameterized check per exit criterion.

The same registry backs the ``verify`` CLI subcommand and the acceptance
test suite, so there is a single source of truth for tolerances and seeds.
Every check returns a CheckResult with the measured quantities in
``details``; tolerances live in the check defaults, not in callers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import capacity as cap
from . import hitting as hit
from . import lyapunov as lyap
from .errors import NumericsError
from .dynamics import (
    NOISE_CHUNK,
    OBABO,
    IntegratorConfig,
    ProcessKind,
    _advance,
    _step_coefs,
    batch_zero_noise_flow,
    evolve_linearization_covariance,
    noise_block,
)
from .landscape import build_landscape, find_critical_points
from .potentials import (
    PotentialModel,
    check_growth_conditions,
    polynomial_potential,
    quartic_double_well,
    saddle_quadratic_model,
    separable_double_well,
)
from .rates import (
    OVERDAMPED,
    UNDERDAMPED,
    build_saddle_frame,
    compute_mu,
    ek_prediction,
    frame_from_hessian,
    verify_frame_identities,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    runtime: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.runtime:.1f}s)"


def _quartic_setup(gamma: float = 1.0):
    model = quartic_double_well()
    cps = find_critical_points(model, [(-2.0, 2.0)], 9)
    report = build_landscape(model, cps, start_well_hint=[1.0])
    frame = build_saddle_frame(model, report, gamma)
    return model, report, frame


def _random_morse_saddle(rng, d):
    """Random symmetric matrix with exactly one negative eigenvalue."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eig = np.concatenate([[-rng.uniform(0.5, 3.0)], rng.uniform(0.5, 4.0, size=d - 1)])
    return q @ np.diag(eig) @ q.T


# -- 1. spectral identities -------------------------------------------------------


def check_spectral_identities(n_random: int = 10, seed: int = 2024) -> CheckResult:
    t0 = time.perf_counter()
    model, report, frame = _quartic_setup()
    mu_expected = (np.sqrt(5.0) - 1.0) / 2.0
    idr = verify_frame_identities(frame)
    ok = (
        abs(report.lambda_sigma - 1.0) < 1.0e-12
        and abs(frame.mu - mu_expected) < 1.0e-12
        and abs(frame.mu * (frame.mu + 1.0) - 1.0) < 1.0e-12
        and idr.eigen_residual < 1.0e-10
        and idr.sum_identity_residual < 1.0e-10
        and idr.shifted_min_abs_eigenvalue < 1.0e-9
        and idr.shifted_second_eigenvalue > 1.0e-9
    )
    rng = np.random.default_rng(seed)
    worst = {"eigen": idr.eigen_residual, "sum": idr.sum_identity_residual,
             "kernel": idr.shifted_min_abs_eigenvalue}
    for k in range(n_random):
        d = 2 + (k % 2)
        gamma = rng.uniform(0.3, 3.0)
        fr = frame_from_hessian(_random_morse_saddle(rng, d), gamma)
        rep = verify_frame_identities(fr)
        ok = ok and rep.passed
        worst["eigen"] = max(worst["eigen"], rep.eigen_residual)
        worst["sum"] = max(worst["sum"], rep.sum_identity_residual)
        worst["kernel"] = max(worst["kernel"], rep.shifted_min_abs_eigenvalue)
    return CheckResult("spectral_identities", bool(ok), time.perf_counter() - t0, worst)


# -- 2. prefactor arithmetic --------------------------------------------------------


def check_prefactor_arithmetic(n_random: int = 20, seed: int = 7) -> CheckResult:
    t0 = time.perf_counter()
    model, report, frame = _quartic_setup()
    under = ek_prediction(report, frame, 0.15, UNDERDAMPED)
    over = ek_prediction(report, frame, 0.15, OVERDAMPED)
    kappa_under = 2.0 * np.pi / frame.mu * np.sqrt(0.5)
    ok = abs(under.prefactor - 7.18873) < 1.0e-4 and abs(over.prefactor - 4.44288) < 1.0e-4
    ok = ok and abs(under.prefactor - kappa_under) < 1.0e-12
    rng = np.random.default_rng(seed)
    max_ratio_resid = 0.0
    for _ in range(n_random):
        gamma = rng.uniform(0.2, 5.0)
        lam1 = rng.uniform(0.2, 5.0)
        mu = compute_mu(gamma, lam1)
        ratio = lam1 / mu  # kappa_under / kappa_over
        max_ratio_resid = max(max_ratio_resid, abs(ratio - (mu + gamma)))
    ok = ok and max_ratio_resid < 1.0e-12
    return CheckResult(
        "prefactor_arithmetic",
        bool(ok),
        time.perf_counter() - t0,
        {
            "kappa_under": under.prefactor,
            "kappa_over": over.prefactor,
            "max_ratio_residual": max_ratio_resid,
        },
    )


# -- 3. test-function harmonicity ------------------------------------------------------


def check_harmonicity(epsilon: float = 0.02, K: float = 4.0, n_samples: int = 1000,
                      seed: int = 5) -> CheckResult:
    t0 = time.perf_counter()
    model, report, frame = _quartic_setup()
    test = cap.build_test_function(model, frame, epsilon, K)
    hr = cap.harmonicity_residual(frame, test, model, 1.0, epsilon, n_samples, seed)
    # exact-quadratic control: the full generator annihilates j
    ctrl = saddle_quadratic_model(report.saddle.location, model.hessian(report.saddle.location),
                                  float(report.saddle.energy))
    ctrl_frame = build_saddle_frame_like(ctrl, frame)
    ctrl_test = cap.build_test_function(ctrl, ctrl_frame, epsilon, K)
    hr_ctrl = cap.harmonicity_residual(ctrl_frame, ctrl_test, ctrl, 1.0, epsilon, n_samples, seed)
    ok = hr.max_quadratic_residual < 1.0e-9 and hr_ctrl.mean_full_residual < 1.0e-9
    return CheckResult(
        "test_function_harmonicity",
        bool(ok),
        time.perf_counter() - t0,
        {
            "max_quadratic_residual": hr.max_quadratic_residual,
            "control_full_residual": hr_ctrl.mean_full_residual,
            "integral_ratio": hr.integral_ratio,
        },
    )


def build_saddle_frame_like(model: PotentialModel, frame) -> "object":
    """Frame for a model sharing the reference frame's saddle geometry."""
    d = model.dimension
    return frame_from_hessian(
        model.hessian(frame.center[:d]),
        frame.gamma,
        sigma=frame.center[:d],
        m_direction=frame.m_side * frame.basis[:d, 0],
        det_hu_m=frame.det_hu_m,
        barrier=frame.barrier,
    )


# -- 4. capacity quadrature vs alpha ----------------------------------------------------


def check_capacity_vs_alpha(eps_main: float = 0.02, eps_coarse: float = 0.05,
                            K: float = 4.0) -> CheckResult:
    t0 = time.perf_counter()
    model, report, frame = _quartic_setup()
    quad = cap.QuadratureConfig()
    ce_main = cap.boundary_capacity_integral(model, frame, eps_main, K, quad, report=report)
    ce_coarse = cap.boundary_capacity_integral(model, frame, eps_coarse, K, quad, report=report)
    ok = (
        0.85 <= ce_main.ratio <= 1.15
        and ce_main.minus_ratio < 0.05
        and abs(ce_main.ratio - 1.0) < abs(ce_coarse.ratio - 1.0)
    )
    return CheckResult(
        "capacity_vs_alpha",
        bool(ok),
        time.perf_counter() - t0,
        {
            "ratio": ce_main.ratio,
            "minus_ratio": ce_main.minus_ratio,
            "ratio_coarse": ce_coarse.ratio,
            "exact_v_ratio": ce_main.exact_v_ratio,
            "quadratic_gap": ce_main.quadratic_gap,
        },
    )


# -- 5. numerator vs Laplace --------------------------------------------------------------


def check_numerator_vs_laplace(eps_main: float = 0.02, eps_coarse: float = 0.05) -> CheckResult:
    t0 = time.perf_counter()
    model, report, _ = _quartic_setup()
    quad = cap.QuadratureConfig()
    nr_main = cap.numerator_integral(model, report, eps_main, quad)
    nr_coarse = cap.numerator_integral(model, report, eps_coarse, quad)
    ok = 0.9 <= nr_main.ratio <= 1.1 and abs(nr_main.ratio - 1.0) < abs(nr_coarse.ratio - 1.0)
    return CheckResult(
        "numerator_vs_laplace",
        bool(ok),
        time.perf_counter() - t0,
        {"ratio": nr_main.ratio, "ratio_coarse": nr_coarse.ratio, "margin": nr_main.margin},
    )


# -- 6. end-to-end ratio identity -----------------------------------------------------------


def check_end_to_end_ratio(epsilon: float = 0.02, K: float = 4.0) -> CheckResult:
    t0 = time.perf_counter()
    model, report, frame = _quartic_setup()
    quad = cap.QuadratureConfig()
    ce = cap.boundary_capacity_integral(model, frame, epsilon, K, quad, report=report)
    nr = cap.numerator_integral(model, report, epsilon, quad, K, z_eps=ce.z_eps)
    pt = cap.predicted_time_ratio(nr, ce, report, frame)
    ctrl = cap.exact_quadratic_control(gamma=1.0, epsilon=epsilon, K=K)
    ok = 0.8 <= pt.ek_cross_check_ratio <= 1.25 and abs(ctrl.ek_cross_check_ratio - 1.0) <= 0.01
    return CheckResult(
        "end_to_end_ratio",
        bool(ok),
        time.perf_counter() - t0,
        {
            "ek_cross_check_ratio": pt.ek_cross_check_ratio,
            "control_ratio": ctrl.ek_cross_check_ratio,
            "control_capacity_ratio": ctrl.capacity_ratio,
        },
    )


# -- 7. Monte Carlo Eyring-Kramers -------------------------------------------------------------


def check_monte_carlo_ek(
    n_traj: int = 2000,
    dt: float = 1.0e-3,
    r_target: float = 0.2,
    eps_factor=(0.25, 0.2),
    eps_slope=(0.3, 0.25, 0.2),
    base_seed: int = 11,
    jobs: int = 1,
) -> CheckResult:
    t0 = time.perf_counter()
    model, report, frame = _quartic_setup()
    target = hit.Ball(np.concatenate([report.minimum_s.location, [0.0]]), r_target)
    start = np.concatenate([report.minimum_m.location, [0.0]])
    all_eps = sorted(set(eps_factor) | set(eps_slope), reverse=True)
    preds = [ek_prediction(report, frame, eps).predicted_mean_time for eps in all_eps]
    cfgs = [
        hit.EnsembleConfig(
            model=model,
            epsilon=eps,
            gamma=1.0,
            n_traj=n_traj,
            start=start,
            target=target,
            integrator=IntegratorConfig(scheme=OBABO, dt=dt, max_time=50.0 * pred),
            base_seed=base_seed,
            stream_base=i * n_traj,
        )
        for i, (eps, pred) in enumerate(zip(all_eps, preds))
    ]
    series = list(zip(all_eps, hit.estimate_mean_hitting_times(cfgs, jobs=jobs)))
    factors = {eps: s.mean / pred for (eps, s), pred in zip(series, preds) if eps in eps_factor}
    fit = hit.barrier_slope_fit([(e, s) for e, s in series if e in eps_slope])
    barrier = report.barrier_from_m
    ok = all(0.4 <= f <= 2.5 for f in factors.values()) and abs(fit.slope - barrier) <= 0.25 * barrier
    return CheckResult(
        "monte_carlo_ek",
        bool(ok),
        time.perf_counter() - t0,
        {
            "factors": {str(k): v for k, v in factors.items()},
            "slope": fit.slope,
            "r_squared": fit.r_squared,
            "means": {str(e): s.mean for e, s in series},
        },
    )


# -- 8. start insensitivity ---------------------------------------------------------------------


def check_start_insensitivity(
    epsilon: float = 0.15,
    beta: float = 0.75,
    n_points: int = 5,
    n_traj: int = 1000,
    dt: float = 2.0e-3,
    trend_eps=(0.2, 0.1),
    trend_seeds: int = 10,
    trend_traj: int = 600,
    trend_points: int = 3,
    base_seed: int = 23,
    jobs: int = 1,
) -> CheckResult:
    t0 = time.perf_counter()
    model, report, frame = _quartic_setup()
    start = np.concatenate([report.minimum_m.location, [0.0]])

    def probe(eps, n, pts, seed, dt_probe):
        # truncation at 15x the predicted mean biases the mean by < e^-15
        pred = ek_prediction(report, frame, eps)
        cfg = hit.EnsembleConfig(
            model=model,
            epsilon=eps,
            gamma=1.0,
            n_traj=n,
            start=start,
            target=hit.Ball(
                np.concatenate([report.minimum_s.location, [0.0]]),
                hit.target_radius_for(eps),
            ),
            integrator=IntegratorConfig(
                scheme=OBABO, dt=dt_probe, max_time=15.0 * pred.predicted_mean_time
            ),
            base_seed=seed,
        )
        return hit.start_insensitivity_probe(cfg, beta, pts, jobs=jobs)

    main = probe(epsilon, n_traj, n_points, base_seed, dt)
    wins = 0
    trend = []
    for s in range(trend_seeds):
        spreads = {
            eps: probe(eps, trend_traj, trend_points, base_seed + 1000 + s, 4.0e-3).max_relative_spread
            for eps in trend_eps
        }
        trend.append(spreads)
        if spreads[min(trend_eps)] <= spreads[max(trend_eps)]:
            wins += 1
    ok = main.max_relative_spread <= 0.25 and wins > trend_seeds // 2
    return CheckResult(
        "start_insensitivity",
        bool(ok),
        time.perf_counter() - t0,
        {
            "spread": main.max_relative_spread,
            "trend_wins": wins,
            "trend_seeds": trend_seeds,
        },
    )


# -- 9. committor plateau and envelope -------------------------------------------------------------


def check_committor(
    eps_plateau: float = 0.1,
    eps_envelope: float = 0.12,
    n_traj: int = 2000,
    dt: float = 1.0e-3,
    base_seed: int = 31,
    jobs: int = 1,
) -> CheckResult:
    t0 = time.perf_counter()
    model, report, _ = _quartic_setup()
    m_ball = hit.Ball(np.concatenate([report.minimum_m.location, [0.0]]), 0.2)
    s_ball = hit.Ball(np.concatenate([report.minimum_s.location, [0.0]]), 0.2)

    def committor_cfg(eps, seed):
        return hit.EnsembleConfig(
            model=model,
            epsilon=eps,
            gamma=1.0,
            n_traj=n_traj,
            start=np.zeros(2),
            target=m_ball,
            avoid=s_ball,
            integrator=IntegratorConfig(scheme=OBABO, dt=dt, max_time=5.0e4),
            base_seed=seed,
        )

    # boundary conditions are exact by the hit-at-time-zero path
    bc = hit.estimate_equilibrium_potential(
        committor_cfg(eps_plateau, base_seed),
        [np.concatenate([report.minimum_m.location, [0.0]]),
         np.concatenate([report.minimum_s.location, [0.0]])],
        jobs=jobs,
    )
    plateau = hit.estimate_equilibrium_potential(
        committor_cfg(eps_plateau, base_seed + 1), [np.array([0.5, 0.0])], jobs=jobs
    )[0]
    qs = np.linspace(0.2, 0.8, 6)
    points = [np.array([q, 0.0]) for q in qs]
    estimates = hit.estimate_equilibrium_potential(
        committor_cfg(eps_envelope, base_seed + 2), points, jobs=jobs
    )
    env = hit.committor_envelope_check(estimates, report, model, eps_envelope)
    ok = (
        bc[0].h == 1.0
        and bc[1].h == 0.0
        and plateau.h >= 0.9
        and env.conclusive
        and env.slope >= 0.5
    )
    return CheckResult(
        "committor_plateau_envelope",
        bool(ok),
        time.perf_counter() - t0,
        {
            "h_at_half": plateau.h,
            "envelope_slope": env.slope,
            "envelope_points": env.n_used,
            "h_values": [e.h for e in estimates],
        },
    )


# -- 10. Lyapunov suites ------------------------------------------------------------------------------


def check_lyapunov_suites(n_samples: int = 10_000, seed: int = 41) -> CheckResult:
    t0 = time.perf_counter()
    model, report, _ = _quartic_setup()
    growth = check_growth_conditions(model, 0.1, np.linspace(1.5, 10.0, 8))
    gl = lyap.build_global_lyapunov(model, 1.0, seed=seed)
    global_ok = growth.passed
    global_max = -np.inf
    for eps in (0.5, 0.99):
        rep = lyap.verify_global_lyapunov(gl, model, 1.0, eps, n_samples, seed)
        global_ok = global_ok and rep.n_violations == 0
        global_max = max(global_max, rep.max_residual)
    ll = lyap.build_local_lyapunov(model, report.minimum_m.location, 1.0, seed=seed)
    loc = lyap.verify_local_inequalities(ll, model, 1.0, 0.1, n_samples, seed)
    ok = global_ok and loc.n_violations == 0
    return CheckResult(
        "lyapunov_suites",
        bool(ok),
        time.perf_counter() - t0,
        {
            "global_max_residual": global_max,
            "local_drift_max": loc.max_drift_residual,
            "local_exponential_max": loc.max_exponential_residual,
            "rho": ll.rho,
            "alpha": ll.alpha,
        },
    )


# -- 11. linearization covariance ----------------------------------------------------------------------


def check_linearization_covariance(omega_sq: float = 2.0, gamma: float = 1.0,
                                   T: float = 40.0) -> CheckResult:
    t0 = time.perf_counter()
    well = polynomial_potential(1, [(0.5 * omega_sq, (2,))])
    res = evolve_linearization_covariance(well, gamma, [0.0], T=T, dt=1.0e-3)
    expected = np.diag([1.0 / (2 * gamma * omega_sq), 1.0 / (2 * gamma)])
    limit_err = float(np.max(np.abs(res.sigma_limit - expected)))
    half = len(res.times) // 2
    tail_t = res.times[half:]
    tail_f = res.frobenius_trace[half:]
    mask = tail_f > 1.0e-13
    slope = float(np.polyfit(tail_t[mask], np.log(tail_f[mask]), 1)[0]) if mask.sum() > 3 else 0.0
    psd_ok = all(np.min(np.linalg.eigvalsh(s)) > -1.0e-12 for s in res.sigmas[:: max(1, len(res.sigmas) // 20)])
    ok = limit_err < 1.0e-8 and slope < 0 and psd_ok
    return CheckResult(
        "linearization_covariance",
        bool(ok),
        time.perf_counter() - t0,
        {"limit_error": limit_err, "tail_slope": slope},
    )


# -- 12. zero-noise flow ---------------------------------------------------------------------------------


def _zero_noise_flow_starts(model, report, n_starts: int = 100) -> np.ndarray:
    """The check's starts: n_starts points of a 14 x 14 (q, p) grid in W_m, below the saddle energy."""
    qs, ps = np.linspace(0.08, 1.30, 14), np.linspace(-0.55, 0.55, 14)
    starts = [[q, p] for q in qs for p in ps
              if model.energy([q]) + 0.5 * p * p < report.saddle.energy - 1.0e-3]
    if len(starts) < n_starts:
        raise NumericsError(f"only {len(starts)} grid starts found inside the well")
    stride = max(1, len(starts) // n_starts)
    return np.array(starts[::stride][:n_starts])


def check_zero_noise_flow(n_starts: int = 100, tol: float = 1.0e-6,
                          drift_tol: float = 1.0e-8) -> CheckResult:
    t0 = time.perf_counter()
    model, report, _ = _quartic_setup()
    target = np.concatenate([report.minimum_m.location, [0.0]])
    minima = np.array([report.minimum_m.location, report.minimum_s.location])
    starts = _zero_noise_flow_starts(model, report, n_starts)
    all_settle = True
    worst_drift = -np.inf
    for res in batch_zero_noise_flow(model, 1.0, starts, tol=tol, max_time=300.0, minima=minima):
        settled = res.converged and np.linalg.norm(res.limit_point - target) < tol
        all_settle = all_settle and settled
        tr = res.energy_trace
        rates = np.diff(tr[:, 1]) / np.maximum(np.diff(tr[:, 0]), 1.0e-12)
        worst_drift = max(worst_drift, float(rates.max()))
    ok = all_settle and worst_drift <= drift_tol and len(starts) == n_starts
    return CheckResult(
        "zero_noise_flow",
        bool(ok),
        time.perf_counter() - t0,
        {"n_starts": len(starts), "max_energy_increase_rate": worst_drift},
    )


# -- 13. tightness probe -----------------------------------------------------------------------------------


def check_tightness(levels=(0.1, 0.3), eps_grid=(0.1, 0.05, 0.02)) -> CheckResult:
    t0 = time.perf_counter()
    model, report, _ = _quartic_setup()
    quad = cap.QuadratureConfig()
    ok = True
    values = {}
    for a in levels:
        probe = cap.tightness_probe(model, a, eps_grid, quad, report=report)
        ok = ok and probe.bounded
        values[str(a)] = probe.values.tolist()
    z = cap.partition_function(model, eps_grid[0], quadrature=quad, report=report).z_eps
    zero_probe = cap.tightness_probe(model, 0.0, [eps_grid[0]], quad, report=report)
    rel = abs(zero_probe.values[0] - z) / z
    ok = ok and rel < 1.0e-12
    return CheckResult(
        "tightness_probe",
        bool(ok),
        time.perf_counter() - t0,
        {"values": values, "zero_level_relative_error": rel},
    )


# -- 14. Gibbs marginals of the splitting integrator ----------------------------------------------------------


def check_gibbs_marginals(
    omega_sq: float = 4.0,
    epsilon: float = 0.5,
    gamma: float = 1.0,
    n_chains: int = 256,
    n_steps: int = 30_000,
    burn: int = 2_000,
    dt: float = 0.02,
    seed: int = 57,
) -> CheckResult:
    t0 = time.perf_counter()
    model = polynomial_potential(1, [(0.5 * omega_sq, (2,))])
    forward = ProcessKind.forward()
    coefs = _step_coefs(forward, gamma, epsilon, dt, OBABO)
    q = np.zeros((n_chains, 1))
    p = np.zeros((n_chains, 1))
    sum_q2 = 0.0
    sum_p2 = 0.0
    count = 0
    for k in range(n_steps):
        c_idx, offset = divmod(k, NOISE_CHUNK)
        if offset == 0:
            noise = np.stack(
                [noise_block(seed, i, c_idx, (NOISE_CHUNK, 2)) for i in range(n_chains)], axis=1
            )
        q, p = _advance(forward, model, gamma, q, p, dt, noise[offset], OBABO, coefs)
        if k >= burn:
            sum_q2 += float(np.sum(q * q))
            sum_p2 += float(np.sum(p * p))
            count += n_chains
    var_q = sum_q2 / count
    var_p = sum_p2 / count
    rel_q = abs(var_q - epsilon / omega_sq) / (epsilon / omega_sq)
    rel_p = abs(var_p - epsilon) / epsilon
    ok = rel_q < 0.02 and rel_p < 0.02
    return CheckResult(
        "gibbs_marginals",
        bool(ok),
        time.perf_counter() - t0,
        {"var_q_relative_error": rel_q, "var_p_relative_error": rel_p},
    )


# -- 15. derivative consistency -----------------------------------------------------------------------------


def check_derivative_consistency(n_points: int = 100, seed: int = 99) -> CheckResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    models = [
        quartic_double_well(),
        separable_double_well([4.0]),
        separable_double_well([2.0, 3.0]),
        polynomial_potential(
            2, [(0.25, (4, 0)), (-0.5, (2, 0)), (0.25, (0, 0)), (2.0, (0, 2)), (0.1, (3, 1))]
        ),
    ]
    worst_grad = 0.0
    worst_hess = 0.0
    worst_sym = 0.0
    for model in models:
        d = model.dimension
        pts = rng.uniform(-1.5, 1.5, size=(n_points, d))
        h = 1.0e-6
        for x in pts:
            g = model.gradient(x)
            scale = max(1.0, np.linalg.norm(g))
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd = (model.energy(x + e) - model.energy(x - e)) / (2 * h)
                worst_grad = max(worst_grad, abs(fd - g[i]) / scale)
            hess = model.hessian(x)
            worst_sym = max(worst_sym, float(np.max(np.abs(hess - hess.T))))
            hscale = max(1.0, np.linalg.norm(hess))
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd_row = (model.gradient(x + e) - model.gradient(x - e)) / (2 * h)
                worst_hess = max(worst_hess, float(np.max(np.abs(fd_row - hess[i]))) / hscale)
    ok = worst_grad < 1.0e-6 and worst_hess < 1.0e-5 and worst_sym < 1.0e-12
    return CheckResult(
        "derivative_consistency",
        bool(ok),
        time.perf_counter() - t0,
        {"max_gradient_error": worst_grad, "max_hessian_error": worst_hess,
         "max_asymmetry": worst_sym},
    )


CHECKS = {
    "spectral_identities": check_spectral_identities,
    "prefactor_arithmetic": check_prefactor_arithmetic,
    "test_function_harmonicity": check_harmonicity,
    "capacity_vs_alpha": check_capacity_vs_alpha,
    "numerator_vs_laplace": check_numerator_vs_laplace,
    "end_to_end_ratio": check_end_to_end_ratio,
    "monte_carlo_ek": check_monte_carlo_ek,
    "start_insensitivity": check_start_insensitivity,
    "committor_plateau_envelope": check_committor,
    "lyapunov_suites": check_lyapunov_suites,
    "linearization_covariance": check_linearization_covariance,
    "zero_noise_flow": check_zero_noise_flow,
    "tightness_probe": check_tightness,
    "gibbs_marginals": check_gibbs_marginals,
    "derivative_consistency": check_derivative_consistency,
}

# checks that accept a jobs= keyword (Monte Carlo ensembles)
PARALLEL_CHECKS = {"monte_carlo_ek", "start_insensitivity", "committor_plateau_envelope"}
