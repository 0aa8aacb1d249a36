"""Lyapunov constructions for recurrence and exit-probability control.

Two constructions are provided, both of the quadratic-cross-term form

    H(x) = |p|^2/2 + ((gamma-lam)/2) <q-z, p> + ((gamma-lam)^2/4) |q-z|^2
           + U(q) - U(z)

a global one (z = 0, no energy shift) whose drift inequality
L H + lam H <= 0 holds outside a compact set {|q| <= M, |p| <= R}, and a
local one around a minimum with the exponential-moment inequality used for
exit bounds.  Every existential constant of the construction (c, M1, lam, M,
R, rho, C, alpha) is measured on explicit sample sets and recorded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import (
    LEVEL_CROSSED,
    FunctionBundle,
    IntegratorConfig,
    StopSpec,
    apply_generator,
    batch_hit_times,
)
from .errors import MAX_REJECTION_ROUNDS, InputError, NumericsError
from .potentials import PotentialModel


def _lyapunov_bundle(model: PotentialModel, gamma: float, lam: float, z: np.ndarray):
    """FunctionBundle for H with analytic derivatives."""
    g = gamma - lam
    d = model.dimension
    z = np.asarray(z, dtype=float)
    u_z = float(model.energy(z))

    def f(x):
        q, p = x[:d] - z, x[d:]
        return (
            0.5 * np.dot(p, p)
            + 0.5 * g * np.dot(q, p)
            + 0.25 * g * g * np.dot(q, q)
            + float(model.energy(x[:d]))
            - u_z
        )

    def grad(x):
        q, p = x[:d] - z, x[d:]
        gq = 0.5 * g * p + 0.5 * g * g * q + model.gradient(x[:d])
        gp = p + 0.5 * g * q
        return np.concatenate([gq, gp])

    return FunctionBundle(f=f, grad=grad, laplacian_p=lambda x: float(d))


@dataclass(frozen=True)
class GlobalLyapunov:
    lam: float
    c: float
    m1: float
    position_cutoff: float   # M
    momentum_cutoff: float   # R
    gamma: float


@dataclass(frozen=True)
class LocalLyapunov:
    center: np.ndarray
    lam: float
    rho: float
    alpha: float
    c: float
    quadratic_bound: float   # C in |p + (g/2)(q-z)|^2 <= C H
    gamma: float


def _lambda_from_c(gamma: float, c: float) -> float:
    """Half the largest lam in (0, gamma) satisfying both smallness conditions."""
    bound = c * gamma / (2.0 + c)  # from 2 lam / (gamma - lam) < c
    if gamma * gamma / 8.0 >= c:   # lam (gamma - lam) / 2 < c can bind
        root = 0.5 * (gamma - np.sqrt(gamma * gamma - 8.0 * c))
        bound = min(bound, root)
    return 0.5 * min(bound, gamma)


def build_global_lyapunov(
    model: PotentialModel,
    gamma: float,
    radius_max: float = 12.0,
    n_shells: int = 24,
    samples_per_shell: int = 64,
    seed: int = 0,
) -> GlobalLyapunov:
    """Measure the growth constants and assemble the global construction.

    c and M1 come from sampling <q, grad U> >= c (|q|^2 + U) on shells; lam
    is half the largest admissible value, M makes the position branch of the
    drift inequality dominate d gamma, and R absorbs the worst interior drift
    at the epsilon = 1 end of the temperature range.
    """
    rng = np.random.default_rng(seed)
    d = model.dimension
    radii = np.geomspace(1.0, radius_max, n_shells)
    ratios = []
    for r in radii:
        if d == 1:
            dirs = np.array([[1.0], [-1.0]])
        else:
            dirs = rng.standard_normal((samples_per_shell, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = r * dirs
        grad = model.gradient(pts)
        uvals = np.asarray(model.energy(pts))
        ratios.append(np.min(np.einsum("ij,ij->i", pts, grad) / (r * r + uvals)))
    ratios = np.array(ratios)
    valid = None
    for i in range(len(radii)):
        if np.all(ratios[i:] > 0):
            valid = i
            break
    if valid is None:
        raise NumericsError("growth sampling found no radius beyond which <q, grad U> is coercive")
    m1 = float(radii[valid])
    c = 0.9 * float(np.min(ratios[valid:]))
    lam = _lambda_from_c(gamma, c)
    g = gamma - lam

    m_formula = np.sqrt(d * gamma / (0.5 * g * (c - 0.5 * lam * g)))
    M = 1.02 * max(m1, float(m_formula))

    # interior drift bound at epsilon = 1 (worst case of the (0,1) range)
    if d == 1:
        qs = np.linspace(-M, M, 4096)[:, None]
    else:
        qs = rng.uniform(-M, M, size=(8192, d))
        qs = qs[np.linalg.norm(qs, axis=1) <= M]
    grad = model.gradient(qs)
    uvals = np.asarray(model.energy(qs))
    inner = np.abs(
        np.einsum("ij,ij->i", grad, qs)
        - (2.0 * lam / g) * uvals
        - 0.5 * lam * g * np.einsum("ij,ij->i", qs, qs)
    )
    R = 1.02 * np.sqrt(2.0 * (0.5 * g * float(inner.max()) + d * gamma * 1.0) / gamma)
    return GlobalLyapunov(
        lam=float(lam), c=float(c), m1=m1, position_cutoff=float(M),
        momentum_cutoff=float(R), gamma=float(gamma),
    )


@dataclass(frozen=True)
class ViolationReport:
    n_samples: int
    n_violations: int
    max_residual: float   # max over samples of the inequality's left side
    details: Optional[np.ndarray] = None


def verify_global_lyapunov(
    construct: GlobalLyapunov,
    model: PotentialModel,
    gamma: float,
    epsilon: float,
    n_samples: int = 10_000,
    seed: int = 0,
    outer_factor: float = 3.0,
) -> ViolationReport:
    """Check L H(x) + lam H(x) <= 0 on samples outside the compact set."""
    d = model.dimension
    rng = np.random.default_rng(seed)
    lam = construct.lam
    bundle = _lyapunov_bundle(model, gamma, lam, np.zeros(d))
    M, R = construct.position_cutoff, construct.momentum_cutoff
    samples = []
    for _ in range(MAX_REJECTION_ROUNDS):
        q = rng.uniform(-outer_factor * M, outer_factor * M, size=(4 * n_samples, d))
        p = rng.uniform(-outer_factor * R, outer_factor * R, size=(4 * n_samples, d))
        outside = (np.linalg.norm(q, axis=1) > M) | (np.linalg.norm(p, axis=1) > R)
        samples.extend(np.concatenate([q[outside], p[outside]], axis=1))
        if len(samples) >= n_samples:
            break
    else:
        raise NumericsError(
            f"sampling kept {len(samples)} of {n_samples} points outside the compact set "
            f"in {MAX_REJECTION_ROUNDS} rounds"
        )
    pts = np.array(samples[:n_samples])
    residuals = np.empty(n_samples)
    for i, x in enumerate(pts):
        residuals[i] = apply_generator(model, gamma, epsilon, bundle, x) + lam * bundle.f(x)
    violations = residuals > 0
    return ViolationReport(
        n_samples=n_samples,
        n_violations=int(violations.sum()),
        max_residual=float(residuals.max()),
        details=pts[violations] if violations.any() else None,
    )


def build_local_lyapunov(
    model: PotentialModel,
    z,
    gamma: float,
    rho_start: float = 1.0,
    n_samples: int = 4096,
    seed: int = 0,
) -> LocalLyapunov:
    """Assemble the local construction around a minimum z.

    rho shrinks until the coercivity <grad U(q), q-z> >= c (|q-z|^2 + U(q) -
    U(z)) holds on the sampled position ball with at least half its
    quadratic-model value; C is measured on the phase ball, and alpha =
    lam / (2 C gamma).
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    d = model.dimension
    hess = model.hessian(z)
    eigmin = float(np.min(np.linalg.eigvalsh(0.5 * (hess + hess.T))))
    if eigmin <= 0:
        raise InputError("local Lyapunov needs a nondegenerate minimum")
    c_quad = 2.0 * eigmin / (2.0 + eigmin)
    rng = np.random.default_rng(seed)
    u_z = float(model.energy(z))

    rho = rho_start
    c = None
    while rho >= 1.0e-3:
        if d == 1:
            offs = np.linspace(-rho, rho, n_samples)[:, None]
            offs = offs[np.abs(offs[:, 0]) > 1e-9]
        else:
            dirs = rng.standard_normal((n_samples, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            offs = dirs * (rho * rng.uniform(0.05, 1.0, size=(n_samples, 1)))
        qs = z + offs
        grad = model.gradient(qs)
        uvals = np.asarray(model.energy(qs))
        num = np.einsum("ij,ij->i", grad, offs)
        den = np.einsum("ij,ij->i", offs, offs) + uvals - u_z
        ratio = num / den
        c_meas = float(np.min(ratio))
        if c_meas >= 0.5 * c_quad:
            c = c_meas
            break
        rho *= 0.8
    if c is None:
        raise NumericsError("no admissible rho found above 1e-3")

    lam = _lambda_from_c(gamma, c)
    g = gamma - lam
    # measure C with |p + (g/2)(q-z)|^2 <= C H on the phase ball
    dirs = rng.standard_normal((n_samples, 2 * d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = np.concatenate([z, np.zeros(d)]) + dirs * (
        rho * rng.uniform(0.05, 1.0, size=(n_samples, 1))
    )
    q_off = pts[:, :d] - z
    p = pts[:, d:]
    cross = p + 0.5 * g * q_off
    h_vals = (
        0.5 * np.einsum("ij,ij->i", p, p)
        + 0.5 * g * np.einsum("ij,ij->i", q_off, p)
        + 0.25 * g * g * np.einsum("ij,ij->i", q_off, q_off)
        + np.asarray(model.energy(pts[:, :d]))
        - u_z
    )
    good = h_vals > 1.0e-14
    big_c = float(np.max(np.einsum("ij,ij->i", cross, cross)[good] / h_vals[good]))
    alpha = lam / (2.0 * big_c * gamma)
    return LocalLyapunov(
        center=z, lam=float(lam), rho=float(rho), alpha=float(alpha),
        c=float(c), quadratic_bound=big_c, gamma=float(gamma),
    )


def local_h_evaluator(construct: LocalLyapunov, model: PotentialModel):
    """Vectorized H_z on (n, 2d) phase points."""
    z = construct.center
    g = construct.gamma - construct.lam
    d = model.dimension
    u_z = float(model.energy(z))

    def h(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        q, p = x[:, :d] - z, x[:, d:]
        return (
            0.5 * np.einsum("ij,ij->i", p, p)
            + 0.5 * g * np.einsum("ij,ij->i", q, p)
            + 0.25 * g * g * np.einsum("ij,ij->i", q, q)
            + np.asarray(model.energy(x[:, :d]))
            - u_z
        )

    return h


@dataclass(frozen=True)
class LocalInequalityReport:
    n_samples: int
    n_violations_drift: int
    n_violations_exponential: int
    max_drift_residual: float
    max_exponential_residual: float

    @property
    def n_violations(self):
        return self.n_violations_drift + self.n_violations_exponential


def verify_local_inequalities(
    construct: LocalLyapunov,
    model: PotentialModel,
    gamma: float,
    epsilon: float,
    n_samples: int = 10_000,
    seed: int = 0,
) -> LocalInequalityReport:
    """Check both local inequalities pointwise on the phase ball B((z,0), rho).

    Drift: L H <= -lam H + d gamma eps.  Exponential: L exp(alpha H / eps) <=
    alpha d gamma exp(alpha H / eps), checked in the scaled form
    (alpha/eps) L H + gamma eps (alpha/eps)^2 |grad_p H|^2 <= alpha d gamma
    to keep the exponential factor out of the arithmetic.
    """
    d = model.dimension
    z = construct.center
    lam, alpha = construct.lam, construct.alpha
    rng = np.random.default_rng(seed)
    bundle = _lyapunov_bundle(model, gamma, lam, z)
    center = np.concatenate([z, np.zeros(d)])
    dirs = rng.standard_normal((n_samples, 2 * d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = center + dirs * (construct.rho * rng.uniform(0.0, 1.0, size=(n_samples, 1)))

    drift_resid = np.empty(n_samples)
    exp_resid = np.empty(n_samples)
    for i, x in enumerate(pts):
        lh = apply_generator(model, gamma, epsilon, bundle, x)
        h = bundle.f(x)
        drift_resid[i] = lh + lam * h - d * gamma * epsilon
        gp = bundle.grad(x)[d:]
        exp_resid[i] = (alpha / epsilon) * lh + gamma * epsilon * (alpha / epsilon) ** 2 * np.dot(
            gp, gp
        ) - alpha * d * gamma
    return LocalInequalityReport(
        n_samples=n_samples,
        n_violations_drift=int((drift_resid > 1.0e-12).sum()),
        n_violations_exponential=int((exp_resid > 1.0e-12).sum()),
        max_drift_residual=float(drift_resid.max()),
        max_exponential_residual=float(exp_resid.max()),
    )


@dataclass(frozen=True)
class ExitProbeResult:
    epsilons: np.ndarray
    probabilities: np.ndarray
    upper_bounds_only: np.ndarray  # True where no exits were observed
    envelope_slope: float          # fitted slope of log P against (b - a)/eps


def exit_probability_probe(
    construct: LocalLyapunov,
    model: PotentialModel,
    gamma: float,
    epsilon_grid,
    a: float,
    b: float,
    t: float,
    n_traj: int = 2000,
    dt: float = 1.0e-3,
    seed: int = 0,
) -> ExitProbeResult:
    """Monte Carlo P(exit H_b before t) from starts on the level set {H = a}.

    With no observed exits the rule-of-three bound 3/n stands in (flagged);
    the envelope slope is fitted on log P against (b - a)/eps and is expected
    negative.
    """
    if not 0 < a <= b:
        raise InputError("require 0 < a <= b")
    d = model.dimension
    h_fn = local_h_evaluator(construct, model)
    center = np.concatenate([construct.center, np.zeros(d)])
    rng = np.random.default_rng(seed)
    # starts on {H = a} by radial bisection along random directions
    starts = np.empty((n_traj, 2 * d))
    made = tries = 0
    while made < n_traj:
        if tries == 4 * MAX_REJECTION_ROUNDS * n_traj:
            raise NumericsError(
                f"only {made} of {tries} directions reach the level set H = {a} within rho"
            )
        tries += 1
        direction = rng.standard_normal(2 * d)
        direction /= np.linalg.norm(direction)
        lo, hi = 0.0, construct.rho
        if h_fn((center + hi * direction)[None, :])[0] < a:
            continue  # level set does not reach in this direction within rho
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if h_fn((center + mid * direction)[None, :])[0] < a:
                lo = mid
            else:
                hi = mid
        starts[made] = center + 0.5 * (lo + hi) * direction
        made += 1

    eps_arr = np.asarray(epsilon_grid, dtype=float)
    probs = np.empty(len(eps_arr))
    upper_only = np.zeros(len(eps_arr), dtype=bool)
    stop = StopSpec(level_fn=h_fn, level_value=b)
    for i, eps in enumerate(eps_arr):
        config = IntegratorConfig(scheme="euler-maruyama", dt=dt, max_time=t, rng_seed=seed + i)
        _, reasons, _ = batch_hit_times(
            model, gamma, eps, starts, stop, config, np.arange(n_traj)
        )
        n_exit = int((reasons == LEVEL_CROSSED).sum())
        if n_exit == 0:
            probs[i] = 3.0 / n_traj
            upper_only[i] = True
        else:
            probs[i] = n_exit / n_traj
    x = (b - a) / eps_arr
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(A, np.log(probs), rcond=None)
    return ExitProbeResult(
        epsilons=eps_arr,
        probabilities=probs,
        upper_bounds_only=upper_only,
        envelope_slope=float(coef[0]),
    )
