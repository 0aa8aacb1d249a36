"""Quadrature machinery for the sharp capacity / mean-time asymptotics.

The momentum marginal of e^{-V/eps} is Gaussian, so every phase-space
integral here reduces to a position-space quadrature times an incomplete
gamma factor; position integrals use composite tensor Gauss-Legendre.

The saddle boundary integrals are evaluated on the quadratic expansion of V
at the saddle, which is where their asymptotic statement lives: at
desk-scale epsilon the box face K delta / sqrt(lambda_1) can leave the
quadratic neighborhood of a nonquadratic potential entirely (for the quartic
well at eps = 0.02, K = 4 it sits past the minimum), and the exact-V
integral then collapses by exp(-(V_exact - V_quad)/eps).  The exact-V value
and the quadratic gap are reported as diagnostics instead of silently
poisoning the ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import erfc, gammainc, ndtr

from .errors import MAX_REJECTION_ROUNDS, InputError, NumericsError
from .landscape import LandscapeReport, find_critical_points
from .potentials import PotentialModel
from .rates import SaddleFrame, ek_prediction

DEFAULT_K = 4.0
DEFAULT_TRUNCATION_OFFSET = 8.0


# -- quadrature configuration -------------------------------------------------


@dataclass(frozen=True)
class QuadratureConfig:
    points_per_axis: int = 64   # Gauss-Legendre nodes per panel
    panels: int = 4             # panels per axis
    truncation_offset: float = DEFAULT_TRUNCATION_OFFSET  # energy above U(sigma)

    def nodes(self, lo: float, hi: float, scale: int = 1):
        """Composite Gauss-Legendre nodes/weights on [lo, hi]."""
        n = self.points_per_axis * scale
        base_x, base_w = np.polynomial.legendre.leggauss(n)
        edges = np.linspace(lo, hi, self.panels + 1)
        xs, ws = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            xs.append(0.5 * (a + b) + half * base_x)
            ws.append(half * base_w)
        return np.concatenate(xs), np.concatenate(ws)


def position_box(model: PotentialModel, truncation_energy: float, report=None, hull=None):
    """Axis-aligned box containing {U <= truncation_energy}.

    Marches outward from the critical-point hull until U exceeds the
    truncation on every sampled face.
    """
    d = model.dimension
    if report is not None:
        pts = np.stack(
            [report.minimum_m.location, report.minimum_s.location, report.saddle.location]
        )
        lo = pts.min(axis=0) - 0.5
        hi = pts.max(axis=0) + 0.5
    elif hull is not None:
        pts = np.atleast_2d(np.asarray(hull, dtype=float))
        lo = pts.min(axis=0) - 0.5
        hi = pts.max(axis=0) + 0.5
    else:
        lo = -np.ones(d)
        hi = np.ones(d)
    lo, hi = lo.astype(float), hi.astype(float)
    for _ in range(200):
        grown = False
        for axis in range(d):
            for sign in (-1, 1):
                face = _face_samples(lo, hi, axis, sign, 9)
                if np.min(model.energy(face)) <= truncation_energy:
                    if sign < 0:
                        lo[axis] -= 0.25 * (hi[axis] - lo[axis])
                    else:
                        hi[axis] += 0.25 * (hi[axis] - lo[axis])
                    grown = True
        if not grown:
            return lo, hi
    raise NumericsError("position box failed to close below the truncation energy")


def _face_samples(lo, hi, axis, sign, n):
    d = len(lo)
    grids = [np.linspace(lo[i], hi[i], n) for i in range(d)]
    grids[axis] = np.array([lo[axis] if sign < 0 else hi[axis]])
    mesh = np.meshgrid(*grids, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _tensor_nodes(axes):
    """Tensor-product nodes (n, d) and weights from per-axis (nodes, weights) rules."""
    mesh_x = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    mesh_w = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    pts = np.stack([m.ravel() for m in mesh_x], axis=1)
    w = np.ones(len(pts))
    for m in mesh_w:
        w = w * m.ravel()
    return pts, w


def _position_nodes(model, quadrature, lo, hi, scale=1):
    return _tensor_nodes([quadrature.nodes(lo[i], hi[i], scale) for i in range(model.dimension)])


# -- partition function and tightness -----------------------------------------


@dataclass(frozen=True)
class PartitionResult:
    z_eps: float
    laplace_approx: float
    ratio: float
    truncation_energy: float


def _z_sum(model, epsilon, truncation_energy, pts, w):
    """(2 pi eps)^{d/2} sum_q w e^{-U/eps} P(d/2, (T - U)+ / eps): the exact
    momentum marginal of the V-truncated integral."""
    d = model.dimension
    u = np.asarray(model.energy(pts))
    head = np.where(u <= truncation_energy, np.exp(-u / epsilon), 0.0)
    shell = gammainc(d / 2.0, np.maximum(truncation_energy - u, 0.0) / epsilon)
    return (2 * np.pi * epsilon) ** (d / 2.0) * float(np.sum(w * head * shell))


def partition_function(
    model: PotentialModel,
    epsilon: float,
    truncation_energy: Optional[float] = None,
    quadrature: QuadratureConfig = QuadratureConfig(),
    report: Optional[LandscapeReport] = None,
    minima=None,
) -> PartitionResult:
    """Z_eps over {V <= truncation} with the Laplace cross-check.

    The momentum integral is done in closed form (chi-square tail), so only
    the position axes are quadratured; a refinement step guards accuracy.
    Single-well models can pass ``minima`` (position list) instead of a
    landscape report.
    """
    if model.dimension > 2:
        raise InputError("partition quadrature supports d <= 2")
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    if report is None and minima is None:
        report = _auto_report(model)
    if minima is None:
        minima = [mn.location for mn in report.minima]
    minima = [np.atleast_1d(np.asarray(z, dtype=float)) for z in minima]
    if truncation_energy is None:
        top = report.saddle.energy if report is not None else max(
            float(model.energy(z)) for z in minima
        )
        truncation_energy = top + quadrature.truncation_offset
    lo, hi = position_box(model, truncation_energy, report, hull=minima)
    pts, w = _position_nodes(model, quadrature, lo, hi)
    z = _z_sum(model, epsilon, truncation_energy, pts, w)
    pts2, w2 = _position_nodes(model, quadrature, lo, hi, scale=2)
    z2 = _z_sum(model, epsilon, truncation_energy, pts2, w2)
    if abs(z2 - z) > 1.0e-8 * abs(z2):
        raise NumericsError(f"partition quadrature not converged: {z} vs refined {z2}")

    d = model.dimension
    laplace = 0.0
    for z_loc in minima:
        h = model.hessian(z_loc)
        det = np.linalg.det(0.5 * (h + h.T))
        laplace += (2 * np.pi * epsilon) ** d / np.sqrt(det) * np.exp(
            -float(model.energy(z_loc)) / epsilon
        )
    return PartitionResult(
        z_eps=float(z2),
        laplace_approx=float(laplace),
        ratio=float(z2 / laplace),
        truncation_energy=float(truncation_energy),
    )


def _auto_report(model):
    from .landscape import build_landscape

    lo, hi = position_box(model, 10.0)
    cps = find_critical_points(model, list(zip(lo, hi)), 9)
    return build_landscape(model, cps)


@dataclass(frozen=True)
class TightnessResult:
    a: float
    epsilons: np.ndarray
    values: np.ndarray  # e^{a/eps} * integral over {a <= V <= truncation}
    bounded: bool


def tightness_probe(
    model: PotentialModel,
    a: float,
    epsilon_grid,
    quadrature: QuadratureConfig = QuadratureConfig(),
    truncation_energy: Optional[float] = None,
    report: Optional[LandscapeReport] = None,
) -> TightnessResult:
    """Evaluate e^{a/eps} Int_{V >= a} e^{-V/eps} dx across an epsilon grid.

    ``bounded`` holds when the values are non-increasing within 10% along a
    decreasing epsilon grid.  At a = 0 the value reproduces Z_eps exactly
    (same nodes, same summation).
    """
    if a < 0:
        raise InputError("a must be nonnegative")
    report = report or _auto_report(model)
    if truncation_energy is None:
        truncation_energy = report.saddle.energy + quadrature.truncation_offset
    if a > truncation_energy:
        eps_arr = np.asarray(epsilon_grid, dtype=float)
        return TightnessResult(a, eps_arr, np.zeros_like(eps_arr), True)
    lo, hi = position_box(model, truncation_energy, report)
    pts, w = _position_nodes(model, quadrature, lo, hi, scale=2)
    d = model.dimension
    u = np.asarray(model.energy(pts))
    head = np.where(u <= truncation_energy, 1.0, 0.0)
    values = []
    eps_arr = np.asarray(epsilon_grid, dtype=float)
    for eps in eps_arr:
        upper = gammainc(d / 2.0, np.maximum(truncation_energy - u, 0.0) / eps)
        lower = gammainc(d / 2.0, np.maximum(a - u, 0.0) / eps)
        total = (2 * np.pi * eps) ** (d / 2.0) * float(
            np.sum(w * head * np.exp(-u / eps) * (upper - lower))
        )
        values.append(np.exp(a / eps) * total)
    values = np.array(values)
    order = np.argsort(-eps_arr)  # decreasing epsilon
    ordered = values[order]
    bounded = bool(np.all(ordered[1:] <= ordered[:-1] * 1.10))
    return TightnessResult(float(a), eps_arr, values, bounded)


# -- saddle box and test function ------------------------------------------------


@dataclass(frozen=True)
class SaddleBox:
    K: float
    delta: float
    half_widths: np.ndarray  # in the H_V eigenbasis; [0] is the e_1 width
    frame: SaddleFrame
    center: np.ndarray


@dataclass(frozen=True)
class TestFunction:
    frame: SaddleFrame
    epsilon: float
    K: float
    theta: float
    box: SaddleBox
    j: Callable            # (n, 2d) points -> [0, 1]
    mollifier: Callable    # g_eps, (n, 2d) points -> [0, 1]
    ramp: Callable         # phi_theta, (n, 2d) points -> [0, 1]
    level_inner: float
    level_outer: float


def saddle_delta(epsilon: float) -> float:
    """delta = sqrt(eps log(1/eps)); defined (and below 1) for eps in (0, 1)."""
    if not 0.0 < epsilon < 1.0:
        raise InputError("the saddle box scale needs epsilon in (0, 1)")
    return float(np.sqrt(epsilon * np.log(1.0 / epsilon)))


def _smoothstep(t):
    """C^inf monotone 0 -> 1 ramp on [0, 1] built from exp(-1/t)."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.where(t < 1, 1.0 - t, 1.0)), 0.0)
    return a / (a + b)


def build_test_function(
    model: PotentialModel,
    frame: SaddleFrame,
    epsilon: float,
    K: float = DEFAULT_K,
    theta: float = 1.0e-2,
) -> TestFunction:
    """Assemble the error-function test function, its box and the mollifier.

    j(x) = Phi(sqrt(mu / (gamma eps)) <x - (sigma,0), v>) maps the m side to
    1 (the sign of v is folded with the frame's m_side); the mollifier g is 1
    below U(sigma) + K^2 delta^2 / 2 and 0 above U(sigma) + K^2 delta^2 with
    a C^inf transition of width delta^3 in energy.
    """
    if K <= 0:
        raise InputError("K must be positive")
    if epsilon <= 0:
        raise InputError("epsilon must be positive")
    delta = saddle_delta(epsilon)
    if not delta < 1.0:
        raise InputError(f"epsilon too large: delta = {delta:.3f} must be < 1")
    lam = frame.lambdas
    half = np.concatenate([[K * delta / np.sqrt(lam[0])], 2 * K * delta / np.sqrt(lam[1:])])
    box = SaddleBox(K=float(K), delta=delta, half_widths=half, frame=frame, center=frame.center)

    d = model.dimension
    u_sigma = float(model.energy(frame.center[:d]))
    inner = u_sigma + K * K * delta * delta / 2.0
    outer = u_sigma + K * K * delta * delta
    width = delta**3

    k_rate = np.sqrt(frame.mu / (frame.gamma * epsilon))
    v_eff = frame.m_side * frame.v
    center = frame.center

    def j(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return ndtr(k_rate * ((x - center) @ v_eff))

    def mollifier(x):
        from .potentials import hamiltonian

        x = np.atleast_2d(np.asarray(x, dtype=float))
        v_val = np.asarray(hamiltonian(model, x))
        mid = u_sigma + 2.0 * K * K * delta * delta / 3.0
        return 1.0 - _smoothstep((v_val - (mid - width / 2.0)) / width)

    def ramp(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        x1 = (x - center) @ frame.basis[:, 0]
        return _smoothstep((np.abs(x1) - half[0]) / theta)

    return TestFunction(
        frame=frame,
        epsilon=float(epsilon),
        K=float(K),
        theta=float(theta),
        box=box,
        j=j,
        mollifier=mollifier,
        ramp=ramp,
        level_inner=float(inner),
        level_outer=float(outer),
    )


# -- harmonicity of the test function ----------------------------------------------


@dataclass(frozen=True)
class HarmonicityReport:
    max_quadratic_residual: float   # max |L~ j| over samples (analytic cancellation)
    mean_full_residual: float       # mean |L j| over samples
    integral_ratio: float           # Int |L j| dmu / alpha_eps
    n_samples: int


def _j_gaussian_factor(frame, epsilon, x):
    """g'(<x - center, v>) for j's Gaussian kernel, vectorized."""
    s = (np.atleast_2d(x) - frame.center) @ (frame.m_side * frame.v)
    pref = np.sqrt(frame.mu / (2 * np.pi * frame.gamma * epsilon))
    return pref * np.exp(-frame.mu * s * s / (2 * frame.gamma * epsilon)), s


def harmonicity_residual(
    frame: SaddleFrame,
    test: TestFunction,
    model: PotentialModel,
    gamma: float,
    epsilon: float,
    n_samples: int = 1000,
    seed: int = 0,
    quadrature: QuadratureConfig = QuadratureConfig(),
    z_eps: Optional[float] = None,
) -> HarmonicityReport:
    """Residuals of the generator applied to j.

    The quadratic-drift generator annihilates j analytically; its sampled
    residual measures rounding only.  The full-generator residual
    |<grad U - H_U (q - sigma), v_p>| g'(<x, v>) is integrated against the
    invariant density over the box and compared with alpha_eps.
    """
    d = model.dimension
    rng = np.random.default_rng(seed)
    box = test.box
    # rejection-sample the box intersected with {V < U(sigma) + K^2 delta^2}
    samples = []
    sigma_q = frame.center[:d]
    hu = model.hessian(sigma_q)
    from .potentials import hamiltonian

    u_sigma = float(model.energy(sigma_q))
    level = u_sigma + box.K**2 * box.delta**2
    for _ in range(MAX_REJECTION_ROUNDS):
        coords = rng.uniform(-1.0, 1.0, size=(4 * n_samples, 2 * d)) * box.half_widths
        pts = frame.center + coords @ frame.basis.T
        keep = np.asarray(hamiltonian(model, pts)) < level
        samples.extend(pts[keep])
        if len(samples) >= n_samples:
            break
    else:
        raise NumericsError(
            f"box sampling kept {len(samples)} of {n_samples} points below the energy level "
            f"in {MAX_REJECTION_ROUNDS} rounds"
        )
    pts = np.array(samples[:n_samples])

    gfac, _ = _j_gaussian_factor(frame, epsilon, pts)
    q = pts[:, :d]
    p = pts[:, d:]
    v_eff = frame.m_side * frame.v
    vq, vp = v_eff[:d], v_eff[d:]
    # quadratic-drift generator: drift term mu <x, v> cancels the diffusion term
    drift_lin = (p @ vq) - ((q - sigma_q) @ hu @ vp) - gamma * (p @ vp)
    s = (pts - frame.center) @ v_eff
    diffusion = -frame.mu * s  # gamma eps g'' |v_p|^2 / g' with |v_p| = 1
    quad_residual = np.abs(gfac * (drift_lin + diffusion))

    grad_u = model.gradient(q)
    full_residual = np.abs(gfac * ((grad_u - (q - sigma_q) @ hu) @ vp))

    ratio = _harmonicity_integral(frame, model, gamma, epsilon, box, level, quadrature, z_eps)
    return HarmonicityReport(
        max_quadratic_residual=float(np.max(quad_residual)),
        mean_full_residual=float(np.mean(full_residual)),
        integral_ratio=float(ratio),
        n_samples=n_samples,
    )


def _harmonicity_integral(frame, model, gamma, epsilon, box, level, quadrature, z_eps):
    """Int_{K cap J} |L j| e^{-V/eps} dx / (alpha_eps Z_eps): Z-free."""
    d = model.dimension
    from .potentials import hamiltonian

    axes = [quadrature.nodes(-h, h, 1) for h in box.half_widths]
    coords, w = _tensor_nodes(axes)
    pts = frame.center + coords @ frame.basis.T
    v_val = np.asarray(hamiltonian(model, pts))
    mask = v_val < level
    gfac, _ = _j_gaussian_factor(frame, epsilon, pts)
    q = pts[:, :d]
    sigma_q = frame.center[:d]
    hu = model.hessian(sigma_q)
    vp = (frame.m_side * frame.v)[d:]
    resid = np.abs(gfac * ((model.gradient(q) - (q - sigma_q) @ hu) @ vp))
    integral = float(np.sum(w * mask * resid * np.exp(-v_val / epsilon)))
    u_sigma = float(model.energy(sigma_q))
    alpha_z = _alpha_eps_times_z(frame, epsilon, u_sigma)
    return integral / alpha_z


def _alpha_eps_times_z(frame, epsilon, u_sigma):
    """alpha_eps * Z_eps = (2 pi eps)^d / (2 pi) * mu / sqrt|det H_U| * e^{-U(sigma)/eps}."""
    d = len(frame.center) // 2
    return (
        (2 * np.pi * epsilon) ** d
        / (2 * np.pi)
        * frame.mu
        / np.sqrt(abs(frame.det_hu_sigma))
        * np.exp(-u_sigma / epsilon)
    )


# -- boundary capacity integrals -----------------------------------------------------


@dataclass(frozen=True)
class CapacityEstimate:
    epsilon: float
    boundary_integral: float
    alpha_epsilon: float
    ratio: float
    minus_side_integral: float
    minus_ratio: float
    exact_v_ratio: float       # same face integral with the exact Hamiltonian
    quadratic_gap: float       # max |V_exact - V_quad| / eps on the face
    K: float
    z_eps: float


def _face_integrals(frame, epsilon, K, quadrature, u_sigma, exact_v=None):
    """Plus/minus face integrals of the capacity boundary form, without 1/Z.

    Evaluated on the quadratic expansion of V at the saddle, with the
    committor replaced by its plateau limits: 1 on the W_m part of the m
    face, 0 outside W there; 0 on the W_s part of the s face, 1 outside W
    there (a conservative upper bound for the minus side).

    In the scaled coordinates y_i = sqrt(lambda_{i+1}) x~_i the well cut and
    level cut are the spheres |y| = K delta and sqrt(3) K delta (both inside
    the transverse box), the momentum weight x~_d equals y_d, and <x, v>
    depends on y only through y_d.  The integral therefore reduces exactly to
    a (radius, cosine) quadrature in any dimension, which keeps the cut
    geometry out of the quadrature panels.  When ``exact_v`` is given the
    exact-V variants are evaluated on an auxiliary Cartesian grid and
    returned as diagnostics.
    """
    d = len(frame.center) // 2
    lam = frame.lambdas
    delta = saddle_delta(epsilon)
    c1 = K * delta / np.sqrt(lam[0])
    kd = K * delta
    level = kd * kd
    n_dim = 2 * d - 1
    jac = float(np.prod(1.0 / np.sqrt(lam[1:])))
    k_rate = np.sqrt(frame.mu / (frame.gamma * epsilon))
    shift = c1 * abs(frame.v_in_basis[0])  # c1 (mu + gamma)

    # angular measure: int_{S^{n-1}} h(omega_d) dOmega
    #   n = 1: h(1) + h(-1);  n >= 2: |S^{n-2}| int_-1^1 h(t) (1 - t^2)^{(n-3)/2} dt
    if n_dim == 1:
        t_nodes = np.array([-1.0, 1.0])
        t_weights = np.array([1.0, 1.0])
    else:
        gl_t, gl_tw = np.polynomial.legendre.leggauss(quadrature.points_per_axis)
        surf = 2.0 * np.pi ** ((n_dim - 1) / 2.0) / math.gamma((n_dim - 1) / 2.0)
        t_nodes = gl_t
        t_weights = gl_tw * surf * (1.0 - gl_t**2) ** ((n_dim - 3) / 2.0)

    # radial panels: [0, K delta] (ball) and [K delta, sqrt3 K delta] (shell)
    def face_value(side, rho_lo, rho_hi, use_tail_up, sign_weight):
        rt, w = _tensor_nodes([quadrature.nodes(rho_lo, rho_hi, 1), (t_nodes, t_weights)])
        R, T = rt[:, 0], rt[:, 1]
        yd = R * T
        s_dot = side * shift + yd
        if use_tail_up:
            tail = 0.5 * erfc(k_rate * s_dot / np.sqrt(2.0))  # 1 - j, full precision
            weight_dir = -yd
        else:
            tail = 0.5 * erfc(-k_rate * s_dot / np.sqrt(2.0))  # j
            weight_dir = yd
        radial = R ** (n_dim - 1) * np.exp(-(u_sigma - 0.5 * kd * kd + 0.5 * R * R) / epsilon)
        return jac * sign_weight * float(np.sum(w * weight_dir * tail * radial))

    results = {}
    # m face: committor plateau 1 inside the well ball, 0 beyond
    results[("quad", 1)] = face_value(+1, 0.0, kd, use_tail_up=True, sign_weight=1.0)
    # s face: plateau 0 inside the well ball, 1 kept on the shell up to the level cut
    results[("quad", -1)] = face_value(-1, kd, np.sqrt(3.0) * kd, use_tail_up=False, sign_weight=1.0)

    if exact_v is not None:
        results.update(_face_integrals_exact(frame, epsilon, K, quadrature, u_sigma, exact_v))
    return results


def _face_integrals_exact(frame, epsilon, K, quadrature, u_sigma, exact_v):
    """Exact-V diagnostics of the face integrals on a fixed coarse Cartesian grid."""
    d = len(frame.center) // 2
    lam = frame.lambdas
    delta = saddle_delta(epsilon)
    c1 = K * delta / np.sqrt(lam[0])
    level = K * K * delta * delta
    trans_lam = lam[1:]
    # diagnostic only: a percent-level grid keeps the 2d-1 tensor small
    quadrature = QuadratureConfig(points_per_axis=12 if d > 1 else 64, panels=4)
    axes = [quadrature.nodes(-2 * K * delta / np.sqrt(li), 2 * K * delta / np.sqrt(li)) for li in trans_lam]
    xt, w = _tensor_nodes(axes)
    quad_form = 0.5 * (xt * xt) @ trans_lam
    v_quad = -0.5 * lam[0] * c1 * c1 + quad_form
    k_rate = np.sqrt(frame.mu / (frame.gamma * epsilon))
    x_d = xt[:, d - 1]
    out = {}
    gap = 0.0
    for side in (+1, -1):
        s_dot = side * c1 * abs(frame.v_in_basis[0]) + xt @ frame.v_in_basis[1:]
        v_ex = exact_v(side, xt) - u_sigma
        mask_ex = v_ex < level
        in_well_ex = v_ex < 0.0
        if side > 0:
            tail = 0.5 * erfc(k_rate * s_dot / np.sqrt(2.0))
            integ = np.where(in_well_ex, 1.0, 0.0) * (-x_d) * tail
        else:
            tail = 0.5 * erfc(-k_rate * s_dot / np.sqrt(2.0))
            integ = np.where(in_well_ex, 0.0, 1.0) * x_d * tail
        out[("exact", side)] = float(np.sum(w * mask_ex * integ * np.exp(-(u_sigma + v_ex) / epsilon)))
        gap = max(gap, float(np.max(np.abs(v_ex - v_quad)) / epsilon))
    out["gap"] = gap
    return out


def boundary_capacity_integral(
    model: PotentialModel,
    frame: SaddleFrame,
    epsilon: float,
    K: float = DEFAULT_K,
    quadrature: QuadratureConfig = QuadratureConfig(),
    z_eps: Optional[float] = None,
    report: Optional[LandscapeReport] = None,
) -> CapacityEstimate:
    """Capacity boundary integral on the saddle box faces versus alpha_eps.

    The ratio field divides out Z_eps, so it is insensitive to the partition
    function; boundary_integral itself carries the 1/Z_eps normalisation of
    the capacity.
    """
    if model.dimension > 2:
        raise InputError("boundary quadrature supports d <= 2")
    d = model.dimension
    u_sigma = float(model.energy(frame.center[:d]))

    def exact_v(side, xt):
        c1 = K * saddle_delta(epsilon) / np.sqrt(frame.lambdas[0])
        coords = np.concatenate(
            [np.full((len(xt), 1), side * c1), xt], axis=1
        )  # eigen coordinates, m side at +
        basis = frame.basis.copy()
        basis[:, 0] *= frame.m_side
        basis[:, d] *= frame.m_side  # momentum partner flips with u
        pts = frame.center + coords @ basis.T
        from .potentials import hamiltonian

        return np.asarray(hamiltonian(model, pts))

    res = _face_integrals(frame, epsilon, K, quadrature, u_sigma, exact_v=exact_v)
    res_fine = _face_integrals(
        frame, epsilon, K,
        QuadratureConfig(quadrature.points_per_axis + 16, quadrature.panels, quadrature.truncation_offset),
        u_sigma, exact_v=None,
    )
    if abs(res_fine[("quad", 1)] - res[("quad", 1)]) > 1.0e-6 * abs(res_fine[("quad", 1)]):
        raise NumericsError("boundary quadrature not converged under refinement")

    if z_eps is None:
        z_eps = partition_function(model, epsilon, quadrature=quadrature, report=report).z_eps
    alpha_z = _alpha_eps_times_z(frame, epsilon, u_sigma)
    plus = res[("quad", 1)]
    minus = res[("quad", -1)]
    return CapacityEstimate(
        epsilon=float(epsilon),
        boundary_integral=plus / z_eps,
        alpha_epsilon=alpha_z / z_eps,
        ratio=plus / alpha_z,
        minus_side_integral=minus / z_eps,
        minus_ratio=minus / alpha_z,
        exact_v_ratio=res[("exact", 1)] / alpha_z,
        quadratic_gap=res["gap"],
        K=float(K),
        z_eps=float(z_eps),
    )


# -- numerator integral ------------------------------------------------------------


@dataclass(frozen=True)
class NumeratorResult:
    epsilon: float
    value: float            # (1/Z) Int_{W_m, V < V(sigma,0) - margin} e^{-V/eps}
    laplace_formula: float  # (1/Z) (2 pi eps)^d / sqrt(det H_U^m) e^{-U(m)/eps}
    ratio: float
    margin: float
    z_eps: float


def numerator_integral(
    model: PotentialModel,
    report: LandscapeReport,
    epsilon: float,
    quadrature: QuadratureConfig = QuadratureConfig(),
    K: float = DEFAULT_K,
    z_eps: Optional[float] = None,
) -> NumeratorResult:
    """Gibbs mass of the starting well versus its Laplace value.

    The committor is set to its plateau limit (1 on W_m, 0 elsewhere) and a
    margin below the saddle energy excises the region where that replacement
    is uncontrolled.  The asymptotic margin K^2 delta^2 exceeds the whole
    barrier at desk-scale epsilon, so it is clamped to half the barrier.
    """
    if model.dimension > 2:
        raise InputError("numerator quadrature supports d <= 2")
    d = model.dimension
    delta = saddle_delta(epsilon)
    barrier = report.saddle.energy - report.minimum_m.energy
    margin = min(K * K * delta * delta, 0.5 * barrier)
    level = report.saddle.energy - margin

    sigma_q = report.saddle.location
    hu = model.hessian(sigma_q)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (hu + hu.T))
    u = eigvecs[:, 0]
    side = np.sign(np.dot(report.minimum_m.location - sigma_q, u)) or 1.0

    lo, hi = position_box(model, level + 1.0, report)
    pts, w = _position_nodes(model, quadrature, lo, hi, scale=2)
    u_val = np.asarray(model.energy(pts))
    on_side = ((pts - sigma_q) @ u) * side > 0
    mask = (u_val < level) & on_side
    shell = gammainc(d / 2.0, np.maximum(level - u_val, 0.0) / epsilon)
    raw = (2 * np.pi * epsilon) ** (d / 2.0) * float(
        np.sum(w * mask * np.exp(-u_val / epsilon) * shell)
    )
    if z_eps is None:
        z_eps = partition_function(model, epsilon, quadrature=quadrature, report=report).z_eps
    h = model.hessian(report.minimum_m.location)
    det_m = np.linalg.det(0.5 * (h + h.T))
    laplace = (2 * np.pi * epsilon) ** d / np.sqrt(det_m) * np.exp(
        -report.minimum_m.energy / epsilon
    )
    return NumeratorResult(
        epsilon=float(epsilon),
        value=raw / z_eps,
        laplace_formula=laplace / z_eps,
        ratio=raw / laplace,
        margin=float(margin),
        z_eps=float(z_eps),
    )


# -- end-to-end composition -----------------------------------------------------------


@dataclass(frozen=True)
class PredictedTimeRatio:
    mean_time_estimate: float
    ek_prediction: float
    ek_cross_check_ratio: float


def predicted_time_ratio(
    numerator: NumeratorResult,
    capacity: CapacityEstimate,
    report: LandscapeReport,
    frame: SaddleFrame,
) -> PredictedTimeRatio:
    """Mean transition time as numerator / capacity, against the closed form."""
    if numerator.epsilon != capacity.epsilon:
        raise InputError("numerator and capacity were computed at different epsilons")
    if capacity.boundary_integral <= 0:
        raise NumericsError("capacity boundary integral vanished")
    mean_time = numerator.value / capacity.boundary_integral
    pred = ek_prediction(report, frame, numerator.epsilon)
    return PredictedTimeRatio(
        mean_time_estimate=float(mean_time),
        ek_prediction=pred.predicted_mean_time,
        ek_cross_check_ratio=float(mean_time / pred.predicted_mean_time),
    )


# -- box boundary energy check ----------------------------------------------------------


@dataclass(frozen=True)
class BoxEnergyReport:
    passed: bool
    lateral_margin: float   # min over lateral samples of V - (U(sigma) + 5/4 K^2 d^2)
    dichotomy_a: float      # largest a making the +-face dichotomy hold on samples
    n_samples: int


def box_boundary_energy_check(
    model: PotentialModel,
    frame: SaddleFrame,
    epsilon: float,
    K: float = DEFAULT_K,
    n_samples: int = 2000,
    seed: int = 0,
) -> BoxEnergyReport:
    """Sampled check of the box-boundary energy bounds.

    Lateral faces (all but the two unstable-direction faces) must satisfy
    V >= U(sigma) + (5/4) K^2 delta^2; on the two unstable faces each sample
    must have <x, v> signed away from the face or V >= U(sigma) + a K^2
    delta^2, and the report carries the largest sampled a.
    """
    from .potentials import hamiltonian

    d = model.dimension
    rng = np.random.default_rng(seed)
    delta = saddle_delta(epsilon)
    lam = frame.lambdas
    half = np.concatenate([[K * delta / np.sqrt(lam[0])], 2 * K * delta / np.sqrt(lam[1:])])
    u_sigma = float(model.energy(frame.center[:d]))
    target = u_sigma + 1.25 * K * K * delta * delta

    lateral_min = np.inf
    n_lat = max(1, n_samples // (2 * (2 * d - 1))) if d > 0 else 0
    for axis in range(1, 2 * d):
        for sign in (-1, 1):
            coords = rng.uniform(-1.0, 1.0, size=(n_lat, 2 * d)) * half
            coords[:, axis] = sign * half[axis]
            pts = frame.center + coords @ frame.basis.T
            v_val = np.asarray(hamiltonian(model, pts))
            lateral_min = min(lateral_min, float(np.min(v_val)))
    lateral_margin = lateral_min - target

    v_eff = frame.m_side * frame.v
    a_best = np.inf
    for side in (+1, -1):
        coords = rng.uniform(-1.0, 1.0, size=(n_samples, 2 * d)) * half
        coords[:, 0] = side * half[0]
        basis = frame.basis.copy()
        basis[:, 0] *= frame.m_side
        basis[:, d] *= frame.m_side
        pts = frame.center + coords @ basis.T
        v_val = np.asarray(hamiltonian(model, pts))
        s_dot = side * ((pts - frame.center) @ v_eff)
        a1 = s_dot / (K * delta)
        a2 = (v_val - u_sigma) / (K * K * delta * delta)
        a_best = min(a_best, float(np.min(np.maximum(a1, a2))))
    return BoxEnergyReport(
        passed=bool(lateral_margin >= 0 and a_best > 0),
        lateral_margin=float(lateral_margin),
        dichotomy_a=float(a_best),
        n_samples=n_samples,
    )


# -- exact-quadratic control -----------------------------------------------------------


@dataclass(frozen=True)
class QuadraticControlResult:
    capacity_ratio: float
    minus_ratio: float
    numerator_ratio: float
    ek_cross_check_ratio: float


def synthetic_frame(gamma: float, lambda1: float, transverse=(), det_hu_m: float = 1.0,
                    barrier: float = 0.25) -> SaddleFrame:
    """Frame for a synthetic quadratic saddle in the canonical basis."""
    from .rates import compute_mu

    d = 1 + len(transverse)
    lambdas = np.concatenate([[lambda1], np.asarray(transverse, dtype=float), np.ones(d)])
    basis = np.eye(2 * d)
    mu = compute_mu(gamma, lambda1)
    u = np.zeros(d)
    u[0] = 1.0
    v = np.concatenate([(mu + gamma) * u, u])
    return SaddleFrame(
        gamma=float(gamma),
        lambdas=lambdas,
        basis=basis,
        mu=float(mu),
        v=v,
        v_in_basis=basis.T @ v,
        center=np.zeros(2 * d),
        m_side=1,
        det_hu_sigma=float(-lambda1 * np.prod(transverse) if transverse else -lambda1),
        det_hu_m=float(det_hu_m),
        barrier=float(barrier),
    )


def exact_quadratic_control(
    gamma: float,
    epsilon: float,
    lambda1: float = 1.0,
    transverse=(),
    well_omega_sq=(2.0,),
    barrier: float = 0.25,
    K: float = DEFAULT_K,
    quadrature: QuadratureConfig = QuadratureConfig(),
) -> QuadraticControlResult:
    """End-to-end ratio identity on pure Gaussian integrals.

    The saddle is exactly quadratic (face integral equals alpha_eps Z_eps in
    closed form for any face offset) and the well exactly harmonic, so the
    composed mean-time over closed-form prediction ratio isolates the
    quadrature and the algebra of the spectral identities.
    """
    d = 1 + len(transverse)
    if len(well_omega_sq) != d:
        raise InputError("well stiffness tuple must have one entry per axis")
    frame = synthetic_frame(gamma, lambda1, transverse, det_hu_m=float(np.prod(well_omega_sq)),
                            barrier=barrier)
    res = _face_integrals(frame, epsilon, K, quadrature, u_sigma=barrier, exact_v=None)
    alpha_z = _alpha_eps_times_z(frame, epsilon, u_sigma=barrier)
    cap_ratio = res[("quad", 1)] / alpha_z
    minus_ratio = res[("quad", -1)] / alpha_z

    # harmonic well: Gibbs mass below the saddle level, margin as in numerator_integral
    delta = saddle_delta(epsilon)
    margin = min(K * K * delta * delta, 0.5 * barrier)
    level = barrier - margin
    w2 = np.asarray(well_omega_sq, dtype=float)
    axes = [quadrature.nodes(-np.sqrt(2 * level / wi) , np.sqrt(2 * level / wi), 2) for wi in w2]
    pts, w = _tensor_nodes(axes)
    u_val = 0.5 * (pts * pts) @ w2
    mask = u_val < level
    shell = gammainc(d / 2.0, np.maximum(level - u_val, 0.0) / epsilon)
    num = (2 * np.pi * epsilon) ** (d / 2.0) * float(
        np.sum(w * mask * np.exp(-u_val / epsilon) * shell)
    )
    num_laplace = (2 * np.pi * epsilon) ** d / np.sqrt(np.prod(w2))
    num_ratio = num / num_laplace

    mean_time = num / res[("quad", 1)]
    kappa = 2 * np.pi / frame.mu * np.sqrt(abs(frame.det_hu_sigma) / np.prod(w2))
    ek = kappa * np.exp(barrier / epsilon)
    return QuadraticControlResult(
        capacity_ratio=float(cap_ratio),
        minus_ratio=float(minus_ratio),
        numerator_ratio=float(num_ratio),
        ek_cross_check_ratio=float(mean_time / ek),
    )
