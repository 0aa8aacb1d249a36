"""Potential-energy models with exact derivatives.

Every model evaluates U, its gradient and its Hessian analytically; the
stochastic and quadrature machinery downstream never touches finite
differences (those are reserved for the test oracles).  Momentum enters only
through the Hamiltonian V(q, p) = U(q) + |p|^2 / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InputError

QUARTIC_1D = "quartic-double-well-1d"
SEPARABLE_ND = "separable-double-well-nd"
POLYNOMIAL = "polynomial-custom"

_MAX_POLY_DEGREE = 6
_MAX_POLY_DIM = 3


def _as_points(q, d):
    """Coerce q to an (n, d) array, remembering whether a single point came in."""
    arr = np.asarray(q, dtype=float)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != d:
        raise InputError(f"expected position of dimension {d}, got shape {np.shape(q)}")
    return arr, single


def _row_dots(v):
    """Row-wise v . v over the last axis, rounded as ``np.dot`` rounds a single row."""
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def _powers(pts, monomials):
    """[None, pts, pts * pts, pts * pts * pts, ...] up to the monomials' largest exponent:
    ``pts ** k`` for k >= 3 would go through ``np.power``, whose rounding and speed depend
    on the sign of the input and on the CPU's SIMD dispatch."""
    out = [None, pts]
    for _ in range(2, max((max(m.exponents) for m in monomials), default=1) + 1):
        out.append(out[-1] * pts)
    return out


@dataclass(frozen=True)
class Monomial:
    coefficient: float
    exponents: tuple


@dataclass(frozen=True)
class PotentialModel:
    """A d-dimensional potential with analytic energy/gradient/Hessian.

    Immutable after construction; all evaluators are pure, so instances are
    safe to share between concurrent workers.
    """

    dimension: int
    family: str
    parameters: tuple = ()
    offset: float = 0.0
    _monomials: tuple = field(default=(), repr=False)

    # -- evaluators -------------------------------------------------------

    def energy(self, q) -> np.ndarray | float:
        """U(q) + offset for q of shape (d,) or (n, d)."""
        pts, single = _as_points(q, self.dimension)
        if self.family in (QUARTIC_1D, SEPARABLE_ND):
            u = pts[:, 0] * pts[:, 0] - 1.0
            out = u * u / 4.0
            for i, w2 in enumerate(self.parameters, start=1):
                out = out + 0.5 * w2 * (pts[:, i] * pts[:, i])
        else:
            out = np.zeros(len(pts))
            pw = _powers(pts, self._monomials)
            for mono in self._monomials:
                term = np.full(len(pts), mono.coefficient)
                for axis, k in enumerate(mono.exponents):
                    if k:
                        term = term * pw[k][:, axis]
                out += term
        out = out + self.offset
        return float(out[0]) if single else out

    def gradient(self, q) -> np.ndarray:
        """Exact analytic gradient, shape matching the input points."""
        pts, single = _as_points(q, self.dimension)
        if self.family in (QUARTIC_1D, SEPARABLE_ND):
            x = pts[:, 0]
            g = np.empty_like(pts)
            g[:, 0] = x * x * x - x
            for i, w2 in enumerate(self.parameters, start=1):
                g[:, i] = w2 * pts[:, i]
        else:
            g = np.zeros_like(pts)
            pw = _powers(pts, self._monomials)
            for axis, monos in enumerate(self._grad_monomials):
                for mono in monos:
                    term = mono.coefficient  # broadcasts like a full column
                    for ax2, k in enumerate(mono.exponents):
                        if k:
                            term = term * pw[k][:, ax2]
                    g[:, axis] += term
        return g[0] if single else g

    def hessian(self, q) -> np.ndarray:
        """Exact analytic Hessian at a single point, shape (d, d)."""
        pts, single = _as_points(q, self.dimension)
        if not single:
            raise InputError("hessian expects a single point of shape (d,)")
        x = pts[0]
        d = self.dimension
        if self.family in (QUARTIC_1D, SEPARABLE_ND):
            h = np.zeros((d, d))
            h[0, 0] = 3.0 * (x[0] * x[0]) - 1.0
            for i, w2 in enumerate(self.parameters, start=1):
                h[i, i] = w2
        else:
            h = np.zeros((d, d))
            pw = _powers(x, self._monomials)
            for (i, j), monos in self._hess_monomials.items():
                val = 0.0
                for mono in monos:
                    term = mono.coefficient
                    for ax2, k in enumerate(mono.exponents):
                        if k:
                            term *= pw[k][ax2]
                    val += term
                h[i, j] = val
                h[j, i] = val
        return h

    # -- symbolic derivative caches (polynomial family) --------------------

    # cached_property stores into the instance __dict__, which a frozen
    # dataclass still allows; the derivatives are fixed by _monomials.
    @cached_property
    def _grad_monomials(self):
        return _differentiate_once(self._monomials, self.dimension)

    @cached_property
    def _hess_monomials(self):
        grads = self._grad_monomials
        out = {}
        for i in range(self.dimension):
            partials = _differentiate_once(grads[i], self.dimension)
            for j in range(i, self.dimension):
                out[(i, j)] = partials[j]
        return out


def _differentiate_once(monomials, d):
    """Partial derivatives of a monomial list along each axis."""
    out = [[] for _ in range(d)]
    for mono in monomials:
        for axis in range(d):
            k = mono.exponents[axis]
            if k == 0:
                continue
            exps = list(mono.exponents)
            exps[axis] = k - 1
            out[axis].append(Monomial(mono.coefficient * k, tuple(exps)))
    return out


# -- constructors -----------------------------------------------------------


def quartic_double_well() -> PotentialModel:
    """U(q) = (q^2 - 1)^2 / 4: minima at q = +-1, saddle at 0, barrier 1/4."""
    return PotentialModel(dimension=1, family=QUARTIC_1D)


def separable_double_well(omega_sq: Sequence[float]) -> PotentialModel:
    """Quartic well along axis 1 plus harmonic confinement along the rest.

    U(q) = (q1^2-1)^2/4 + sum_i omega_i^2 q_i^2 / 2 with one omega_i^2 per
    extra coordinate.
    """
    w2 = tuple(float(w) for w in omega_sq)
    if any(w <= 0 for w in w2):
        raise InputError("transverse stiffnesses must be positive")
    return PotentialModel(dimension=1 + len(w2), family=SEPARABLE_ND, parameters=w2)


def polynomial_potential(dimension: int, terms, offset: float = 0.0) -> PotentialModel:
    """Dense polynomial potential from (coefficient, exponent-tuple) pairs.

    Restricted to total degree <= 6 and dimension <= 3 so that exact
    derivatives stay cheap; derivative monomial lists are derived once per
    model, on first use.
    """
    if not 1 <= dimension <= _MAX_POLY_DIM:
        raise InputError(f"polynomial potentials support 1 <= d <= {_MAX_POLY_DIM}")
    monos = []
    for coef, exps in terms:
        exps = tuple(int(e) for e in exps)
        if len(exps) != dimension or any(e < 0 for e in exps):
            raise InputError(f"bad exponent tuple {exps} for dimension {dimension}")
        if sum(exps) > _MAX_POLY_DEGREE:
            raise InputError(f"total degree {sum(exps)} exceeds {_MAX_POLY_DEGREE}")
        if coef != 0.0:
            monos.append(Monomial(float(coef), exps))
    model = PotentialModel(
        dimension=dimension,
        family=POLYNOMIAL,
        parameters=tuple((m.coefficient, m.exponents) for m in monos),
        offset=float(offset),
        _monomials=tuple(monos),
    )
    return model


def saddle_quadratic_model(center, hessian, value: float) -> PotentialModel:
    """Polynomial model equal to the second-order expansion value + (q-c)'H(q-c)/2.

    Used as the exact-quadratic control: on it, every saddle/well integral of
    the capacity machinery is a pure Gaussian.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    hessian = np.atleast_2d(np.asarray(hessian, dtype=float))
    d = len(center)
    terms = [(float(value), (0,) * d)]
    for i in range(d):
        for j in range(d):
            c = 0.5 * hessian[i, j]
            if c == 0.0:
                continue
            # expand (q_i - c_i)(q_j - c_j)
            for ei, fi in ((1, 1.0), (0, -center[i])):
                for ej, fj in ((1, 1.0), (0, -center[j])):
                    exps = [0] * d
                    exps[i] += ei
                    exps[j] += ej
                    terms.append((c * fi * fj, tuple(exps)))
    return polynomial_potential(d, terms)


# -- phase-space helpers ------------------------------------------------------


@dataclass(frozen=True)
class PhaseState:
    """A point x = (q, p) of the 2d-dimensional phase space."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.atleast_1d(np.asarray(self.q, dtype=float)))
        object.__setattr__(self, "p", np.atleast_1d(np.asarray(self.p, dtype=float)))
        if self.q.shape != self.p.shape or self.q.ndim != 1:
            raise InputError("q and p must be vectors of equal dimension")

    @property
    def d(self) -> int:
        return len(self.q)

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.q, self.p])

    @classmethod
    def from_array(cls, x) -> "PhaseState":
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size % 2:
            raise InputError("phase vector must have even length")
        d = x.size // 2
        return cls(x[:d], x[d:])


def hamiltonian(model: PotentialModel, state) -> float | np.ndarray:
    """Total energy V(q, p) = U(q) + |p|^2 / 2."""
    if isinstance(state, PhaseState):
        return float(model.energy(state.q) + 0.5 * np.dot(state.p, state.p))
    x = np.asarray(state, dtype=float)
    d = model.dimension
    if x.ndim == 1:
        if x.size != 2 * d:
            raise InputError(f"phase vector must have length {2 * d}")
        return float(model.energy(x[:d]) + 0.5 * np.dot(x[d:], x[d:]))
    if x.shape[-1] != 2 * d:
        raise InputError(f"phase vectors must have length {2 * d}")
    return model.energy(x[..., :d]) + 0.5 * _row_dots(x[..., d:])


def normalize_offset(model: PotentialModel, landscape_min_value: float) -> PotentialModel:
    """Shift the additive offset so that the reported global minimum sits at 0."""
    return replace(model, offset=model.offset - float(landscape_min_value))


# -- growth-condition check ---------------------------------------------------


@dataclass(frozen=True)
class GrowthReport:
    beta: float
    radii: np.ndarray
    min_ratio_1: float
    min_ratio_2: float
    passed: bool


def check_growth_conditions(
    model: PotentialModel,
    beta: float,
    radius_grid,
    samples_per_shell: int = 64,
    seed: int = 0,
) -> GrowthReport:
    """Sampled necessary test of the two coercivity conditions on U.

    Evaluates <q, grad U> / (|q|^2 + U) and |grad U| - beta * Lap U on
    spherical shells; passing requires strict positivity of both on the
    outermost shell.  This is a sampled check, not a certificate: the lim-inf
    statements cannot be certified numerically.
    """
    if beta <= 0:
        raise InputError("beta must be positive")
    radii = np.asarray(radius_grid, dtype=float)
    if radii.size == 0:
        raise InputError("radius grid must be nonempty")
    if np.any(radii <= 0) or np.any(np.diff(radii) <= 0):
        raise InputError("radii must be positive and increasing")
    rng = np.random.default_rng(seed)
    d = model.dimension
    outer1 = outer2 = np.inf
    for shell_idx, r in enumerate(radii):
        if d == 1:
            dirs = np.array([[1.0], [-1.0]])
        else:
            dirs = rng.standard_normal((samples_per_shell, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = r * dirs
        grad = model.gradient(pts)
        energy = np.asarray(model.energy(pts))
        denom = r * r + energy
        radial = np.einsum("ij,ij->i", pts, grad)
        # a non-positive denominator means U dips below -|q|^2: fails outright
        ratio1 = np.where(denom > 0, radial / np.where(denom > 0, denom, 1.0), -np.inf)
        lap = np.array([np.trace(model.hessian(pt)) for pt in pts])
        ratio2 = np.linalg.norm(grad, axis=1) - beta * lap
        if shell_idx == len(radii) - 1:
            outer1 = ratio1.min()
            outer2 = ratio2.min()
    return GrowthReport(
        beta=float(beta),
        radii=radii,
        min_ratio_1=float(outer1),
        min_ratio_2=float(outer2),
        passed=bool(outer1 > 0 and outer2 > 0),
    )
