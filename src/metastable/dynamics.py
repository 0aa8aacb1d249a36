"""Time integration of the underdamped Langevin process and its variants.

Four process kinds are supported:

* ``forward``     dq = p dt,  dp = -(grad U + gamma p) dt + sqrt(2 gamma eps) dB
* ``perturbed``   forward plus a small elliptic regularisation of the position
                  equation: dq += -alpha grad U dt + sqrt(2 alpha eps) dW
* ``reversed``    dq = -p dt, dp = +(grad U + gamma p) dt + sqrt(2 gamma eps) dB
* ``zero_noise``  the deterministic (eps = 0) forward flow

All four run through one integrator, the ensemble engine
``batch_hit_times``, built on one step kernel (``_advance``, the Euler and
OBABO updates) and one first-hit stop rule; ``integrate_until`` is its
one-row call and ``step`` the kernel's single-state wrapper.

The settling flow that defines the wells W_m and W_s is integrated apart
from the engine, by ``batch_zero_noise_flow``: fixed RK4 steps over an
``(n, 2d)`` batch, each row stopping at its own settle test;
``run_zero_noise_flow`` is its one-row call.

Noise is counter-based: every trajectory owns a Philox stream keyed by
(seed, stream_id) and consumes it in fixed-size chunks (``noise_block``), so
a trajectory's path is bit-reproducible regardless of which other
trajectories run next to it, on how many workers, or in which order.  So the
engine takes epsilon, max_time and the ball radii per row, and ensembles of
one run (an epsilon grid) share one batch and one slow tail.  The engine is
the only reader of those streams during a run, drawing each chunk in pieces;
the coupled forward/perturbed probe reads the same blocks to drive its pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_continuous_lyapunov

from .errors import InputError, NumericsError
from .potentials import PotentialModel, _row_dots

EULER = "euler-maruyama"
OBABO = "splitting-obabo"

BLOWUP_LIMIT = 1.0e8
NOISE_CHUNK = 1024  # steps per Philox counter block
NOISE_PIECE = 256  # steps of a chunk the engine draws at a time
FLOW_DT = 1.0e-2  # zero-noise flow step, taken as two RK4 steps of FLOW_DT / 2


# -- process and configuration ------------------------------------------------


@dataclass(frozen=True)
class ProcessKind:
    kind: str
    alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in ("forward", "perturbed", "reversed", "zero_noise"):
            raise InputError(f"unknown process kind {self.kind!r}")
        if self.kind == "perturbed" and self.alpha <= 0:
            raise InputError("perturbed process requires alpha > 0")

    @classmethod
    def forward(cls):
        return cls("forward")

    @classmethod
    def perturbed(cls, alpha: float):
        return cls("perturbed", float(alpha))

    @classmethod
    def reversed(cls):
        return cls("reversed")

    @classmethod
    def zero_noise(cls):
        return cls("zero_noise")


@dataclass(frozen=True)
class IntegratorConfig:
    scheme: str = OBABO
    dt: float = 1.0e-3
    max_time: float = 1.0e6
    rng_seed: int = 0
    stream_id: int = 0

    def __post_init__(self):
        if self.scheme not in (EULER, OBABO):
            raise InputError(f"unknown scheme {self.scheme!r}")
        if not 0 < self.dt < np.min(self.max_time):  # max_time: a scalar or one per row
            raise InputError("require 0 < dt < max_time")


@dataclass(frozen=True)
class StopSpec:
    """First-hit stopping rule: a target ball, an avoid ball and a level, in that order.

    Balls live in phase space and stop a trajectory once its distance to the
    center is at most the radius; the level stops it once the vectorized
    ``level_fn(x)`` reaches ``level_value``.
    """

    target_center: Optional[np.ndarray] = None
    target_radius: float = 0.0
    avoid_center: Optional[np.ndarray] = None
    avoid_radius: float = 0.0
    level_fn: Optional[Callable] = None  # vectorized f(x) -> value, stop when >= level
    level_value: float = 0.0

    @classmethod
    def target_ball(cls, center, radius):
        return cls(target_center=np.asarray(center, dtype=float), target_radius=float(radius))

    @classmethod
    def none(cls):
        return cls()


@dataclass(frozen=True)
class StopEvent:
    reason: str  # hit_target | hit_avoid | energy_level_crossed | timeout
    time: float
    state: np.ndarray


# -- counter-based noise streams ----------------------------------------------


def _philox_key(seed: int, stream_id: int) -> np.ndarray:
    return np.array([np.uint64(seed & (2**64 - 1)), np.uint64(stream_id & (2**64 - 1))])


def _noise_generator(seed: int, stream_id: int, chunk_index: int) -> np.random.Generator:
    """The generator of one chunk of one stream, positioned at the chunk's first draw."""
    counter = np.array([0, 0, np.uint64(chunk_index), 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, stream_id), counter=counter))


def noise_block(seed: int, stream_id: int, chunk_index: int, shape) -> np.ndarray:
    """Standard normals for one chunk of one stream (the engine draws the same in pieces).

    Chunks live 2^128 apart in Philox counter space, so consuming a variable
    number of words inside a chunk can never bleed into the next one.
    """
    return _noise_generator(seed, stream_id, chunk_index).standard_normal(shape)


# -- the step kernel ------------------------------------------------------------


def _noise_width(process: ProcessKind, scheme: str, d: int) -> int:
    if scheme == OBABO:
        return 2 * d
    return 2 * d if process.kind == "perturbed" else d


def _step_coefs(process: ProcessKind, gamma: float, eps: float, dt: float, scheme: str):
    """Constants of ``_advance`` for one run: OBABO (a, b), Euler (q, p) noise scales."""
    if scheme == OBABO:
        if process.kind in ("perturbed", "reversed"):
            raise InputError("splitting-obabo is defined for forward/zero_noise only")
        a = np.exp(-gamma * dt / 2.0)
        return a, np.sqrt(eps * (1.0 - a * a))
    if scheme == EULER:
        return np.sqrt(2 * process.alpha * eps * dt), np.sqrt(2 * gamma * eps * dt)
    raise InputError(f"unknown scheme {scheme!r}")


def _advance(process, model, gamma, q, p, dt, noise, scheme, coefs):
    """One Euler or OBABO step of (q, p), vectorized over leading axes.

    ``noise`` holds the step's normals in the layout of ``step``, or is None
    for a noise-free step; ``coefs`` comes from ``_step_coefs`` for the same
    run, as scalars or as per-row columns of shape (n, 1).
    """
    d = model.dimension
    if scheme == OBABO:
        a, b = coefs
        n1 = 0.0 if noise is None else noise[..., :d]
        n2 = 0.0 if noise is None else noise[..., d:]
        p = a * p + b * n1                      # O: exact OU half-step
        p = p - 0.5 * dt * model.gradient(q)    # B
        q = q + dt * p                          # A
        p = p - 0.5 * dt * model.gradient(q)    # B
        return q, a * p + b * n2                # O
    grad = model.gradient(q)  # Euler: drift of the chosen SDE
    if process.kind == "reversed":
        dq, dp = -p, grad + gamma * p
    else:
        dq, dp = p, -grad - gamma * p
        if process.kind == "perturbed":
            dq = dq - process.alpha * grad
    q_new = q + dq * dt
    p_new = p + dp * dt
    if noise is not None:
        scale_q, scale_p = coefs
        if process.kind == "perturbed":
            q_new = q_new + scale_q * noise[..., :d]
            p_new = p_new + scale_p * noise[..., d:]
        else:
            p_new = p_new + scale_p * noise
    return q_new, p_new


def step(
    process: ProcessKind,
    model: PotentialModel,
    gamma: float,
    epsilon: float,
    state,
    dt: float,
    noise,
    scheme: str = EULER,
):
    """Advance one step; returns the new phase vector.

    Noise layout: ``euler-maruyama`` consumes d normals for the momentum
    equation (plus d more leading ones for the position equation of the
    perturbed process, 2d total).  ``splitting-obabo`` consumes 2d normals
    (two momentum half-kicks) and is only defined for the forward and
    zero-noise processes.
    """
    x = np.asarray(state, dtype=float)
    d = model.dimension
    if x.shape[-1] != 2 * d:
        raise InputError(f"state must have length {2 * d}")
    eps = 0.0 if process.kind == "zero_noise" else float(epsilon)
    coefs = _step_coefs(process, gamma, eps, dt, scheme)
    if eps > 0:
        noise = np.asarray(noise, dtype=float)
        need = _noise_width(process, scheme, d)
        if noise.shape[-1] != need:
            raise InputError(f"{process.kind} {scheme} step needs {need} normals")
    q_new, p_new = _advance(process, model, gamma, x[..., :d], x[..., d:], dt, noise if eps > 0 else None,
                            scheme, coefs)
    out = np.concatenate([np.atleast_1d(q_new), np.atleast_1d(p_new)], axis=-1)
    if not np.all(np.abs(out) <= BLOWUP_LIMIT):
        raise NumericsError(f"trajectory blew up at state {out}")
    return out


# -- the ensemble engine ----------------------------------------------------------


HIT_TARGET, HIT_AVOID, TIMEOUT, LEVEL_CROSSED = 0, 1, 2, 3
_REASON_NAMES = ("hit_target", "hit_avoid", "timeout", "energy_level_crossed")  # by code


def _take(keep, x):
    """x on the kept rows: per-row arrays by the mask, tuples item by item, scalars as they are."""
    if isinstance(x, (tuple, list)):
        return tuple(_take(keep, c) for c in x)
    return x[keep] if np.ndim(x) else x


def batch_hit_times(
    model: PotentialModel,
    gamma: float,
    epsilon,
    starts: np.ndarray,
    stop: StopSpec,
    config: IntegratorConfig,
    stream_ids: np.ndarray,
    process: ProcessKind = ProcessKind.forward(),
):
    """Integrate many trajectories of one process kind at once (one Philox stream each).

    This is the package's one integrator: every process kind and scheme goes
    through it, and it is the only reader of the noise streams during a run
    (``integrate_until`` is a one-row call).  Returns (times, reasons,
    final_states); reasons holds the integer codes HIT_TARGET / HIT_AVOID /
    TIMEOUT / LEVEL_CROSSED.  ``epsilon``, ``config.max_time`` and the ball radii of ``stop`` may each
    hold one value per row, so ensembles that share model, gamma, scheme, dt
    and seed run as one batch with one shared tail; per-row values are
    columns (OBABO ``b`` or the Euler scales, the timeout step
    ceil(max_time_i / dt), the radii) filtered with the running rows.
    Noise for trajectory i is consumed from stream (rng_seed, stream_ids[i])
    in NOISE_CHUNK blocks (``noise_block``), so a trajectory's path does not
    depend on the batch around it; if no row has eps > 0, or the process is
    zero-noise, no noise is drawn.  Each running row keeps its chunk's Philox
    generator and draws NOISE_PIECE steps at a time into a (n_active,
    NOISE_PIECE, width) block; ``rows`` maps each running row to its row of
    the block and of the generator list, so stopping copies no noise.  A
    row's first stop wins, checked in the order target ball, avoid ball,
    level, and its time is interpolated linearly inside the step.
    Blow-ups (|x| > BLOWUP_LIMIT or NaN) raise NumericsError, checked every 16
    steps.
    """
    starts = np.asarray(starts, dtype=float)
    n, dim2 = starts.shape
    d = model.dimension
    if dim2 != 2 * d:
        raise InputError("starts must have shape (n, 2d)")
    scheme = config.scheme
    dt = config.dt
    eps = np.broadcast_to(0.0 if process.kind == "zero_noise" else np.asarray(epsilon, dtype=float), (n,))
    noisy = bool(np.any(eps > 0))
    coefs = _step_coefs(process, gamma, eps[:, None], dt, scheme)
    width = _noise_width(process, scheme, d)
    times = np.broadcast_to(np.asarray(config.max_time, dtype=float), (n,)).copy()
    last = np.ceil(times / dt).astype(int)  # a row times out before its step last[i]
    n_steps = int(last.max()) if n else 0

    reasons = np.full(n, TIMEOUT, dtype=np.int8)
    finals = starts.copy()

    q = starts[:, :d].copy()
    p = starts[:, d:].copy()
    active = np.arange(n)
    sid = np.asarray(stream_ids)

    def ball(center):
        cq, cp = center[:d], center[d:]
        return lambda qq, pp: np.sqrt(((qq - cq) ** 2).sum(axis=1) + ((pp - cp) ** 2).sum(axis=1))

    # (reason, value of (q, p), threshold, stop when value <= threshold) in priority
    # order; a threshold is a scalar or a per-row column
    predicates = [
        (code, ball(center), np.asarray(radius, dtype=float), True)
        for center, radius, code in ((stop.target_center, stop.target_radius, HIT_TARGET),
                                     (stop.avoid_center, stop.avoid_radius, HIT_AVOID))
        if center is not None
    ]
    if stop.level_fn is not None:
        lf = stop.level_fn
        predicates.append(
            (LEVEL_CROSSED, lambda qq, pp: lf(np.concatenate([qq, pp], axis=1)), stop.level_value, False)
        )

    def settle_stops(q_new, p_new, t_prev, step_dt):
        """Settle the rows that stop between (q, p) at t_prev and (q_new, p_new)."""
        done = np.zeros(len(active), dtype=bool)
        for code, value, threshold, below in predicates:
            v_new = value(q_new, p_new)
            hit = ((v_new <= threshold) if below else (v_new >= threshold)) & ~done
            if np.any(hit):
                v_old = value(q, p)[hit]
                denom = np.where(v_new[hit] != v_old, v_new[hit] - v_old, 1.0)
                frac = np.clip((_take(hit, threshold) - v_old) / denom, 0.0, 1.0)
                idx = active[hit]
                times[idx] = t_prev + frac * step_dt
                reasons[idx] = code
                finals[idx, :d] = q[hit] + frac[:, None] * (q_new[hit] - q[hit])
                finals[idx, d:] = p[hit] + frac[:, None] * (p_new[hit] - p[hit])
                done |= hit
        return done

    rows = np.arange(n)  # each running trajectory's row of the noise block
    if n:  # hits at time zero: the start is both ends of an empty step
        keep = ~settle_stops(q, p, 0.0, 0.0)
        q, p, active, rows, last, coefs, predicates = _take(keep, (q, p, active, rows, last, coefs, predicates))
    next_timeout = int(last.min()) if len(active) else n_steps
    gens = block = noise = None

    for k in range(n_steps):
        if k == next_timeout:
            keep = last > k
            finals[active[~keep]] = np.hstack([q, p])[~keep]
            q, p, active, rows, last, coefs, predicates = _take(
                keep, (q, p, active, rows, last, coefs, predicates))
            next_timeout = int(last.min()) if len(active) else n_steps
        if len(active) == 0:
            break
        if noisy:
            c_idx, offset = divmod(k, NOISE_CHUNK)
            if offset % NOISE_PIECE == 0:
                gens = ([_noise_generator(config.rng_seed, int(sid[i]), c_idx) for i in active] if offset == 0
                        else [gens[r] for r in rows])
                block = None  # release the spent piece before drawing the next
                block = np.empty((len(active), NOISE_PIECE, width))
                for g, out in zip(gens, block):
                    g.standard_normal(out=out)
                rows = np.arange(len(active))
            noise = block[rows, offset % NOISE_PIECE, :]
        q_new, p_new = _advance(process, model, gamma, q, p, dt, noise, scheme, coefs)

        if k % 16 == 0 and not (
            np.all(np.abs(q_new) <= BLOWUP_LIMIT) and np.all(np.abs(p_new) <= BLOWUP_LIMIT)
        ):
            raise NumericsError(f"ensemble trajectory blew up at step {k}")

        done = settle_stops(q_new, p_new, k * dt, dt)
        if np.any(done):
            keep = ~done
            q, p, active, rows, last, coefs, predicates = _take(
                keep, (q_new, p_new, active, rows, last, coefs, predicates))
        else:
            q, p = q_new, p_new

    finals[active, :d] = q
    finals[active, d:] = p
    return times, reasons, finals


def integrate_until(
    process: ProcessKind,
    model: PotentialModel,
    gamma: float,
    epsilon: float,
    start,
    stop: StopSpec,
    config: IntegratorConfig,
) -> StopEvent:
    """One trajectory on stream (rng_seed, stream_id) until it stops or max_time elapses.

    A one-row ``batch_hit_times`` call; timeouts are reported as events, not
    errors.
    """
    x = np.asarray(start, dtype=float)
    if not np.all(np.isfinite(x)):
        raise InputError("start state must be finite")
    times, reasons, finals = batch_hit_times(
        model, gamma, epsilon, x[None, :], stop, config, np.array([config.stream_id]), process
    )
    return StopEvent(_REASON_NAMES[int(reasons[0])], float(times[0]), finals[0])


# -- generator application ---------------------------------------------------------


@dataclass(frozen=True)
class FunctionBundle:
    """Scalar observable with its analytic derivatives on phase space."""

    f: Callable
    grad: Callable          # x -> (2d,) gradient
    laplacian_p: Callable   # x -> scalar trace of the momentum block of hess f
    hess: Optional[Callable] = None


def apply_generator(
    model: PotentialModel,
    gamma: float,
    epsilon: float,
    bundle: FunctionBundle,
    x,
    adjoint: bool = False,
    check_consistency: bool = False,
) -> float:
    """Kinetic Fokker-Planck generator (or its adjoint) applied to the bundle.

    L f = <p, grad_q f> - <grad U, grad_p f> - gamma <p, grad_p f>
          + gamma eps Lap_p f; the adjoint flips the signs of the first two
    (transport) terms.
    """
    x = np.asarray(x, dtype=float)
    d = model.dimension
    q, p = x[:d], x[d:]
    g = np.asarray(bundle.grad(x), dtype=float)
    if g.shape != (2 * d,):
        raise InputError("bundle gradient must return a vector of length 2d")
    if check_consistency:
        _check_bundle(bundle, x)
    gu = model.gradient(q)
    sign = -1.0 if adjoint else 1.0
    transport = sign * (np.dot(p, g[:d]) - np.dot(gu, g[d:]))
    friction = -gamma * np.dot(p, g[d:])
    diffusion = gamma * epsilon * float(bundle.laplacian_p(x))
    return float(transport + friction + diffusion)


def _check_bundle(bundle: FunctionBundle, x, h: float = 1.0e-6, tol: float = 1.0e-4):
    """Spot-check the bundle's gradient against finite differences of f."""
    x = np.asarray(x, dtype=float)
    g = np.asarray(bundle.grad(x), dtype=float)
    scale = max(1.0, np.linalg.norm(g))
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h
        fd = (bundle.f(x + e) - bundle.f(x - e)) / (2 * h)
        if abs(fd - g[i]) > tol * scale:
            raise InputError(
                f"bundle gradient component {i} mismatches finite differences: {g[i]} vs {fd}"
            )


# -- zero-noise flow -----------------------------------------------------------------


@dataclass
class FlowResult:
    limit_point: Optional[np.ndarray]
    settle_time: Optional[float]
    energy_trace: np.ndarray  # columns (t, V)
    converged: bool


def _rk4_step(model, gamma, x, h):
    """One classical RK4 step of the zero-noise flow for the rows of x."""
    d = model.dimension

    def field(y):
        return np.concatenate([y[:, d:], -model.gradient(y[:, :d]) - gamma * y[:, d:]], axis=1)

    k1 = field(x)
    k2 = field(x + 0.5 * h * k1)
    k3 = field(x + 0.5 * h * k2)
    k4 = field(x + h * k3)
    return x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def batch_zero_noise_flow(model: PotentialModel, gamma: float, starts, tol: float = 1.0e-3,
                          max_time: float = 1.0e3, minima=None) -> list[FlowResult]:
    """The deterministic flow from each start until it settles into a minimum ball.

    Each step moves all running rows of the ``(n, 2d)`` batch by two RK4 steps
    of FLOW_DT / 2, so the rows share one clock, and stops the rows within
    ``tol`` of (z, 0), z in ``minima`` (tried in order).  Rows still running at
    max_time (e.g. from the saddle's stable manifold) are reported as not
    converged, not raised.  A row's energy trace holds (t, V) every
    max(max_time / 4096, FLOW_DT) and at its stop, for the monotonicity check
    dV/dt = -gamma |p|^2 <= 0.  Each FlowResult is independent of the batch.
    """
    x = np.array(starts, dtype=float)
    d = model.dimension
    if minima is None:
        raise InputError("the zero-noise flow needs the list of located minima")
    if x.ndim != 2 or x.shape[1] != 2 * d:
        raise InputError("starts must have shape (n, 2d)")
    targets = [np.concatenate([np.atleast_1d(z), np.zeros(d)]) for z in np.atleast_2d(minima)]
    active = np.arange(len(x))
    hit = np.full(len(x), -1)  # index of the target a row settled in
    traces = [[] for _ in active]
    t = next_record = 0.0
    record_every = max(max_time / 4096.0, FLOW_DT)

    def record(rows, xx):
        for i, v in zip(rows, model.energy(xx[:, :d]) + 0.5 * _row_dots(xx[:, d:])):
            traces[i].append((t, v))

    def settled():
        done = np.zeros(len(active), dtype=bool)
        for j, z in enumerate(targets):
            new = (np.sqrt(_row_dots(x - z)) < tol) & ~done
            hit[active[new]] = j
            done |= new
        return done

    record(active, x)
    keep = ~settled()
    active, x = active[keep], x[keep]
    while len(active) and t < max_time:
        x = _rk4_step(model, gamma, _rk4_step(model, gamma, x, FLOW_DT / 2), FLOW_DT / 2)
        t += FLOW_DT
        if t >= next_record:
            record(active, x)
            next_record = t + record_every
        done = settled()
        if np.any(done):
            record(active[done], x[done])
            active, x = active[~done], x[~done]
    record(active, x)  # timeouts
    # a settled row's trace ends at its settle time
    return [FlowResult(targets[j].copy(), traces[i][-1][0], np.array(traces[i]), True) if j >= 0
            else FlowResult(None, None, np.array(traces[i]), False) for i, j in enumerate(hit)]


def run_zero_noise_flow(model: PotentialModel, gamma: float, start, tol: float = 1.0e-3,
                        max_time: float = 1.0e3, minima=None) -> FlowResult:
    """The zero-noise flow from one start: a one-row ``batch_zero_noise_flow`` call."""
    return batch_zero_noise_flow(model, gamma, [np.asarray(start, dtype=float)], tol, max_time, minima)[0]


# -- linearization covariance ---------------------------------------------------------


@dataclass
class CovarianceResult:
    times: np.ndarray
    sigmas: np.ndarray        # (n_checkpoints, 2d, 2d)
    sigma_limit: np.ndarray
    frobenius_trace: np.ndarray  # ||Sigma_t - Sigma_limit||_F at each checkpoint


def evolve_linearization_covariance(
    model: PotentialModel,
    gamma: float,
    z,
    T: float,
    dt: float = 1.0e-3,
    n_checkpoints: int = 200,
) -> CovarianceResult:
    """Covariance of the frozen linearization around a minimum z.

    Integrates Sigma' = A Sigma + Sigma A^T + J J^T from Sigma(0) = 0 with
    A = [[0, I], [-H_U(z), -gamma I]] and J J^T = diag(0, I), and solves the
    stationary Lyapunov equation for the limit.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    d = model.dimension
    H = model.hessian(z)
    A = np.zeros((2 * d, 2 * d))
    A[:d, d:] = np.eye(d)
    A[d:, :d] = -H
    A[d:, d:] = -gamma * np.eye(d)
    if np.any(np.real(np.linalg.eigvals(A)) >= 0):
        raise InputError("linearization point is not a stable minimum")
    Q = np.zeros((2 * d, 2 * d))
    Q[d:, d:] = np.eye(d)
    sigma_limit = solve_continuous_lyapunov(A, -Q)

    n_steps = int(np.ceil(T / dt))
    stride = max(1, n_steps // n_checkpoints)
    S = np.zeros((2 * d, 2 * d))
    times, sigmas = [], []

    def rhs(Sig):
        return A @ Sig + Sig @ A.T + Q

    for k in range(n_steps):
        k1 = rhs(S)
        k2 = rhs(S + 0.5 * dt * k1)
        k3 = rhs(S + 0.5 * dt * k2)
        k4 = rhs(S + dt * k3)
        S = S + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        S = 0.5 * (S + S.T)
        if (k + 1) % stride == 0 or k == n_steps - 1:
            times.append((k + 1) * dt)
            sigmas.append(S.copy())
    sigmas = np.array(sigmas)
    fro = np.linalg.norm(sigmas - sigma_limit, axis=(1, 2))
    return CovarianceResult(np.array(times), sigmas, sigma_limit, fro)


# -- coupled distance probe --------------------------------------------------------------


@dataclass
class CoupledProbeResult:
    max_distance: float
    gronwall_bound: float
    truncated: bool
    truncation_time: Optional[float]


def coupled_distance_probe(
    model: PotentialModel,
    gamma: float,
    epsilon: float,
    alpha: float,
    start,
    T: float,
    config: IntegratorConfig,
    box_bound: float = 50.0,
) -> CoupledProbeResult:
    """Drive the forward and perturbed processes with shared Brownian noise.

    Reports sup_t |X^{alpha,eps} - X^eps| over [0, T] alongside the Gronwall
    envelope exp(Ct) [alpha Int |grad U(q^eps)| dr + sqrt(2 alpha eps)
    sup |W~|], with the Lipschitz constant C measured on the visited region.
    Euler-Maruyama is used for both so the coupling is exact in the driving
    noise; the discrete-time comparison is reported, never asserted.
    """
    if alpha < 0:
        raise InputError("alpha must be nonnegative")
    x_f = np.asarray(start, dtype=float).copy()
    x_p = x_f.copy()
    d = model.dimension
    dt = config.dt
    n_steps = int(np.ceil(T / dt))
    max_dist = 0.0
    grad_int = 0.0
    wtilde = np.zeros(d)
    sup_wtilde = 0.0
    max_hess = 0.0
    truncated = False
    t_trunc = None
    proc_p = ProcessKind.perturbed(alpha) if alpha > 0 else ProcessKind.forward()
    for k in range(n_steps):
        c_idx, offset = divmod(k, NOISE_CHUNK)
        if offset == 0:
            chunk = noise_block(config.rng_seed, config.stream_id, c_idx, (NOISE_CHUNK, 2 * d))
        noise = chunk[offset]
        nB, nW = noise[d:], noise[:d]  # momentum noise shared; W~ drives q of the perturbed
        x_f = step(ProcessKind.forward(), model, gamma, epsilon, x_f, dt, nB, EULER)
        pert_noise = np.concatenate([nW, nB]) if alpha > 0 else nB
        x_p = step(proc_p, model, gamma, epsilon, x_p, dt, pert_noise, EULER)
        if max(np.max(np.abs(x_f)), np.max(np.abs(x_p))) > box_bound:
            truncated = True
            t_trunc = (k + 1) * dt
            break
        grad_int += np.linalg.norm(model.gradient(x_f[:d])) * dt
        wtilde = wtilde + np.sqrt(dt) * nW
        sup_wtilde = max(sup_wtilde, float(np.linalg.norm(wtilde)))
        if k % 8 == 0:  # Lipschitz constant of grad U on the visited region, sampled
            for qq in (x_f[:d], x_p[:d]):
                max_hess = max(max_hess, float(np.max(np.abs(np.linalg.eigvalsh(model.hessian(qq))))))
        max_dist = max(max_dist, float(np.linalg.norm(x_f - x_p)))
    t_end = t_trunc if truncated else n_steps * dt
    C = 1.0 + gamma + max_hess
    bound = np.exp(C * t_end) * (alpha * grad_int + np.sqrt(2 * alpha * epsilon) * sup_wtilde)
    return CoupledProbeResult(max_dist, float(bound), truncated, t_trunc)
