import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from metastable.checks import _quartic_setup, _zero_noise_flow_starts
from metastable.dynamics import (
    EULER,
    FLOW_DT,
    HIT_AVOID,
    HIT_TARGET,
    LEVEL_CROSSED,
    NOISE_CHUNK,
    NOISE_PIECE,
    OBABO,
    TIMEOUT,
    FunctionBundle,
    IntegratorConfig,
    ProcessKind,
    StopSpec,
    _noise_generator,
    _rk4_step,
    apply_generator,
    batch_hit_times,
    batch_zero_noise_flow,
    coupled_distance_probe,
    evolve_linearization_covariance,
    integrate_until,
    noise_block,
    run_zero_noise_flow,
    step,
)
from metastable.errors import InputError, NumericsError
from metastable.potentials import (
    hamiltonian,
    polynomial_potential,
    quartic_double_well,
    separable_double_well,
)

MODEL = quartic_double_well()


class TestStep:
    def test_zero_noise_fixed_point(self):
        for scheme in (EULER, OBABO):
            x = step(ProcessKind.zero_noise(), MODEL, 1.0, 0.0, [1.0, 0.0], 1e-3, None, scheme)
            assert np.array_equal(x, [1.0, 0.0])

    def test_forward_at_zero_temperature_equals_flow(self):
        start = [0.5, 0.3]
        for scheme in (EULER, OBABO):
            noise = np.zeros(2 if scheme == OBABO else 1)
            a = step(ProcessKind.forward(), MODEL, 1.0, 0.0, start, 1e-3, noise, scheme)
            b = step(ProcessKind.zero_noise(), MODEL, 1.0, 0.0, start, 1e-3, None, scheme)
            assert np.array_equal(a, b)

    def test_reversed_retraces_forward(self):
        # reversed dynamics from the forward endpoint returns to the start at O(dt^2)
        start = np.array([0.5, 0.3])
        errs = []
        for dt in (1e-3, 1e-4):
            fwd = step(ProcessKind.forward(), MODEL, 1.0, 0.0, start, dt, np.zeros(1), EULER)
            back = step(ProcessKind.reversed(), MODEL, 1.0, 0.0, fwd, dt, np.zeros(1), EULER)
            errs.append(np.max(np.abs(back - start)))
        assert errs[0] < 20 * (1e-3) ** 2
        assert errs[1] < 20 * (1e-4) ** 2
        assert 50 < errs[0] / errs[1] < 200  # second-order scaling

    def test_perturbed_needs_alpha_and_2d_noise(self):
        with pytest.raises(InputError):
            ProcessKind.perturbed(0.0)
        proc = ProcessKind.perturbed(1e-3)
        with pytest.raises(InputError):
            step(proc, MODEL, 1.0, 0.1, [0.5, 0.3], 1e-3, np.zeros(1), EULER)
        x = step(proc, MODEL, 1.0, 0.1, [0.5, 0.3], 1e-3, np.zeros(2), EULER)
        assert x.shape == (2,)

    def test_obabo_rejects_perturbed(self):
        with pytest.raises(InputError):
            step(ProcessKind.perturbed(1e-3), MODEL, 1.0, 0.1, [0.5, 0.3], 1e-3, np.zeros(2), OBABO)


class TestNoiseStreams:
    def test_streams_differ(self):
        a = noise_block(9, 4, 0, (8, 1))
        b = noise_block(9, 5, 0, (8, 1))
        c = noise_block(10, 4, 0, (8, 1))
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestIntegrateUntil:
    cfg = IntegratorConfig(scheme=OBABO, dt=1e-3, max_time=1e4, rng_seed=42, stream_id=7)
    stop = StopSpec.target_ball([-1.0, 0.0], 0.2)

    def test_deterministic_and_batch_identical(self):
        ev1 = integrate_until(ProcessKind.forward(), MODEL, 1.0, 0.25, [1.0, 0.0], self.stop, self.cfg)
        ev2 = integrate_until(ProcessKind.forward(), MODEL, 1.0, 0.25, [1.0, 0.0], self.stop, self.cfg)
        assert ev1.reason == "hit_target"
        assert ev1.time == ev2.time and np.array_equal(ev1.state, ev2.state)
        times, reasons, finals = batch_hit_times(
            MODEL, 1.0, 0.25, np.array([[1.0, 0.0]]), self.stop, self.cfg, np.array([7])
        )
        assert times[0] == ev1.time and reasons[0] == HIT_TARGET
        assert np.array_equal(finals[0], ev1.state)

    def test_immediate_hit(self):
        ev = integrate_until(
            ProcessKind.forward(), MODEL, 1.0, 0.25, [-1.0, 0.05], self.stop, self.cfg
        )
        assert ev.reason == "hit_target" and ev.time == 0.0

    def test_zero_noise_descent_matches_rk_oracle(self):
        stop = StopSpec.target_ball([1.0, 0.0], 1e-3)
        cfg = IntegratorConfig(scheme=OBABO, dt=1e-3, max_time=100.0, rng_seed=0)
        ev = integrate_until(ProcessKind.zero_noise(), MODEL, 1.0, 0.0, [0.5, 0.0], stop, cfg)
        assert ev.reason == "hit_target"

        def rhs(t, x):
            return [x[1], -(x[0] ** 3 - x[0]) - x[1]]

        def event(t, x):
            return np.hypot(x[0] - 1.0, x[1]) - 1e-3

        event.terminal = True
        sol = solve_ivp(rhs, (0, 100), [0.5, 0.0], events=event, rtol=1e-10, atol=1e-12)
        assert abs(ev.time - sol.t_events[0][0]) < 1e-2

    def test_positive_recurrence_sampled(self):
        # at eps = 0.15 the crossing happens well before max_time in >= 99% of runs
        cfg = IntegratorConfig(scheme=OBABO, dt=2e-3, max_time=1e6, rng_seed=5)
        starts = np.tile([1.0, 0.0], (100, 1))
        times, reasons, _ = batch_hit_times(MODEL, 1.0, 0.15, starts, self.stop, cfg, np.arange(100))
        assert (reasons == HIT_TARGET).mean() >= 0.99

    def test_timeout_reported_not_raised(self):
        cfg = IntegratorConfig(scheme=OBABO, dt=1e-3, max_time=0.5, rng_seed=1)
        ev = integrate_until(ProcessKind.forward(), MODEL, 1.0, 0.01, [1.0, 0.0], self.stop, cfg)
        assert ev.reason == "timeout" and ev.time == 0.5

    def test_blowup_raises(self):
        cfg = IntegratorConfig(scheme=EULER, dt=1e-3, max_time=100.0, rng_seed=1)
        with pytest.raises(NumericsError):
            integrate_until(
                ProcessKind.reversed(), MODEL, 1.0, 0.0, [0.5, 0.5], StopSpec.none(), cfg
            )

    def test_nan_blowup_raises_in_batch(self):
        # from q = 30 the first OBABO kicks overflow to NaN between two blow-up checks
        cfg = IntegratorConfig(scheme=OBABO, dt=0.05, max_time=20, rng_seed=1)
        with pytest.raises(NumericsError):
            batch_hit_times(MODEL, 1.0, 0.3, [[30.0, 0.0]], StopSpec.target_ball([-1, 0], 0.2), cfg, [0])

    @pytest.mark.parametrize(
        "process, scheme, width",
        [
            (ProcessKind.forward(), OBABO, 2),
            (ProcessKind.forward(), EULER, 1),
            (ProcessKind.perturbed(0.05), EULER, 2),
            (ProcessKind.reversed(), EULER, 1),
            (ProcessKind.zero_noise(), OBABO, 2),
        ],
    )
    def test_one_row_run_matches_plain_step_loop(self, process, scheme, width):
        # independent reference for the engine: a timeout after 1,100 steps, past
        # the first chunk boundary, against step() fed the stream's blocks directly
        dt = 2.0**-10
        n_steps = 1100
        seed, sid, eps = 9, 4, 0.3
        cfg = IntegratorConfig(scheme=scheme, dt=dt, max_time=n_steps * dt, rng_seed=seed)
        times, reasons, finals = batch_hit_times(
            MODEL, 1.0, eps, [[0.8, 0.1]], StopSpec.none(), cfg, [sid], process
        )
        x = np.array([0.8, 0.1])
        for k in range(n_steps):
            noise = noise_block(seed, sid, k // 1024, (1024, width))[k % 1024]
            x = step(process, MODEL, 1.0, eps, x, dt, noise, scheme)
        assert reasons[0] == TIMEOUT and times[0] == n_steps * dt
        assert np.array_equal(finals[0], x)

    def test_level_stop_reason_and_process_kinds(self):
        # a level stop reports energy_level_crossed; Euler runs every process kind
        stop = StopSpec(level_fn=lambda x: x[:, 1], level_value=0.4)
        cfg = IntegratorConfig(scheme=EULER, dt=1e-3, max_time=20.0, rng_seed=2, stream_id=5)
        for process in (ProcessKind.forward(), ProcessKind.perturbed(0.01), ProcessKind.reversed()):
            ev = integrate_until(process, MODEL, 1.0, 0.3, [1.0, 0.0], stop, cfg)
            assert ev.reason == "energy_level_crossed"
            assert 0 < ev.time < 20.0 and abs(ev.state[1] - 0.4) < 1e-12

    @settings(max_examples=20, deadline=None, database=None, derandomize=True)
    @given(
        qs=st.lists(st.floats(-1.2, 1.2), min_size=2, max_size=10),
        cuts=st.sets(st.integers(1, 9)),
        kind=st.sampled_from([(ProcessKind.forward(), OBABO), (ProcessKind.forward(), EULER),
                              (ProcessKind.perturbed(0.02), EULER)]),
        eps=st.sampled_from([0.15, 0.3]),
    )
    def test_batch_split_property(self, qs, cuts, kind, eps):
        # splitting a batch anywhere leaves every row's time, reason and final state unchanged
        process, scheme = kind
        stop = StopSpec(
            target_center=np.array([-1.0, 0.0]), target_radius=0.25,
            avoid_center=np.array([1.0, 0.0]), avoid_radius=0.25,
            level_fn=lambda x: x[:, 1], level_value=0.9,
        )
        cfg = IntegratorConfig(scheme=scheme, dt=2.5e-3, max_time=3.0, rng_seed=17)
        starts = np.stack([qs, np.zeros(len(qs))], axis=1)
        sids = 3 * np.arange(len(qs)) + 1
        whole = batch_hit_times(MODEL, 1.0, eps, starts, stop, cfg, sids, process)
        edges = [0] + sorted(c for c in cuts if c < len(qs)) + [len(qs)]
        parts = [
            batch_hit_times(MODEL, 1.0, eps, starts[a:b], stop, cfg, sids[a:b], process)
            for a, b in zip(edges[:-1], edges[1:])
        ]
        for got, want in zip(map(np.concatenate, zip(*parts)), whole):
            assert np.array_equal(got, want)

    def test_batch_partition_invariance(self):
        # timeouts are fine here: bitwise equality is the property under test
        cfg = IntegratorConfig(scheme=OBABO, dt=1e-3, max_time=60.0, rng_seed=1)
        starts = np.tile([1.0, 0.0], (24, 1))
        t_full, r_full, _ = batch_hit_times(MODEL, 1.0, 0.3, starts, self.stop, cfg, np.arange(24))
        t_a, _, _ = batch_hit_times(MODEL, 1.0, 0.3, starts[:11], self.stop, cfg, np.arange(11))
        t_b, _, _ = batch_hit_times(MODEL, 1.0, 0.3, starts[11:], self.stop, cfg, np.arange(11, 24))
        assert (r_full == HIT_TARGET).sum() > 12
        assert np.array_equal(np.concatenate([t_a, t_b]), t_full)

    def test_batch_rows_stopping_mid_chunk_match_single_runs(self):
        # rows leave the batch mid-chunk and in later chunks, through every stop
        # kind; the survivors must keep reading their own noise rows
        stop = StopSpec(
            target_center=np.array([-1.0, 0.0]), target_radius=0.25,
            avoid_center=np.array([1.0, 0.0]), avoid_radius=0.25,
            level_fn=lambda x: x[:, 1], level_value=1.0,
        )
        cfg = IntegratorConfig(scheme=OBABO, dt=2e-3, max_time=8.0, rng_seed=21)
        qs = np.concatenate([np.linspace(-0.7, 0.7, 24), [-1.0]])
        starts = np.stack([qs, np.zeros_like(qs)], axis=1)
        sids = np.arange(len(qs)) + 100
        times, reasons, finals = batch_hit_times(MODEL, 1.0, 0.2, starts, stop, cfg, sids)
        assert set(reasons.tolist()) == {HIT_TARGET, HIT_AVOID, TIMEOUT, LEVEL_CROSSED}
        chunk_of = np.floor(times[reasons != TIMEOUT] / (NOISE_CHUNK * cfg.dt))
        assert {0, 1, 2, 3} <= set(chunk_of.tolist())
        for i in range(len(qs)):
            t1, r1, f1 = batch_hit_times(MODEL, 1.0, 0.2, starts[i : i + 1], stop, cfg, sids[i : i + 1])
            assert t1[0] == times[i] and r1[0] == reasons[i]
            assert np.array_equal(f1[0], finals[i])

    @pytest.mark.parametrize("scheme", [OBABO, EULER])
    def test_fused_batch_matches_separate_calls(self, scheme):
        # three ensembles with their own epsilon, timeout and target radius, fused
        # with their rows interleaved; the first times out on a noise-piece boundary
        dt = 2.0**-9
        groups = [(0.3, 3 * NOISE_PIECE * dt, 0.25), (0.2, 1500 * dt, 0.3), (0.25, 2100 * dt, 0.2)]
        qs = np.linspace(-0.7, 0.9, 10)
        starts = np.tile(np.stack([qs, np.full_like(qs, -0.9)], axis=1), (len(groups), 1))
        starts[2 * len(qs)] = [-1.0, 0.05]  # inside the target ball: a hit at time zero
        sids = np.concatenate([100 * g + np.arange(len(qs)) for g in range(len(groups))])
        group = np.repeat(np.arange(len(groups)), len(qs))

        def run(rows, eps, max_time, radius):
            cfg = IntegratorConfig(scheme=scheme, dt=dt, max_time=max_time, rng_seed=5)
            stop = StopSpec(target_center=np.array([-1.0, 0.0]), target_radius=radius)
            return batch_hit_times(MODEL, 1.0, eps, starts[rows], stop, cfg, sids[rows])

        want = [np.concatenate(cols) for cols in zip(*(run(group == g, *groups[g]) for g in range(3)))]
        times, reasons, _ = want
        for g in range(2):
            assert np.sum(reasons[group == g] == TIMEOUT) >= 2
            assert np.sum(reasons[group == g] == HIT_TARGET) >= 2
        assert times[2 * len(qs)] == 0.0 and reasons[2 * len(qs)] == HIT_TARGET

        order = np.random.default_rng(0).permutation(len(starts))
        eps, max_time, radius = (np.array([groups[g][i] for g in group[order]]) for i in range(3))
        for got, w in zip(run(order, eps, max_time, radius), want):
            assert np.array_equal(got, w[order])
        # rows also match their one-row runs, so no row reads another row's noise
        for i in order[::3]:
            for got, w in zip(run([i], *groups[group[i]]), want):
                assert np.array_equal(got[0], w[i])

    def test_noise_pieces_match_whole_chunk(self):
        # a chunk drawn in consecutive pieces of whole steps equals the whole block
        whole = noise_block(3, 8, 2, (NOISE_CHUNK, 2))
        for sizes in ([NOISE_PIECE] * 4, [1, 100, 400, 523]):
            g = _noise_generator(3, 8, 2)
            parts = [g.standard_normal((k, 2)) for k in sizes]
            assert np.array_equal(np.concatenate(parts), whole)


class TestGenerator:
    def test_hamiltonian_cancellation(self):
        # L V = -gamma |p|^2 + d gamma eps: the transport terms cancel exactly
        d = MODEL.dimension
        bundle = FunctionBundle(
            f=lambda x: hamiltonian(MODEL, x),
            grad=lambda x: np.concatenate([MODEL.gradient(x[:d]), x[d:]]),
            laplacian_p=lambda x: float(d),
        )
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=2)
            val = apply_generator(MODEL, 1.3, 0.07, bundle, x)
            assert abs(val - (-1.3 * x[1] ** 2 + 1.3 * 0.07)) < 1e-12

    def test_constant_annihilated(self):
        one = FunctionBundle(f=lambda x: 1.0, grad=lambda x: np.zeros(2), laplacian_p=lambda x: 0.0)
        assert apply_generator(MODEL, 1.0, 0.1, one, [0.3, 0.7]) == 0.0
        assert apply_generator(MODEL, 1.0, 0.1, one, [0.3, 0.7], adjoint=True) == 0.0

    def test_matches_finite_difference_application(self):
        # independent oracle: generator applied through FD derivatives of f only
        f = lambda x: np.sin(x[0]) + x[0] * x[1] ** 2
        bundle = FunctionBundle(
            f=f,
            grad=lambda x: np.array([np.cos(x[0]) + x[1] ** 2, 2 * x[0] * x[1]]),
            laplacian_p=lambda x: 2 * x[0],
        )
        rng = np.random.default_rng(7)
        h = 1e-5
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5, size=2)
            exact = apply_generator(MODEL, 0.8, 0.2, bundle, x)
            fq = (f([x[0] + h, x[1]]) - f([x[0] - h, x[1]])) / (2 * h)
            fp = (f([x[0], x[1] + h]) - f([x[0], x[1] - h])) / (2 * h)
            fpp = (f([x[0], x[1] + h]) - 2 * f(x) + f([x[0], x[1] - h])) / h**2
            gu = MODEL.gradient(x[:1])[0]
            fd_val = x[1] * fq - gu * fp - 0.8 * x[1] * fp + 0.8 * 0.2 * fpp
            assert abs(exact - fd_val) < 1e-5 * max(1.0, abs(exact))

    def test_inconsistent_bundle_flagged(self):
        bad = FunctionBundle(
            f=lambda x: x[0] ** 2,
            grad=lambda x: np.array([5.0, 0.0]),  # wrong on purpose
            laplacian_p=lambda x: 0.0,
        )
        with pytest.raises(InputError):
            apply_generator(MODEL, 1.0, 0.1, bad, [0.3, 0.7], check_consistency=True)

    def test_adjoint_flips_transport(self):
        d = MODEL.dimension
        bundle = FunctionBundle(
            f=lambda x: x[0] * x[1],
            grad=lambda x: np.array([x[1], x[0]]),
            laplacian_p=lambda x: 0.0,
        )
        x = np.array([0.4, 0.6])
        fwd = apply_generator(MODEL, 1.0, 0.0, bundle, x)
        adj = apply_generator(MODEL, 1.0, 0.0, bundle, x, adjoint=True)
        friction = -1.0 * x[1] * x[0]
        assert abs((fwd - friction) + (adj - friction)) < 1e-14


class TestEnergyLaw:
    def test_obabo_energy_monotone_at_zero_noise(self):
        # net energy increase per unit time stays below 1e-8 at dt = 1e-4
        dt = 1e-4
        x = np.array([0.5, 0.4])
        v_prev = hamiltonian(MODEL, x)
        worst = -np.inf
        steps_per_unit = int(round(1.0 / dt))
        for _ in range(5):
            for _ in range(steps_per_unit):
                x = step(ProcessKind.forward(), MODEL, 1.0, 0.0, x, dt, np.zeros(2), OBABO)
            v_now = hamiltonian(MODEL, x)
            worst = max(worst, v_now - v_prev)
            v_prev = v_now
        assert worst <= 1e-8


class TestZeroNoiseFlow:
    minima = np.array([[1.0], [-1.0]])

    def test_descent_to_minimum(self):
        res = run_zero_noise_flow(MODEL, 1.0, [0.5, 0.0], tol=1e-6, max_time=200, minima=self.minima)
        assert res.converged
        assert np.array_equal(res.limit_point, [1.0, 0.0])
        rates = np.diff(res.energy_trace[:, 1]) / np.maximum(np.diff(res.energy_trace[:, 0]), 1e-12)
        assert rates.max() <= 1e-8

    def test_already_settled(self):
        res = run_zero_noise_flow(MODEL, 1.0, [1.0, 0.0], tol=1e-3, max_time=10, minima=self.minima)
        assert res.converged and res.settle_time == 0.0

    def test_saddle_rest_point_does_not_converge(self):
        res = run_zero_noise_flow(MODEL, 1.0, [0.0, 0.0], tol=1e-6, max_time=20, minima=self.minima)
        assert not res.converged and res.limit_point is None

    @pytest.mark.parametrize("model, starts", [
        (MODEL, [[0.5, 0.0], [1.0, 0.0], [0.0, 0.0], [-0.7, 0.3], [1.2, -0.4], [-1.3, 0.1], [0.7, -0.3]]),
        (separable_double_well([4.0]), [[0.5, 0.2, 0.1, -0.3], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                                        [-0.6, -0.1, 0.2, 0.1], [1.2, 0.1, -0.3, 0.2], [0.8, 0.1, -0.4, 0.0]]),
    ])
    def test_batch_matches_one_row_calls(self, model, starts):
        # rows settle at t = 0, time out on the saddle rest point and settle in both
        # wells; the last start settles on the same step as the fourth
        minima = np.array([[1.0] + [0.0] * (model.dimension - 1), [-1.0] + [0.0] * (model.dimension - 1)])
        kw = dict(tol=1e-3, max_time=20.0, minima=minima)
        batch = batch_zero_noise_flow(model, 1.0, np.array(starts), **kw)
        single = [run_zero_noise_flow(model, 1.0, x, **kw) for x in starts]
        assert 0.0 in [r.settle_time for r in batch]
        assert any(not r.converged for r in batch)
        assert {r.limit_point[0] for r in batch if r.converged} == {1.0, -1.0}
        assert batch[-1].settle_time == batch[3].settle_time
        for b, s in zip(batch, single):
            assert b.converged == s.converged and b.settle_time == s.settle_time
            assert (b.limit_point is None) == (s.limit_point is None)
            if b.limit_point is not None:
                assert b.limit_point.tobytes() == s.limit_point.tobytes()
            assert b.energy_trace.shape == s.energy_trace.shape
            assert b.energy_trace.tobytes() == s.energy_trace.tobytes()

    def test_step_doubling_error_stays_below_halving_threshold(self):
        # the flow takes fixed steps (two RK4 steps of FLOW_DT / 2); this matches an
        # adaptive step-doubling rule with threshold 1e-10 only while FLOW_DT never halves
        model, report, _ = _quartic_setup()
        x = _zero_noise_flow_starts(model, report)
        targets = [np.array([report.minimum_m.location[0], 0.0]), np.array([report.minimum_s.location[0], 0.0])]
        h, t, worst = FLOW_DT, 0.0, 0.0
        while len(x) and t < 300.0:
            big = _rk4_step(model, 1.0, x, h)
            x = _rk4_step(model, 1.0, _rk4_step(model, 1.0, x, h / 2), h / 2)
            worst = max(worst, float(np.max(np.abs(big - x))))
            t += h
            x = x[np.min([np.linalg.norm(x - z, axis=1) for z in targets], axis=0) >= 1e-6]
        assert len(x) == 0
        assert worst < 1e-10


class TestLinearizationCovariance:
    def test_stationary_limit_closed_form(self):
        # 1D, H = omega^2 = 2, gamma = 1: Sigma = diag(1/(2 gamma omega^2), 1/(2 gamma))
        well = polynomial_potential(1, [(1.0, (2,))])
        res = evolve_linearization_covariance(well, 1.0, [0.0], T=40.0, dt=1e-3)
        assert np.max(np.abs(res.sigma_limit - np.diag([0.25, 0.5]))) < 1e-8

    def test_checkpoints_positive_semidefinite(self):
        well = polynomial_potential(1, [(1.0, (2,))])
        res = evolve_linearization_covariance(well, 1.0, [0.0], T=10.0, dt=1e-3)
        for s in res.sigmas:
            assert np.min(np.linalg.eigvalsh(s)) > -1e-12

    def test_exponential_convergence(self):
        well = polynomial_potential(1, [(1.0, (2,))])
        res = evolve_linearization_covariance(well, 1.0, [0.0], T=30.0, dt=1e-3)
        half = len(res.times) // 2
        t, f = res.times[half:], res.frobenius_trace[half:]
        mask = f > 1e-13
        slope = np.polyfit(t[mask], np.log(f[mask]), 1)[0]
        assert slope < -0.5  # eigenvalues of A have real part -1/2

    def test_saddle_rejected(self):
        with pytest.raises(InputError):
            evolve_linearization_covariance(MODEL, 1.0, [0.0], T=1.0)


class TestCoupledProbe:
    cfg = IntegratorConfig(scheme=EULER, dt=1e-3, max_time=100.0, rng_seed=3, stream_id=0)

    def test_zero_alpha_identical(self):
        res = coupled_distance_probe(MODEL, 1.0, 0.1, 0.0, [1.0, 0.0], 10.0, self.cfg)
        assert res.max_distance == 0.0

    def test_distance_below_gronwall_bound(self):
        res = coupled_distance_probe(MODEL, 1.0, 0.1, 1e-4, [1.0, 0.0], 10.0, self.cfg)
        assert 0 < res.max_distance <= res.gronwall_bound
        assert not res.truncated

    def test_alpha_scaling(self):
        # halving alpha shrinks the sup distance by about sqrt(2)
        ratios = []
        for seed in range(20):
            cfg = IntegratorConfig(scheme=EULER, dt=2e-3, max_time=100.0, rng_seed=seed)
            big = coupled_distance_probe(MODEL, 1.0, 0.1, 1e-4, [1.0, 0.0], 5.0, cfg)
            small = coupled_distance_probe(MODEL, 1.0, 0.1, 5e-5, [1.0, 0.0], 5.0, cfg)
            ratios.append(big.max_distance / small.max_distance)
        mean_ratio = np.mean(ratios)
        assert 1.1 <= mean_ratio <= 2.5
