import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc, ndtr

from metastable.capacity import (
    QuadratureConfig,
    boundary_capacity_integral,
    box_boundary_energy_check,
    build_test_function,
    exact_quadratic_control,
    harmonicity_residual,
    numerator_integral,
    partition_function,
    predicted_time_ratio,
    saddle_delta,
    tightness_probe,
)
from metastable.errors import InputError, NumericsError
from metastable.landscape import build_landscape, find_critical_points
from metastable.potentials import (
    hamiltonian,
    polynomial_potential,
    quartic_double_well,
    saddle_quadratic_model,
)
from metastable.rates import build_saddle_frame

QUAD = QuadratureConfig()


@pytest.fixture(scope="module")
def quartic():
    model = quartic_double_well()
    cps = find_critical_points(model, [(-2.0, 2.0)], 9)
    rep = build_landscape(model, cps, start_well_hint=[1.0])
    return model, rep, build_saddle_frame(model, rep, 1.0)


class TestPartitionFunction:
    def test_gaussian_well_exact(self):
        # U = omega^2 q^2 / 2 with omega = 2: Z = 2 pi eps / omega exactly
        model = polynomial_potential(1, [(2.0, (2,))])
        res = partition_function(model, 0.05, truncation_energy=30.0, quadrature=QUAD,
                                 minima=[[0.0]])
        assert abs(res.z_eps - 2 * np.pi * 0.05 / 2.0) < 1e-10 * res.z_eps
        assert abs(res.ratio - 1.0) < 1e-10

    def test_quartic_laplace_trend(self, quartic):
        model, rep, _ = quartic
        r05 = partition_function(model, 0.05, quadrature=QUAD, report=rep)
        r02 = partition_function(model, 0.02, quadrature=QUAD, report=rep)
        assert abs(r02.ratio - 1.0) < 0.05
        assert abs(r02.ratio - 1.0) < abs(r05.ratio - 1.0)

    def test_oracle_value(self, quartic):
        # independent adaptive quadrature of the full phase-space integral
        model, rep, _ = quartic
        res = partition_function(model, 0.05, quadrature=QUAD, report=rep)
        t = res.truncation_energy

        def q_integrand(q):
            u = (q * q - 1) ** 2 / 4
            if u > t:
                return 0.0
            r = np.sqrt(2 * (t - u))
            # one-dimensional momentum slab: int_{|p|<=r} e^{-p^2/2eps} dp
            return np.exp(-u / 0.05) * np.sqrt(2 * np.pi * 0.05) * (2 * ndtr(r / np.sqrt(0.05)) - 1)

        oracle, _ = quad(q_integrand, -3.5, 3.5, limit=300, epsabs=0, epsrel=1e-11)
        assert abs(res.z_eps - oracle) < 1e-8 * oracle


class TestTightnessProbe:
    def test_zero_level_equals_partition(self, quartic):
        model, rep, _ = quartic
        z = partition_function(model, 0.05, quadrature=QUAD, report=rep).z_eps
        probe = tightness_probe(model, 0.0, [0.05], QUAD, report=rep)
        assert abs(probe.values[0] - z) <= 1e-12 * z

    def test_bounded_along_grid(self, quartic):
        model, rep, _ = quartic
        for a in (0.1, 0.3):
            probe = tightness_probe(model, a, [0.1, 0.05, 0.02], QUAD, report=rep)
            assert probe.bounded
            assert np.all(np.diff(probe.values) < 0)  # strictly decreasing in eps here

    def test_level_above_truncation_vanishes(self, quartic):
        model, rep, _ = quartic
        probe = tightness_probe(model, 99.0, [0.05], QUAD, report=rep)
        assert probe.values[0] == 0.0


class TestTestFunction:
    def test_center_value_and_tail(self, quartic):
        model, _, frame = quartic
        tf = build_test_function(model, frame, 0.02, K=4.0)
        assert abs(tf.j(frame.center[None, :])[0] - 0.5) < 1e-14
        arg = 5.0 * np.sqrt(1.0 * 0.02 / frame.mu)  # <x, v> = 5 sqrt(gamma eps / mu)
        x = frame.center + arg * frame.v / np.linalg.norm(frame.v) ** 2 * np.linalg.norm(frame.v)
        # place the point so <x - center, v> = arg exactly
        x = frame.center + (arg / np.dot(frame.v, frame.v)) * frame.v
        assert tf.j(x[None, :])[0] > 0.999999

    def test_mirror_identity(self, quartic):
        model, _, frame = quartic
        tf = build_test_function(model, frame, 0.02, K=4.0)
        rng = np.random.default_rng(8)
        pts = frame.center + rng.uniform(-0.5, 0.5, size=(50, 2))
        vv = np.dot(frame.v, frame.v)
        mirrored = pts - 2 * np.outer((pts - frame.center) @ frame.v / vv, frame.v)
        total = tf.j(pts) + tf.j(mirrored)
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_box_half_widths(self, quartic):
        model, _, frame = quartic
        tf6 = build_test_function(model, frame, 0.02, K=6.0)
        expected = 6.0 * np.sqrt(0.02 * np.log(50.0))
        assert abs(tf6.box.half_widths[0] - expected) < 1e-12  # ~1.678: wide box flagged upstream
        tf4 = build_test_function(model, frame, 0.02, K=4.0)
        assert abs(tf4.box.half_widths[0] - 4.0 * np.sqrt(0.02 * np.log(50.0))) < 1e-12

    def test_mollifier_plateaus(self, quartic):
        model, _, frame = quartic
        tf = build_test_function(model, frame, 0.02, K=4.0)
        rng = np.random.default_rng(9)
        pts = frame.center + rng.uniform(-2.0, 2.0, size=(500, 2))
        v = np.array([hamiltonian(model, x) for x in pts])
        g = tf.mollifier(pts)
        assert np.all(g[v <= tf.level_inner] == 1.0)
        assert np.all(g[v >= tf.level_outer] == 0.0)
        assert np.all((0.0 <= g) & (g <= 1.0))

    def test_mollifier_monotone_along_ray(self, quartic):
        model, _, frame = quartic
        tf = build_test_function(model, frame, 0.05, K=4.0)
        ts = np.linspace(0.0, 3.0, 200)
        ray = frame.center + ts[:, None] * np.array([0.3, 1.0])
        g = tf.mollifier(ray)
        assert np.all(np.diff(g) <= 1e-12)  # V increases along this ray

    def test_epsilon_out_of_range_rejected(self, quartic):
        # delta = sqrt(eps log 1/eps) needs eps in (0, 1)
        model, _, frame = quartic
        with pytest.raises(InputError):
            build_test_function(model, frame, 1.2, K=4.0)


class TestHarmonicity:
    def test_quadratic_generator_annihilates_j(self, quartic):
        model, _, frame = quartic
        tf = build_test_function(model, frame, 0.02, K=4.0)
        rep = harmonicity_residual(frame, tf, model, 1.0, 0.02, n_samples=1000, seed=2)
        assert rep.max_quadratic_residual < 1e-9

    def test_exact_quadratic_control_full_residual(self, quartic):
        model, rep0, frame = quartic
        ctrl = saddle_quadratic_model([0.0], model.hessian([0.0]), 0.25)
        tf = build_test_function(ctrl, frame, 0.02, K=4.0)
        rep = harmonicity_residual(frame, tf, ctrl, 1.0, 0.02, n_samples=1000, seed=2)
        assert rep.mean_full_residual < 1e-9
        assert rep.integral_ratio < 1e-9

    def test_integral_ratio_matches_dblquad_oracle(self, quartic):
        # |L j| = |q|^3 g'(<x,v>) for the quartic; integrate it independently
        from scipy.integrate import dblquad

        model, _, frame = quartic
        eps, K = 0.02, 4.0
        tf = build_test_function(model, frame, eps, K)
        rep = harmonicity_residual(frame, tf, model, 1.0, eps, n_samples=200, seed=2)
        mu = frame.mu
        delta = saddle_delta(eps)
        c = K * delta
        level = 0.25 + K * K * delta * delta

        def f(p, q):
            v = (q * q - 1) ** 2 / 4 + p * p / 2
            if v >= level:
                return 0.0
            gp = np.sqrt(mu / (2 * np.pi * eps)) * np.exp(
                -mu * ((mu + 1.0) * q + p) ** 2 / (2 * eps)
            )
            return abs(q) ** 3 * gp * np.exp(-v / eps)

        oracle, _ = dblquad(f, -c, c, -2 * c, 2 * c, epsabs=1e-18, epsrel=1e-10)
        alpha_z = eps * mu * np.exp(-0.25 / eps)
        assert abs(rep.integral_ratio - oracle / alpha_z) < 0.02 * oracle / alpha_z

    def test_sampling_gives_up_on_a_vanishing_region(self, quartic):
        # a 1e6 q^2 wall leaves almost none of the box below the energy level
        model, _, frame = quartic
        tf = build_test_function(model, frame, 0.02, K=4.0)
        wall = polynomial_potential(1, [(0.25, (4,)), (-0.5 + 1.0e6, (2,)), (0.25, (0,))])
        with pytest.raises(NumericsError):
            harmonicity_residual(frame, tf, wall, 1.0, 0.02, n_samples=200, seed=2)


class TestBoundaryCapacity:
    def test_quartic_against_scalar_oracle(self, quartic):
        # independent adaptive quadrature of the plus-face integrand (d = 1)
        model, rep, frame = quartic
        eps, K = 0.02, 4.0
        ce = boundary_capacity_integral(model, frame, eps, K, QUAD, report=rep)
        mu = frame.mu
        delta = saddle_delta(eps)
        c1 = K * delta
        k = np.sqrt(mu / eps)

        def plus(p):
            v = -0.5 * c1 * c1 + 0.5 * p * p  # V - U(sigma), quadratic mode
            if v >= K * K * delta * delta or v >= 0.0:
                return 0.0  # level cut and the W_m plateau
            tail = 0.5 * erfc(k * ((mu + 1.0) * c1 + p) / np.sqrt(2.0))  # 1 - Phi, full precision
            return (-p) * tail * np.exp(-(0.25 + v) / eps)

        oracle = 0.0
        for a, b in ((-2 * c1, -c1), (-c1, 0.0), (0.0, c1)):
            val, _ = quad(plus, a, b, limit=400, epsabs=1e-22, epsrel=1e-11)
            oracle += val
        alpha_z = eps * mu * np.exp(-0.25 / eps)
        assert abs(ce.ratio - oracle / alpha_z) < 1e-6
        assert 0.85 <= ce.ratio <= 1.15
        assert ce.minus_ratio < 0.05

    def test_trend_toward_one(self, quartic):
        model, rep, frame = quartic
        r02 = boundary_capacity_integral(model, frame, 0.02, 4.0, QUAD, report=rep)
        r05 = boundary_capacity_integral(model, frame, 0.05, 4.0, QUAD, report=rep)
        assert abs(r02.ratio - 1.0) < abs(r05.ratio - 1.0)
        assert r02.minus_ratio < r05.minus_ratio

    def test_exact_v_collapse_reported(self, quartic):
        # at desk-scale eps the exact-V face integral collapses; the estimate
        # reports it and the quadratic gap instead of using it
        model, rep, frame = quartic
        ce = boundary_capacity_integral(model, frame, 0.02, 4.0, QUAD, report=rep)
        assert ce.exact_v_ratio < 1e-6
        assert ce.quadratic_gap > 10.0

    def test_exact_quadratic_control_identity(self):
        # for a pure quadratic saddle the face integral equals alpha_eps Z_eps
        # for any face offset; only truncation corrections remain
        ctrl = exact_quadratic_control(gamma=1.0, epsilon=0.02)
        assert abs(ctrl.capacity_ratio - 1.0) < 1e-3
        assert ctrl.minus_ratio < 1e-3
        # the plateau deficit grows with gamma/lambda1 asymmetry but stays small
        ctrl2 = exact_quadratic_control(gamma=0.7, epsilon=0.03, lambda1=2.0, well_omega_sq=(3.0,))
        assert abs(ctrl2.capacity_ratio - 1.0) < 0.02

    def test_two_dimensional_control(self):
        ctrl = exact_quadratic_control(
            gamma=1.0, epsilon=0.02, transverse=(4.0,), well_omega_sq=(2.0, 4.0), barrier=0.5
        )
        assert abs(ctrl.capacity_ratio - 1.0) < 1e-3
        assert abs(ctrl.ek_cross_check_ratio - 1.0) < 0.01


class TestNumerator:
    def test_quartic_band_and_trend(self, quartic):
        model, rep, _ = quartic
        r02 = numerator_integral(model, rep, 0.02, QUAD)
        r05 = numerator_integral(model, rep, 0.05, QUAD)
        assert 0.9 <= r02.ratio <= 1.1
        assert abs(r02.ratio - 1.0) < abs(r05.ratio - 1.0)

    def test_margin_clamped_to_half_barrier(self, quartic):
        # K^2 delta^2 = 1.25 at eps = 0.02 exceeds the 0.25 barrier: must clamp
        model, rep, _ = quartic
        res = numerator_integral(model, rep, 0.02, QUAD, K=4.0)
        assert res.margin == pytest.approx(0.125)

    def test_gaussian_well_control(self):
        # margin far below the barrier: truncation error under 1e-6
        ctrl = exact_quadratic_control(
            gamma=1.0, epsilon=0.02, barrier=1.2, well_omega_sq=(2.0,)
        )
        assert abs(ctrl.numerator_ratio - 1.0) < 1e-6


class TestPredictedTime:
    def test_end_to_end_band(self, quartic):
        model, rep, frame = quartic
        ce = boundary_capacity_integral(model, frame, 0.02, 4.0, QUAD, report=rep)
        nr = numerator_integral(model, rep, 0.02, QUAD, z_eps=ce.z_eps)
        pt = predicted_time_ratio(nr, ce, rep, frame)
        assert 0.8 <= pt.ek_cross_check_ratio <= 1.25

    def test_trend_toward_one(self, quartic):
        model, rep, frame = quartic
        ratios = {}
        for eps in (0.05, 0.02):
            ce = boundary_capacity_integral(model, frame, eps, 4.0, QUAD, report=rep)
            nr = numerator_integral(model, rep, eps, QUAD, z_eps=ce.z_eps)
            ratios[eps] = predicted_time_ratio(nr, ce, rep, frame).ek_cross_check_ratio
        assert abs(ratios[0.02] - 1.0) < abs(ratios[0.05] - 1.0)

    def test_control_within_percent(self):
        ctrl = exact_quadratic_control(gamma=1.0, epsilon=0.02)
        assert abs(ctrl.ek_cross_check_ratio - 1.0) <= 0.01

    def test_epsilon_mismatch_rejected(self, quartic):
        model, rep, frame = quartic
        ce = boundary_capacity_integral(model, frame, 0.02, 4.0, QUAD, report=rep)
        nr = numerator_integral(model, rep, 0.05, QUAD, z_eps=ce.z_eps)
        with pytest.raises(InputError):
            predicted_time_ratio(nr, ce, rep, frame)


class TestBoxEnergyCheck:
    def test_small_epsilon_passes(self, quartic):
        model, _, frame = quartic
        rep = box_boundary_energy_check(model, frame, 0.005, K=4.0, seed=1)
        assert rep.passed and rep.lateral_margin > 0 and rep.dichotomy_a > 0

    def test_large_epsilon_reports_margins(self, quartic):
        # the check is a report either way: pass flag must match the margins
        model, _, frame = quartic
        rep = box_boundary_energy_check(model, frame, 0.2, K=4.0, seed=1)
        assert np.isfinite(rep.lateral_margin) and np.isfinite(rep.dichotomy_a)
        assert rep.passed == (rep.lateral_margin >= 0 and rep.dichotomy_a > 0)

    def test_exact_quadratic_margin(self, quartic):
        # for a pure quadratic the lateral minimum sits at U(sigma) + 3/2 K^2 d^2,
        # a margin of (1/4) K^2 d^2
        model, _, frame = quartic
        ctrl = saddle_quadratic_model([0.0], model.hessian([0.0]), 0.25)
        eps, K = 0.01, 4.0
        rep = box_boundary_energy_check(ctrl, frame, eps, K=K, n_samples=4000, seed=3)
        kd2 = K * K * saddle_delta(eps) ** 2
        assert rep.passed
        assert 0.24 * kd2 <= rep.lateral_margin <= 0.30 * kd2

    def test_hand_oracle_for_quartic_lateral_margin(self, quartic):
        # margin = min_q U(q) + 2 K^2 d^2 - (U(sigma) + 5/4 K^2 d^2) on the p face
        model, _, frame = quartic
        eps, K = 0.005, 4.0
        rep = box_boundary_energy_check(model, frame, eps, K=K, n_samples=4000, seed=1)
        kd = K * saddle_delta(eps)
        q = np.linspace(-kd, kd, 4001)
        expected = np.min((q * q - 1) ** 2 / 4 + 2 * kd * kd) - (0.25 + 1.25 * kd * kd)
        assert abs(rep.lateral_margin - expected) < 5e-3
