from dataclasses import replace

import numpy as np
import pytest

from metastable.dynamics import HIT_TARGET, OBABO, IntegratorConfig, batch_hit_times
from metastable.errors import InputError, NumericsError
from metastable.hitting import (
    Ball,
    CommittorEstimate,
    EnsembleConfig,
    barrier_slope_fit,
    committor_envelope_check,
    estimate_equilibrium_potential,
    estimate_mean_hitting_time,
    estimate_mean_hitting_times,
    start_insensitivity_probe,
    target_radius_for,
    _pairwise_moments,
)
from metastable.landscape import build_landscape, find_critical_points
from metastable.potentials import quartic_double_well

MODEL = quartic_double_well()


def make_cfg(epsilon=0.25, n_traj=200, seed=3, dt=1e-3, max_time=2000.0, avoid=False, start=(1.0, 0.0)):
    return EnsembleConfig(
        model=MODEL,
        epsilon=epsilon,
        gamma=1.0,
        n_traj=n_traj,
        start=np.asarray(start, dtype=float),
        target=Ball([-1.0, 0.0], 0.2),
        avoid=Ball([1.0, 0.0], 0.2) if avoid else None,
        integrator=IntegratorConfig(scheme=OBABO, dt=dt, max_time=max_time),
        base_seed=seed,
    )


class TestPairwiseMoments:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        values = rng.exponential(5.0, size=257)
        n, mean, m2 = _pairwise_moments(values)
        assert n == 257
        assert np.isclose(mean, values.mean(), rtol=1e-13)
        assert np.isclose(m2 / (n - 1), values.var(ddof=1), rtol=1e-12)

    def test_partition_bitwise_invariance(self):
        # merging is a fixed tree over the index range: identical regardless of
        # whether the range was computed in one piece or two
        rng = np.random.default_rng(1)
        values = rng.exponential(1.0, size=128)
        full = _pairwise_moments(values)
        left = _pairwise_moments(values[:64])
        right = _pairwise_moments(values[64:])
        from metastable.hitting import _merge_moments

        merged = _merge_moments(left, right)
        assert merged == full


class TestMeanHittingTime:
    def test_reproducible(self):
        a = estimate_mean_hitting_time(make_cfg())
        b = estimate_mean_hitting_time(make_cfg())
        assert a.mean == b.mean and a.variance == b.variance
        assert a.n_completed + a.n_timeout == 200
        assert a.ci95_half_width == 1.96 * np.sqrt(a.variance / a.n_completed)

    def test_start_inside_target_rejected(self):
        with pytest.raises(InputError):
            estimate_mean_hitting_time(make_cfg(start=(-1.0, 0.05)))

    def test_all_timeouts_is_failure(self):
        with pytest.raises(NumericsError):
            estimate_mean_hitting_time(make_cfg(epsilon=0.01, max_time=0.05, n_traj=8))

    def test_ci_shrinks_with_ensemble_size(self):
        ratios = []
        for seed in (3, 17, 99):
            small = estimate_mean_hitting_time(make_cfg(n_traj=400, seed=seed))
            big = estimate_mean_hitting_time(make_cfg(n_traj=800, seed=seed))
            ratios.append(big.ci95_half_width / small.ci95_half_width)
        assert 0.6 <= np.mean(ratios) <= 0.82  # ~ 1/sqrt(2)

    def test_jobs_do_not_change_result(self):
        a = estimate_mean_hitting_time(make_cfg(n_traj=64), jobs=1)
        b = estimate_mean_hitting_time(make_cfg(n_traj=64), jobs=2)
        assert a.mean == b.mean and a.min == b.min and a.max == b.max

    def test_per_trajectory_records_in_stream_order(self):
        cfg = replace(make_cfg(n_traj=40), stream_base=200)
        one = estimate_mean_hitting_time(cfg)
        two = estimate_mean_hitting_time(cfg, jobs=2)
        config = replace(cfg.integrator, rng_seed=cfg.base_seed)
        times, reasons, _ = batch_hit_times(
            MODEL, 1.0, cfg.epsilon, np.tile(cfg.start, (40, 1)), cfg.stop_spec(), config,
            np.arange(200, 240),
        )
        for stats in (one, two):
            assert np.array_equal(stats.times, times) and np.array_equal(stats.reasons, reasons)
        assert one.n_completed == (reasons == HIT_TARGET).sum()

    def test_fused_ensembles_match_separate_calls(self):
        # epsilon, n_traj, target radius, max_time and stream base differ per ensemble
        cfgs = [
            make_cfg(epsilon=0.3, n_traj=40, dt=2e-3, max_time=30.0),
            replace(make_cfg(epsilon=0.25, n_traj=30, dt=2e-3, max_time=25.0),
                    target=Ball([-1.0, 0.0], 0.3), stream_base=40),
        ]
        separate = [estimate_mean_hitting_time(c) for c in cfgs]
        assert all(s.n_timeout > 0 and s.n_completed > 0 for s in separate)
        for jobs in (1, 2):
            fused = estimate_mean_hitting_times(cfgs, jobs=jobs)
            assert len({s.wall_time for s in fused}) == 1  # the shared call's time
            for got, want in zip(fused, separate):
                assert replace(got, wall_time=0.0) == replace(want, wall_time=0.0)
                assert np.array_equal(got.times, want.times)
                assert np.array_equal(got.reasons, want.reasons)

    def test_fused_all_timeout_ensemble_raises_for_its_epsilon(self):
        cfgs = [make_cfg(epsilon=0.3, n_traj=8, max_time=40.0),
                make_cfg(epsilon=0.01, max_time=0.05, n_traj=8)]
        with pytest.raises(NumericsError, match="epsilon=0.01"):
            estimate_mean_hitting_times(cfgs)

    def test_fused_ensembles_must_share_the_run(self):
        with pytest.raises(InputError):
            estimate_mean_hitting_times([make_cfg(), make_cfg(dt=2e-3)])
        with pytest.raises(InputError):
            estimate_mean_hitting_times([make_cfg(), make_cfg(seed=4)])

    def test_radius_rules(self):
        assert target_radius_for(0.05) == 0.2
        assert target_radius_for(0.3) == 0.3
        assert target_radius_for(0.05, "epsilon") == 0.05
        with pytest.raises(InputError):
            target_radius_for(0.1, "bogus")


class TestCommittor:
    def test_boundary_conditions_exact(self):
        cfg = make_cfg(epsilon=0.1, n_traj=50, avoid=True, max_time=500.0)
        ests = estimate_equilibrium_potential(cfg, [[-1.0, 0.0], [1.0, 0.0]])
        assert ests[0].h == 1.0   # inside the target (M) ball
        assert ests[1].h == 0.0   # inside the avoid (S) ball

    def test_probabilities_partition(self):
        cfg = make_cfg(epsilon=0.12, n_traj=200, avoid=True, max_time=500.0)
        est = estimate_equilibrium_potential(cfg, [[-0.5, 0.0]])[0]
        assert 0.9 <= est.h <= 1.0  # deep in the target-side well
        assert 0.0 <= est.h + est.timeout_fraction <= 1.0
        assert not est.unreliable

    def test_momentum_reversal_estimate_present(self):
        cfg = make_cfg(epsilon=0.15, n_traj=100, avoid=True, max_time=500.0)
        est = estimate_equilibrium_potential(cfg, [[-0.4, 0.2]])[0]
        assert 0.0 <= est.h_star <= 1.0

    def test_zero_momentum_reuses_forward_run(self, monkeypatch):
        import metastable.hitting

        rows = []
        engine = metastable.hitting.batch_hit_times

        def counted(model, gamma, epsilon, starts, *rest):
            rows.append(len(starts))
            return engine(model, gamma, epsilon, starts, *rest)

        monkeypatch.setattr(metastable.hitting, "batch_hit_times", counted)
        cfg = make_cfg(epsilon=0.15, n_traj=40, avoid=True, max_time=500.0)
        points = [[-0.3, 0.0], [0.1, 0.3]]
        ests = estimate_equilibrium_potential(cfg, points)
        assert rows == [3 * 40]  # no reversed run for the p = 0 point
        assert ests[0].h_star == ests[0].h
        # point k keeps stream block 2k whether or not earlier points ran a reversed group
        alone = estimate_equilibrium_potential(replace(cfg, stream_base=2 * 40), points[1:])[0]
        assert (alone.h, alone.h_star) == (ests[1].h, ests[1].h_star)

    def test_disjoint_balls_required(self):
        with pytest.raises(InputError):
            EnsembleConfig(
                model=MODEL, epsilon=0.1, gamma=1.0, n_traj=10,
                start=np.array([0.5, 0.0]),
                target=Ball([0.0, 0.0], 0.3), avoid=Ball([0.3, 0.0], 0.3),
            )


class TestSlopeFit:
    def test_exact_log_linear_data(self):
        kappa, b = 3.7, 0.42
        series = [(eps, kappa * np.exp(b / eps)) for eps in (0.3, 0.22, 0.15, 0.1)]
        fit = barrier_slope_fit(series)
        assert abs(fit.slope - b) < 1e-12
        assert abs(fit.intercept - np.log(kappa)) < 1e-12
        assert abs(fit.r_squared - 1.0) < 1e-12

    def test_two_points_rejected(self):
        with pytest.raises(InputError):
            barrier_slope_fit([(0.3, 10.0), (0.2, 20.0)])

    def test_nonpositive_means_rejected(self):
        with pytest.raises(InputError):
            barrier_slope_fit([(0.3, 10.0), (0.2, -1.0), (0.1, 5.0)])


class TestInsensitivityProbe:
    def test_zero_points_gives_zero_spread(self):
        cfg = make_cfg(epsilon=0.25, n_traj=100)
        rep = start_insensitivity_probe(cfg, beta=0.75, n_points=0)
        assert rep.max_relative_spread == 0.0

    def test_beta_range_enforced(self):
        cfg = make_cfg()
        for bad in (0.5, 1.2, 0.0):
            with pytest.raises(InputError):
                start_insensitivity_probe(cfg, beta=bad, n_points=2)

    def test_small_ball_small_spread(self):
        cfg = make_cfg(epsilon=0.25, n_traj=500, max_time=1200.0)
        rep = start_insensitivity_probe(cfg, beta=1.0, n_points=3)
        assert rep.radius == 0.25
        assert rep.max_relative_spread < 0.5


class TestEnvelopeCheck:
    @pytest.fixture
    def report(self):
        cps = find_critical_points(MODEL, [(-2.0, 2.0)], 9)
        return build_landscape(MODEL, cps, start_well_hint=[1.0])

    def synthetic(self, qs, epsilon, v_sigma, exact_slope=1.0):
        ests = []
        for q in qs:
            x = np.array([q, 0.0])
            v = MODEL.energy([q])
            h = 1.0 - np.exp(exact_slope * (v - v_sigma) / epsilon)
            ests.append(CommittorEstimate(x=x, h=h, h_star=h, n=10**9, ci95=0.0,
                                          timeout_fraction=0.0, unreliable=False))
        return ests

    def test_exact_envelope_recovered(self, report):
        ests = self.synthetic((0.2, 0.35, 0.5, 0.65, 0.8), 0.12, report.saddle.energy)
        env = committor_envelope_check(ests, report, MODEL, 0.12)
        assert env.conclusive
        assert abs(env.slope - 1.0) < 1e-6

    def test_all_ones_inconclusive(self, report):
        ests = [
            CommittorEstimate(np.array([q, 0.0]), 1.0, 1.0, 2000, 0.0, 0.0, False)
            for q in (0.3, 0.5, 0.7)
        ]
        env = committor_envelope_check(ests, report, MODEL, 0.1)
        assert not env.conclusive
