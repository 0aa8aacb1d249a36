import pytest

from metastable.errors import NumericsError
from metastable.lyapunov import (
    build_global_lyapunov,
    build_local_lyapunov,
    exit_probability_probe,
    verify_global_lyapunov,
)
from metastable.potentials import quartic_double_well

MODEL = quartic_double_well()


class TestRejectionBounds:
    def test_exit_probe_level_beyond_rho_raises(self):
        # h peaks near 0.28 on the rho sphere, so no direction reaches H = 1e6
        local = build_local_lyapunov(MODEL, [1.0], 1.0, seed=0)
        with pytest.raises(NumericsError):
            exit_probability_probe(local, MODEL, 1.0, [0.3], a=1.0e6, b=2.0e6, t=1.0, n_traj=50)

    def test_global_sampling_with_no_outside_region_raises(self):
        # outer_factor 1 draws every 1-D sample inside the compact set {|q| <= M, |p| <= R}
        construct = build_global_lyapunov(MODEL, 1.0, seed=0)
        with pytest.raises(NumericsError):
            verify_global_lyapunov(construct, MODEL, 1.0, 0.5, n_samples=100, outer_factor=1.0)
