import numpy as np
import pytest

from metastable.errors import InputError
from metastable.potentials import (
    PhaseState,
    check_growth_conditions,
    hamiltonian,
    normalize_offset,
    polynomial_potential,
    quartic_double_well,
    saddle_quadratic_model,
    separable_double_well,
)


@pytest.fixture
def quartic():
    return quartic_double_well()


def test_quartic_energy_values(quartic):
    assert quartic.energy([1.0]) == 0.0
    assert quartic.energy([0.0]) == 0.25  # (q^2-1)^2/4 at 0
    sep = separable_double_well([4.0])
    assert sep.energy([0.0, 0.0]) == 0.25


def test_quartic_gradient_values(quartic):
    assert quartic.gradient([1.0])[0] == 0.0
    assert quartic.gradient([-1.0])[0] == 0.0
    assert quartic.gradient([2.0])[0] == 6.0  # q^3 - q at 2
    assert quartic.gradient([0.0])[0] == 0.0


def test_quartic_hessian_values(quartic):
    assert quartic.hessian([1.0])[0, 0] == 2.0   # 3q^2 - 1 at 1
    assert quartic.hessian([0.0])[0, 0] == -1.0
    sep = separable_double_well([4.0])
    assert np.allclose(sep.hessian([0.0, 0.0]), np.diag([-1.0, 4.0]))


def test_hamiltonian_values(quartic):
    assert hamiltonian(quartic, [1.0, 0.0]) == 0.0
    assert hamiltonian(quartic, [0.0, 0.0]) == 0.25
    assert hamiltonian(quartic, [1.0, 1.0]) == 0.5
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = rng.uniform(-2, 2, size=1)
        x = np.concatenate([q, [0.0]])
        assert hamiltonian(quartic, x) == quartic.energy(q)


def test_dimension_mismatch_raises(quartic):
    with pytest.raises(InputError):
        quartic.energy([1.0, 2.0])
    with pytest.raises(InputError):
        quartic.gradient([[1.0, 2.0]])
    with pytest.raises(InputError):
        hamiltonian(quartic, [1.0, 0.0, 0.0])


def test_phase_state():
    s = PhaseState([1.0], [0.5])
    assert s.d == 1
    assert np.array_equal(s.as_array(), [1.0, 0.5])
    assert np.array_equal(PhaseState.from_array([1.0, 0.5]).q, [1.0])
    with pytest.raises(InputError):
        PhaseState([1.0, 2.0], [0.5])


@pytest.mark.parametrize(
    "model",
    [
        quartic_double_well(),
        separable_double_well([4.0]),
        separable_double_well([2.0, 3.0]),
        polynomial_potential(2, [(0.25, (4, 0)), (-0.5, (2, 0)), (1.0, (0, 2)), (0.3, (2, 2))]),
    ],
)
def test_finite_difference_consistency(model):
    """Gradient within 1e-6 of FD(energy); Hessian within 1e-5 of FD(gradient)."""
    rng = np.random.default_rng(42)
    d = model.dimension
    h = 1.0e-6
    for x in rng.uniform(-1.5, 1.5, size=(100, d)):
        g = model.gradient(x)
        scale = max(1.0, np.linalg.norm(g))
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            fd = (model.energy(x + e) - model.energy(x - e)) / (2 * h)
            assert abs(fd - g[i]) < 1.0e-6 * scale
        hess = model.hessian(x)
        assert np.max(np.abs(hess - hess.T)) < 1.0e-12
        hscale = max(1.0, np.linalg.norm(hess))
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            fd_row = (model.gradient(x + e) - model.gradient(x - e)) / (2 * h)
            assert np.max(np.abs(fd_row - hess[i])) < 1.0e-5 * hscale


def test_polynomial_matches_hand_evaluation():
    # U = 0.2 q1^3 q2 - q1 q2 + 1.5
    model = polynomial_potential(2, [(0.2, (3, 1)), (-1.0, (1, 1)), (1.5, (0, 0))])
    q = np.array([0.7, -1.2])
    expected = 0.2 * 0.7**3 * (-1.2) - 0.7 * (-1.2) + 1.5
    assert np.isclose(model.energy(q), expected, rtol=1e-14)
    grad = model.gradient(q)
    assert np.isclose(grad[0], 0.6 * 0.7**2 * (-1.2) + 1.2, rtol=1e-13)
    assert np.isclose(grad[1], 0.2 * 0.7**3 - 0.7, rtol=1e-13)


@pytest.mark.parametrize("model", [quartic_double_well(), separable_double_well([4.0])])
def test_gradient_is_odd_bit_for_bit(model):
    # x * x * x rounds the same for x and -x; np.power(x, 3) by sign does not
    rng = np.random.default_rng(1)
    q = rng.uniform(-2.0, 2.0, size=(100_000, model.dimension))
    assert np.array_equal(model.gradient(-q), -model.gradient(q))


def test_polynomial_powers_are_left_to_right_products():
    # U = 0.7 x^3 y - 1.3 y^4 + 0.4 x^5 y + 2 x^2 + 1.1, monomials summed in order
    model = polynomial_potential(2, [(0.7, (3, 1)), (-1.3, (0, 4)), (0.4, (5, 1)), (2.0, (2, 0)),
                                     (1.1, (0, 0))])
    q = np.random.default_rng(2).uniform(-1.5, 1.5, size=(500, 2))
    x, y = q[:, 0], q[:, 1]
    energy = (0.0 + 0.7 * (x * x * x) * y + -1.3 * (y * y * y * y) + 0.4 * (x * x * x * x * x) * y
              + 2.0 * (x * x) + 1.1)
    assert np.array_equal(model.energy(q), energy)
    gx = 0.0 + (0.7 * 3) * (x * x) * y + (0.4 * 5) * (x * x * x * x) * y + (2.0 * 2) * x
    gy = 0.0 + 0.7 * (x * x * x) + (-1.3 * 4) * (y * y * y) + 0.4 * (x * x * x * x * x)
    assert np.array_equal(model.gradient(q), np.stack([gx, gy], axis=1))
    for a, b in q[:50]:
        hxx = 0.0 + (0.7 * 3 * 2) * a * b + (0.4 * 5 * 4) * (a * a * a) * b + (2.0 * 2 * 1)
        hxy = 0.0 + (0.7 * 3 * 1) * (a * a) + (0.4 * 5 * 1) * (a * a * a * a)
        hyy = 0.0 + (-1.3 * 4 * 3) * (b * b)
        assert np.array_equal(model.hessian([a, b]), [[hxx, hxy], [hxy, hyy]])


def test_batched_hamiltonian_matches_single_points():
    # |p|^2 of a batch rounds as np.dot does for one point (np.sum(p**2) differs in 2-D)
    model = separable_double_well([4.0])
    x = np.random.default_rng(3).uniform(-2.0, 2.0, size=(2000, 4))
    batch = hamiltonian(model, x)
    assert np.array_equal(batch, [hamiltonian(model, xi) for xi in x])


def test_polynomial_restrictions():
    with pytest.raises(InputError):
        polynomial_potential(1, [(1.0, (7,))])  # degree > 6
    with pytest.raises(InputError):
        polynomial_potential(4, [(1.0, (1, 0, 0, 0))])  # d > 3
    with pytest.raises(InputError):
        polynomial_potential(2, [(1.0, (1,))])  # exponent arity


def test_saddle_quadratic_model_matches_expansion(quartic):
    hess = quartic.hessian([0.0])
    ctrl = saddle_quadratic_model([0.0], hess, 0.25)
    for q in np.linspace(-1.5, 1.5, 11):
        assert np.isclose(ctrl.energy([q]), 0.25 - 0.5 * q * q, atol=1e-14)
        assert np.isclose(ctrl.gradient([q])[0], -q, atol=1e-14)


def test_normalize_offset_idempotent(quartic):
    shifted = normalize_offset(quartic, -3.0)
    assert shifted.energy([1.0]) == 3.0
    again = normalize_offset(shifted, 3.0)
    assert again.energy([1.0]) == 0.0
    # derivatives bit-identical under offsets
    x = np.array([0.731])
    assert np.array_equal(shifted.gradient(x), quartic.gradient(x))
    assert np.array_equal(shifted.hessian(x), quartic.hessian(x))
    # already-normalized model is a fixed point
    same = normalize_offset(quartic, 0.0)
    assert same.energy([0.3]) == quartic.energy([0.3])


class TestGrowthConditions:
    radii = np.linspace(1.5, 10.0, 8)

    def test_quartic_passes(self):
        rep = check_growth_conditions(quartic_double_well(), 0.1, self.radii)
        assert rep.passed
        assert rep.min_ratio_1 > 0 and rep.min_ratio_2 > 0

    def test_all_builtin_families_pass(self):
        for model in (separable_double_well([4.0]), separable_double_well([2.0, 3.0])):
            assert check_growth_conditions(model, 0.1, self.radii).passed

    def test_linear_potential_fails(self):
        linear = polynomial_potential(1, [(1.0, (1,))])
        assert not check_growth_conditions(linear, 0.1, self.radii).passed

    def test_huge_beta_fails(self):
        rep = check_growth_conditions(quartic_double_well(), 1.0e6, self.radii)
        assert not rep.passed

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            check_growth_conditions(quartic_double_well(), 0.1, [])
        with pytest.raises(InputError):
            check_growth_conditions(quartic_double_well(), -1.0, self.radii)
