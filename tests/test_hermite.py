import numpy as np
import pytest

from grushin.hermite import (build_hermite_table, hermite_all, hermite_eval,
                             hermite_second_derivative, multi_indices,
                             multi_indices_upto, projection_kernel,
                             scaled_hermite_eval, scaled_profile_matrix)

PI14 = np.pi ** 0.25


def test_values_at_zero():
    assert hermite_eval(0, 0.0) == pytest.approx(np.pi ** -0.25, rel=1e-14)
    assert hermite_eval(1, 0.0) == 0.0
    assert hermite_eval(2, 0.0) == pytest.approx(-1.0 / (np.sqrt(2) * PI14),
                                                 rel=1e-14)


def test_rodrigues_low_degrees():
    # Direct Rodrigues evaluation at a few points for l = 0..3.
    t = np.linspace(-2.5, 2.5, 11)
    h0 = np.pi ** -0.25 * np.exp(-t * t / 2)
    h1 = np.sqrt(2.0) * t * h0
    h2 = (2 * t * t - 1) / np.sqrt(2.0) * h0
    h3 = (2 * t ** 3 - 3 * t) / np.sqrt(3.0) * h0
    tab = hermite_all(3, t)
    for l, ref in enumerate((h0, h1, h2, h3)):
        assert np.max(np.abs(tab[l] - ref)) < 1e-13


def test_recurrence_residual_high_degree():
    t = np.linspace(-20.0, 20.0, 401)
    vals = hermite_all(256, t)
    worst = 0.0
    for l in range(1, 256):
        lhs = vals[l + 1]
        rhs = (t * np.sqrt(2.0 / (l + 1)) * vals[l]
               - np.sqrt(l / (l + 1.0)) * vals[l - 1])
        scale = max(np.max(np.abs(lhs)), 1e-300)
        worst = max(worst, np.max(np.abs(lhs - rhs)) / scale)
    assert worst <= 1e-12


def test_underflow_tails_flush_to_zero():
    vals = hermite_all(4, np.array([60.0]))
    assert np.all(vals == 0.0)
    assert not np.isnan(hermite_all(512, np.array([38.0, 50.0]))).any()


def table_gram(tab):
    """The table's Gram matrix under its trapezoid weights."""
    return (tab.values * tab.weights) @ tab.values.T


def table_recurrence_residual(tab):
    """Largest relative defect of the three-term recurrence
    h_{l+1} = t sqrt(2/(l+1)) h_l - sqrt(l/(l+1)) h_{l-1} over the table."""
    t, vals = tab.nodes, tab.values
    worst = 0.0
    for l in range(1, tab.max_l):
        lhs = vals[l + 1]
        rhs = (t * np.sqrt(2.0 / (l + 1)) * vals[l]
               - np.sqrt(l / (l + 1.0)) * vals[l - 1])
        scale = np.max(np.abs(lhs)) or 1.0
        worst = max(worst, float(np.max(np.abs(lhs - rhs)) / scale))
    return worst


def test_gram_identity_degree_32():
    tab = build_hermite_table(32)
    assert np.max(np.abs(table_gram(tab) - np.eye(33))) <= 1e-8
    assert table_recurrence_residual(tab) <= 1e-12


def test_scaled_hermite_ground_state():
    x = np.linspace(-3, 3, 7)
    vals = np.array([scaled_hermite_eval((0,), 1.0, [xx]) for xx in x])
    ref = np.pi ** -0.25 * np.exp(-x * x / 2)
    assert np.max(np.abs(vals - ref)) < 1e-14


def test_scaled_hermite_scaling_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        mu = int(rng.integers(0, 9))
        lam = float(rng.uniform(0.1, 4.0))
        x = float(rng.uniform(-2, 2))
        direct = scaled_hermite_eval((mu,), lam, [x])
        ref = lam ** 0.25 * hermite_eval(mu, np.sqrt(lam) * x)
        assert direct == pytest.approx(ref, rel=1e-13)


def test_scaled_hermite_rejects_zero_frequency():
    with pytest.raises(ValueError):
        scaled_hermite_eval((0,), 0.0, [0.3])
    with pytest.raises(ValueError):
        projection_kernel(0, 0.0, [0.1], [0.2])
    with pytest.raises(ValueError):
        scaled_profile_matrix(2, 0.0, np.linspace(-1.0, 1.0, 5))


@pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("mu", range(0, 9))
def test_eigenrelation_spectral(lam, mu):
    # Second derivative via exact ladder identities: residual is roundoff.
    t = np.linspace(-6.0, 6.0, 121)
    u = np.sqrt(lam) * t
    h = hermite_all(mu, u)[mu]
    h2 = hermite_second_derivative(mu, u)
    residual = -lam * h2 + lam * u * u * h - (2 * mu + 1) * lam * h
    scale = np.max(np.abs((2 * mu + 1) * lam * h))
    assert np.max(np.abs(residual)) / scale <= 1e-10


@pytest.mark.parametrize("lam", [0.25, 1.0, 4.0])
def test_eigenrelation_finite_difference(lam):
    # 4th-order central differences on a dedicated fine grid.
    mu = 8
    h = 2e-3
    t = np.arange(-8.0, 8.0, h)
    phi = lam ** 0.25 * hermite_all(mu, np.sqrt(lam) * t)[mu]
    d2 = (-phi[:-4] + 16 * phi[1:-3] - 30 * phi[2:-2] + 16 * phi[3:-1]
          - phi[4:]) / (12 * h * h)
    inner = slice(2, -2)
    residual = -d2 + (lam * t[inner]) ** 2 * phi[inner] \
        - (2 * mu + 1) * lam * phi[inner]
    scale = np.max(np.abs((2 * mu + 1) * lam * phi))
    assert np.max(np.abs(residual)) / scale <= 1e-5


def test_projection_kernel_ground_state_closed_form():
    x, y = 0.4, -1.3
    val = projection_kernel(0, 1.0, [x], [y])
    assert val == pytest.approx(np.pi ** -0.5 * np.exp(-(x * x + y * y) / 2),
                                rel=1e-13)


def test_projection_kernel_symmetry():
    rng = np.random.default_rng(2)
    for _ in range(10):
        lam = float(rng.uniform(0.2, 3.0))
        k = int(rng.integers(0, 6))
        x, y = rng.uniform(-2, 2, 2)
        assert projection_kernel(k, lam, [x], [y]) == pytest.approx(
            projection_kernel(k, lam, [y], [x]), rel=1e-12)


def test_projection_kernel_idempotent_under_quadrature():
    lam, k = 1.0, 3
    u = np.linspace(-12, 12, 1201)
    w = np.full(u.size, u[1] - u[0])
    w[0] = w[-1] = w[0] / 2
    x, y = 0.7, -0.2
    left = projection_kernel(k, lam, np.full((u.size, 1), x), u[:, None])
    right = projection_kernel(k, lam, u[:, None], np.full((u.size, 1), y))
    quad = float(np.sum(w * left * right))
    assert quad == pytest.approx(projection_kernel(k, lam, [x], [y]),
                                 abs=1e-6)


def test_multi_index_enumeration_colex():
    assert multi_indices(1, 4) == ((4,),)
    assert multi_indices(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert multi_indices(3, 1) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    upto = multi_indices_upto(2, 2)
    assert upto == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
