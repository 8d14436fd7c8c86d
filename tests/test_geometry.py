import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grushin.dims import Dims
from grushin.geometry import (Point, ball_volume, control_distance,
                              control_distance_batch, second_layer_reach,
                              weight_integral_check)

coords = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


def test_distance_examples():
    assert control_distance(Point([0.3], [1.2]), Point([0.3], [1.2])) == 0.0
    assert control_distance(Point([0], [0]), Point([0], [4])) == \
        pytest.approx(2.0)
    assert control_distance(Point([1], [0]), Point([1], [0.5])) == \
        pytest.approx(0.25)


@settings(max_examples=100, deadline=None)
@given(x1=coords, x2=coords, y1=coords, y2=coords)
def test_distance_symmetry_and_positivity(x1, x2, y1, y2):
    a, b = Point([x1], [x2]), Point([y1], [y2])
    d = control_distance(a, b)
    assert d == control_distance(b, a)
    assert d >= 0.0
    # positivity needs the gap to survive squaring (subnormal differences
    # underflow inside the Euclidean norm)
    if max(abs(x1 - y1), abs(x2 - y2)) > 1e-150:
        assert d > 0.0


def test_distance_is_the_one_row_batch():
    rng = np.random.default_rng(8)
    for d1, d2 in ((1, 1), (2, 1), (1, 2), (2, 2)):
        a1, b1 = rng.uniform(-3, 3, (2, 5, d1))
        a2, b2 = rng.uniform(-9, 9, (2, 5, d2))
        a1[0] = b1[0] = 0.0          # the radial-zero branch
        a2[1] = b2[1]                # the zero-gap branch
        batch = control_distance_batch(a1, a2, b1, b2)
        rows = [control_distance(Point(*x), Point(*y))
                for x, y in zip(zip(a1, a2), zip(b1, b2))]
        assert rows == batch.tolist()


def quasi_triangle_constant(dims: Dims, n_samples: int = 2000,
                            seed: int = 0) -> float:
    """Measured constant K with dist(x,z) <= K (dist(x,y) + dist(y,z)),
    over random triples with x' in [-4, 4]^d1 and x'' in [-16, 16]^d2."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        pts = [Point(rng.uniform(-4.0, 4.0, dims.d1),
                     rng.uniform(-16.0, 16.0, dims.d2))
               for _ in range(3)]
        x, y, z = pts
        through = control_distance(x, y) + control_distance(y, z)
        if through > 0:
            worst = max(worst, control_distance(x, z) / through)
    return worst


def test_quasi_triangle_measured_constant():
    k = quasi_triangle_constant(Dims(1, 1), n_samples=1500, seed=1)
    assert 0.5 <= k <= 4.0


def test_ball_volume_examples():
    assert ball_volume(Point([0], [0]), 2.0) == pytest.approx(8.0)
    # max branch: r fixed, |x'| >= r
    assert ball_volume(Point([5.0], [0]), 2.0) == pytest.approx(4.0 * 5.0)
    with pytest.raises(ValueError):
        ball_volume(Point([0], [0]), 0.0)


def test_doubling_algebraic():
    rng = np.random.default_rng(3)
    q = Dims(1, 1).homogeneous_dim
    for _ in range(200):
        x = Point(rng.uniform(-5, 5, 1), rng.uniform(-20, 20, 1))
        r = float(rng.uniform(0.05, 8.0))
        kappa = float(rng.uniform(1.0, 10.0))
        assert ball_volume(x, kappa * r) <= (1 + kappa) ** q \
            * ball_volume(x, r) * (1 + 1e-12)


def test_ball_membership_and_box_inclusion():
    x = Point([0.5], [0.0])
    assert control_distance(x, Point([0.5], [0.1])) < 1.0
    assert control_distance(x, Point([4.0], [0.0])) >= 1.0
    # small-center balls fit a product box with second layer ~ r^2
    assert second_layer_reach(0.2, 1.0) <= 4.0 * 1.0 ** 2
    assert second_layer_reach(0.0, 2.0) == pytest.approx(4.0)


def test_weight_integral_first_layer_volume_case():
    # gamma = 0: the integral is the ball volume; ratio to the canonical
    # formula is a dimensional constant across the radius sweep.
    rep = weight_integral_check(Point([0.0], [0.0]),
                                [0.25, 0.5, 1, 2, 4, 8], 0.0, "first",
                                n_per_axis=140)
    ratios = np.array(rep.details["ratios"])
    assert rep.verdict == "PASS"
    assert np.max(ratios) / np.min(ratios) <= 1.2


def test_weight_integral_first_layer_refinement_stable():
    rep = weight_integral_check(Point([0.0], [0.0]), [0.5, 1.0, 2.0],
                                0.5, "first", n_per_axis=140)
    assert rep.details["refinement_growth"] < 0.05
    assert rep.verdict == "PASS"


def test_weight_integral_small_radius_bounded():
    rep = weight_integral_check(Point([2.0], [0.0]),
                                [0.03125, 0.0625, 0.125], 0.25, "first",
                                n_per_axis=140)
    assert np.max(rep.details["ratios"]) < 50.0
    assert rep.verdict == "PASS"


def test_weight_integral_second_layer():
    rep = weight_integral_check(Point([0.5], [0.0]), [1.0, 2.0, 4.0],
                                0.5, "second", n_per_axis=140)
    assert rep.verdict == "PASS"
    assert np.max(rep.details["ratios"]) < 50.0


def test_weight_integral_rejects_bad_gamma():
    with pytest.raises(ValueError):
        weight_integral_check(Point([0], [0]), [1.0], 1.0, "first")
    with pytest.raises(ValueError):
        weight_integral_check(Point([0], [0]), [1.0], 1.5, "second")
    with pytest.raises(ValueError):
        weight_integral_check(Point([0], [0]), [1.0], 0.5, "third")
