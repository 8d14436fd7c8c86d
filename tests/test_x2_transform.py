"""The x''-transform pair on the grid, against the dense exponential sums."""

import numpy as np
import pytest

from grushin.calculus import apply_linear_multiplier_gridded
from grushin.dims import Dims
from grushin.fields import analyze, dilate_gridded, synthesize
from grushin.grid import GridError, GridSpec, make_grid
from grushin.symbols import bump_symbol_1d

from conftest import random_field

SMALL = GridSpec(x1_extent=4.0, x1_count=12, x2_count=8, lambda_min=0.5,
                 lambda_max=1.5, lambda_count=3)
ROUND_TRIP = GridSpec(x1_extent=16.0, x1_count=32, x2_count=8,
                      lambda_min=0.5, lambda_max=1.0, lambda_count=2)


@pytest.mark.parametrize("d1,d2", [(1, 1), (1, 2), (2, 2)])
def test_x2_pair_matches_dense_sums(d1, d2):
    g = make_grid(Dims(d1, d2), SMALL)
    rng = np.random.default_rng(10 * d1 + d2)
    nodes = g.lambda_points[rng.integers(0, g.n_lambda, 6)]
    # repeated frequencies, pair sums, and multiples past Nyquist
    lam = np.concatenate([nodes, nodes[:3], nodes[:3] + nodes[3:],
                          3.0 * g.lambda_points[[0, -1]]])
    nyquist = np.pi * g.x2_axis.size / g.x2_box_length
    assert np.max(np.abs(lam)) > nyquist

    phases = np.exp(-1j * lam @ g.x2_points.T)              # (n, n_x2)
    v = rng.normal(size=(g.n_x1, g.n_x2)) \
        + 1j * rng.normal(size=(g.n_x1, g.n_x2))
    dense = (phases * g.x2_weights) @ v.T
    got = g.x2_forward(v, lam)
    assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))

    c = rng.normal(size=(g.n_x1, lam.shape[0])) \
        + 1j * rng.normal(size=(g.n_x1, lam.shape[0]))
    dense = c @ np.conj(phases)
    got = g.x2_inverse(c, lam)
    assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("d1,d2", [(1, 2), (2, 2)])
def test_round_trip_higher_d2(d1, d2):
    g = make_grid(Dims(d1, d2), ROUND_TRIP)
    f = random_field(g, (0.5, 1.5), 2, seed=d1 + d2)
    back = analyze(synthesize(f, g), 2, lambda_support=f.lambda_support)
    rel = np.max(np.abs(back.coeffs - f.coeffs)) / np.max(np.abs(f.coeffs))
    assert rel <= 1e-6


def test_transforms_reject_dilated_subgrid(dilation_grid):
    # dilate_gridded(h, 0.5) keeps every fourth x''-node but quarters the
    # frequency step, so its x''-axis is not the lattice of that step.
    g = dilation_grid
    h = dilate_gridded(synthesize(random_field(g, (0.25, 0.75), 2, seed=5),
                                  g), 0.5)
    sub = h.grid
    band = sub.lambda_points[(sub.lambda_abs > 0.3) & (sub.lambda_abs < 0.6)]
    assert band.size
    with pytest.raises(GridError):
        analyze(h, 2, lambda_support=band)
    with pytest.raises(GridError):
        apply_linear_multiplier_gridded(bump_symbol_1d(0.05, 0.45), h)


@pytest.mark.parametrize("d2", [1, 2])
def test_transforms_reject_a_nan_frequency(d2):
    g = make_grid(Dims(1, d2), SMALL)
    lam = g.lambda_points[:3].copy()
    lam[1, -1] = np.nan
    with pytest.raises(GridError, match="off the lattice"):
        g.x2_forward(np.ones((g.n_x1, g.n_x2)), lam)
    with pytest.raises(GridError, match="off the lattice"):
        g.x2_inverse(np.ones((g.n_x1, 3), dtype=complex), lam)
