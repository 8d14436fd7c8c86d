"""The scaled-Hermite profile bank: one ragged row builder behind every
profile site, checked against literal per-node and per-function sums."""

import dataclasses

import numpy as np
import pytest

from conftest import random_field, riesz_symbol_1d
from grushin.calculus import apply_linear_multiplier_gridded, build_atoms
from grushin.dims import Dims
from grushin.fields import SpectralField, analyze, profile_tensor, synthesize
from grushin.grid import GridSpec, make_grid
from grushin.hermite import (_profile_rows, multi_index_degrees,
                             multi_indices_upto, scaled_hermite_eval,
                             scaled_profile_bank, scaled_profile_matrix)
from grushin.riesz import _weighted_profiles

DIMS = [(1, 1), (2, 1), (1, 2), (2, 2)]


def _grid(d1, d2):
    return make_grid(Dims(d1, d2), GridSpec(
        d1=d1, d2=d2, x1_extent=12, x1_count=36, x2_count=16,
        lambda_min=0.25, lambda_max=2.0, lambda_count=8))


def _field(d1, d2):
    grid = _grid(d1, d2)
    return grid, random_field(grid, (0.3, 1.0), 1 if d1 == d2 == 2 else 2,
                              seed=1)


@pytest.mark.parametrize("d1,d2", DIMS)
def test_bank_rows_equal_scaled_hermite_products(d1, d2):
    grid = _grid(d1, d2)
    rng = np.random.default_rng(d1 + 2 * d2)
    lam = grid.lambda_points[rng.choice(grid.n_lambda, 5, replace=False)]
    mus = np.array(multi_indices_upto(d1, 6))
    node = rng.integers(0, 5, 40)
    mu = mus[rng.integers(0, len(mus), 40)]
    pts = grid.x1_points[::5]
    rows = _profile_rows(lam, node, mu, pts)
    ref = np.array([scaled_hermite_eval(m, lam[n], pts)
                    for n, m in zip(node, mu)])
    if d1 == 1:     # one factor: the same two products in the same order
        np.testing.assert_array_equal(rows, ref)
    np.testing.assert_allclose(rows, ref, rtol=1e-14, atol=1e-300)


@pytest.mark.parametrize("d1,d2", DIMS)
def test_profile_sites_equal_per_node_loops(d1, d2):
    grid, f = _field(d1, d2)
    pts, w1 = grid.x1_points, grid.x1_weights
    bases = [scaled_profile_matrix(f.max_degree, lam, pts)
             for lam in f.lambda_support]
    np.testing.assert_array_equal(
        scaled_profile_bank(f.max_degree, f.lambda_support, pts),
        np.array(bases))

    tensor = np.array([c @ b for c, b in zip(f.coeffs, bases)])
    np.testing.assert_array_equal(profile_tensor(f, grid), tensor)

    idx = np.array([grid.lambda_index(lam) for lam in f.lambda_support])
    w = grid.lambda_weights[idx]
    weighted = np.array([(wi * c)[:, None] * b
                         for wi, c, b in zip(w, f.coeffs, bases)])
    np.testing.assert_array_equal(_weighted_profiles(f, grid), weighted)

    h = synthesize(f, grid)
    box = grid.x2_box_length ** d2
    sections = grid.x2_forward(h.values, f.lambda_support)
    sections *= ((2.0 * np.pi) ** d2 / (w * box))[:, None]
    coeffs = np.array([(b * w1) @ s for b, s in zip(bases, sections)])
    got = analyze(h, f.max_degree, lambda_support=f.lambda_support)
    np.testing.assert_array_equal(got.coeffs, coeffs)


@pytest.mark.parametrize("d1,d2", DIMS)
def test_gridded_multiplier_equals_per_node_loop(d1, d2):
    # The node sums now run over the atoms' rows; only their order moved.
    grid, f = _field(d1, d2)
    h = synthesize(f, grid)
    F = riesz_symbol_1d(1.0, 1.5)
    atoms = build_atoms(grid, F.support[1])
    sections = grid.x2_forward(h.values, grid.lambda_points)
    out = np.zeros_like(sections)
    for i in np.unique(atoms.lam_index):
        kmax = int(atoms.level[atoms.lam_index == i].max())
        basis = scaled_profile_matrix(kmax, grid.lambda_points[i],
                                      grid.x1_points)
        sym = F((2 * multi_index_degrees(d1, kmax) + d1) * grid.lambda_abs[i])
        out[i] = (sym * ((basis * grid.x1_weights) @ sections[i])) @ basis
    ref = grid.x2_inverse(out.T / grid.x2_box_length ** d2,
                          grid.lambda_points)
    got = apply_linear_multiplier_gridded(F, h).values
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_multi_index_degrees_follow_the_enumeration():
    for d1, k in ((1, 5), (2, 4), (3, 3)):
        degs = multi_index_degrees(d1, k)
        assert degs.tolist() == [sum(mu) for mu in multi_indices_upto(d1, k)]
        assert not degs.flags.writeable


def test_spectral_field_is_frozen():
    _, f = _field(1, 1)
    eig = f.eigenvalues
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.max_degree = f.max_degree + 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.lambda_support = 2.0 * f.lambda_support
    assert f.eigenvalues is eig
    # __post_init__ still normalizes its inputs
    g = SpectralField(f.dims, f.lambda_support[0], 0, [[1.0]])
    assert g.lambda_support.shape == (1, 1) and g.coeffs.dtype == complex
