from dataclasses import replace

import numpy as np
import pytest

from grushin.calculus import apply_linear_multiplier
from grushin.fields import SpectralField, synthesize
from grushin.hermite import multi_indices_upto
from grushin.riesz import (bilinear_apply_direct, bilinear_apply_separated,
                           build_expansion, dilation_covariance_check,
                           fourier_coeff_batch, fourier_coeff_quadrature,
                           truncated_series_symbol)
from grushin.symbols import (DyadicPiece, RieszParams, Symbol2D,
                             bump_symbol_1d, dyadic_piece_symbol,
                             riesz_symbol, tensor_symbol)

from conftest import random_field, riesz_symbol_1d

SAFE_BAND = (0.34, 0.495)   # live eigenvalues clear of the shell windows


def rel_l2(a, b):
    den = np.sqrt(np.sum(np.abs(b) ** 2))
    return np.sqrt(np.sum(np.abs(a - b) ** 2)) / den


def test_direct_product_identity(riesz_grid):
    g = riesz_grid
    f = random_field(g, (1 / 8, 0.49), 4, seed=1)
    h = random_field(g, (1 / 8, 0.49), 4, seed=2)
    one = Symbol2D(lambda a, b: np.ones_like(a, dtype=complex),
                   ((0.0, 100.0), (0.0, 100.0)))
    out = bilinear_apply_direct(one, f, h, g)
    prod = synthesize(f, g).values * synthesize(h, g).values
    assert np.max(np.abs(out.values - prod)) <= 1e-8 * np.max(np.abs(prod))


def test_direct_zero_and_bilinearity(riesz_grid):
    g = riesz_grid
    f = random_field(g, (1 / 8, 0.49), 2, seed=3)
    zero = f.copy_with(np.zeros_like(f.coeffs))
    sym = riesz_symbol(RieszParams(1.0, 1.0))
    assert np.all(bilinear_apply_direct(sym, zero, f, g).values == 0)
    assert np.all(bilinear_apply_direct(sym, f, zero, g).values == 0)
    a = 2.0 - 1.0j
    left = bilinear_apply_direct(sym, f.copy_with(a * f.coeffs), f, g)
    right = bilinear_apply_direct(sym, f, f, g)
    assert np.max(np.abs(left.values - a * right.values)) <= \
        1e-10 * np.max(np.abs(right.values))


def test_direct_separable_oracle(riesz_grid):
    g = riesz_grid
    f = random_field(g, (1 / 8, 0.49), 3, seed=4)
    h = random_field(g, (1 / 8, 0.49), 3, seed=5)
    F1 = riesz_symbol_1d(1.0, 1.0)
    F2 = bump_symbol_1d(0.1, 0.9)
    out = bilinear_apply_direct(tensor_symbol(F1, F2), f, h, g)
    ref = synthesize(apply_linear_multiplier(F1, f), g).values \
        * synthesize(apply_linear_multiplier(F2, h), g).values
    assert np.max(np.abs(out.values - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_direct_symmetry(riesz_grid):
    g = riesz_grid
    f = random_field(g, (1 / 8, 0.49), 3, seed=6)
    h = random_field(g, (1 / 8, 0.49), 3, seed=7)
    sym = riesz_symbol(RieszParams(1.0, 1.0))
    fg = bilinear_apply_direct(sym, f, h, g)
    gf = bilinear_apply_direct(sym, h, f, g)
    assert np.max(np.abs(fg.values - gf.values)) <= \
        1e-10 * np.max(np.abs(fg.values))


def test_support_annihilation(riesz_grid):
    g = riesz_grid
    base = random_field(g, (0.3, 0.49), 4, seed=8)
    n_mu = len(multi_indices_upto(1, 4))
    coeffs = np.zeros((base.lambda_support.shape[0], n_mu), dtype=complex)
    coeffs[:, 2:] = 1.0   # degrees >= 2: eigenvalues >= 5 * 0.3 > 1
    hi = SpectralField(g.dims, base.lambda_support, 4, coeffs)
    other = random_field(g, (1 / 8, 0.49), 2, seed=9)
    sym = riesz_symbol(RieszParams(1.0, 1.0))
    assert np.max(np.abs(bilinear_apply_direct(sym, hi, other, g).values)) \
        == 0.0


def test_fourier_coeff_definition_and_symmetry():
    piece = DyadicPiece(3, 1.0)
    eta = np.array([0.3, 0.55])
    # l = 0 against a plain rectangle quadrature of the defining integral
    e2 = np.linspace(0, 1, 20001)
    prof = dyadic_piece_symbol(piece)
    for e1 in eta:
        direct = 0.5 * np.trapezoid(
            np.real(prof(np.full_like(e2, e1), e2)), e2)
        # the trapezoid reference itself carries ~1e-8 error
        assert fourier_coeff_batch(piece, [0], [e1])[0, 0] == \
            pytest.approx(direct, abs=1e-6)
    # conjugate symmetry of a real symbol
    plus = fourier_coeff_batch(piece, [7], eta)
    minus = fourier_coeff_batch(piece, [-7], eta)
    assert np.max(np.abs(minus - np.conj(plus))) <= 1e-15


def test_fourier_coeff_fft_matches_quadrature():
    piece = DyadicPiece(2, 1.0)
    # below the shell window the periodic extension is smooth and the
    # FFT path is spectrally exact
    eta = np.linspace(0, 0.45, 13)
    ls = np.arange(-3000, 3001, 100)   # force the FFT path
    a = fourier_coeff_batch(piece, ls, eta)
    b = fourier_coeff_quadrature(piece, ls, eta)
    assert np.max(np.abs(a - b)) <= 1e-12
    # on the window (zero extension jumps) both paths agree to the
    # rectangle-rule jump error O(1/n)
    eta_bad = np.array([0.7])
    a = fourier_coeff_batch(piece, ls, eta_bad)
    b = fourier_coeff_quadrature(piece, ls, eta_bad)
    assert np.max(np.abs(a - b)) <= 1e-4


def test_expansion_tail_rule_and_agreement(riesz_grid):
    g = riesz_grid
    f = random_field(g, SAFE_BAND, 4, seed=10)
    h = random_field(g, SAFE_BAND, 4, seed=11)
    live = np.unique(f.eigenvalues[f.eigenvalues <= 1.0])
    for j, alpha in ((2, 1.0), (3, 1.0), (4, 2.0), (3, 2.0)):
        piece = DyadicPiece(j, alpha)
        exp = build_expansion(piece, eta1_samples=live, tol=1e-8)
        assert exp.coeffs is not None
        sep = bilinear_apply_separated(exp, f, h, g)
        assert exp.coeffs is None          # the carried table is dropped
        direct = bilinear_apply_direct(dyadic_piece_symbol(piece), f, h, g)
        assert rel_l2(sep.values, direct.values) <= 1e-6


def test_separated_zero_inputs(riesz_grid):
    g = riesz_grid
    f = random_field(g, SAFE_BAND, 2, seed=12)
    zero = f.copy_with(np.zeros_like(f.coeffs))
    exp = build_expansion(DyadicPiece(2, 1.0), tol=1e-6)
    assert np.all(bilinear_apply_separated(exp, zero, f, g).values == 0)
    assert np.all(bilinear_apply_separated(exp, f, zero, g).values == 0)


def test_separated_deviation_decreases_with_truncation(riesz_grid):
    g = riesz_grid
    f = random_field(g, SAFE_BAND, 4, seed=13)
    h = random_field(g, SAFE_BAND, 4, seed=14)
    piece = DyadicPiece(3, 1.0)
    exp = build_expansion(piece,
                          eta1_samples=np.unique(f.eigenvalues), tol=1e-8)
    direct = bilinear_apply_direct(dyadic_piece_symbol(piece), f, h, g)
    devs = [rel_l2(bilinear_apply_separated(replace(exp, truncation=L), f, h,
                                            g).values, direct.values)
            for L in (16, 32, 64, 128)]
    assert all(a > b for a, b in zip(devs, devs[1:]))


def test_truncated_series_symbol_converges_pointwise():
    piece = DyadicPiece(2, 1.0)
    exp = build_expansion(piece, tol=1e-7)
    e1 = np.array([0.3])
    e2 = np.array([0.55])
    ref = dyadic_piece_symbol(piece)(e1, e2)
    got = truncated_series_symbol(exp, e1, e2)
    assert abs(got[0, 0] - ref[0]) <= 1e-6


def _dilation_field(grid, seed):
    # support on every 4th lattice node so both t = 2 and t = 1/2 stay
    # on the grid
    rng = np.random.default_rng(seed)
    vals = [0.25, 0.5, 0.75]
    sup = np.array([[v * s] for s in (-1, 1) for v in vals])
    n_mu = len(multi_indices_upto(1, 2))
    coeffs = rng.normal(size=(len(sup), n_mu)) \
        + 1j * rng.normal(size=(len(sup), n_mu))
    return SpectralField(grid.dims, sup, 2, coeffs)


def test_dilation_covariance(dilation_grid):
    g = dilation_grid
    f = _dilation_field(g, 15)
    h = _dilation_field(g, 16)
    rep = dilation_covariance_check(RieszParams(1.0, 4.0), f, h,
                                    2.0, g)
    assert rep.verdict == "PASS"
    assert rep.max_ratio <= 1e-4

    rep_half = dilation_covariance_check(RieszParams(1.0, 0.25), f, h,
                                         0.5, g)
    assert rep_half.verdict == "PASS"
    assert rep_half.max_ratio <= 1e-4

    rep_id = dilation_covariance_check(RieszParams(1.0, 1.0), f, h,
                                       1.0, g)
    assert rep_id.max_ratio == 0.0


def test_dilation_of_a_zero_field_is_degenerate(dilation_grid):
    f = _dilation_field(dilation_grid, 15)
    zero = f.copy_with(np.zeros_like(f.coeffs))
    rep = dilation_covariance_check(RieszParams(1.0, 4.0), zero, f, 2.0,
                                    dilation_grid)
    assert rep.verdict == "DEGENERATE-PASS"
    assert rep.max_ratio == 0.0 and rep.details["reference"] == 0.0
