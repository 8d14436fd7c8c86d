"""Band-only series tables (whole or in chunks), the real-form series
symbol, the coefficient table an expansion carries, the flat x''-binning
and the real-FFT Sobolev norm, each against the dense or fresh form it
replaces, kept here as the oracle."""

from dataclasses import replace

import numpy as np
import pytest

from grushin import riesz
from grushin.calculus import PaddingError, sobolev_product_norm
from grushin.dims import Dims
from grushin.grid import GridSpec, make_grid
from grushin.riesz import (FourierSeriesExpansion, _shell_table,
                           build_expansion, fourier_coeff_batch,
                           fourier_coeff_quadrature,
                           truncated_series_symbol)
from grushin.symbols import DyadicPiece, Symbol2D, dyadic_piece_profile, plateau
from grushin.verifier import _decay_fields, live_eigenvalues, probe_grid


def _table_size(piece, ls):
    n = 1
    while n < max(4 * int(np.max(np.abs(ls))), 64 * 2 ** min(piece.j, 16),
                  512):
        n *= 2
    return n


def _dense_table(piece, eta1, n):
    """The piece on the full (n, len(eta1)) grid of eta2 nodes."""
    eta2 = -1.0 + 2.0 * np.arange(n) / n
    return dyadic_piece_profile(piece)(1.0 - eta1[None, :] - eta2[:, None]) \
        * ((eta2 >= 0)[:, None])


def _dense_coeffs(piece, ls, eta1):
    """Complex FFT of the dense table, read at l mod n."""
    n = _table_size(piece, ls)
    spec = np.fft.fft(_dense_table(piece, eta1, n), axis=0) / n
    sign = np.where(ls % 2 == 0, 1.0, -1.0)
    return sign[:, None] * spec[np.mod(ls, n), :]


def _column_rel_err(got, ref):
    scale = np.max(np.abs(ref), axis=0)
    scale[scale == 0.0] = 1.0
    return float(np.max(np.abs(got - ref) / scale))


# eta1 columns: all of [0, 1], windows cut by eta2 >= 0 (near 1 - shell),
# windows past eta2 = 1 (eta1 < -hi_s) and past the shell (eta1 > 1 - lo_s)
ETA1 = np.concatenate([np.linspace(-2.5, 1.5, 161),
                       np.random.default_rng(6).uniform(0.0, 1.0, 40)])


@pytest.mark.parametrize("j", range(9))
def test_band_table_is_the_dense_table(j):
    for alpha in (0.5, 1.0, 2.0):
        piece = DyadicPiece(j, alpha)
        lo, hi = piece.shell
        eta1 = np.concatenate([ETA1, 1.0 - np.linspace(lo, hi, 7)[1:-1]])
        cut = (eta1 > 1.0 - hi) & (eta1 < 1.0 - lo)     # cut by eta2 >= 0
        ls = np.arange(-300, 1025)
        n = _table_size(piece, ls)
        dense = _dense_table(piece, eta1, n)
        live, table = _shell_table(piece, eta1, n)
        assert np.array_equal(table, dense[:, live].T)
        dead = np.setdiff1d(np.arange(eta1.size), live)
        assert dead.size > 0 and not np.any(dense[:, dead])
        assert np.all(np.any(dense[:, cut], axis=0))
        assert np.all(np.isin(np.flatnonzero(cut), live))

        got = fourier_coeff_batch(piece, ls, eta1)
        ref = _dense_coeffs(piece, ls, eta1)
        assert got.shape == ref.shape and got.dtype == complex
        assert _column_rel_err(got, ref) <= 1e-14
        assert not np.any(got[:, dead])
        # negative l is the conjugate of positive l
        neg = ls < 0
        mirror = np.searchsorted(ls, -ls[neg])
        assert np.array_equal(got[neg], np.conj(got[mirror]))


def test_band_table_with_no_live_column():
    piece = DyadicPiece(3, 1.0)
    eta1 = np.array([0.9, 1.2, 3.0, -1.0])       # 1 - lo_s = 0.9375
    ls = np.arange(-2048, 2049)
    live, table = _shell_table(piece, eta1[1:], _table_size(piece, ls))
    assert live.size == 0 and table.shape[0] == 0
    got = fourier_coeff_batch(piece, ls, eta1[1:])
    assert got.shape == (ls.size, 3) and not np.any(got)
    # one live column next to dead ones
    got = fourier_coeff_batch(piece, ls, eta1)
    assert np.any(got[:, 0]) and not np.any(got[:, 1:])
    assert _column_rel_err(got, _dense_coeffs(piece, ls, eta1)) <= 1e-14


def test_small_batches_take_the_quadrature_path():
    piece = DyadicPiece(2, 1.0)
    eta = np.linspace(0.0, 1.0, 9)
    ls = np.array([-3, 0, 5])
    got = fourier_coeff_batch(piece, ls, eta)
    assert np.array_equal(got, fourier_coeff_quadrature(piece, ls, eta))


@pytest.mark.parametrize("j", [2, 5, 8])
def test_coefficient_chunks_do_not_change_a_bit(j, monkeypatch):
    # The coefficient probe's call: l = 0..512 at 257 eta1 samples.
    piece = DyadicPiece(j, 1.0)
    eta1 = np.linspace(0.0, 1.0, 257)
    ls = np.arange(-512, 513)
    monkeypatch.setattr(riesz, "_COEFF_SAMPLES", 1)          # one row
    one = fourier_coeff_batch(piece, ls, eta1)
    monkeypatch.setattr(riesz, "_COEFF_SAMPLES", 2 ** 40)    # whole table
    whole = fourier_coeff_batch(piece, ls, eta1)
    assert np.any(whole) and np.array_equal(one, whole)
    # the tolerance of the FFT path against quadrature on the shell window
    ref = fourier_coeff_quadrature(piece, ls[::4], eta1[::32])
    assert np.max(np.abs(whole[::4, ::32] - ref)) <= 1e-4


def test_expansions_on_the_decay_eigenvalues_keep_their_cutoffs():
    # Every decay piece stops at the decay probes' cap, with these tails.
    f, _ = _decay_fields("hermite-bump", 0, probe_grid("decay"))
    tails = [0.15563622833916202, 0.07781831995237816, 0.03878375065691086,
             0.019387953803259528, 0.009376338938534654,
             0.0046820409655974095, 4.448675594279679e-05,
             0.0001476523901974063]
    for j, tail in zip(range(1, 9), tails):
        exp = build_expansion(DyadicPiece(j, 1.0),
                              eta1_samples=live_eigenvalues(f), l_cap=2048)
        assert (exp.truncation, exp.converged) == (2048, False)
        assert exp.tail_bound == pytest.approx(tail, rel=1e-12)


def _complex_series_symbol(exp, eta1, eta2):
    """The complex two-product form of the truncated series symbol."""
    ls = np.arange(0, exp.truncation + 1)
    pos = fourier_coeff_batch(exp.piece, ls, eta1)
    phases = np.exp(1j * np.pi * np.multiply.outer(ls, eta2))
    total = pos.T @ phases + np.conj(pos[1:]).T @ np.conj(phases[1:])
    return total * plateau(eta2)[None, :]


@pytest.mark.parametrize("j", [1, 3, 6])
def test_real_form_symbol_matches_complex_form(j):
    exp = FourierSeriesExpansion(DyadicPiece(j, 1.0), truncation=2048)
    # eigenvalue-like samples, some past the shell and past the plateau
    eta1 = np.linspace(0.0, 3.0, 97)
    eta2 = np.linspace(0.0, 2.5, 89)
    got = truncated_series_symbol(exp, eta1, eta2)
    ref = _complex_series_symbol(exp, eta1, eta2)
    assert got.dtype == np.float64 and got.shape == (97, 89)
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert not np.any(got[eta1 >= 1.0]) and not np.any(got[:, eta2 >= 2.0])


def _capped_and_converged():
    f, _ = _decay_fields("hermite-bump", 0, probe_grid("decay"))
    capped = build_expansion(DyadicPiece(1, 1.0),
                             eta1_samples=live_eigenvalues(f), l_cap=2048)
    # eta1 below the shell window: no jump, so the series converges
    converged = build_expansion(DyadicPiece(3, 1.0),
                                eta1_samples=np.linspace(0.0, 0.7, 15))
    assert not capped.converged and converged.converged
    return capped, converged


def test_expansion_carries_the_batch_at_its_truncation():
    for exp in _capped_and_converged():
        want = fourier_coeff_batch(exp.piece, np.arange(exp.truncation + 1),
                                   exp.samples)
        assert exp.coeffs is not None
        assert np.array_equal(exp.coeffs, want)


def _no_batch(*args):
    raise AssertionError("fourier_coeff_batch called")


@pytest.mark.parametrize("j", [1, 3, 6])
def test_series_symbol_reads_the_carried_table_bit_for_bit(j, monkeypatch):
    # The decay probes' call: every distinct eigenvalue of f is a sample
    # (those up to 1) or lies past the shell.
    f, g = _decay_fields("hermite-bump", 0, probe_grid("decay"))
    exp = build_expansion(DyadicPiece(j, 1.0),
                          eta1_samples=live_eigenvalues(f), l_cap=2048)
    eta1, eta2 = np.unique(f.eigenvalues), np.unique(g.eigenvalues)
    fresh = truncated_series_symbol(replace(exp, coeffs=None), eta1, eta2)
    monkeypatch.setattr(riesz, "fourier_coeff_batch", _no_batch)
    got = truncated_series_symbol(exp, eta1, eta2)
    assert np.any(got) and np.array_equal(got, fresh)


def test_series_symbol_off_the_samples_computes_afresh(monkeypatch):
    capped, _ = _capped_and_converged()
    eta1 = np.append(capped.samples[:3], 0.5 * (capped.samples[3]
                                                + capped.samples[4]))
    eta2 = np.linspace(0.0, 2.5, 11)
    assert eta1[-1] < 1.0 - capped.piece.shell[0]
    calls = []

    def counted(*args):
        calls.append(args)
        return fourier_coeff_batch(*args)

    monkeypatch.setattr(riesz, "fourier_coeff_batch", counted)
    got = truncated_series_symbol(capped, eta1, eta2)
    assert len(calls) == 1
    assert np.array_equal(got, truncated_series_symbol(
        replace(capped, coeffs=None), eta1, eta2))
    # another truncation than the expansion's own computes afresh too
    truncated_series_symbol(capped, capped.samples, eta2, truncation=64)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# flat x''-binning

def _per_row_inverse(grid, coeffs, lam):
    """One bincount per x'-row, then the inverse FFT."""
    bins, counts = grid._x2_bins(lam)
    axes = tuple(range(1, 1 + len(counts)))
    n = grid.n_x2
    spec = np.array([np.bincount(bins, row.real, n)
                     + 1j * np.bincount(bins, row.imag, n)
                     for row in coeffs]).reshape((-1,) + counts)
    out = np.fft.fftshift(np.fft.ifftn(spec, axes=axes), axes=axes)
    return n * out.reshape(coeffs.shape[0], -1)


def test_flat_binning_is_bit_identical_to_per_row():
    g = make_grid(Dims(1, 2), GridSpec(x1_extent=4.0, x1_count=12,
                                       x2_count=8, lambda_min=0.5,
                                       lambda_max=1.5, lambda_count=3))
    rng = np.random.default_rng(3)
    k = rng.integers(-9, 10, size=(300, 2))        # repeats and aliases
    lam = k * g.lambda_step
    wide = rng.normal(size=(g.n_x1, 2 * k.shape[0])) \
        + 1j * rng.normal(size=(g.n_x1, 2 * k.shape[0]))
    c_order = np.ascontiguousarray(wide[:, ::2])
    f_order = np.asfortranarray(c_order)
    strided = wide[:, ::2]                          # neither C nor F
    assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
    ref = _per_row_inverse(g, c_order, lam)
    for coeffs in (c_order, f_order, strided, f_order.real):
        want = ref if np.iscomplexobj(coeffs) \
            else _per_row_inverse(g, coeffs, lam)
        got = g.x2_inverse(coeffs, lam)
        assert got.flags.c_contiguous and np.array_equal(got, want)


# ---------------------------------------------------------------------------
# real-FFT Sobolev norm

def _fft2_sobolev(G, s1, s2, samples, pad):
    """The complex fft2 form on the explicitly padded box."""
    (a1, b1), (a2, b2) = G.support
    n, big = samples, pad * samples
    h1, h2 = (b1 - a1) / n, (b2 - a2) / n
    vals = np.zeros((big, big), dtype=complex)
    vals[:n, :n] = G(a1 + (np.arange(n)[:, None] + 0.5) * h1,
                     a2 + (np.arange(n)[None, :] + 0.5) * h2)
    spec = np.fft.fft2(vals) * (h1 * h2)
    xi1 = 2.0 * np.pi * np.fft.fftfreq(big, d=h1)
    xi2 = 2.0 * np.pi * np.fft.fftfreq(big, d=h2)
    weighted = np.abs(spec) ** 2 * ((1.0 + xi1 ** 2) ** s1)[:, None] \
        * ((1.0 + xi2 ** 2) ** s2)[None, :]
    total = np.sum(weighted) * (xi1[1] - xi1[0]) * (xi2[1] - xi2[0]) \
        / (2.0 * np.pi) ** 2
    nyq = big // 2
    sl = np.abs(np.arange(big) - nyq) < int(0.1 * nyq)
    boundary = np.sum(weighted[sl, :]) + np.sum(weighted[:, sl][~sl, :])
    return float(np.sqrt(total)), float(boundary / total)


def _wavy(a, b):
    return np.exp(-60.0 * ((a - 0.5) ** 2 + (b - 0.4) ** 2)) \
        * (1.0 + 0.5j * np.sin(7.0 * a + 3.0 * b))


@pytest.mark.parametrize("s1,s2,samples,pad", [(0.3, 0.7, 256, 4),
                                               (0.0, 0.0, 128, 2),
                                               (1.0, 0.5, 100, 3)])
def test_rfft_sobolev_matches_fft2(s1, s2, samples, pad):
    for ev in (_wavy, lambda a, b: _wavy(a, b).real,
               lambda a, b: 1j * _wavy(a, b).real):
        G = Symbol2D(ev, ((0.0, 1.0), (0.0, 1.0)))
        diag = {}
        got = sobolev_product_norm(G, s1, s2, samples=samples, pad=pad,
                                   diagnostics=diag)
        ref, frac = _fft2_sobolev(G, s1, s2, samples, pad)
        assert got == pytest.approx(ref, rel=1e-12)
        assert diag["nyquist_mass_fraction"] == pytest.approx(frac, rel=1e-9)
    zero = Symbol2D(lambda a, b: np.zeros_like(a), ((0.0, 1.0), (0.0, 1.0)))
    assert sobolev_product_norm(zero, s1, s2, samples=samples, pad=pad) == 0.0


def test_rfft_sobolev_still_rejects_bad_boxes():
    # mass on the padding frame of a complex symbol
    flat = Symbol2D(lambda a, b: (1.0 + 1.0j) * np.ones_like(a),
                    ((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(PaddingError, match="boundary"):
        sobolev_product_norm(flat, 0.0, 0.0, samples=128, pad=1)
    # samples alternating in sign put the mass at the Nyquist frequency
    n = 64
    zigzag = Symbol2D(lambda a, b: (1.0 - 2.0j) * np.sin(np.pi * n * a)
                      * np.ones_like(b), ((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(PaddingError, match="Nyquist"):
        sobolev_product_norm(zigzag, 0.0, 0.0, samples=n, pad=4)
