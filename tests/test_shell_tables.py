"""Band-only series tables (whole or in chunks, from the lattice profile
or band by band), the node-by-node quadrature, the real-form series
symbol and its shared trig tables, the coefficient table an expansion
carries, the flat x''-binning and the real-FFT Sobolev norm, each against
the dense or fresh form it replaces, kept here as the oracle; the cached
Gauss-Legendre rule; and the traced memory of a decay expansion and
contraction."""

from dataclasses import replace

import numpy as np
import pytest

from grushin import riesz
from grushin.calculus import PaddingError, sobolev_product_norm
from grushin.dims import Dims
from grushin.grid import GridSpec, make_grid
from grushin.reductions import gauss_legendre
from grushin.riesz import (FourierSeriesExpansion, _bilinear_contract,
                           build_expansion, fourier_coeff_batch,
                           fourier_coeff_quadrature, series_trig,
                           truncated_series_symbol)
from grushin.symbols import (DyadicPiece, Symbol2D, distinct,
                             dyadic_piece_profile, plateau)
from grushin.verifier import (_decay_fields, family_fields, live_eigenvalues,
                              probe_grid)

from conftest import traced_transient_mb


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
        live, first, stop = riesz._shell_band(piece, eta1, n)
        for column, a, z in zip(dense[:, live].T, first, stop):
            assert not np.any(column[:a]) and not np.any(column[z:])
        dead = np.setdiff1d(np.arange(eta1.size), live)
        assert dead.size > 0 and not np.any(dense[:, dead])
        assert np.all(np.any(dense[:, cut], axis=0))
        assert np.all(np.isin(np.flatnonzero(cut), live))

        got = fourier_coeff_batch(piece, ls, eta1)
        ref = _dense_coeffs(piece, ls, eta1)
        assert got.shape == ref.shape and got.dtype == complex
        assert _column_rel_err(got, ref) <= 1e-14
        assert np.array_equal(got, _band_oracle(piece, ls, eta1))
        assert not np.any(got[:, dead])
        # negative l is the conjugate of positive l
        neg = ls < 0
        mirror = np.searchsorted(ls, -ls[neg])
        assert np.array_equal(got[neg], np.conj(got[mirror]))


def test_band_table_with_no_live_column():
    piece = DyadicPiece(3, 1.0)
    eta1 = np.array([0.9, 1.2, 3.0, -1.0])       # 1 - lo_s = 0.9375
    ls = np.arange(-2048, 2049)
    live = riesz._shell_band(piece, eta1[1:], _table_size(piece, ls))[0]
    assert live.size == 0
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
    # The coefficient probe's call: l = 0..512 at 257 eta1 samples, and
    # off the lattice, band by band, at 257 sorted uniform samples.
    piece = DyadicPiece(j, 1.0)
    ls = np.arange(-512, 513)
    calls = _band_by_band_calls(monkeypatch)
    off = np.sort(np.random.default_rng(j).uniform(0.0, 1.0, 257))
    for eta1 in (off, np.linspace(0.0, 1.0, 257)):
        calls.clear()
        monkeypatch.setattr(riesz, "_COEFF_SAMPLES", 1)      # one row
        one = fourier_coeff_batch(piece, ls, eta1)
        monkeypatch.setattr(riesz, "_COEFF_SAMPLES", 2 ** 40)  # whole table
        whole = fourier_coeff_batch(piece, ls, eta1)
        assert np.any(whole) and np.array_equal(one, whole)
        assert np.array_equal(whole, _band_oracle(piece, ls, eta1))
        assert len(calls) == (2 if eta1 is off else 0)
    # the tolerance of the FFT path against quadrature on the shell window
    ref = fourier_coeff_quadrature(piece, ls[::4], eta1[::32])
    assert np.max(np.abs(whole[::4, ::32] - ref)) <= 1e-4


def _band_oracle(piece, ls, eta1):
    """The dense table's live columns (``_shell_band``) in one table and one
    real FFT: the coefficients as the chunked band table computes them."""
    n = _table_size(piece, ls)
    live = riesz._shell_band(piece, eta1, n)[0]
    table = np.ascontiguousarray(_dense_table(piece, eta1, n)[:, live].T)
    out = np.zeros((eta1.size, ls.size), dtype=complex)
    out[live] = np.fft.rfft(table, axis=1)[:, np.abs(ls)] \
        * (np.where(ls % 2 == 0, 1.0, -1.0) / n)
    out.imag[:, ls < 0] *= -1.0
    return out.T


def _expansion_batches(piece, eta1, l_cap, monkeypatch):
    """The l-ranges of the FFT-path batches ``build_expansion`` asks for."""
    asked = []

    def recorded(p, ls, e):
        asked.append(np.asarray(ls))
        return fourier_coeff_batch(p, ls, e)

    monkeypatch.setattr(riesz, "fourier_coeff_batch", recorded)
    build_expansion(piece, eta1_samples=eta1, l_cap=l_cap)
    monkeypatch.undo()
    return [ls for ls in asked
            if not riesz._quadrature_path(ls.size, int(ls.max()))]


def _band_by_band_calls(monkeypatch):
    """The ``_band_profile`` calls that find no lattice, after which
    ``fourier_coeff_batch`` evaluates the piece band by band."""
    calls, band_profile = [], riesz._band_profile

    def recorded(*args):
        found = band_profile(*args)
        if found[2] is None:
            calls.append(args)
        return found

    monkeypatch.setattr(riesz, "_band_profile", recorded)
    return calls


# (grid, the first field of the decay probes or of the README riesz run,
# the expansion's cap there)
EIGEN_GRIDS = {
    "decay": (lambda g: _decay_fields("hermite-bump", 0, g)[0], 2048),
    "riesz": (lambda g: family_fields("hermite-bump", g, 0,
                                      band=(0.34, 0.495)), 8192),
}


@pytest.mark.parametrize("name", sorted(EIGEN_GRIDS))
@pytest.mark.parametrize("j", range(1, 7))
def test_lattice_tables_are_the_band_tables_bit_for_bit(name, j, monkeypatch,
                                                        named_grid):
    fields, l_cap = EIGEN_GRIDS[name]
    eta1 = live_eigenvalues(fields(named_grid(name)))
    piece = DyadicPiece(j, 1.0)
    batches = _expansion_batches(piece, eta1, l_cap, monkeypatch)
    assert batches
    calls = _band_by_band_calls(monkeypatch)
    for ls in batches:
        got = fourier_coeff_batch(piece, ls, eta1)
        assert np.any(got) and np.array_equal(got, _band_oracle(piece, ls,
                                                                eta1))
    assert not calls          # every eigenvalue is on the lattice


def test_off_lattice_eta1_takes_the_band_path(monkeypatch):
    piece = DyadicPiece(2, 1.0)
    ls = np.arange(-64, 1025)
    lattice = np.linspace(0.0, 1.0, 65)            # multiples of 2^-6
    off = 0.8 + 1e-3                               # 1 - off lies in the shell
    calls = _band_by_band_calls(monkeypatch)
    for eta1, band_path in ((lattice, False), (np.array([off]), True),
                            (np.insert(lattice, 20, off), True),
                            (np.append(lattice, 3.0 + 1e-3), False)):
        calls.clear()
        got = fourier_coeff_batch(piece, ls, eta1)
        assert bool(calls) == band_path
        assert np.any(got) and np.array_equal(got, _band_oracle(piece, ls,
                                                                eta1))


def test_gauss_legendre_is_the_numpy_rule_cached_and_read_only():
    for n in (8, 48, 53, 200):
        nodes, weights = gauss_legendre(n)
        want = np.polynomial.legendre.leggauss(n)
        assert np.array_equal(nodes, want[0])
        assert np.array_equal(weights, want[1])
        assert gauss_legendre(n)[0] is nodes
        assert not (nodes.flags.writeable or weights.flags.writeable)


def _einsum_quadrature(piece, ls, eta1):
    """Gauss-Legendre with every phase held: one (l, node, eta1) table and
    one einsum over the nodes."""
    ls = np.asarray(ls)
    width = 1.5 * 2.0 ** (-piece.j)
    phase = np.pi * int(np.max(np.abs(ls))) * width
    n_quad = int(max(48, np.ceil(0.75 * phase) + 24))
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    lo_s, hi_s = piece.shell
    lo = np.maximum(1.0 - eta1 - hi_s, 0.0)
    hi = np.maximum(np.minimum(1.0 - eta1 - lo_s, 1.0), lo)
    rad = 0.5 * (hi - lo)
    pts = 0.5 * (hi + lo)[None, :] + rad[None, :] * nodes[:, None]
    vals = dyadic_piece_profile(piece)(1.0 - eta1[None, :] - pts) \
        * (pts >= 0) * (pts <= 1)
    phases = np.exp(-1j * np.pi * ls[:, None, None] * pts[None, :, :])
    return 0.5 * np.einsum("lqn,qn->ln", phases,
                           (weights[:, None] * vals) * rad[None, :],
                           optimize=True)


def test_node_by_node_quadrature_is_the_einsum_bit_for_bit():
    # The j = 1 expansion's octave l = 33..64 at the decay eigenvalues
    # (7.7 MB of phases as one table), and other small batches.
    f, _ = _decay_fields("hermite-bump", 0, probe_grid("decay"))
    live = live_eigenvalues(f)
    assert riesz._quadrature_path(32, 64)
    for j, ls, eta1 in ((1, np.arange(33, 65), live),
                        (1, np.arange(0, 9), live),
                        (2, np.array([-3, 0, 5]), np.linspace(0.0, 1.0, 9)),
                        (4, np.arange(-20, 30), np.linspace(0.0, 1.0, 200))):
        piece = DyadicPiece(j, 1.0)
        got = fourier_coeff_quadrature(piece, ls, eta1)
        assert np.any(got)
        assert np.array_equal(got, _einsum_quadrature(piece, ls, eta1))


def _doubled_coeff_symbol(exp, eta1, eta2):
    """The real-form series as first written: 2 c_l (l >= 1), gathered
    live columns, against cos and sin tables made afresh."""
    ls = np.arange(0, exp.truncation + 1)
    c = fourier_coeff_batch(exp.piece, ls, eta1)
    rows = np.flatnonzero(np.any(c, axis=0))
    c = c[:, rows]
    c[1:] *= 2.0
    cols = np.flatnonzero(plateau(eta2))
    angle = np.pi * np.multiply.outer(ls, eta2[cols])
    out = np.zeros((eta1.size, eta2.size))
    out[np.ix_(rows, cols)] = (c.real.T @ np.cos(angle)
                               - c.imag.T @ np.sin(angle)) * plateau(eta2)[cols]
    return out


def test_shared_series_trig_tables_change_no_bit():
    # The decay probes' call: one table at the cap, read by every piece.
    # (A carried table's run of live columns, read in place, is checked
    # against the gathered fresh table below.)
    f, g = _decay_fields("hermite-bump", 0, probe_grid("decay"))
    uf, ug = distinct(f.eigenvalues)[0], distinct(g.eigenvalues)[0]
    trig = series_trig(2048, ug)
    assert trig.shape == (2, 2049, np.count_nonzero(plateau(ug)))
    with pytest.raises(ValueError):
        trig[0, 0, 0] = 1.0
    for L in (2048, 512):               # the cap and below it
        exp = FourierSeriesExpansion(DyadicPiece(3, 1.0), truncation=L)
        alone = truncated_series_symbol(exp, uf, ug)
        assert np.any(alone)
        assert np.array_equal(alone, _doubled_coeff_symbol(exp, uf, ug))
        assert np.array_equal(truncated_series_symbol(exp, uf, ug, trig=trig),
                              alone)
    with pytest.raises(ValueError):     # a table shorter than the series
        truncated_series_symbol(replace(exp, truncation=4096), uf, ug,
                                trig=trig)


def test_decay_expansion_and_contraction_stay_in_their_memory():
    # About 16.7 and 10.7 MB with per-chunk tables, 2e7-entry quadrature
    # phases and a fresh D and product per contraction block.
    grid = probe_grid("decay")
    f, g = _decay_fields("hermite-bump", 0, grid)
    piece = DyadicPiece(1, 1.0)
    assert traced_transient_mb(lambda: build_expansion(
        piece, eta1_samples=live_eigenvalues(f), l_cap=2048)) <= 12.0
    (uf, inv_f), (ug, inv_g) = distinct(f.eigenvalues), distinct(g.eigenvalues)
    table = truncated_series_symbol(
        FourierSeriesExpansion(piece, truncation=2048), uf, ug)
    assert traced_transient_mb(lambda: _bilinear_contract(
        table, inv_f, inv_g, f, g, grid)) <= 8.0


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
    truncated_series_symbol(replace(capped, truncation=64), capped.samples,
                            eta2)
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
