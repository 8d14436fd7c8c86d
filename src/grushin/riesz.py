"""The bilinear means: direct evaluation, dyadic pieces, and the
separated (Fourier-series) path.

The direct path evaluates the double frequency/level sum with the symbol
bucketed by joint eigenvalue pairs.  The separated path expands the
dyadic piece in a Fourier series along the second eigenvalue variable,
turning the bilinear operator into a truncated sum over series index l
of products of two linear multiplier applications; the truncation is
chosen from the measured coefficient tail.  The separated path is the
slower of the two: it checks the series decomposition against the exact
direct path, it is not a shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import GriddedField, SpectralField, dilate_gridded, dilate_spectral
from .grid import Grid, GridError, nearest_node
from .hermite import scaled_profile_bank
from .reductions import gauss_legendre
from .report import ProbeReport
from .symbols import (DyadicPiece, RieszParams, Symbol2D, distinct,
                      dyadic_piece_profile, plateau, riesz_symbol)

__all__ = ["FourierSeriesExpansion", "bilinear_apply_direct",
           "bilinear_apply_separated", "fourier_coeff_batch",
           "build_expansion", "dilation_covariance_check", "riesz_symbol"]


def bilinear_apply_direct(m: Symbol2D, f: SpectralField, g: SpectralField,
                          grid: Grid) -> GriddedField:
    """Direct double-sum evaluation of the bilinear multiplier operator.

    The symbol is evaluated once per pair of distinct eigenvalues and
    contracted against the two coefficient sets; bilinear in (f, g), and
    symmetric to roundoff for a symmetric symbol.
    """
    table, inv_f, inv_g = m.on_pairs(f.eigenvalues, g.eigenvalues)
    return _bilinear_contract(table, inv_f, inv_g, f, g, grid)


# Node rows per block of the contraction: 8 rows keep each of its two
# (g-nodes, rows, x') buffers near 1.7 MB on the ``decay`` grid.
_CONTRACT_ROWS = 8
# Samples per chunk of the series coefficient table, which changes no bit:
# 2^16 (0.5 MB) peaks 2.3 MB lower than 2^17 in the README ``riesz`` runs.
_COEFF_SAMPLES = 2 ** 16


def _bilinear_contract(table: np.ndarray, inv_f: np.ndarray,
                       inv_g: np.ndarray, f: SpectralField, g: SpectralField,
                       grid: Grid) -> GriddedField:
    """Contract the symbol over atom pairs: D[i, j, x] = sum_{a,b}
    table[inv_f[i,a], inv_g[j,b]] Pf[i,a,x] Pg[j,b,x] at frequency
    lambda_i + mu_j; ``table`` is the symbol on the distinct eigenvalue
    pairs (rows f's, columns g's).  Each block of D (``_contract_blocks``)
    is added row by row into the x''-spectrum at the bins of lambda_i +
    mu_j (``np.add.at`` where g repeats a node): each bin sums in (i, j)
    order, bit for bit as ``Grid.x2_inverse`` bins a whole D, and one
    inverse FFT ends the sum."""
    if f.dims != grid.dims or g.dims != grid.dims:
        raise GridError("field dims do not match grid dims")
    nu = f.lambda_support[:, None, :] + g.lambda_support[None, :, :]
    bins = grid._x2_bins(nu.reshape(-1, grid.dims.d2))[0].reshape(nu.shape[:2])
    unique_bins = np.unique(bins[:1]).size == bins.shape[1]
    pf, pg = _weighted_profiles(f, grid), _weighted_profiles(g, grid)
    spec = np.zeros((grid.n_x2, pf.shape[2]), dtype=complex)
    for c0, g0, D in _contract_blocks(table, inv_f, inv_g, pf, pg):
        for i, row in zip(bins[c0:c0 + len(D), g0:g0 + D.shape[1]], D):
            if unique_bins:
                spec[i] += row
            else:
                np.add.at(spec, i, row)
    scale = (2.0 * np.pi) ** (-2 * grid.dims.d2)
    values = grid._x2_ifft(np.ascontiguousarray(spec.T))
    return GriddedField(grid=grid, values=scale * values)


def _contract_blocks(table, inv_f, inv_g, pf, pg):
    """Yield (c0, g0, D), D[r, k, x] the pair array's entry (c0 + r, g0 + k,
    x), in blocks of ``_CONTRACT_ROWS`` node rows, over the g-nodes and, per
    block, the levels a of f where the symbol lives (the rest is exactly
    zero).  Per block and level, one batched matmul over the g-nodes j
    contracts the symbol (j, i, b) with g's profiles (j, b, x') over b,
    times f's profiles at level a: the first live level fills one D buffer,
    the rest add to it (a -0.0 adds nothing to a spectrum started at +0.0),
    and a block with none is zero, so it is skipped."""
    live = table != 0
    f_live = np.any(live, axis=1)[inv_f]                  # (nodes, levels)
    g0, g1 = _span(np.any(np.any(live, axis=0)[inv_g], axis=1))
    # a real table multiplies g's profiles as float pairs: one real GEMM
    rhs = pg[g0:g1] if np.iscomplexobj(table) else pg[g0:g1].view(float)
    stop = _span(np.any(f_live, axis=1))[1]
    shape = (g1 - g0, min(_CONTRACT_ROWS, stop), pf.shape[2])
    d_buf, p_buf = np.empty(shape, complex), np.empty(shape, complex)
    for c0 in range(0, stop, _CONTRACT_ROWS):
        c1 = min(c0 + _CONTRACT_ROWS, stop)
        D, prod = d_buf[:, :c1 - c0], p_buf[:, :c1 - c0]
        levels = np.flatnonzero(np.any(f_live[c0:c1], axis=0))
        for a in levels:
            m = table[inv_f[c0:c1, a]].T[inv_g[g0:g1]]        # (j, b, i)
            out = D if a == levels[0] else prod
            np.matmul(m.transpose(0, 2, 1), rhs,
                      out=out if np.iscomplexobj(rhs) else out.view(float))
            out *= pf[c0:c1, a]
            if out is prod:
                D += prod
        if levels.size:
            yield c0, g0, D.transpose(1, 0, 2)


def _span(mask: np.ndarray) -> tuple[int, int]:
    """[first, last + 1) of the True entries of a 1-D mask; (0, 0) if none."""
    nodes = np.flatnonzero(mask)
    return (int(nodes[0]), int(nodes[-1]) + 1) if nodes.size else (0, 0)


def _weighted_profiles(h: SpectralField, grid: Grid) -> np.ndarray:
    """P[i, mu, x] = w(lambda_i) C(lambda_i, mu) Phi_mu^lambda(x')."""
    w = grid.lambda_weights[grid.lambda_index(h.lambda_support)]
    bank = scaled_profile_bank(h.max_degree, h.lambda_support, grid.x1_points)
    return (w[:, None] * h.coeffs)[:, :, None] * bank


# ---------------------------------------------------------------------------
# Fourier-series separation

@dataclass
class FourierSeriesExpansion:
    """Series data for one dyadic piece.

    The coefficients come from ``fourier_coeff_batch``; the companion
    second-channel symbol is exp(i pi l eta2) times the pinned plateau
    (1 on [-1, 1], 0 outside [-2, 2]).  ``truncation`` is the |l| cutoff
    (``replace`` gives an expansion another); ``tail_bound`` the measured
    sup-norm tail sum beyond it.  ``converged`` is False when
    ``build_expansion`` stopped at its cap before the tail met the
    tolerance.

    ``coeffs`` (None if not built) is ``fourier_coeff_batch(piece,
    0..truncation, samples)`` as ``build_expansion`` computed it on the
    way; ``truncated_series_symbol`` reads it, and the separated path
    drops it once read, so no contraction or kept expansion holds it.
    """

    piece: DyadicPiece
    truncation: int
    tail_bound: float = 0.0
    converged: bool = True
    details: dict = field(default_factory=dict)
    samples: np.ndarray | None = field(default=None, repr=False)
    coeffs: np.ndarray | None = field(default=None, repr=False)


def fourier_coeff_quadrature(piece: DyadicPiece, ls, eta1) -> np.ndarray:
    """Series coefficients by Gauss-Legendre over the eta2 shell window.

    The direct quadrature of the defining integral, summed node by node;
    used as the oracle for the FFT path and for small |l| sets.  Shape
    (len(ls), len(eta1)).
    """
    ls = np.asarray(ls, dtype=int)
    eta1 = np.atleast_1d(np.asarray(eta1, dtype=float))
    # Resolve the phase pi*l over the shell window plus the bump structure.
    width = 1.5 * 2.0 ** (-piece.j)
    phase = np.pi * int(np.max(np.abs(ls), initial=1)) * width
    n_quad = int(max(48, np.ceil(0.75 * phase) + 24))
    nodes, weights = gauss_legendre(n_quad)
    lo_s, hi_s = piece.shell                # the eta2 window of the shell
    lo = np.maximum(1.0 - eta1 - hi_s, 0.0)
    hi = np.maximum(np.minimum(1.0 - eta1 - lo_s, 1.0), lo)
    mid = 0.5 * (hi + lo)
    rad = 0.5 * (hi - lo)
    pts = mid[None, :] + rad[None, :] * nodes[:, None]      # (n_quad, n)
    profile = dyadic_piece_profile(piece)
    vals = profile(1.0 - eta1[None, :] - pts) * (pts >= 0) * (pts <= 1)
    weighted = (weights[:, None] * vals) * rad[None, :]
    out = np.zeros((ls.size, eta1.size), dtype=complex)
    angle = -1j * np.pi * ls[:, None]
    for at, w in zip(pts, weighted):
        out += np.exp(angle * at) * w
    return 0.5 * out


def fourier_coeff_batch(piece: DyadicPiece, ls, eta1) -> np.ndarray:
    """Series coefficients for all requested l at all eta1; shape (L, n).

    The piece is smooth on the period-2 circle in eta2 (its window stays
    interior to [0, 1)), so a uniform-grid FFT is spectrally accurate and
    yields every l at once.  The sample table is band-only
    (``_shell_band``): each eta1 column is sampled only where
    1 - eta1 - eta2 can lie in the shell, only columns with support are
    transformed (bands cut from one ``_lattice_profile`` if it exists),
    and the others are zero.  The table is real, so one real FFT gives
    every l >= 0 and c_{-l} = conj(c_l); n >= 4 max|l| keeps every |l|
    below n/2.  Chunks of ``_COEFF_SAMPLES // n`` live columns keep only
    the requested |l|.  Small batches (``_quadrature_path``) take
    Gauss-Legendre, not as a duplicate path: where 1 - eta1 lies in the
    shell the zero extension jumps at eta2 = 0, where the trapezoid rule
    pays O(1/n); at j = 2, eta1 = 0.75, l = 5 the FFT at n = 512 is 5.1 %
    away from ``fourier_coeff_quadrature``.
    """
    ls = np.asarray(ls, dtype=int)
    eta1 = np.atleast_1d(np.asarray(eta1, dtype=float))
    l_top = int(np.max(np.abs(ls), initial=0))
    if _quadrature_path(ls.size, l_top):
        return fourier_coeff_quadrature(piece, ls, eta1)
    n = 1
    while n < max(4 * l_top, 64 * 2 ** min(piece.j, 16), 512):
        n *= 2
    # e^{i pi l} / n; n is a power of two, so the scale is exact
    scale = np.where(ls % 2 == 0, 1.0, -1.0) / n
    out = np.zeros((eta1.size, ls.size), dtype=complex)
    live, first, stop = _shell_band(piece, eta1, n)
    lattice = _lattice_profile(piece, eta1[live], first, stop, n)
    chunk = max(1, min(_COEFF_SAMPLES // n, live.size))
    table = None if lattice is None else np.zeros((chunk, n))
    for c0 in range(0, live.size, chunk):
        part = slice(c0, c0 + chunk)
        if table is None:
            rows = _shell_table(piece, eta1[live[part]], n)[1]
        else:
            rows = table[:live[part].size]
            for row, (a, z, k) in zip(rows, lattice[1][part]):
                row[a:z] = lattice[0][k:k + z - a]
        out[live[part]] = np.fft.rfft(rows, axis=1)[:, np.abs(ls)] * scale
        if table is not None:                           # zeros again
            table[:, first[part].min():stop[part].max()] = 0.0
    out.imag[:, ls < 0] *= -1.0                         # c_{-l} = conj(c_l)
    return out.T


def _quadrature_path(n_ls: int, l_top: int) -> bool:
    """Whether ``fourier_coeff_batch`` takes Gauss-Legendre."""
    return n_ls * max(l_top, 1) < 4096


def _shell_band(piece: DyadicPiece, eta1: np.ndarray, n: int):
    """(live, first, stop): the eta1 columns that meet the piece's shell,
    each with its band [first, stop) of nodes eta2_k = -1 + 2k/n >= 0, two
    nodes wider each side, so that rounding drops no node in the shell."""
    half = n // 2
    lo_s, hi_s = piece.shell
    rest = 1.0 - eta1
    first = np.clip(np.floor((rest - hi_s + 1.0) * half) - 2, half, n)
    stop = np.clip(np.ceil((rest - lo_s + 1.0) * half) + 3, half, n)
    live = np.flatnonzero(stop > first)
    return live, first[live].astype(int), stop[live].astype(int)


def _shell_table(piece: DyadicPiece, eta1: np.ndarray, n: int):
    """(live, table): the piece at s = 1 - eta1 - eta2 on each live band
    (``_shell_band``), zero elsewhere, as rows of a (len(live), n) table;
    the same floats as a full (n, len(eta1)) evaluation."""
    live, first, stop = _shell_band(piece, eta1, n)
    width = stop - first
    cols = np.repeat(np.arange(live.size), width)
    rows = first[cols] + np.arange(cols.size) - (np.cumsum(width) - width)[cols]
    eta2 = -1.0 + 2.0 * np.arange(n) / n
    table = np.zeros((live.size, n))
    table[cols, rows] = dyadic_piece_profile(piece)((1.0 - eta1[live])[cols]
                                                    - eta2[rows])
    return live, table


def _lattice_profile(piece: DyadicPiece, eta1, first, stop, n: int):
    """The piece at s = 2i/n, i decreasing, over the bands, and each band
    as (first, stop, its first index in that array); None unless each
    1 - eta1 is a multiple of 2/n, where the bands are ``_shell_table``'s."""
    m = (1.0 - eta1) * (n // 2)               # exact: n is a power of two
    if not np.all(m == np.floor(m)):
        return None
    top = m.astype(int) + n // 2 - first      # i at each band's first node
    hi = int(np.max(top, initial=0))
    s = np.arange(hi, np.min(top - (stop - first), initial=hi), -1) * (2.0 / n)
    return dyadic_piece_profile(piece)(s), np.c_[first, stop, hi - top].tolist()


def build_expansion(piece: DyadicPiece, eta1_samples=None, tol: float = 1e-7,
                    l_cap: int = 8192) -> FourierSeriesExpansion:
    """Choose the series truncation from the measured coefficient decay.

    Doubles the cutoff until the measured sup-norm tail sum over the next
    octave drops below ``tol`` times the accumulated series mass; the
    smooth bump decays root-exponentially in l, so the next octave is a
    faithful tail proxy.  Stopping at ``l_cap`` first is reported as
    ``converged=False``, not silently.

    Where the octave L+1..2L takes the FFT path, one batch from l = 0
    gives it (the same bits) and the table up to 2L, carried as ``coeffs``
    if the expansion stops at 2L.
    """
    if eta1_samples is None:
        eta1_samples = np.linspace(0.0, 1.0, 33)
    eta1_samples = np.atleast_1d(np.asarray(eta1_samples, dtype=float))
    L = max(8, 2 ** (piece.j + 2))
    table = fourier_coeff_batch(piece, np.arange(0, L + 1), eta1_samples)
    mass = float(np.sum(np.max(np.abs(table), axis=1)))
    while True:
        start = 0 if L < l_cap and not _quadrature_path(L, 2 * L) else L + 1
        batch = fourier_coeff_batch(piece, np.arange(start, 2 * L + 1),
                                    eta1_samples)
        coeffs = batch[L + 1 - start:]
        octave = 2.0 * float(np.sum(np.max(np.abs(coeffs), axis=1)))
        converged = octave < tol * mass
        if converged or L >= l_cap:
            return FourierSeriesExpansion(
                piece=piece, truncation=L, tail_bound=octave,
                converged=converged,
                details={"tol": tol, "series_mass": mass},
                samples=eta1_samples, coeffs=table)
        mass += octave
        L *= 2
        table = batch if start == 0 else None


def truncated_series_symbol(exp: FourierSeriesExpansion, eta1, eta2,
                            trig=None) -> np.ndarray:
    """m_L(eta1, eta2) = sum_{|l| <= L} coeff_l(eta1) e^{i pi l eta2}
    times the plateau in eta2; the truncated separated symbol.

    The piece is real, so coeff_{-l} = conj(coeff_l) and the sum is
    Re c_0 + 2 sum_{l >= 1} (Re c_l cos(pi l eta2) - Im c_l sin(pi l eta2)):
    one pair of real matrix products with ``series_trig(L' >= L, eta2)``
    (``trig``, if given), taken only over the eta1 whose coefficients are
    not all zero (those meeting the shell; a run of the carried table's
    columns is read in place) and the eta2 inside the plateau's support.
    Every other entry is exactly zero.
    Returns float64, shape (len(eta1), len(eta2)).
    """
    L = exp.truncation
    eta1 = np.atleast_1d(np.asarray(eta1, dtype=float))
    eta2 = np.atleast_1d(np.asarray(eta2, dtype=float))
    table, at = _coeff_table(exp, eta1)
    rows = np.flatnonzero(np.append(np.any(table, axis=0), False)[at])
    k = at[rows]
    run = table is exp.coeffs and k.size and np.all(np.diff(k) == 1)
    c = table[:, k[0]:k[-1] + 1] if run else table[:, k]
    del table        # a computed table is freed before the trig ones
    plat = plateau(eta2)
    cols = np.flatnonzero(plat)
    cos, sin = (series_trig(L, eta2) if trig is None else trig)[:, :L + 1]
    out = np.zeros((eta1.size, eta2.size))
    out[np.ix_(rows, cols)] = (c.real.T @ cos - c.imag.T @ sin) * plat[cols]
    return out


def series_trig(L: int, eta2) -> np.ndarray:
    """(cos, sin)(pi l eta2), l = 0..L, at the float eta2 inside the
    plateau's support, as one read-only (2, L+1, n) block made in place;
    rows l >= 1 doubled, the same products as doubled coefficients."""
    eta2 = eta2[np.flatnonzero(plateau(eta2))]
    trig = np.empty((2, L + 1, eta2.size))
    np.multiply.outer(np.arange(0, L + 1), eta2, out=trig[1])
    trig[1] *= np.pi
    np.cos(trig[1], out=trig[0])
    np.sin(trig[1], out=trig[1])
    trig[:, 1:] *= 2.0
    trig.flags.writeable = False
    return trig


def _coeff_table(exp: FourierSeriesExpansion, eta1: np.ndarray):
    """Coefficients up to |l| = L, the truncation, and each eta1's column in
    them (-1: all zero, past the last): the expansion's own table when it
    has L + 1 rows and each eta1 is a sample or past the shell, where every
    coefficient is zero; else ``fourier_coeff_batch``, with the same bits."""
    L = exp.truncation
    if exp.coeffs is not None and len(exp.coeffs) == L + 1:
        col = {x: k for k, x in enumerate(exp.samples.tolist())}
        at = np.array([col.get(x, -1) for x in eta1.tolist()], dtype=int)
        if np.all((at >= 0) | (eta1 >= 1.0 - exp.piece.shell[0])):
            return exp.coeffs, at
    return (fourier_coeff_batch(exp.piece, np.arange(0, L + 1), eta1),
            np.arange(eta1.size))


def bilinear_apply_separated(exp: FourierSeriesExpansion, f: SpectralField,
                             g: SpectralField, grid: Grid,
                             trig=None) -> GriddedField:
    """Separated evaluation: the truncated series sum over l of
    (coefficient multiplier applied to f) times (companion multiplier
    applied to g).

    The l-sum is contracted symbol-side (one series evaluation per joint
    eigenvalue pair), which is identical to summing the synthesized
    products term by term but costs O(L) per eigenvalue pair instead of
    O(L) full grid passes.  That is still slower than the direct path,
    which costs O(1) per pair.  Second-input atoms beyond the plateau
    support are annihilated exactly, matching the direct path; on (1, 2]
    the periodized series converges to zero, so any residual there is
    part of the reported truncation tail.
    """
    (uf, inv_f), (ug, inv_g) = map(distinct, (f.eigenvalues, g.eigenvalues))
    table = truncated_series_symbol(exp, uf, ug, trig)
    exp.coeffs = None          # read once: not held through the contraction
    return _bilinear_contract(table, inv_f, inv_g, f, g, grid)


# ---------------------------------------------------------------------------
# dilation covariance

def dilation_covariance_check(params: RieszParams, f: SpectralField,
                              g: SpectralField, t: float,
                              grid: Grid) -> ProbeReport:
    """Check the rescaling identity: the mean at R scaled by t^{-2} equals
    the t-dilation conjugate of the mean at R; reports the max pointwise
    relative deviation on shared nodes."""
    lhs = bilinear_apply_direct(
        riesz_symbol(RieszParams(params.alpha, params.R / (t * t))), f, g, grid)
    ft, gt = (dilate_spectral(h, t, grid) for h in (f, g))
    inner = bilinear_apply_direct(riesz_symbol(params), ft, gt, grid)
    rhs = dilate_gridded(inner, 1.0 / t)

    i1 = _shared_nodes(grid.x1_axis, rhs.grid.x1_axis, grid.dims.d1)
    i2 = _shared_nodes(grid.x2_axis, rhs.grid.x2_axis, grid.dims.d2)
    lhs_sub = lhs.values[np.ix_(i1, i2)]
    return ProbeReport.deviation(
        float(np.max(np.abs(lhs_sub - rhs.values))), 1e-4, t=t, R=params.R,
        alpha=params.alpha, reference=float(np.max(np.abs(rhs.values))))


def _shared_nodes(axis: np.ndarray, sub_axis: np.ndarray, d: int) -> np.ndarray:
    """Flat indices, into the d-fold tensor node set of ``axis``, of the
    d-fold tensor nodes of ``sub_axis``, whose nodes are copies of nodes
    of ``axis``."""
    idx, _ = nearest_node(axis, sub_axis, 0.0)
    return np.ravel_multi_index(np.ix_(*[idx] * d), (axis.size,) * d).ravel()
