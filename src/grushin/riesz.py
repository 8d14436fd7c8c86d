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
from .report import ProbeReport
from .symbols import (DyadicPiece, RieszParams, Symbol2D, dyadic_piece_profile,
                      plateau, riesz_symbol)

__all__ = [
    "FourierSeriesExpansion", "bilinear_apply_direct",
    "bilinear_apply_separated", "fourier_coeff_batch",
    "build_expansion", "dilation_covariance_check", "riesz_symbol",
]


def bilinear_apply_direct(m: Symbol2D, f: SpectralField, g: SpectralField,
                          grid: Grid) -> GriddedField:
    """Direct double-sum evaluation of the bilinear multiplier operator.

    The symbol is evaluated once per joint eigenvalue pair and contracted
    against the two coefficient sets; bilinear in (f, g), and symmetric
    to roundoff for a symmetric symbol.
    """
    mt = np.asarray(m(f.eigenvalues[:, None, :, None],
                      g.eigenvalues[None, :, None, :]))
    mt = np.transpose(mt, (0, 2, 1, 3))          # (nf, amu, ng, bmu)
    return _bilinear_contract(mt, f, g, grid)


# Node rows per block of the contraction: 8 rows keep each (rows, nodes,
# x') temporary near 1.7 MB on the ``decay`` grid; 32 rows measured
# about 25% slower there.
_CONTRACT_ROWS = 8
# Samples per chunk of the series coefficient table: 2^17 keeps it near
# 1 MB; 2^18 peaked 1.7 MB higher in the README ``riesz`` runs.
_COEFF_SAMPLES = 2 ** 17


def _bilinear_contract(mt: np.ndarray, f: SpectralField, g: SpectralField,
                       grid: Grid) -> GriddedField:
    """Contract symbol values mt[i, a, j, b] over atom pairs:
    D[i, j, x] = sum_{a,b} mt[i,a,j,b] Pf[i,a,x] Pg[j,b,x] at frequency
    lambda_i + mu_j.  Only the atoms where ``mt`` lives are visited: level
    a of f on the node span from its first to its last nonzero row of
    ``mt``, level b of g likewise over the columns, in blocks of
    ``_CONTRACT_ROWS`` node rows (each entry sums over (a, b) in the same
    order, whatever the block size); skipped entries are exact zeros.
    Each block is added row by row into the x''-spectrum at the bins of
    lambda_i + mu_j (by ``np.add.at`` where g repeats a node), so D is
    never whole and each bin sums in (i, j) order, bit for bit as
    ``Grid.x2_inverse`` bins a whole D; one inverse FFT ends the sum.
    """
    for h in (f, g):
        if h.dims != grid.dims:
            raise GridError("field dims do not match grid dims")
    pf = _weighted_profiles(f, grid)
    pg = _weighted_profiles(g, grid)
    live = mt != 0
    f_spans = [_span(col) for col in np.any(live, axis=(2, 3)).T]
    g_spans = [_span(col) for col in np.any(live, axis=(0, 1)).T]
    nu = f.lambda_support[:, None, :] + g.lambda_support[None, :, :]
    bins = grid._x2_bins(nu.reshape(-1, grid.dims.d2))[0].reshape(nu.shape[:2])
    distinct = np.unique(bins[:1]).size == bins.shape[1]
    spec = np.zeros((grid.n_x2, pf.shape[2]), dtype=complex)
    for c0 in range(0, max(i1 for _, i1 in f_spans), _CONTRACT_ROWS):
        D = np.zeros((_CONTRACT_ROWS, pg.shape[0], pf.shape[2]),
                     dtype=np.result_type(mt, pf, pg))
        for a, (i0, i1) in enumerate(f_spans):
            i0, i1 = max(i0, c0), min(i1, c0 + _CONTRACT_ROWS)
            for b, (j0, j1) in enumerate(g_spans):
                if i0 < i1 and j0 < j1:
                    D[i0 - c0:i1 - c0, j0:j1] += (
                        mt[i0:i1, a, j0:j1, b][:, :, None]
                        * pf[i0:i1, a, None, :] * pg[None, j0:j1, b, :])
        for i, row in zip(bins[c0:c0 + _CONTRACT_ROWS], D):
            if distinct:
                spec[i] += row
            else:
                np.add.at(spec, i, row)
    scale = (2.0 * np.pi) ** (-2 * grid.dims.d2)
    values = grid._x2_ifft(np.ascontiguousarray(spec.T))
    return GriddedField(grid=grid, values=scale * values)


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
    (1 on [-1, 1], 0 outside [-2, 2]).  ``truncation`` is the default |l|
    cutoff; ``tail_bound`` the measured sup-norm tail sum beyond it.
    ``converged`` is False when ``build_expansion`` stopped at its cap
    before the tail met the tolerance.
    """

    piece: DyadicPiece
    truncation: int
    tail_bound: float = 0.0
    converged: bool = True
    details: dict = field(default_factory=dict)


def _eta2_window(piece: DyadicPiece, eta1: np.ndarray):
    lo_s, hi_s = piece.shell
    lo = np.maximum(1.0 - eta1 - hi_s, 0.0)
    hi = np.minimum(1.0 - eta1 - lo_s, 1.0)
    return lo, np.maximum(hi, lo)


def fourier_coeff_quadrature(piece: DyadicPiece, ls, eta1) -> np.ndarray:
    """Series coefficients by Gauss-Legendre over the eta2 shell window.

    The direct quadrature of the defining integral; used as the oracle
    for the FFT path and for small |l| sets.  Shape (len(ls), len(eta1)).
    """
    ls = np.asarray(ls, dtype=int)
    eta1 = np.atleast_1d(np.asarray(eta1, dtype=float))
    # Resolve the phase pi*l over the shell window plus the bump structure.
    width = 1.5 * 2.0 ** (-piece.j)
    phase = np.pi * int(np.max(np.abs(ls), initial=1)) * width
    n_quad = int(max(48, np.ceil(0.75 * phase) + 24))
    nodes, weights = np.polynomial.legendre.leggauss(n_quad)
    lo, hi = _eta2_window(piece, eta1)
    mid = 0.5 * (hi + lo)
    rad = 0.5 * (hi - lo)
    pts = mid[None, :] + rad[None, :] * nodes[:, None]      # (n_quad, n)
    profile = dyadic_piece_profile(piece)
    vals = profile(1.0 - eta1[None, :] - pts) * (pts >= 0) * (pts <= 1)
    weighted = (weights[:, None] * vals) * rad[None, :]
    out = np.empty((ls.size, eta1.size), dtype=complex)
    chunk = max(1, int(2e7 // max(pts.size, 1)))
    for start in range(0, ls.size, chunk):
        sub = ls[start:start + chunk]
        phases = np.exp(-1j * np.pi * sub[:, None, None] * pts[None, :, :])
        out[start:start + chunk] = 0.5 * np.einsum(
            "lqn,qn->ln", phases, weighted, optimize=True)
    return out


def fourier_coeff_batch(piece: DyadicPiece, ls, eta1) -> np.ndarray:
    """Series coefficients for all requested l at all eta1; shape (L, n).

    The piece is smooth on the period-2 circle in eta2 (its window stays
    interior to [0, 1)), so a uniform-grid FFT is spectrally accurate and
    yields every l at once.  The sample table is band-only
    (``_shell_table``): each eta1 column is sampled only where
    1 - eta1 - eta2 can lie in the shell, only columns with support are
    transformed, and the others are zero.  The table is real, so one real
    FFT gives every l >= 0 and c_{-l} = conj(c_l); n >= 4 max|l| keeps
    every |l| below n/2.  Chunks of ``_COEFF_SAMPLES // n`` columns keep
    only the requested |l|.  Small batches fall back to Gauss-Legendre.
    """
    ls = np.asarray(ls, dtype=int)
    eta1 = np.atleast_1d(np.asarray(eta1, dtype=float))
    l_top = int(np.max(np.abs(ls), initial=0))
    if ls.size * max(l_top, 1) < 4096:
        return fourier_coeff_quadrature(piece, ls, eta1)
    n = 1
    while n < max(4 * l_top, 64 * 2 ** min(piece.j, 16), 512):
        n *= 2
    # e^{i pi l} / n; n is a power of two, so the scale is exact
    scale = np.where(ls % 2 == 0, 1.0, -1.0) / n
    out = np.zeros((eta1.size, ls.size), dtype=complex)
    chunk = max(1, _COEFF_SAMPLES // n)
    for c0 in range(0, eta1.size, chunk):
        live, table = _shell_table(piece, eta1[c0:c0 + chunk], n)
        spec = np.fft.rfft(table, axis=1)               # entry l: l >= 0
        out[c0 + live] = spec[:, np.abs(ls)] * scale
    out.imag[:, ls < 0] *= -1.0                         # c_{-l} = conj(c_l)
    return out.T


def _shell_table(piece: DyadicPiece, eta1: np.ndarray, n: int):
    """The piece sampled at s = 1 - eta1 - eta2 on the eta2 nodes
    eta2_k = -1 + 2k/n, zero for eta2 < 0, for the eta1 columns that
    meet its shell.

    Returns (live, table): the indices of those columns, and their
    samples as rows of a (len(live), n) table.  Each column is evaluated
    only on the contiguous band of nodes where s can lie in the shell,
    widened by two nodes on each side so that rounding at the band's
    edges cannot drop a node where the piece is nonzero; every entry is
    the same float as in a full (n, len(eta1)) evaluation.
    """
    half = n // 2
    lo_s, hi_s = piece.shell
    rest = 1.0 - eta1
    first = np.clip(np.floor((rest - hi_s + 1.0) * half) - 2, half, n)
    stop = np.clip(np.ceil((rest - lo_s + 1.0) * half) + 3, half, n)
    live = np.flatnonzero(stop > first)
    first = first[live].astype(int)
    width = stop[live].astype(int) - first
    cols = np.repeat(np.arange(live.size), width)
    rows = first[cols] + np.arange(cols.size) - (np.cumsum(width) - width)[cols]
    eta2 = -1.0 + 2.0 * np.arange(n) / n
    table = np.zeros((live.size, n))
    table[cols, rows] = dyadic_piece_profile(piece)(rest[live][cols]
                                                    - eta2[rows])
    return live, table


def build_expansion(piece: DyadicPiece, eta1_samples=None, tol: float = 1e-7,
                    l_cap: int = 8192) -> FourierSeriesExpansion:
    """Choose the series truncation from the measured coefficient decay.

    Doubles the cutoff until the measured sup-norm tail sum over the next
    octave drops below ``tol`` times the accumulated series mass; the
    smooth bump decays root-exponentially in l, so the next octave is a
    faithful tail proxy.  Stopping at ``l_cap`` first is reported as
    ``converged=False``, not silently.
    """
    if eta1_samples is None:
        eta1_samples = np.linspace(0.0, 1.0, 33)
    L = max(8, 2 ** (piece.j + 2))
    head = fourier_coeff_batch(piece, np.arange(0, L + 1), eta1_samples)
    mass = float(np.sum(np.max(np.abs(head), axis=1)))
    while True:
        ls = np.arange(L + 1, 2 * L + 1)
        coeffs = fourier_coeff_batch(piece, ls, eta1_samples)
        octave = 2.0 * float(np.sum(np.max(np.abs(coeffs), axis=1)))
        converged = octave < tol * mass
        if converged or L >= l_cap:
            return FourierSeriesExpansion(
                piece=piece, truncation=L, tail_bound=octave,
                converged=converged,
                details={"tol": tol, "series_mass": mass})
        mass += octave
        L *= 2


def truncated_series_symbol(exp: FourierSeriesExpansion, eta1, eta2,
                            truncation: int | None = None) -> np.ndarray:
    """m_L(eta1, eta2) = sum_{|l| <= L} coeff_l(eta1) e^{i pi l eta2}
    times the plateau in eta2; the truncated separated symbol.

    The piece is real, so coeff_{-l} = conj(coeff_l) and the sum is
    Re c_0 + 2 sum_{l >= 1} (Re c_l cos(pi l eta2) - Im c_l sin(pi l eta2)):
    one pair of real matrix products, taken only over the eta1 whose
    coefficients are not all zero (those meeting the shell) and the eta2
    inside the plateau's support.  Every other entry is exactly zero.
    Returns float64, shape (len(eta1), len(eta2)).
    """
    L = exp.truncation if truncation is None else int(truncation)
    eta1 = np.atleast_1d(np.asarray(eta1, dtype=float))
    eta2 = np.atleast_1d(np.asarray(eta2, dtype=float))
    ls = np.arange(0, L + 1)
    c = fourier_coeff_batch(exp.piece, ls, eta1)         # (L+1, n1)
    rows = np.flatnonzero(np.any(c, axis=0))
    c = c[:, rows]   # rebound, so the full table is freed before the trig ones
    c[1:] *= 2.0
    plat = plateau(eta2)
    cols = np.flatnonzero(plat)
    angle = np.pi * np.multiply.outer(ls, eta2[cols])     # (L+1, n2 live)
    out = np.zeros((eta1.size, eta2.size))
    out[np.ix_(rows, cols)] = (c.real.T @ np.cos(angle)
                               - c.imag.T @ np.sin(angle)) * plat[cols]
    return out


def bilinear_apply_separated(exp: FourierSeriesExpansion, f: SpectralField,
                             g: SpectralField, grid: Grid,
                             truncation: int | None = None) -> GriddedField:
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
    uniq_f, inv_f = np.unique(f.eigenvalues.reshape(-1), return_inverse=True)
    uniq_g, inv_g = np.unique(g.eigenvalues.reshape(-1), return_inverse=True)
    m_uniq = truncated_series_symbol(exp, uniq_f, uniq_g, truncation)
    mt = m_uniq[np.ix_(inv_f, inv_g)].reshape(
        f.eigenvalues.shape + g.eigenvalues.shape)   # (nf, amu, ng, bmu)
    return _bilinear_contract(mt, f, g, grid)


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
    ft = dilate_spectral(f, t, grid)
    gt = dilate_spectral(g, t, grid)
    inner = bilinear_apply_direct(riesz_symbol(params), ft, gt, grid)
    rhs = dilate_gridded(inner, 1.0 / t)

    i1 = _shared_nodes(grid.x1_axis, rhs.grid.x1_axis, grid.dims.d1)
    i2 = _shared_nodes(grid.x2_axis, rhs.grid.x2_axis, grid.dims.d2)
    lhs_sub = lhs.values[np.ix_(i1, i2)]
    ref = float(np.max(np.abs(rhs.values)))
    dev = float(np.max(np.abs(lhs_sub - rhs.values)) / ref) if ref > 0 else 0.0
    report = ProbeReport.deviation(dev, 1e-4, t=t, R=params.R,
                                   alpha=params.alpha, reference=ref)
    if ref == 0.0:
        report.verdict = "DEGENERATE-PASS"
    return report


def _shared_nodes(axis: np.ndarray, sub_axis: np.ndarray, d: int) -> np.ndarray:
    """Flat indices, into the d-fold tensor node set of ``axis``, of the
    d-fold tensor nodes of ``sub_axis``, whose nodes are copies of nodes
    of ``axis``."""
    idx, _ = nearest_node(axis, sub_axis, 0.0)
    return np.ravel_multi_index(np.ix_(*[idx] * d), (axis.size,) * d).ravel()
