"""Linear and joint functional calculus, kernels, and weighted kernel norms.

On spectral fields a multiplier acts exactly, coefficient by coefficient.
Kernels are finite sums over the (frequency node, Hermite level) atoms of
the grid: for a symbol supported in [0, eta_max] the level sum truncates
exactly at (2k + d1)|lambda| <= eta_max, so the only discretization is
the declared frequency lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dims import ConfigError, in_range
from .fields import GriddedField, SeparableField, SpectralField
from .grid import Grid, GridError
from .hermite import _profile_rows, multi_index_degrees, multi_indices_upto
from .reductions import gauss_legendre, pairwise_sum
from .symbols import SeparableSymbol2D, Symbol1D, Symbol2D


class PaddingError(ConfigError):
    """Sampled symbol does not vanish near the padded-box boundary."""


# ---------------------------------------------------------------------------
# exact calculus on spectral fields

def apply_linear_multiplier(F, f: SpectralField) -> SpectralField:
    """C_out(lambda, mu) = F((2|mu| + d1)|lambda|) C_in(lambda, mu); exact."""
    vals = np.asarray(F(f.eigenvalues))
    return f.copy_with(vals * f.coeffs)


def apply_joint_multiplier(F2, f: SpectralField) -> SpectralField:
    """Joint calculus of the operator pair: the second generator acts as
    multiplication by |lambda|, so C_out = F2(eigen, |lambda|) C_in."""
    tau = np.broadcast_to(f.lambda_abs[:, None], f.eigenvalues.shape)
    vals = np.asarray(F2(f.eigenvalues, tau))
    return f.copy_with(vals * f.coeffs)


# ---------------------------------------------------------------------------
# spectral atoms of a grid

@dataclass(frozen=True)
class SpectralAtoms:
    """Flattened (frequency node, Hermite level) pairs with
    (2k + d1)|lambda| <= eta_max."""

    grid: Grid
    lam: np.ndarray        # (Q, d2)
    lam_abs: np.ndarray    # (Q,)
    weight: np.ndarray     # (Q,)
    level: np.ndarray      # (Q,) integer k
    eigen: np.ndarray      # (Q,)
    lam_index: np.ndarray  # (Q,) node index into grid.lambda_points

    @property
    def count(self) -> int:
        return self.eigen.size


def build_atoms(grid: Grid, eta_max: float) -> SpectralAtoms:
    d1 = grid.dims.d1
    lam_min = grid.resolved.lambda_min
    if d1 * lam_min > eta_max:
        raise GridError(
            f"lambda_min {lam_min:.4g} too large: no spectrum below "
            f"eta_max {eta_max:.4g} even at level 0")
    # node i carries the levels 0..kmax_i, node by node
    kmax = np.floor((eta_max / grid.lambda_abs - d1) / 2.0 + 1e-12).astype(int)
    counts = np.maximum(kmax + 1, 0)
    idx = np.repeat(np.arange(grid.n_lambda), counts)
    lev = np.arange(idx.size) - np.repeat(np.cumsum(counts) - counts, counts)
    lam_abs = grid.lambda_abs[idx]
    return SpectralAtoms(grid=grid, lam=grid.lambda_points[idx], lam_abs=lam_abs,
                         weight=grid.lambda_weights[idx], level=lev,
                         eigen=(2 * lev + d1) * lam_abs, lam_index=idx)


def _profile_bank(atoms: SpectralAtoms, points: np.ndarray):
    """Scaled Hermite profiles of every atom at ``points`` (n, d1).

    Row r of the bank is the profile of the r-th (atom q, multi-index mu
    with |mu| = k_q) pair; pairs run atom by atom, mu in colex order
    within an atom, so for d1 = 1 row q is atom q.  Returns (bank,
    row_atom), row_atom[r] = q.
    """
    _, node_first, node = np.unique(atoms.lam_index, return_index=True,
                                    return_inverse=True)
    top = int(atoms.level.max())
    per_level = np.bincount(multi_index_degrees(atoms.grid.dims.d1, top))
    n_rows = per_level[atoms.level]
    row_atom = np.repeat(np.arange(atoms.count), n_rows)
    # Atom q's rows are the multi-indices of its level, in enumeration order.
    shift = (np.cumsum(n_rows) - n_rows
             - (np.cumsum(per_level) - per_level)[atoms.level])
    row_mu = np.arange(row_atom.size) - np.repeat(shift, n_rows)
    mus = np.array(multi_indices_upto(atoms.grid.dims.d1, top))
    bank = _profile_rows(atoms.lam[node_first], node[row_atom], mus[row_mu],
                         np.asarray(points, dtype=float))
    return bank, row_atom


@lru_cache(maxsize=2)
def _grid_bank(grid: Grid, eta_max: float):
    """``build_atoms(grid, eta_max)`` and its read-only profile bank at the
    grid's x' nodes, (atoms, bank, row_atom), for a grid and its refinement."""
    atoms = build_atoms(grid, eta_max)
    bank, row_atom = _profile_bank(atoms, grid.x1_points)
    bank.flags.writeable = False
    return atoms, bank, row_atom


@lru_cache(maxsize=32)
def _base_point_bank(grid: Grid, eta_max: float, x1: tuple):
    """``_profile_bank`` of ``_grid_bank(grid, eta_max)``'s atoms at one base
    point x1, read-only: the probes of a pass share a few base points."""
    bank = _profile_bank(_grid_bank(grid, eta_max)[0], np.array([x1]))[0]
    bank.flags.writeable = False
    return bank


def atom_projection_values(atoms: SpectralAtoms, x1_points: np.ndarray,
                           y1_points: np.ndarray) -> np.ndarray:
    """R[q, i] = projection kernel at level k_q, frequency lambda_q,
    evaluated at (x1, y1_points[i]).

    ``x1_points`` is one base point (d1,) or (1, d1), broadcast along
    the rows of ``y1_points`` (n, d1), or n points aligned with them.
    """
    x1_bank, row_atom = _profile_bank(atoms, np.atleast_2d(x1_points))
    y1_bank = _profile_bank(atoms, np.atleast_2d(y1_points))[0]
    return _project(x1_bank, y1_bank, row_atom, atoms.count)


def _project(x1_bank, y1_bank, row_atom, count: int) -> np.ndarray:
    """The projections of ``count`` atoms from their banks at both points:
    each atom's sum of its rows (row_atom) of ``x1_bank * y1_bank``.
    Profiles are pointwise, so cached banks give bit-identical values."""
    terms = x1_bank * y1_bank
    if row_atom.size == count:           # one row per atom (always at d1 = 1)
        return terms
    first = np.searchsorted(row_atom, np.arange(count))
    return np.add.reduceat(terms, first, axis=0)


# ---------------------------------------------------------------------------
# kernels at points

def linear_kernel(F: Symbol1D, x, y, grid: Grid) -> complex:
    """Kernel of F applied through the calculus, evaluated at one point pair.

    x, y are (x1, x2) tuples of arrays.  Exact truncation: F vanishes
    beyond the grid's top atom level.
    """
    return complex(linear_kernel_batch(F, [x], [y], grid)[0])


def linear_kernel_batch(F: Symbol1D, xs, ys, grid: Grid) -> np.ndarray:
    atoms = build_atoms(grid, F.support[1])
    coeff = atoms.weight * np.asarray(F(atoms.eigen))
    proj = atom_projection_values(atoms, _stack(xs, 0), _stack(ys, 0))
    rows = _phase_rows(atoms.lam, coeff, proj, xs, ys)
    return (2.0 * np.pi) ** (-grid.dims.d2) * pairwise_sum(rows, axis=1)


def _phase_rows(lam, coeff, proj, xs, ys) -> np.ndarray:
    """rows[t, q] = coeff_q exp(i lam_q . (x''_t - y''_t)) proj[q, t], proj
    the atoms' projections at the t-th point pair (x_t, y_t) of the batch.

    The phase argument is summed axis by axis in elementwise products,
    so each row is the same whichever other points share the batch.
    """
    x2, y2, d2 = _stack(xs, 1), _stack(ys, 1), lam.shape[1]
    if not x2.shape[1] == y2.shape[1] == d2:
        raise ValueError(f"x'' points need d2 = {d2} coordinates")
    d = x2 - y2
    arg = d[:, :1] * lam[:, 0]
    for k in range(1, d.shape[1]):
        arg = arg + d[:, k:k + 1] * lam[:, k]
    return coeff * np.exp(1j * arg) * proj.T


def _stack(points, layer: int) -> np.ndarray:
    """(n, d) array of one layer of a list of (x1, x2) points."""
    return np.array([np.atleast_1d(p[layer]) for p in points], dtype=float)


def bilinear_kernel(G: Symbol2D, x, y, z, grid: Grid) -> complex:
    return complex(bilinear_kernel_batch(G, [x], [y], [z], grid)[0])


def bilinear_kernel_batch(G: Symbol2D, xs, ys, zs, grid: Grid) -> np.ndarray:
    """Kernel of the bilinear operator at sample triples.

    The symbol is read once per pair of distinct atom eigenvalues
    (``Symbol2D.on_pairs``), and only its live block is visited: the atom
    rows and columns where it is nonzero somewhere.  The triples are
    contracted in real arithmetic by one stacked matmul, one product per
    triple, so each value does not depend on the rest of the batch.
    """
    (a1, b1), (a2, b2) = G.support
    atoms1 = build_atoms(grid, b1)
    atoms2 = build_atoms(grid, b2)
    table, inv1, inv2 = G.on_pairs(atoms1.eigen, atoms2.eigen)
    live = table != 0
    rows = np.flatnonzero(live.any(axis=1)[inv1])
    cols = np.flatnonzero(live.any(axis=0)[inv2])
    if rows.size == 0:
        return np.zeros(len(xs), dtype=complex)
    x1, y1, z1 = (tuple(map(tuple, _stack(p, 0).tolist())) for p in (xs, ys, zs))
    a = _phase_rows(atoms1.lam[rows], atoms1.weight[rows],
                    _pair_projections(grid, b1, x1, y1)[rows], xs, ys)
    ab = np.stack((a.real, a.imag), axis=1)     # (T, 2, R)
    del a   # beside the gathered block only ab is held; b is built after it
    # C-ordered takes, not np.ix_: the same contiguous GEMM operand, faster
    r, c = inv1[rows], inv2[cols]
    u = ab @ np.take(table.real[r], c, axis=1)  # (Re a Gr, Im a Gr)
    if table.imag.any():                        # plus i a Gi
        v = ab @ np.take(table.imag[r], c, axis=1)
        u = u + np.stack((-v[:, 1], v[:, 0]), axis=1)
    b = _phase_rows(atoms2.lam[cols], atoms2.weight[cols],
                    _pair_projections(grid, b2, x1, z1)[cols], xs, zs)
    q = u @ np.stack((b.real, b.imag), axis=2)  # (T, 2, 2)
    scale = (2.0 * np.pi) ** (-2 * grid.dims.d2)
    return scale * ((q[:, 0, 0] - q[:, 1, 1]) + 1j * (q[:, 0, 1] + q[:, 1, 0]))


@lru_cache(maxsize=2)
def _pair_projections(grid: Grid, eta_max: float, x1s: tuple, y1s: tuple):
    """``atom_projection_values(build_atoms(grid, eta_max), x1s, y1s)``,
    read-only, for pairs' x' points as d1-tuples: a kernel pass's pieces
    share them (a key compares by value, so x' = -0.0 reads 0.0's table)."""
    proj = atom_projection_values(build_atoms(grid, eta_max), np.array(x1s),
                                  np.array(y1s))
    proj.flags.writeable = False
    return proj


# ---------------------------------------------------------------------------
# operators on gridded inputs (spectrum-limited, level-exact)

# x'-rows per block of the streamed forward x''-transform: a 1 MB block
# of the refined ``weighted`` grid's 2,048 x''-nodes
_FORWARD_ROWS = 32
# atoms (or sorted rows) per block of the node and bin sums
_BLOCK_ITEMS = 64


def _gridded_coefficients(F: Symbol1D, h: GriddedField | SeparableField):
    """(lam, bank, c) over the rows r of the grid's atom bank: row r's
    frequency, its profile at the x' nodes, and F(eigen) <h, profile
    e^{i lam x''}> / L^{d2}.  The forward x''-transform is streamed over
    blocks of ``_FORWARD_ROWS`` x'-rows, each row's x'-sum accumulated
    block by block, so no field-sized spectrum is held."""
    grid = h.grid
    # build_atoms gives every node its levels 0..kmax, so the atoms' bank
    # holds each node's basis up to kmax
    atoms, bank, row_atom = _grid_bank(grid, F.support[1])
    coeff = np.zeros(row_atom.size, dtype=complex)
    for r0 in range(0, grid.n_x1, _FORWARD_ROWS):
        rows = slice(r0, r0 + _FORWARD_ROWS)
        sections = grid.x2_forward(h.rows(rows), atoms.lam)[row_atom]
        coeff += np.sum(bank[:, rows] * grid.x1_weights[rows] * sections,
                        axis=1)
    box = grid.x2_box_length ** grid.dims.d2
    c = np.asarray(F(atoms.eigen))[row_atom] * coeff / box
    return atoms.lam[row_atom], bank, c


def apply_linear_multiplier_gridded(F: Symbol1D, h: GriddedField) -> GriddedField:
    """Apply F through the calculus to grid samples.

    Sections at each frequency node are projected onto the levels the
    symbol can see ((2k+d1)|lambda| <= sup supp F), multiplied, and
    resynthesized; x2_inverse sums a node's rows.  Exact in the level
    sum; quadrature only in x'.
    """
    lam, bank, c = _gridded_coefficients(F, h)
    values = h.grid.x2_inverse((c[:, None] * bank).T, lam)
    return GriddedField(grid=h.grid, values=values)


# ---------------------------------------------------------------------------
# weighted kernel norms (the probe left-hand sides)

def channel_sums(f: Symbol1D, grid: Grid, x1_point) -> tuple:
    """(grid, Z, nodes), read-only: Z[n, i] = sum over the atoms q of
    frequency node nodes[n] of f(eigen_q) w_q Proj_q(x1, y1_i), y1 the
    grid's x' nodes, over every atom of ``_grid_bank(grid, sup supp f)``
    (where f vanishes they add exact zeros).  Blocks of whole nodes
    (``_segment_blocks``) keep each node's sequential sum and hold no
    (rows x n1) product."""
    eta_max = f.support[1]
    atoms, bank, row_atom = _grid_bank(grid, eta_max)
    x1_bank = _base_point_bank(grid, eta_max, tuple(np.ravel(x1_point).tolist()))
    coeff = np.asarray(f(atoms.eigen), dtype=complex) * atoms.weight
    if not coeff.imag.any():
        coeff = coeff.real
    first = np.flatnonzero(np.diff(atoms.lam_index, prepend=-1))
    z = np.empty((first.size, grid.n_x1), dtype=coeff.dtype)
    for nodes, block, starts in _segment_blocks(first, atoms.count):
        rows = slice(*np.searchsorted(row_atom, (block.start, block.stop)))
        proj = _project(x1_bank[rows], bank[rows], row_atom[rows] - block.start,
                        block.stop - block.start)
        np.add.reduceat(coeff[block, None] * proj, starts, axis=0, out=z[nodes])
    z.flags.writeable = False
    return grid, z, atoms.lam_index[first]


def _segment_blocks(first: np.ndarray, total: int):
    """(segments, items, reduceat starts) per block of whole segments,
    segment s being items first[s] .. first[s + 1] - 1 of total: a block
    takes the segments that start in one run of ``_BLOCK_ITEMS`` items."""
    edge = np.append(first, total)
    cuts = np.flatnonzero(np.diff(first // _BLOCK_ITEMS, prepend=-1))
    for s0, s1 in zip(cuts, np.append(cuts[1:], first.size)):
        yield slice(s0, s1), slice(edge[s0], edge[s1]), first[s0:s1] - edge[s0]


def linear_first_layer_weighted_l2(F: Symbol1D, y, grid: Grid,
                                   gamma: float) -> float:
    """Integral of |x'|^{2 gamma} |kernel(x, y)|^2 over the grid box in x.

    The x''-sum is exact on the lattice (block-diagonal across frequency
    nodes); the x'-integral is grid quadrature.
    """
    _, z, _ = channel_sums(F, grid, np.atleast_1d(y[0]))
    wx = grid.x1_weights * np.linalg.norm(grid.x1_points, axis=1) ** (2 * gamma)
    scale = (2.0 * np.pi) ** (-2 * grid.dims.d2) * grid.x2_box_length ** grid.dims.d2
    return scale * sum(np.sum(wx * np.abs(z) ** 2, axis=1).tolist())


def restriction_apply_l2(F: Symbol1D, h: GriddedField | SeparableField,
                         gamma: float) -> float:
    """Weighted output norm || |x'|^gamma F(calculus) h ||_2 on the grid.

    By Parseval over the x''-lattice, with no output field: the output
    is sum_r c_r bank[r, x'] e^{i lam_r x''}, so its norm squared is
    L^{d2} sum_{x'} w |x'|^{2 gamma} sum_b |B_b(x')|^2, B_b the sum of the
    rows in DFT bin b (aliased frequencies add before squaring).
    """
    grid = h.grid
    lam, bank, c = _gridded_coefficients(F, h)
    bins = grid._x2_bins(lam)[0]
    order = np.argsort(bins, kind="stable")
    first = np.flatnonzero(np.diff(bins[order], prepend=-1))
    power = np.zeros(grid.n_x1)
    for _, block, starts in _segment_blocks(first, order.size):
        rows = order[block]
        binned = np.add.reduceat(c[rows, None] * bank[rows], starts, axis=0)
        for row in binned.real ** 2 + binned.imag ** 2:    # in bin order
            power += row
    wx = np.linalg.norm(grid.x1_points, axis=1) ** (2 * gamma) * grid.x1_weights
    return float(np.sqrt(grid.x2_box_length ** grid.dims.d2 * (power @ wx)))


@lru_cache(maxsize=32)
def _power_cos_moments(p: float, k_max: int) -> np.ndarray:
    """W(p, k) = integral over [0, 1] of s^p cos(k pi s) ds, k = 0..k_max.

    Composite 8-node Gauss rule on P = max(2 k_max, 64) panels of width
    h, summed by FFT: node i of panel m sits at s = (m + t_i) h, so
    W(p, k) = Re sum_i e^{i pi k h t_i} sum_m a_{m,i} e^{i pi k m / P},
    and each inner sum is a length-2P transform of a = (h/2) w_i s^p.
    For fractional p the s^p kink on the first panel is not polynomial,
    so the table is off by a near constant in k: at k_max = 460 about
    6.1e-9 at p = 0.5 and 1.1e-10 at p = 0.8.  Cached by value and
    read-only: every Gram of a probe asks for one of a few (p, k_max).
    """
    panels = max(2 * k_max, 64)
    nodes, wts = gauss_legendre(8)
    h = 1.0 / panels
    t = 0.5 * (1.0 + nodes)
    s = (np.arange(panels)[:, None] + t) * h               # (P, 8)
    # a is real, so its sum against e^{+i...} is the conjugate rfft
    spec = np.fft.rfft(0.5 * h * wts * s ** p, n=2 * panels, axis=0)[:k_max + 1]
    phase = (np.pi * h * t) * np.arange(k_max + 1)[:, None]
    mom = np.sum(np.cos(phase) * spec.real + np.sin(phase) * spec.imag, axis=1)
    mom.flags.writeable = False
    return mom


def u_weight_table(grid: Grid, exponent: float, k_max: int) -> np.ndarray:
    """V(k) = integral of |u|^{2 exponent} e^{i k step u} over one period.

    Exactly the lattice delta (the box length at k = 0) for exponent 0;
    otherwise the closed moment integral avoids the aliasing a kinked
    weight suffers under the node-sum rule.
    """
    if exponent == 0:
        return np.where(np.arange(k_max + 1) == 0, grid.x2_box_length, 0.0)
    p = 2.0 * exponent
    return 2.0 * (grid.x2_box_length / 2.0) ** (p + 1.0) \
        * _power_cos_moments(p, k_max)


def _require_d2_one(grid: Grid):
    if grid.dims.d2 != 1:
        raise NotImplementedError("weighted Gram contractions are d2 = 1 only")


def _weighted_gram(atoms: SpectralAtoms, x1_point: np.ndarray,
                   exponent: float) -> np.ndarray:
    """M[q, r] = V(k_q - k_r) sum_{y1} w1 Proj_q(x1, y1) Proj_r(x1, y1).

    The Gram matrix of the atom channels frozen at base point x1, with
    the u-integral of |u|^{2 exponent} contracted per frequency-step
    difference k_q - k_r against the exact moments of ``u_weight_table``.
    Those moments are one-dimensional, so this raises NotImplementedError
    unless d2 = 1, before any projection work.
    """
    grid = atoms.grid
    _require_d2_one(grid)
    proj = atom_projection_values(atoms, x1_point, grid.x1_points)  # (Q, n1)
    S = (proj * grid.x1_weights) @ proj.T
    steps = np.round(atoms.lam[:, 0] / grid.lambda_step).astype(int)
    table = u_weight_table(grid, exponent, int(np.ptp(steps)))
    return table[np.abs(steps[:, None] - steps[None, :])] * S


def second_layer_channel_l2(sums: tuple, u_exponent: float,
                            cutoff=None) -> float:
    """Integral over (y', u) of |u|^{2 u_exponent} |K(y', u)|^2, K the
    kernel of a profile times an optional frequency-size cutoff, frozen at
    base point x1; ``sums`` is the profile's ``channel_sums`` at x1.

    A cutoff of |lambda| scales each node's row.  A node's atoms share its
    step k, so the form is sum_{y1} w1 Z^T T Z with the Toeplitz u-weight
    T[n, m] = V(|k_n - k_m|) (Re Z and Im Z add): V(0) times the lag-0
    sum, plus sum_{d > 0} 2 V(d) A(d), A the w1-weighted autocorrelation
    of the rows placed at their steps, by one zero-padded rfft per part
    and one irfft.  V is sized by all nodes of ``sums``, so a cutoff's
    form reads the same moments as the full atom set (its Gram oracle).
    At exponent 0, T = L I.  d2 = 1 only (NotImplementedError).
    """
    grid, z, nodes = sums
    _require_d2_one(grid)
    if cutoff is not None:
        z = np.asarray(cutoff(grid.lambda_abs[nodes]))[:, None] * z
    live = np.any(z != 0, axis=1)
    parts = (z[live].real, z[live].imag) if np.iscomplexobj(z) else (z[live],)
    steps = np.round(grid.lambda_points[nodes, 0] / grid.lambda_step).astype(int)
    table = u_weight_table(grid, u_exponent, int(np.ptp(steps)))
    form = sum(float(grid.x1_weights @ np.sum(part * (table[0] * part), axis=0))
               for part in parts)
    if u_exponent != 0:                         # lags d > 0
        at = steps[live] - steps[live].min(initial=steps.max())  # lowest at 0
        span = int(at.max(initial=0)) + 1
        n = 1 << (2 * span - 1).bit_length()    # no wrap-around of lags
        power = 0.0
        for part in parts:
            placed = np.zeros((span, z.shape[1]))
            placed[at] = part
            power = power + np.abs(np.fft.rfft(placed, n=n, axis=0)) ** 2 \
                @ grid.x1_weights
        form += 2.0 * float(table[1:span] @ np.fft.irfft(power, n=n)[1:span])
    return (2.0 * np.pi) ** (-2 * grid.dims.d2) * form


def bilinear_weighted_l2(G: Symbol2D, x, grid: Grid, exp1: float, exp2: float,
                         cutoff1=None, cutoff2=None) -> float:
    """General-G second-layer weighted norm:

    integral over (y, z) of |x''-y''|^{2 exp1} |x''-z''|^{2 exp2}
    |bilinear kernel(x, y, z)|^2, with optional frequency-size cutoffs on
    each channel.  A tensor symbol g = a b^T factors into two channel
    forms, (a^H M1 a)(b^H M2 b), over one ``channel_sums`` table if the
    factors are one symbol; any other G is contracted against both
    weighted Grams; no probe reaches that branch, but it stays as the only
    code for the general-G estimate, and its `_weighted_gram` is the
    tests' oracle.  d2 = 1 only (NotImplementedError otherwise).
    """
    _require_d2_one(grid)
    x1 = np.atleast_1d(x[0])
    if isinstance(G, SeparableSymbol2D):
        sums1 = channel_sums(G.factor1, grid, x1)
        sums2 = (sums1 if G.factor2 is G.factor1
                 else channel_sums(G.factor2, grid, x1))
        return (second_layer_channel_l2(sums1, exp1, cutoff1)
                * second_layer_channel_l2(sums2, exp2, cutoff2))

    (a1, b1), (a2, b2) = G.support
    atoms1 = build_atoms(grid, b1)
    atoms2 = atoms1 if b2 == b1 else build_atoms(grid, b2)
    cut1 = 1.0 if cutoff1 is None else np.asarray(cutoff1(atoms1.lam_abs))
    cut2 = 1.0 if cutoff2 is None else np.asarray(cutoff2(atoms2.lam_abs))
    table, inv1, inv2 = G.on_pairs(atoms1.eigen, atoms2.eigen)
    g = table[np.ix_(inv1, inv2)] * np.outer(atoms1.weight * cut1,
                                             atoms2.weight * cut2)

    M1 = _weighted_gram(atoms1, x1, exp1)
    M2 = M1 if (b2, exp2) == (b1, exp1) else _weighted_gram(atoms2, x1, exp2)
    # The Grams are real, so Re sum conj(g) (M1^T g M2) is exactly the sum
    # of the same real form over Re g and Im g: the cross terms are
    # imaginary.  A real g skips the second GEMM pair.
    parts = (g.real, g.imag) if g.imag.any() else (g.real,)
    total = sum(float(np.sum((M1.T @ part @ M2) * part)) for part in parts)
    return (2.0 * np.pi) ** (-4 * grid.dims.d2) * total


# ---------------------------------------------------------------------------
# product Sobolev norm

def sobolev_product_norm(G: Symbol2D, s1: float, s2: float,
                         samples: int = 1024, pad: int = 4,
                         diagnostics: dict | None = None) -> float:
    """|| G ||_{L^2_{s1,s2}} by FFT on the zero-padded sample box.

    The real and imaginary parts of G are transformed separately with
    ``rfft2`` (a half spectrum each; the transform shape supplies the
    zero padding) and their weighted masses are added.  The weights are
    even, so the cross terms cancel between each frequency and its
    mirror: ||G||^2 = ||Re G||^2 + ||Im G||^2, and the same holds for
    the Nyquist-band mass.  A part that is identically zero is skipped.

    Raises PaddingError when the symbol carries mass on the outer frame
    of the padded box (i.e. the padding cannot isolate one period).
    """
    in_range("s1", s1, 0)
    in_range("s2", s2, 0)
    (a1, b1), (a2, b2) = G.support
    n = samples
    big = pad * n
    h1 = (b1 - a1) / n
    h2 = (b2 - a2) / n
    e1 = a1 + (np.arange(n) + 0.5) * h1
    e2 = a2 + (np.arange(n) + 0.5) * h2
    vals = np.broadcast_to(G(e1[:, None], e2[None, :]), (n, n))

    # The padded frame must stay empty: mass on the outer rows/columns of
    # the padded array would mean the declared support leaks into the
    # periodic images of the transform.  Only the first n rows and
    # columns of the padded array are nonzero.
    frame = max(2, big // 64)
    sq = np.abs(vals) ** 2
    total_mass = float(np.sum(sq))
    edge = float(np.sum(sq[big - frame:, :])
                 + np.sum(sq[:big - frame, big - frame:]))
    edge_frac = edge / total_mass if total_mass else 0.0
    if diagnostics is not None:
        diagnostics["edge_mass_fraction"] = edge_frac
    if edge_frac > 1e-10:
        raise PaddingError(
            f"boundary mass fraction {edge_frac:.2e} exceeds 1e-10; "
            "increase pad")

    nyq = big // 2
    cols = np.arange(nyq + 1)                  # rfft columns 0 .. Nyquist
    xi1 = 2.0 * np.pi * np.fft.fftfreq(big, d=h1)
    xi2 = 2.0 * np.pi * np.fft.rfftfreq(big, d=h2)
    w1 = (1.0 + xi1 ** 2) ** s1
    # a column strictly between 0 and Nyquist also stands for its mirror
    w2 = (1.0 + xi2 ** 2) ** s2 * np.where((cols == 0) | (2 * cols == big),
                                            1.0, 2.0)
    weighted = np.zeros((big, nyq + 1))
    for part in (np.real(vals), np.imag(vals)):
        if np.any(part):
            spec = np.fft.rfft2(part, s=(big, big)) * (h1 * h2)
            weighted += np.abs(spec) ** 2 * w1[:, None] * w2[None, :]
    total = float(np.sum(weighted)) * (xi1[1] - xi1[0]) * (xi2[1] - xi2[0]) \
        / (2.0 * np.pi) ** 2

    band = int(0.1 * nyq)
    sl = np.abs(np.arange(big) - nyq) < band
    sl2 = np.abs(cols - nyq) < band
    boundary = float(np.sum(weighted[sl, :]) + np.sum(weighted[:, sl2][~sl, :]))
    frac = boundary / total if total else 0.0
    if diagnostics is not None:
        diagnostics["nyquist_mass_fraction"] = frac
    if frac > 0.2:
        raise PaddingError(
            f"spectral mass fraction {frac:.2e} near the Nyquist band; "
            "increase samples")
    return float(np.sqrt(total))


def sobolev_norm_1d(g: Symbol1D, s: float) -> float:
    """1-D Sobolev norm (same Fourier-weight convention), by FFT of 4096
    samples zero-padded to 4 times their length."""
    lo, hi = g.support
    n = 4096
    big = 4 * n
    h = (hi - lo) / n
    e = lo + (np.arange(big) + 0.5) * h
    vals = np.zeros(big, dtype=complex)
    vals[:n] = g(e[:n])
    spec = np.fft.fft(vals) * h
    xi = 2.0 * np.pi * np.fft.fftfreq(big, d=h)
    total = float(np.sum(np.abs(spec) ** 2 * (1.0 + xi ** 2) ** s)
                  * abs(xi[1] - xi[0]) / (2.0 * np.pi))
    return float(np.sqrt(total))
