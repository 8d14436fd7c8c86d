"""Algebraic identities the library relies on, checked on random fields
over small grids in every (d1, d2) in {1, 2}^2: bilinearity and symmetry
of the direct path, the atom-pair contraction against the dense einsum
(also where pair sums alias and where a support node repeats) and, bit
for bit, against the contraction into one whole array, its blocks
against blocks summed from a zeroed buffer, dilation
covariance of the Riesz means, the synthesize/analyze round trip,
results that do not depend on the worker count, the Plancherel identity
between the two weighted kernel norms at weight exponent 0 (d2 = 1), and
kernel batches that do not depend on how the triples are batched and
match the per-triple contraction."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grushin.calculus import (_stack, atom_projection_values,
                              bilinear_kernel_batch, build_atoms,
                              channel_sums, linear_first_layer_weighted_l2,
                              second_layer_channel_l2)
from grushin.dims import Dims
from grushin.fields import SpectralField, analyze, synthesize
from grushin.grid import GridSpec, make_grid
from grushin.hermite import multi_index_degrees
from grushin.reductions import parallel_map
from grushin.riesz import (FourierSeriesExpansion, _bilinear_contract,
                           _contract_blocks,
                           _weighted_profiles, bilinear_apply_direct,
                           dilation_covariance_check, truncated_series_symbol)
from grushin.symbols import (DyadicPiece, RieszParams, Symbol2D,
                             bump_symbol_1d, distinct, dyadic_piece_symbol,
                             indicator_symbol_1d, riesz_symbol, tensor_symbol,
                             truncated_power)
from grushin.verifier import _decay_fields, probe_grid

SPEC = GridSpec(x1_extent=16.0, x1_count=32, x2_count=8, lambda_min=0.5,
                lambda_max=1.0, lambda_count=2)
DIMS = st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)])
SEEDS = st.integers(0, 2 ** 32 - 1)
SCALARS = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                             allow_infinity=False)
# Eigenvalues (2|mu| + d1)|lambda| reach (2*2 + d1) * sqrt(2), so R = 4
# cuts through them; at d1 = 2 both fields' smallest eigenvalues can be 2,
# and then every pair sums to at least R and the mean is exactly zero.
RIESZ = riesz_symbol(RieszParams(0.5, 4.0))


@lru_cache(maxsize=None)
def _grid(d1, d2):
    return make_grid(Dims(d1, d2), SPEC)


def _fields(grid, seed, n=1, max_degree=None):
    """``n`` random fields on one random support and degree <= 2."""
    rng = np.random.default_rng(seed)
    if max_degree is None:
        max_degree = int(rng.integers(0, 3))
    keep = rng.random(grid.n_lambda) < 0.6
    keep[rng.integers(grid.n_lambda)] = True
    support = grid.lambda_points[keep]
    n_mu = multi_index_degrees(grid.dims.d1, max_degree).size
    return [SpectralField(grid.dims, support, max_degree,
                          rng.normal(size=(support.shape[0], n_mu))
                          + 1j * rng.normal(size=(support.shape[0], n_mu)))
            for _ in range(n)]


def _rel(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


@settings(max_examples=25, deadline=None)
@given(dims=DIMS, seed=SEEDS, a=SCALARS, b=SCALARS)
def test_direct_path_is_bilinear(dims, seed, a, b):
    grid = _grid(*dims)
    f1, f2 = _fields(grid, seed, 2)
    (g,) = _fields(grid, seed + 1)
    mix = f1.copy_with(a * f1.coeffs + b * f2.coeffs)

    def apply(f, h):
        return bilinear_apply_direct(RIESZ, f, h, grid).values

    scale = np.max(np.abs(apply(f1, g))) + np.max(np.abs(apply(f2, g)))
    left = apply(mix, g) - (a * apply(f1, g) + b * apply(f2, g))
    right = apply(g, mix) - (a * apply(g, f1) + b * apply(g, f2))
    assert np.max(np.abs(left)) <= 1e-12 * scale
    assert np.max(np.abs(right)) <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(dims=DIMS, seed=SEEDS)
@example(dims=(2, 1), seed=4390)
def test_direct_path_is_symmetric_for_the_riesz_symbol(dims, seed):
    grid = _grid(*dims)
    (f,) = _fields(grid, seed)
    (g,) = _fields(grid, seed + 1)
    fg = bilinear_apply_direct(RIESZ, f, g, grid).values
    gf = bilinear_apply_direct(RIESZ, g, f, grid).values
    live = np.any(RIESZ(f.eigenvalues.reshape(-1)[:, None],
                        g.eigenvalues.reshape(-1)[None, :]) != 0)
    assert (np.max(np.abs(fg)) > 0.0) == live
    assert _rel(gf, fg) <= 1e-12


def _dense_contract(mt, f, g, grid):
    """The contraction as one dense einsum over every atom pair."""
    D = np.einsum("iajb,iax,jbx->xij", mt, _weighted_profiles(f, grid),
                  _weighted_profiles(g, grid))
    nu = f.lambda_support[:, None, :] + g.lambda_support[None, :, :]
    scale = (2.0 * np.pi) ** (-2 * grid.dims.d2)
    return scale * grid.x2_inverse(D.reshape(D.shape[0], -1),
                                   nu.reshape(-1, grid.dims.d2))


def _dense_table_contract(mt, f, g, grid):
    """``_bilinear_contract`` of a dense pair array mt[i, a, j, b]: each
    atom of f is its own table row and each atom of g its own column."""
    nf, amu, ng, bmu = mt.shape
    return _bilinear_contract(mt.reshape(nf * amu, ng * bmu),
                              np.arange(nf * amu).reshape(nf, amu),
                              np.arange(ng * bmu).reshape(ng, bmu),
                              f, g, grid)


def _live_atoms(rng, n_nodes, n_levels):
    """Random live (node, level) atoms; on level 0 the first and last
    nodes live and a middle one dead, so its live nodes are no range."""
    live = rng.random((n_nodes, n_levels)) < 0.5
    live[[0, -1], 0] = True
    if n_nodes >= 3:
        live[n_nodes // 2, 0] = False
    return live


@settings(max_examples=40, deadline=None)
@given(dims=DIMS, seed=SEEDS, complex_mt=st.booleans(),
       pattern=st.sampled_from(["dense", "holes", "zero", "one"]))
def test_contraction_matches_the_dense_einsum(dims, seed, complex_mt,
                                              pattern):
    grid = _grid(*dims)
    (f,) = _fields(grid, seed)
    (g,) = _fields(grid, seed + 1)
    rng = np.random.default_rng(seed)
    shape = f.eigenvalues.shape + g.eigenvalues.shape   # (nf, amu, ng, bmu)
    mt = rng.normal(size=shape)
    if complex_mt:
        mt = mt + 1j * rng.normal(size=shape)
    if pattern == "holes":
        mt *= _live_atoms(rng, *shape[:2])[:, :, None, None]
        mt *= _live_atoms(rng, *shape[2:])[None, None]
    elif pattern == "zero":
        mt *= 0.0
    elif pattern == "one":
        only = np.zeros(shape, dtype=bool)
        only[tuple(int(rng.integers(n)) for n in shape)] = True
        mt *= only
    got = _dense_table_contract(mt, f, g, grid).values
    want = _dense_contract(mt, f, g, grid)
    if pattern == "zero":
        assert not np.any(got)
    else:
        assert np.max(np.abs(want)) > 0.0
        assert _rel(got, want) <= 1e-13


# Nodes +-1..+-5 steps on 16 x''-points per axis: pair sums reach +-10
# steps, so sums such as 4 + 5 and -3 - 4 share a bin (9 = -7 mod 16).
ALIAS_SPEC = GridSpec(x1_extent=8.0, x1_count=16, x2_count=16,
                      lambda_min=0.2, lambda_max=1.0, lambda_count=5)


@lru_cache(maxsize=None)
def _alias_grid(d1, d2):
    return make_grid(Dims(d1, d2), ALIAS_SPEC)


@settings(max_examples=10, deadline=None)
@given(dims=DIMS, seed=SEEDS)
def test_contraction_adds_pair_sums_that_alias(dims, seed):
    grid = _alias_grid(*dims)
    rng = np.random.default_rng(seed)
    n_mu = multi_index_degrees(grid.dims.d1, 1).size
    f, g = (SpectralField(grid.dims, grid.lambda_points, 1,
                          rng.normal(size=(grid.n_lambda, n_mu))
                          + 1j * rng.normal(size=(grid.n_lambda, n_mu)))
            for _ in range(2))
    k = np.round(grid.lambda_points / grid.lambda_step).astype(int)
    sums = (k[:, None] + k[None, :]).reshape(-1, grid.dims.d2)
    assert grid.resolved.x2_count == 16
    assert (len(np.unique(sums % 16, axis=0))
            < len(np.unique(sums, axis=0)))
    mt = rng.normal(size=f.eigenvalues.shape + g.eigenvalues.shape)
    got = _dense_table_contract(mt, f, g, grid).values
    assert _rel(got, _dense_contract(mt, f, g, grid)) <= 1e-13


@settings(max_examples=20, deadline=None)
@given(dims=DIMS, seed=SEEDS, repeats=st.integers(1, 3))
def test_contraction_sums_a_repeated_support_node(dims, seed, repeats):
    # Two support rows of g on one node put two pairs of each f row in one
    # bin; both must be added.
    grid = _grid(*dims)
    (f,) = _fields(grid, seed)
    (g,) = _fields(grid, seed + 1)
    rng = np.random.default_rng(seed)
    again = rng.integers(g.lambda_support.shape[0], size=repeats)
    extra = (rng.normal(size=(repeats, g.coeffs.shape[1]))
             + 1j * rng.normal(size=(repeats, g.coeffs.shape[1])))
    g = SpectralField(grid.dims,
                      np.concatenate([g.lambda_support,
                                      g.lambda_support[again]]),
                      g.max_degree, np.concatenate([g.coeffs, extra]))
    mt = rng.normal(size=f.eigenvalues.shape + g.eigenvalues.shape)
    got = _dense_table_contract(mt, f, g, grid).values
    want = _dense_contract(mt, f, g, grid)
    assert np.max(np.abs(want)) > 0.0
    assert _rel(got, want) <= 1e-13


def _whole_d_contract(table, inv_f, inv_g, f, g, grid):
    """The contraction's own blocks (``_contract_blocks``) written into the
    whole (I, J, x') array D, binned by ``Grid.x2_inverse``: each bin sums
    in the order ``_bilinear_contract`` uses, so the two agree bit for
    bit."""
    pf, pg = _weighted_profiles(f, grid), _weighted_profiles(g, grid)
    D = np.zeros((pf.shape[0], pg.shape[0], pf.shape[2]), dtype=complex)
    for c0, g0, block in _contract_blocks(table, inv_f, inv_g, pf, pg):
        D[c0:c0 + block.shape[0], g0:g0 + block.shape[1]] = block
    nu = f.lambda_support[:, None, :] + g.lambda_support[None, :, :]
    scale = (2.0 * np.pi) ** (-2 * grid.dims.d2)
    return scale * grid.x2_inverse(D.reshape(-1, D.shape[2]).T,
                                   nu.reshape(-1, grid.dims.d2))


@pytest.mark.parametrize("j", [1, 3, 6])
def test_binned_contraction_is_the_whole_d_contraction_bit_for_bit(j):
    # The separated path's symbol on the ``decay`` probe grid's fields.
    grid = probe_grid("decay")
    f, g = _decay_fields("hermite-bump", 0, grid)
    uniq_f, inv_f = distinct(f.eigenvalues)
    uniq_g, inv_g = distinct(g.eigenvalues)
    exp = FourierSeriesExpansion(DyadicPiece(j, 1.0), truncation=2048)
    table = truncated_series_symbol(exp, uniq_f, uniq_g)
    got = _bilinear_contract(table, inv_f, inv_g, f, g, grid).values
    assert np.max(np.abs(got)) > 0.0
    assert np.array_equal(got,
                          _whole_d_contract(table, inv_f, inv_g, f, g, grid))


def _blocks_summed_from_zero(table, inv_f, inv_g, pf, pg, rows=8):
    """``_contract_blocks`` with each block summed into a zeroed D, every
    live level's product added, and every block yielded (copied)."""
    live = table != 0
    f_live = np.any(live, axis=1)[inv_f]
    g_nodes = np.flatnonzero(np.any(np.any(live, axis=0)[inv_g], axis=1))
    g0, g1 = g_nodes[0], g_nodes[-1] + 1
    stop = np.flatnonzero(np.any(f_live, axis=1))[-1] + 1
    real = not np.iscomplexobj(table)     # one real GEMM on float pairs
    rhs = pg[g0:g1].view(float) if real else pg[g0:g1]
    for c0 in range(0, stop, rows):
        c1 = min(c0 + rows, stop)
        D = np.zeros((g1 - g0, c1 - c0, pf.shape[2]), complex)
        for a in np.flatnonzero(np.any(f_live[c0:c1], axis=0)):
            m = table[inv_f[c0:c1, a]].T[inv_g[g0:g1]]
            prod = np.matmul(m.transpose(0, 2, 1), rhs)
            D += (prod.view(complex) if real else prod) * pf[c0:c1, a]
        yield c0, g0, D.transpose(1, 0, 2)


@pytest.mark.parametrize("j", [1, 3, 6])
def test_contraction_blocks_are_the_blocks_summed_from_zero(j):
    # The first live level written into D (a -0.0 may stand for +0.0) and
    # a block with no live level skipped: at j = 1 the first three are,
    # and with f's nodes 8..15 made dead the block from node 8 is.
    grid = probe_grid("decay")
    f, g = _decay_fields("hermite-bump", 0, grid)
    uniq_f, inv_f = distinct(f.eigenvalues)
    uniq_g, inv_g = distinct(g.eigenvalues)
    pf, pg = _weighted_profiles(f, grid), _weighted_profiles(g, grid)
    table = truncated_series_symbol(
        FourierSeriesExpansion(DyadicPiece(j, 1.0), truncation=2048),
        uniq_f, uniq_g)
    dead = table.copy()
    dead[np.unique(inv_f[8:16])] = 0.0
    for t in (table, dead):
        got = {c0: (g0, D.copy())
               for c0, g0, D in _contract_blocks(t, inv_f, inv_g, pf, pg)}
        want = list(_blocks_summed_from_zero(t, inv_f, inv_g, pf, pg))
        skipped = {c0 for c0, _, _ in want} - set(got)
        assert skipped >= ({0, 8, 16} if j == 1 else set()) | (
            {8} if t is dead else set())
        for c0, g0, D in want:
            if c0 in got:
                assert got[c0][0] == g0 and np.array_equal(got[c0][1], D)
            else:
                assert not D.any()


# Nodes k/16 up to 1: a support on |lambda_i| = 1/4 stays on the node set
# under both t = 2 (lambda -> 4 lambda) and t = 1/2 (lambda -> lambda/4).
DILATION_SPEC = GridSpec(x1_extent=8.0, x1_count=16, x2_count=64,
                         lambda_min=1.0 / 16.0, lambda_max=1.0,
                         lambda_count=16)


@lru_cache(maxsize=None)
def _dilation_grid(d1, d2):
    return make_grid(Dims(d1, d2), DILATION_SPEC)


@settings(max_examples=20, deadline=None)
@given(dims=DIMS, seed=SEEDS, t=st.sampled_from([2.0, 0.5]),
       alpha=st.floats(0.5, 2.0), r=st.floats(1.5, 4.0))
def test_riesz_means_are_dilation_covariant(dims, seed, t, alpha, r):
    # The mean at radius r on (f, g) is the 1/t-dilate of the mean at
    # r t^2 on the t-dilated fields.  The lowest eigenvalue sum is d1/2,
    # below r, so the mean never vanishes.
    grid = _dilation_grid(*dims)
    rng = np.random.default_rng(seed)
    quarter = np.all(np.abs(grid.lambda_points) == 0.25, axis=1)
    keep = quarter & (rng.random(grid.n_lambda) < 0.6)
    keep[np.flatnonzero(quarter)[0]] = True
    support = grid.lambda_points[keep]
    n_mu = multi_index_degrees(grid.dims.d1, 2).size
    f, g = (SpectralField(grid.dims, support, 2,
                          rng.normal(size=(support.shape[0], n_mu))
                          + 1j * rng.normal(size=(support.shape[0], n_mu)))
            for _ in range(2))
    rep = dilation_covariance_check(RieszParams(alpha, r * t * t),
                                    f, g, t, grid)
    assert rep.verdict == "PASS"
    assert rep.details["reference"] > 0.0
    assert rep.max_ratio <= 1e-12


@settings(max_examples=25, deadline=None)
@given(dims=DIMS, seed=SEEDS)
def test_analyze_inverts_synthesize(dims, seed):
    grid = _grid(*dims)
    (f,) = _fields(grid, seed)
    back = analyze(synthesize(f, grid), f.max_degree,
                   lambda_support=f.lambda_support)
    assert np.array_equal(back.lambda_support, f.lambda_support)
    assert _rel(back.coeffs, f.coeffs) <= 1e-6


@settings(max_examples=10, deadline=None)
@given(dims=DIMS, seed=SEEDS, workers=st.sampled_from([2, 3, 8]))
def test_results_do_not_depend_on_the_worker_count(dims, seed, workers):
    grid = _grid(*dims)
    fs = _fields(grid, seed, 4, max_degree=2)

    def one(i):
        return bilinear_apply_direct(RIESZ, fs[i], fs[i - 1], grid).values

    serial = parallel_map(one, range(len(fs)), 1)
    threaded = parallel_map(one, range(len(fs)), workers)
    assert all(np.array_equal(s, t) for s, t in zip(serial, threaded))


# d2 = 1 only (the second-layer norm's u-weight moments are 1-D), with
# more frequency nodes than SPEC so that many levels meet each profile.
PLANCHEREL_SPEC = GridSpec(x1_extent=16.0, x1_count=32, x2_count=8,
                           lambda_min=0.125, lambda_max=1.0, lambda_count=8)


@lru_cache(maxsize=None)
def _plancherel_grid(d1):
    return make_grid(Dims(d1, 1), PLANCHEREL_SPEC)


@settings(max_examples=25, deadline=None)
@given(d1=st.sampled_from([1, 2]), bump=st.booleans(),
       lo=st.floats(0.0, 1.0), width=st.floats(0.5, 3.0),
       x1=st.floats(-6.0, 6.0))
def test_second_layer_at_exponent_zero_is_the_first_layer_norm(
        d1, bump, lo, width, x1):
    # At exponent 0 the u-weight is the lattice delta, so the second-layer
    # channel is the plain L^2 norm of the (real-symbol, hence Hermitian)
    # kernel in its free variable: the first-layer norm at gamma = 0.
    # Every (lo, lo + width) holds an eigenvalue, a multiple of 1/8.
    grid = _plancherel_grid(d1)
    F = (bump_symbol_1d if bump else indicator_symbol_1d)(lo, lo + width)
    base = np.full(d1, x1)
    second = second_layer_channel_l2(channel_sums(F, grid, base), 0.0)
    first = linear_first_layer_weighted_l2(F, (base, np.zeros(1)), grid, 0.0)
    assert first > 0.0
    assert abs(second - first) <= 1e-12 * first


# Frequencies 1/16 .. 1/2: the dyadic pieces j = 1..3 meet the atom pairs.
KERNEL_SPEC = GridSpec(x1_extent=8.0, x1_count=16, x2_count=16,
                       lambda_min=1.0 / 16.0, lambda_max=0.5, lambda_count=8)
UNIT_BOX = ((0.0, 1.0), (0.0, 1.0))
KERNEL_SYMBOLS = {
    "dyadic": dyadic_piece_symbol(DyadicPiece(2, 1.0)),
    "riesz": riesz_symbol(RieszParams(0.5, 1.0)),
    "tensor-bump": tensor_symbol(bump_symbol_1d(0.1, 0.6),
                                 bump_symbol_1d(0.2, 0.9)),
    "complex": Symbol2D(lambda e1, e2: np.exp(1j * (3.0 * e1 - 5.0 * e2))
                        * truncated_power(1.0 - e1 - e2, 1.0), UNIT_BOX),
    "zero": Symbol2D(lambda e1, e2: np.zeros_like(e1), UNIT_BOX),
}


@lru_cache(maxsize=None)
def _kernel_grid(d1, d2):
    return make_grid(Dims(d1, d2), KERNEL_SPEC)


def _kernel_oracle(G, xs, ys, zs, grid):
    """The kernel as one complex a @ gmat @ b per triple over every atom."""
    (_, b1), (_, b2) = G.support
    atoms1, atoms2 = build_atoms(grid, b1), build_atoms(grid, b2)
    gmat = np.asarray(G(atoms1.eigen[:, None], atoms2.eigen[None, :]))
    x1 = _stack(xs, 0)
    proj1 = atom_projection_values(atoms1, x1, _stack(ys, 0))
    proj2 = atom_projection_values(atoms2, x1, _stack(zs, 0))
    out = np.empty(len(xs), dtype=complex)
    for i, (x, y, z) in enumerate(zip(xs, ys, zs)):
        a = (atoms1.weight * np.exp(1j * (atoms1.lam @ (x[1] - y[1])))
             * proj1[:, i])
        b = (atoms2.weight * np.exp(1j * (atoms2.lam @ (x[1] - z[1])))
             * proj2[:, i])
        out[i] = (2.0 * np.pi) ** (-2 * grid.dims.d2) * (a @ gmat @ b)
    return out


@settings(max_examples=30, deadline=None)
@given(dims=DIMS, seed=SEEDS, name=st.sampled_from(sorted(KERNEL_SYMBOLS)),
       cuts=st.lists(st.integers(1, 8), max_size=4))
def test_kernel_batches_split_anywhere_and_match_the_oracle(dims, seed, name,
                                                             cuts):
    grid = _kernel_grid(*dims)
    d1, d2 = dims
    rng = np.random.default_rng(seed)
    xs, ys, zs = ([(rng.uniform(-3, 3, d1), rng.uniform(-4, 4, d2))
                   for _ in range(9)] for _ in range(3))
    G = KERNEL_SYMBOLS[name]
    whole = bilinear_kernel_batch(G, xs, ys, zs, grid)
    edges = [0, *sorted(set(cuts)), len(xs)]
    pieces = [bilinear_kernel_batch(G, xs[i:j], ys[i:j], zs[i:j], grid)
              for i, j in zip(edges, edges[1:]) if i < j]
    np.testing.assert_array_equal(np.concatenate(pieces), whole)
    want = _kernel_oracle(G, xs, ys, zs, grid)
    if name == "zero":
        assert not np.any(whole)
    else:
        assert np.max(np.abs(want)) > 0.0
        assert np.max(np.abs(whole - want)) <= 1e-13 * np.max(np.abs(want))
