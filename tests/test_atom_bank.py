"""The atom layer: ragged Hermite recurrence, batched atom projections,
kernel batches, the expansion cap flag and the bounded verifier caches."""

import sys
from dataclasses import replace

import numpy as np
import pytest

import grushin.calculus as C
import grushin.hermite as H
import grushin.verifier as V
from conftest import random_field, riesz_symbol_1d
from grushin.calculus import (apply_linear_multiplier_gridded,
                              atom_projection_values, bilinear_kernel,
                              bilinear_kernel_batch, build_atoms,
                              linear_kernel, linear_kernel_batch)
from grushin.dims import Dims
from grushin.fields import analyze, synthesize
from grushin.grid import GridSpec, make_grid
from grushin.hermite import hermite_all, hermite_ragged, projection_kernel
from grushin.riesz import bilinear_apply_direct, build_expansion
from grushin.symbols import (DyadicPiece, Symbol2D, bump_symbol_1d,
                             dyadic_piece_symbol)


@pytest.fixture(scope="module")
def grid21():
    return make_grid(Dims(2, 1), GridSpec(d1=2, d2=1, x1_extent=8,
                                          x1_count=24, x2_count=32,
                                          lambda_min=0.25, lambda_max=2.0,
                                          lambda_count=8))


def _triples(n, d1, seed):
    rng = np.random.default_rng(seed)
    return [tuple((rng.uniform(-3, 3, d1), rng.uniform(-4, 4, 1))
                  for _ in range(3)) for _ in range(n)]


def test_ragged_rows_equal_hermite_all_bitwise():
    rng = np.random.default_rng(5)
    top = np.array([0, 7, 512, 3, 40, 7, 1, 512])
    t = rng.uniform(-12.0, 12.0, (top.size, 9))
    t[2] = np.linspace(38.0, 50.0, 9)       # the rescale range at degree 512
    t[7, :4] = [-50.0, -41.5, 44.0, 0.0]
    table, start, rank = hermite_ragged(top, t)
    assert table.shape == (int(np.sum(top + 1)), 9)
    for i, k in enumerate(top):
        ref = hermite_all(int(k), t[i])
        for l in range(k + 1):
            np.testing.assert_array_equal(table[start[l] + rank[i]], ref[l])


def test_ragged_rejects_negative_levels():
    with pytest.raises(ValueError):
        hermite_ragged([2, -1], np.zeros((2, 3)))


def _projection_oracle(atoms, x1, y1):
    return np.array([[projection_kernel(int(k), lam, x, y)
                      for x, y in zip(x1, y1)]
                     for k, lam in zip(atoms.level, atoms.lam)])


def _assert_close(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("d1", [1, 2])
def test_atom_projection_values_match_projection_kernel(d1, riesz_grid,
                                                        grid21):
    grid = riesz_grid if d1 == 1 else grid21
    atoms = build_atoms(grid, 6.0 if d1 == 2 else 0.45)
    rng = np.random.default_rng(d1)
    ys = grid.x1_points[::3]
    base = rng.uniform(-2, 2, d1)
    one = atom_projection_values(atoms, base, ys)
    _assert_close(one, _projection_oracle(atoms, [base] * len(ys), ys))
    xs = rng.uniform(-3, 3, (7, d1))
    pairs = atom_projection_values(atoms, xs, ys[:7])
    _assert_close(pairs, _projection_oracle(atoms, xs, ys[:7]))


def test_atom_projection_values_on_an_atom_subset(riesz_grid):
    atoms = build_atoms(riesz_grid, 0.45)
    keep = (atoms.level % 3 != 1) & (atoms.lam_index % 2 == 0)
    sub = C.SpectralAtoms(
        grid=riesz_grid, lam=atoms.lam[keep],
        lam_abs=atoms.lam_abs[keep], weight=atoms.weight[keep],
        level=atoms.level[keep], eigen=atoms.eigen[keep],
        lam_index=atoms.lam_index[keep])
    full = atom_projection_values(atoms, np.array([1.5]), riesz_grid.x1_points)
    part = atom_projection_values(sub, np.array([1.5]), riesz_grid.x1_points)
    np.testing.assert_array_equal(part, full[keep])


def test_kernel_batches_equal_per_triple_calls(riesz_grid):
    triples = _triples(10, 1, seed=3)
    xs, ys, zs = zip(*triples)
    G = dyadic_piece_symbol(DyadicPiece(2, 1.0))
    batch = bilinear_kernel_batch(G, xs, ys, zs, riesz_grid)
    single = [bilinear_kernel(G, x, y, z, riesz_grid) for x, y, z in triples]
    np.testing.assert_array_equal(batch, np.array(single))
    F = riesz_symbol_1d(1.0, 0.45)
    batch = linear_kernel_batch(F, xs, ys, riesz_grid)
    single = [linear_kernel(F, x, y, riesz_grid) for x, y in zip(xs, ys)]
    np.testing.assert_array_equal(batch, np.array(single))


def _parent_kernel_batch(G, xs, ys, zs, grid):
    """The kernel batch as each call once computed it: the live atoms
    projected afresh at every call, and the live symbol block gathered
    with np.ix_."""
    (_, b1), (_, b2) = G.support
    atoms1, atoms2 = build_atoms(grid, b1), build_atoms(grid, b2)
    table, inv1, inv2 = G.on_pairs(atoms1.eigen, atoms2.eigen)
    live = table != 0
    rows = np.flatnonzero(live.any(axis=1)[inv1])
    cols = np.flatnonzero(live.any(axis=0)[inv2])
    if rows.size == 0:
        return np.zeros(len(xs), dtype=complex)

    def phase_rows(atoms, keep, ps, qs):
        sub = replace(atoms, **{k: getattr(atoms, k)[keep] for k in (
            "lam", "lam_abs", "weight", "level", "eigen", "lam_index")})
        layer = [np.array([np.atleast_1d(p[k]) for p in pts], dtype=float)
                 for pts in (ps, qs) for k in (0, 1)]
        d = layer[1] - layer[3]
        arg = d[:, :1] * sub.lam[:, 0]
        for k in range(1, d.shape[1]):
            arg = arg + d[:, k:k + 1] * sub.lam[:, k]
        proj = atom_projection_values(sub, layer[0], layer[2])
        return sub.weight * np.exp(1j * arg) * proj.T

    a = phase_rows(atoms1, rows, xs, ys)
    ab = np.stack((a.real, a.imag), axis=1)
    block = np.ix_(inv1[rows], inv2[cols])
    u = ab @ table.real[block]
    if table.imag.any():
        v = ab @ table.imag[block]
        u = u + np.stack((-v[:, 1], v[:, 0]), axis=1)
    b = phase_rows(atoms2, cols, xs, zs)
    q = u @ np.stack((b.real, b.imag), axis=2)
    scale = (2.0 * np.pi) ** (-2 * grid.dims.d2)
    return scale * ((q[:, 0, 0] - q[:, 1, 1]) + 1j * (q[:, 0, 1] + q[:, 1, 0]))


def _assert_batch_is_the_parent_formula_cold_and_warm(G, triples, grid):
    ref = _parent_kernel_batch(G, *zip(*triples), grid)
    C._pair_projections.cache_clear()
    np.testing.assert_array_equal(
        bilinear_kernel_batch(G, *zip(*triples), grid), ref)
    hits = C._pair_projections.cache_info().hits
    np.testing.assert_array_equal(
        bilinear_kernel_batch(G, *zip(*triples), grid), ref)
    assert C._pair_projections.cache_info().hits == hits + 2


@pytest.mark.parametrize("j", range(1, 7))
def test_kernel_batch_is_the_per_call_formula_bit_for_bit(j):
    _assert_batch_is_the_parent_formula_cold_and_warm(
        dyadic_piece_symbol(DyadicPiece(j, 1.0)), V._stratified_triples(0),
        V.probe_grid("decay"))


@pytest.mark.parametrize("d1, d2", [(2, 1), (1, 2), (2, 2)])
def test_kernel_batch_of_a_complex_symbol_is_the_per_call_formula(d1, d2):
    # the imaginary part of the table takes the second GEMM; the two
    # supports differ, so the two channels have atom sets of their own
    grid = make_grid(Dims(d1, d2), GridSpec(
        d1=d1, d2=d2, x1_extent=8, x1_count=24, x2_count=16,
        lambda_min=0.25, lambda_max=1.5, lambda_count=4))
    G = Symbol2D(lambda e1, e2: (1.0 + e1 * e2) * np.exp(1j * (3.0 * e1 - e2)),
                 ((0.0, 2.5), (0.0, 3.5)))
    assert G.on_pairs(*(build_atoms(grid, b).eigen for b in (2.5, 3.5)))[0] \
        .imag.any()
    rng = np.random.default_rng(d1 + 2 * d2)
    triples = [tuple((rng.uniform(-3, 3, d1), rng.uniform(-4, 4, d2))
                     for _ in range(3)) for _ in range(6)]
    _assert_batch_is_the_parent_formula_cold_and_warm(G, triples, grid)


def test_kernel_pass_projects_each_triple_set_once(tmp_path, monkeypatch):
    # six pieces, one (x, y) and one (x, z) projection table between them
    from grushin.cli import main
    counts = {"atom_projection_values": 0, "_profile_bank": 0}
    for name in counts:
        def counted(*args, _fn=getattr(C, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(C, name, counted)
    V._kernel_samples.cache_clear()
    C._pair_projections.cache_clear()
    try:
        main(["verify", "--suite", "kernel", "--out", str(tmp_path)])
    finally:
        V._kernel_samples.cache_clear()
        C._pair_projections.cache_clear()
    assert counts == {"atom_projection_values": 2, "_profile_bank": 4}


def test_kernel_batch_reads_its_symbol_once_per_distinct_eigenvalue_pair():
    # The decay grid has 730 atoms up to eigenvalue 1 but 128 distinct
    # eigenvalues: the symbol is read at most 128 x 128 times, not 730 x 730.
    grid = V.probe_grid("decay")
    sym = dyadic_piece_symbol(DyadicPiece(3, 1.0))
    points = []

    def counted(e1, e2):
        points.append(np.broadcast(e1, e2).size)
        return sym.evaluator(e1, e2)

    xs, ys, zs = zip(*V._stratified_triples(0)[:4])
    got = bilinear_kernel_batch(Symbol2D(counted, sym.support), xs, ys, zs,
                                grid)
    eigen = build_atoms(grid, 1.0).eigen
    assert 0 < sum(points) <= np.unique(eigen).size ** 2 < eigen.size ** 2
    np.testing.assert_array_equal(
        got, bilinear_kernel_batch(sym, xs, ys, zs, grid))


def test_atom_layer_needs_no_profile_matrix(monkeypatch, riesz_grid):
    def refuse(*args, **kwargs):
        raise AssertionError("scaled_profile_matrix called")

    original = H.scaled_profile_matrix
    for name, module in list(sys.modules.items()):
        if name == "grushin" or name.startswith("grushin."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, refuse)
    atoms = build_atoms(riesz_grid, 0.45)
    vals = atom_projection_values(atoms, np.array([0.5]),
                                  riesz_grid.x1_points)
    assert vals.shape == (atoms.count, riesz_grid.n_x1)
    xs, ys, zs = zip(*_triples(3, 1, seed=4))
    out = bilinear_kernel_batch(dyadic_piece_symbol(DyadicPiece(1, 1.0)),
                                xs, ys, zs, riesz_grid)
    assert np.all(np.isfinite(out))
    F = bump_symbol_1d(0.05, 0.45)
    out = linear_kernel_batch(F, xs, ys, riesz_grid)
    assert np.all(np.isfinite(out))

    f = random_field(riesz_grid, (0.2, 0.4), 2, seed=7)
    h = synthesize(f, riesz_grid)
    back = analyze(h, 2, lambda_support=f.lambda_support)
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-6 * np.max(
        np.abs(f.coeffs))
    G = dyadic_piece_symbol(DyadicPiece(2, 1.0))
    assert np.all(np.isfinite(bilinear_apply_direct(G, f, f,
                                                    riesz_grid).values))
    assert np.all(np.isfinite(apply_linear_multiplier_gridded(F, h).values))


def test_expansion_reports_cap_hit():
    grid = V.probe_grid("decay")
    f, _ = V._decay_fields("hermite-bump", 0, grid)
    capped = build_expansion(DyadicPiece(1, 0.5),
                             eta1_samples=V.live_eigenvalues(f), l_cap=2048)
    assert capped.truncation == 2048
    assert capped.converged is False
    assert capped.tail_bound >= capped.details["tol"] \
        * capped.details["series_mass"]
    loose = build_expansion(DyadicPiece(1, 1.0), eta1_samples=[0.1, 0.2],
                            tol=0.1, l_cap=2048)
    assert loose.truncation < 2048 and loose.converged is True


def test_verifier_caches_stop_growing_at_their_bound():
    # bounded, and large enough that `verify --suite all` (4 probe grids,
    # 6 kernel sample sets) evicts nothing
    for cache, runs_use in ((V._probe_grid, 4), (V._kernel_samples, 6)):
        bound = cache.cache_info().maxsize
        assert bound is not None and bound >= runs_use
    grid = V.probe_grid("decay")
    assert grid is V.probe_grid("decay", 1) is V.probe_grid("decay", refine=1)
