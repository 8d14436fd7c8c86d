import numpy as np
import pytest

from grushin.calculus import (PaddingError, apply_joint_multiplier,
                              apply_linear_multiplier,
                              apply_linear_multiplier_gridded,
                              atom_projection_values, bilinear_kernel,
                              bilinear_weighted_l2, build_atoms,
                              channel_sums, linear_first_layer_weighted_l2,
                              linear_kernel, second_layer_channel_l2,
                              sobolev_norm_1d,
                              sobolev_product_norm)
from grushin.dims import Dims
from grushin.fields import synthesize
from grushin.grid import GridError, GridSpec, make_grid
from grushin.symbols import (DyadicCutoff, DyadicPiece, Symbol1D, Symbol2D,
                             bump_symbol_1d, dyadic_piece_symbol,
                             indicator_symbol_1d, tensor_symbol)

from conftest import random_field, riesz_symbol_1d

WIDE = (0.0, 100.0)


def linear_kernel_on_grid(F: Symbol1D, x, grid) -> np.ndarray:
    """K(x, y) for every grid node y; shape (n_x1, n_x2)."""
    atoms = build_atoms(grid, F.support[1])
    x1, x2 = np.atleast_1d(x[0]), np.atleast_1d(x[1])
    coeff = (atoms.weight * np.asarray(F(atoms.eigen))
             * np.exp(1j * (atoms.lam @ x2))
             * (2.0 * np.pi) ** (-grid.dims.d2))
    proj = atom_projection_values(atoms, x1, grid.x1_points)   # (Q, n1)
    return grid.x2_inverse((proj * coeff[:, None]).T, -atoms.lam)


def test_identity_and_homomorphism(default_grid):
    f = random_field(default_grid, (0.5, 2.0), 4, seed=1)
    one = Symbol1D(lambda e: np.ones_like(e, dtype=complex), WIDE)
    assert np.max(np.abs(apply_linear_multiplier(one, f).coeffs
                         - f.coeffs)) == 0.0
    eta = Symbol1D(lambda e: e.astype(complex), WIDE)
    eta2 = Symbol1D(lambda e: (e ** 2).astype(complex), WIDE)
    twice = apply_linear_multiplier(eta, apply_linear_multiplier(eta, f))
    once = apply_linear_multiplier(eta2, f)
    assert np.max(np.abs(twice.coeffs - once.coeffs)) <= \
        1e-12 * np.max(np.abs(once.coeffs))


def test_riesz_single_eigenvalue_scaling(default_grid):
    g = default_grid
    # single ground-level coefficient: eigenvalue sits at half the
    # truncation radius, so the order-1 mean scales by exactly 0.5
    lam0 = float(g.lambda_abs[0])
    f = random_field(g, (lam0 - 1e-9, lam0 + 1e-9), 0, seed=2)
    F = riesz_symbol_1d(1.0, 2.0 * lam0)
    out = apply_linear_multiplier(F, f)
    assert np.max(np.abs(out.coeffs - 0.5 * f.coeffs)) <= 1e-14


def test_joint_multiplier_matches_linear_and_cutoffs(default_grid):
    g = default_grid
    f = random_field(g, (0.5, 2.0), 3, seed=3)
    F = riesz_symbol_1d(1.0, 4.0)
    joint = apply_joint_multiplier(lambda eta, tau: np.asarray(F(eta)), f)
    lin = apply_linear_multiplier(F, f)
    assert np.max(np.abs(joint.coeffs - lin.coeffs)) == 0.0

    # partition of unity in the frequency-size variable
    total = np.zeros_like(f.coeffs)
    for m in range(-3, 6):
        cut = DyadicCutoff(m)
        out = apply_joint_multiplier(lambda eta, tau: cut(tau), f)
        total = total + out.coeffs
    assert np.max(np.abs(total - f.coeffs)) <= 1e-12 * np.max(np.abs(f.coeffs))

    # a band cutoff annihilates fields whose support misses the band
    cut = DyadicCutoff(6)   # tau in (2^-7, 2^-5), below the support
    out = apply_joint_multiplier(lambda eta, tau: cut(tau), f)
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_linear_kernel_zero_and_truncation_error(default_grid):
    g = default_grid
    x = (g.x1_points[10], g.x2_points[3])
    y = (g.x1_points[20], g.x2_points[60])
    zero = Symbol1D(lambda e: np.zeros_like(e, dtype=complex), (0.0, 1.0))
    assert linear_kernel(zero, x, y, g) == 0.0
    tiny = Symbol1D(lambda e: np.ones_like(e, dtype=complex), (0.0, 0.01))
    with pytest.raises(GridError):
        linear_kernel(tiny, x, y, g)   # lambda_min too large for the support


def test_linear_kernel_operator_consistency(default_grid):
    g = default_grid
    f = random_field(g, (0.5, 2.0), 4, seed=4)
    F = riesz_symbol_1d(1.0, 2.0)
    hf = synthesize(f, g)
    ref = synthesize(apply_linear_multiplier(F, f), g)
    ix1, ix2 = 17, 40
    K = linear_kernel_on_grid(F, (g.x1_points[ix1], g.x2_points[ix2]), g)
    w = np.multiply.outer(g.x1_weights, g.x2_weights)
    quad = np.sum(w * K * hf.values)
    scale = np.max(np.abs(ref.values))
    assert abs(quad - ref.values[ix1, ix2]) <= 1e-6 * scale


def test_linear_kernel_self_adjoint_symmetry(default_grid):
    g = default_grid
    F = riesz_symbol_1d(1.0, 2.0)   # real symbol
    x = (np.array([0.75]), np.array([2.0]))
    y = (np.array([-1.25]), np.array([-3.5]))
    assert linear_kernel(F, x, y, g) == pytest.approx(
        np.conj(linear_kernel(F, y, x, g)), rel=1e-12)


def test_gridded_multiplier_matches_spectral(default_grid):
    # d1 = 2 runs the ragged path: several multi-indices per atom.
    grids = [(default_grid, 4)] + [
        (make_grid(Dims(2, d2), GridSpec(
            d1=2, d2=d2, x1_extent=16, x1_count=48, x2_count=32 // d2,
            lambda_min=0.25, lambda_max=2.0, lambda_count=8 // d2)), 3)
        for d2 in (1, 2)]
    F = riesz_symbol_1d(1.0, 2.0)
    for g, degree in grids:
        f = random_field(g, (0.5, 2.0), degree, seed=5)
        ref = synthesize(apply_linear_multiplier(F, f), g)
        out = apply_linear_multiplier_gridded(F, synthesize(f, g))
        assert np.max(np.abs(out.values - ref.values)) <= \
            1e-10 * np.max(np.abs(ref.values))


def test_bilinear_kernel_separable_zero_symmetric(default_grid):
    g = default_grid
    x = (np.array([0.5]), np.array([1.0]))
    y = (np.array([-0.75]), np.array([4.0]))
    z = (np.array([1.25]), np.array([-2.0]))
    F1 = riesz_symbol_1d(1.0, 1.0)
    F2 = bump_symbol_1d(0.2, 0.9)
    sep = tensor_symbol(F1, F2)
    kb = bilinear_kernel(sep, x, y, z, g)
    assert kb == pytest.approx(linear_kernel(F1, x, y, g)
                               * linear_kernel(F2, x, z, g), rel=1e-10)
    zero = Symbol2D(lambda a, b: np.zeros_like(a, dtype=complex),
                    ((0, 1), (0, 1)))
    assert bilinear_kernel(zero, x, y, z, g) == 0.0
    sym = dyadic_piece_symbol(DyadicPiece(1, 1.0))
    assert bilinear_kernel(sym, x, y, z, g) == pytest.approx(
        bilinear_kernel(sym, x, z, y, g), rel=1e-12)


def test_atom_truncation_exact(default_grid):
    atoms = build_atoms(default_grid, 1.0)
    assert np.all(atoms.eigen <= 1.0 + 1e-12)
    # every admissible pair is present: count against the direct formula
    d1 = default_grid.dims.d1
    expect = sum(int(np.floor((1.0 / a - d1) / 2.0 + 1e-12)) + 1
                 for a in default_grid.lambda_abs if d1 * a <= 1.0)
    assert atoms.count == expect


def _literal_atoms(grid, eta_max):
    """The node-by-node, level-by-level loop build_atoms replaced."""
    d1 = grid.dims.d1
    lam, lam_abs, w, lev, eig, idx = [], [], [], [], [], []
    for i in range(grid.n_lambda):
        a = grid.lambda_abs[i]
        kmax = int(np.floor((eta_max / a - d1) / 2.0 + 1e-12))
        for k in range(kmax + 1):
            lam.append(grid.lambda_points[i])
            lam_abs.append(a)
            w.append(grid.lambda_weights[i])
            lev.append(k)
            eig.append((2 * k + d1) * a)
            idx.append(i)
    return dict(lam=np.array(lam), lam_abs=np.array(lam_abs),
                weight=np.array(w), level=np.array(lev, dtype=int),
                eigen=np.array(eig), lam_index=np.array(idx, dtype=int))


@pytest.mark.parametrize("dims", [(1, 1), (2, 1), (1, 2), (2, 2)],
                         ids=["1-1", "2-1", "1-2", "2-2"])
def test_build_atoms_matches_the_literal_loop(dims):
    grid = make_grid(Dims(*dims), GridSpec(
        x1_extent=8.0, x1_count=16, x2_count=8, lambda_min=0.125,
        lambda_max=1.0, lambda_count=8))
    for eta_max in (0.45, 1.0, 2.5, 6.0):
        atoms = build_atoms(grid, eta_max)
        for name, want in _literal_atoms(grid, eta_max).items():
            got = getattr(atoms, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert np.array_equal(got, want), name


def test_sobolev_product_norm_parseval_and_separable():
    prof = bump_symbol_1d(0.2, 0.8)
    g2 = tensor_symbol(prof, prof)
    # s = 0 equals the plain L2 norm by direct quadrature
    e = np.linspace(0, 1, 4001)
    vals = np.abs(prof(e)) ** 2
    l2 = np.sqrt(np.trapezoid(vals, e))
    got = sobolev_product_norm(g2, 0.0, 0.0, samples=512, pad=4)
    assert got == pytest.approx(l2 * l2, rel=1e-8)
    # separable factorization at mixed orders
    s1, s2 = 0.8, 0.3
    got = sobolev_product_norm(g2, s1, s2, samples=512, pad=4)
    ref = sobolev_norm_1d(prof, s1) * sobolev_norm_1d(prof, s2)
    assert got == pytest.approx(ref, rel=1e-6)


def test_sobolev_rejects_mass_on_padding_frame():
    flat = Symbol2D(lambda a, b: np.ones_like(a, dtype=complex),
                    ((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(PaddingError):
        sobolev_product_norm(flat, 0.0, 0.0, samples=128, pad=1)
    # with honest padding the same symbol is fine
    assert sobolev_product_norm(flat, 0.0, 0.0, samples=256, pad=4) == \
        pytest.approx(1.0, rel=1e-2)


def test_dyadic_piece_sobolev_growth_slope():
    # || piece_j ||_{L^2_{s,0}} ~ 2^{j(s - 1/2)} 2^{-j alpha} for s < 1/2
    s, alpha = 0.4, 1.0
    js = range(2, 8)
    norms = [sobolev_product_norm(dyadic_piece_symbol(DyadicPiece(j, alpha)),
                                  s, 0.0, samples=2048, pad=2)
             for j in js]
    slope = np.polyfit(list(js), np.log2(norms), 1)[0]
    assert slope == pytest.approx(s - 0.5 - alpha, abs=0.2)


def test_first_layer_weighted_l2_refinement(riesz_grid):
    # consistency against a brute-force position-space evaluation
    g = riesz_grid
    F = indicator_symbol_1d(0.0, 0.45)
    y = (np.array([2.0]), np.array([0.0]))
    lhs = linear_first_layer_weighted_l2(F, y, g, 0.25)
    K = linear_kernel_on_grid(F, y, g)   # = conj kernel transposed; real F
    wgt = np.abs(g.x1_points[:, 0]) ** 0.5
    brute = float(np.sum(
        np.multiply.outer(g.x1_weights * wgt, g.x2_weights)
        * np.abs(K) ** 2))
    assert lhs == pytest.approx(brute, rel=1e-9)
    # the grouped sum against the literal per-node loop
    atoms = build_atoms(g, F.support[1])
    proj = atom_projection_values(atoms, y[0], g.x1_points)
    wx = g.x1_weights * np.abs(g.x1_points[:, 0]) ** 0.5
    c = np.asarray(F(atoms.eigen)) * atoms.weight
    loop = sum(float(np.sum(wx * np.abs(c[sel] @ proj[sel]) ** 2))
               for sel in (atoms.lam_index == i for i in range(g.n_lambda))
               if sel.any())
    assert lhs == pytest.approx(loop * g.x2_box_length / (2 * np.pi) ** 2,
                                rel=1e-12)


def test_second_layer_channel_matches_position_space(riesz_grid):
    # Channel form against the literal weighted node sum of the kernel
    # on the grid, for an integer exponent and a small grid (dual-route
    # check).  The x''-nodes are symmetric mod L, so K(x, (y', u)) and
    # K(x, (y', -u)) enter the even weight alike.
    g = riesz_grid
    prof = bump_symbol_1d(0.05, 0.45)
    got = second_layer_channel_l2(channel_sums(prof, g, np.array([0.4])), 1.0)
    K = linear_kernel_on_grid(prof, (np.array([0.4]), np.zeros(1)), g)
    L = g.x2_box_length
    u = np.abs((g.x2_points[:, 0] + L / 2.0) % L - L / 2.0)   # wrapped |u|
    brute = float(np.sum(np.multiply.outer(g.x1_weights, g.x2_weights * u ** 2)
                         * np.abs(K) ** 2))
    # the node-sum rule carries the kinked-weight aliasing error, so the
    # two routes agree only at the percent level on this coarse grid
    assert got == pytest.approx(brute, rel=0.05)


def test_weighted_gram_paths_reject_d2_2_before_projecting(monkeypatch):
    # The channel sums are the first layer's too, which holds at any d2;
    # the second-layer form rejects them before any u-weight work, and
    # the bilinear norm before projecting.
    from grushin import calculus

    def no_projection(*args, **kwargs):
        raise AssertionError("projection work before the d2 check")

    g = make_grid(Dims(1, 2), GridSpec(x1_extent=8.0, x1_count=16,
                                       x2_count=8, lambda_min=0.125,
                                       lambda_max=0.5, lambda_count=4))
    prof = bump_symbol_1d(0.05, 0.45)
    sums = channel_sums(prof, g, np.array([1.0]))
    monkeypatch.setattr(calculus, "atom_projection_values", no_projection)
    monkeypatch.setattr(calculus, "u_weight_table", no_projection)
    with pytest.raises(NotImplementedError):
        second_layer_channel_l2(sums, 0.25)
    with pytest.raises(NotImplementedError):
        calculus.bilinear_weighted_l2(
            tensor_symbol(prof, prof), (np.array([1.0]), np.zeros(2)), g,
            0.0, 0.0)


def test_bilinear_weighted_l2_matches_complex_contraction(riesz_grid):
    # Complex, non-separable G with unequal supports, exponents and
    # cutoffs, so both real parts and both Grams run; oracle is the
    # literal complex form.
    from grushin.calculus import _weighted_gram
    g = riesz_grid
    G = Symbol2D(lambda a, b: (1 + a + 2j * b) * np.exp(5j * a * b),
                 ((0.0, 0.45), (0.0, 0.4)))
    cut1, cut2 = DyadicCutoff(2), DyadicCutoff(3)
    x1 = np.array([0.7])
    got = bilinear_weighted_l2(G, (x1, np.array([0.0])), g, 0.25, 0.4,
                               cutoff1=cut1, cutoff2=cut2)
    atoms1, atoms2 = build_atoms(g, 0.45), build_atoms(g, 0.4)
    gm = (G(atoms1.eigen[:, None], atoms2.eigen[None, :])
          * np.outer(atoms1.weight * cut1(atoms1.lam_abs),
                     atoms2.weight * cut2(atoms2.lam_abs)))
    assert np.abs(gm.imag).max() > 0.1 * np.abs(gm.real).max()
    M1 = _weighted_gram(atoms1, x1, 0.25)
    M2 = _weighted_gram(atoms2, x1, 0.4)
    ref = (2 * np.pi) ** -4 * np.real(np.sum((M1.T @ gm @ M2) * np.conj(gm)))
    assert got == pytest.approx(ref, rel=1e-12)


def test_bilinear_weighted_l2_factors_for_tensor_symbols(riesz_grid):
    # F x F at exponents (e, e) shares one Gram; (e, e') needs two.
    prof = bump_symbol_1d(0.05, 0.45)
    x1 = np.array([0.4])
    sums = channel_sums(prof, riesz_grid, x1)
    one = {e: second_layer_channel_l2(sums, e) for e in (0.25, 0.4)}
    for e1, e2 in ((0.25, 0.25), (0.25, 0.4)):
        both = bilinear_weighted_l2(tensor_symbol(prof, prof),
                                    (x1, np.array([0.0])), riesz_grid, e1, e2)
        assert both == pytest.approx(one[e1] * one[e2], rel=1e-10)


EXPONENTS = (0.0, 0.25, 0.4, 1.0)


@pytest.mark.parametrize("grid_name", ["riesz", "weighted"])
def test_channel_forms_match_the_literal_gram(grid_name, named_grid):
    # The node-sum forms against conj(c) M c with the Q x Q Gram built,
    # and the tensor bilinear norm against the GEMM contraction.
    from grushin.calculus import _weighted_gram
    g = named_grid(grid_name)
    prof = bump_symbol_1d(0.05, 0.45)
    x1 = np.array([5.0])
    atoms = build_atoms(g, 0.45)
    grams = {e: _weighted_gram(atoms, x1, e) for e in EXPONENTS}
    # A real profile and a complex one (both parts of the node sums); one
    # table of channel sums serves every exponent and cutoff.
    twisted = Symbol1D(lambda e: prof(e) * np.exp(9j * e), prof.support)
    for F in (prof, twisted):
        sums = channel_sums(F, g, x1)
        for cut in (None, DyadicCutoff(2), DyadicCutoff(3)):
            c = F(atoms.eigen) * atoms.weight
            c = c if cut is None else c * cut(atoms.lam_abs)
            for e in EXPONENTS:
                got = second_layer_channel_l2(sums, e, cutoff=cut)
                want = float(np.real(np.conj(c) @ grams[e] @ c))
                assert got == pytest.approx(want / (2 * np.pi) ** 2,
                                            rel=1e-12)
    base = prof(atoms.eigen) * atoms.weight

    G = tensor_symbol(prof, prof)
    cut1, cut2 = DyadicCutoff(2), DyadicCutoff(3)
    cases = [(e1, e2, cuts) for e1, e2 in ((0.0, 0.0), (0.25, 0.4), (1.0, 0.25))
             for cuts in ((None, None), (cut1, cut2))]
    for e1, e2, (k1, k2) in cases:
        got = bilinear_weighted_l2(G, (x1, np.zeros(1)), g, e1, e2,
                                   cutoff1=k1, cutoff2=k2)
        a = base if k1 is None else base * k1(atoms.lam_abs)
        b = base if k2 is None else base * k2(atoms.lam_abs)
        forms = [float(np.real(np.conj(v) @ grams[e] @ v))
                 for v, e in ((a, e1), (b, e2))]
        scale = (2 * np.pi) ** -4
        assert got == pytest.approx(scale * forms[0] * forms[1], rel=1e-12)
        if grid_name == "riesz" or (e1, e2, k1) == (0.25, 0.4, cut1):
            gm = np.outer(a, b)
            gemm = np.real(np.sum((grams[e1].T @ gm @ grams[e2])
                                  * np.conj(gm)))
            assert got == pytest.approx(scale * gemm, rel=1e-12)


def test_channel_forms_build_no_gram(riesz_grid, monkeypatch):
    from grushin import calculus

    def no_gram(*args, **kwargs):
        raise AssertionError("a channel form built the Q x Q Gram")

    monkeypatch.setattr(calculus, "_weighted_gram", no_gram)
    prof = bump_symbol_1d(0.05, 0.45)
    x1 = np.array([0.7])
    sums = channel_sums(prof, riesz_grid, x1)
    for e in EXPONENTS:
        assert second_layer_channel_l2(sums, e) > 0.0
        assert second_layer_channel_l2(sums, e, cutoff=DyadicCutoff(3)) > 0.0
    assert bilinear_weighted_l2(
        tensor_symbol(prof, indicator_symbol_1d(0.0, 0.3)),
        (x1, np.zeros(1)), riesz_grid, 0.25, 1.0,
        cutoff1=DyadicCutoff(2)) > 0.0


def test_separable_symbol_matches_generic_path(riesz_grid):
    # The tensor symbol's broadcast call against the factors that the
    # tensor branch of bilinear_weighted_l2 reads, bit for bit.
    atoms = build_atoms(riesz_grid, 0.45)
    # atom eigenvalues plus points outside both supports
    eta = np.concatenate([atoms.eigen, [-0.1, 0.0, 0.45, 0.5, 3.0]])
    bump = bump_symbol_1d(0.05, 0.45)
    for f1 in (bump, indicator_symbol_1d(0.0, 0.3)):
        G = tensor_symbol(f1, bump)
        got = G(eta[:, None], eta[None, :])
        factors = G.factor1(eta)[:, None] * G.factor2(eta)[None, :]
        assert got.dtype == factors.dtype == complex
        assert np.array_equal(got, factors)
        outside = (eta < 0.0) | (eta > 0.45)
        assert not got[outside].any() and not got[:, outside].any()


def test_power_cos_moments_cache_is_bounded_and_read_only(riesz_grid):
    from grushin.calculus import _power_cos_moments, u_weight_table
    assert _power_cos_moments.cache_info().maxsize is not None
    mom = _power_cos_moments(0.5, 40)
    assert _power_cos_moments(0.5, 40) is mom
    with pytest.raises(ValueError):
        mom[0] = 0.0
    table = u_weight_table(riesz_grid, 0.25, 40)
    table[0] = 0.0                       # a fresh scaled copy
    assert mom[0] != 0.0


def test_u_weight_table_at_exponent_zero_is_the_exact_delta(riesz_grid):
    from grushin.calculus import _power_cos_moments, u_weight_table
    L = riesz_grid.x2_box_length
    table = u_weight_table(riesz_grid, 0.0, 60)
    assert table[0] == L and not table[1:].any()
    quadrature = 2.0 * (L / 2.0) * _power_cos_moments(0.0, 60)
    assert np.max(np.abs(table - quadrature)) <= 1e-14 * L


@pytest.mark.parametrize("d1", [1, 2])
def test_grid_bank_projections_equal_the_direct_ones_bitwise(d1, riesz_grid):
    # The cached bank at the grid's x' nodes times a base point's cached
    # profiles gives the projections bit for bit, at a grid node and off
    # the nodes, and the bank is shared and read-only.
    from grushin.calculus import _base_point_bank, _grid_bank, _project
    g = riesz_grid if d1 == 1 else make_grid(
        Dims(2, 1), GridSpec(d1=2, d2=1, x1_extent=8, x1_count=24,
                             x2_count=32, lambda_min=0.25, lambda_max=2.0,
                             lambda_count=8))
    atoms, bank, row_atom = _grid_bank(g, 1.8 * d1)
    assert _grid_bank(g, 1.8 * d1)[1] is bank
    with pytest.raises(ValueError):
        bank[0, 0] = 1.0
    for x1 in (g.x1_points[3], np.full(d1, 0.3071), np.full(d1, -2.5)):
        direct = atom_projection_values(atoms, x1, g.x1_points)
        x1_bank = _base_point_bank(g, 1.8 * d1, tuple(x1.tolist()))
        shared = _project(x1_bank, bank, row_atom, atoms.count)
        assert direct.shape == (atoms.count, g.n_x1)
        assert np.array_equal(direct, shared)


def whole_table_channel_sums(f, grid, x1_point):
    """Z by one product over the whole (atoms x n1) table of the direct
    projections and one ``reduceat`` over its node segments."""
    atoms = build_atoms(grid, f.support[1])
    coeff = np.asarray(f(atoms.eigen), dtype=complex) * atoms.weight
    if not coeff.imag.any():
        coeff = coeff.real
    proj = atom_projection_values(atoms, x1_point, grid.x1_points)
    first = np.flatnonzero(np.diff(atoms.lam_index, prepend=-1))
    return np.add.reduceat(coeff[:, None] * proj, first, axis=0)


@pytest.mark.parametrize("d1", [1, 2])
def test_channel_sums_in_node_blocks_are_the_whole_table_sums(d1, riesz_grid,
                                                              monkeypatch):
    # Blocks of whole nodes keep each node's sequential sum, real and
    # complex coefficients alike, at a grid node and off the nodes.
    from grushin import calculus
    g = riesz_grid if d1 == 1 else make_grid(
        Dims(2, 1), GridSpec(d1=2, d2=1, x1_extent=8, x1_count=24,
                             x2_count=32, lambda_min=0.25, lambda_max=2.0,
                             lambda_count=8))
    # at d1 = 2 the low nodes carry levels up to 6, several rows each
    prof = bump_symbol_1d(0.05, 0.45) if d1 == 1 else bump_symbol_1d(0.1, 3.6)
    twisted = Symbol1D(lambda e: prof(e) * np.exp(1j * e), prof.support)
    n_atoms = build_atoms(g, prof.support[1]).count
    for x1 in (g.x1_points[3], np.full(d1, 0.3071)):
        for f in (prof, twisted):
            ref = whole_table_channel_sums(f, g, x1)
            for block in (1, 7, n_atoms):
                monkeypatch.setattr(calculus, "_BLOCK_ITEMS", block)
                got = channel_sums(f, g, x1)[1]
                assert got.dtype == ref.dtype
                assert np.array_equal(got, ref)


def _cosine_matrix_moments(p, k_max):
    """The composite 8-node Gauss rule of ``_power_cos_moments`` on
    max(2 k_max, 64) panels, summed as one dense cosine matrix."""
    panels = max(2 * k_max, 64)
    nodes, wts = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    rad = 0.5 * (edges[1:] - edges[:-1])
    s = (mid[:, None] + rad[:, None] * nodes[None, :]).reshape(-1)
    w = (rad[:, None] * wts[None, :]).reshape(-1)
    return np.cos(np.pi * np.outer(np.arange(k_max + 1), s)) @ (w * s ** p)


@pytest.mark.parametrize("k_max", [40, 460])
@pytest.mark.parametrize("p", [0.5, 0.8, 2.0])
def test_power_cos_moments_fft_is_the_cosine_matrix_rule(p, k_max):
    from grushin.calculus import _power_cos_moments
    got = _power_cos_moments.__wrapped__(p, k_max)
    assert got.shape == (k_max + 1,)
    assert np.max(np.abs(got - _cosine_matrix_moments(p, k_max))) <= 1e-14


def test_power_cos_moments_against_closed_forms():
    from grushin.calculus import _power_cos_moments
    # p = 2 is smooth: 1/3 at k = 0 and 2 (-1)^k / (k pi)^2 for k >= 1
    k = np.arange(1, 461)
    mom = _power_cos_moments(2.0, 460)
    assert abs(mom[0] - 1.0 / 3.0) <= 1e-15
    assert np.max(np.abs(mom[1:] - 2.0 * (-1.0) ** k / (k * np.pi) ** 2)) \
        <= 1e-15
    # Fractional p: the s^p kink on the first panel leaves an offset that
    # is nearly the same at every k; its size at k = 0, k_max = 460, is
    # pinned, and tables of two lengths differ by a near constant.
    for p, offset in ((0.5, 6.05e-9), (0.8, 1.056e-10)):
        long, short = _power_cos_moments(p, 460), _power_cos_moments(p, 40)
        assert long[0] - 1.0 / (p + 1.0) == pytest.approx(offset, rel=0.01)
        shift = long[:41] - short
        assert np.ptp(shift) <= 1e-3 * abs(shift.mean())


def _restriction_bump(grid, x0, s):
    """The restriction probe's bump field, a Gaussian in x' and in each
    x''-coordinate."""
    from grushin.fields import GriddedField
    vals = (np.exp(-0.5 * ((grid.x1_points[:, 0] - x0) / s) ** 2)[:, None]
            * np.exp(-0.5 * np.sum(grid.x2_points ** 2, axis=1)
                     / (4 * s) ** 2)[None, :])
    return GriddedField(grid=grid, values=vals.astype(complex))


# each node of |lambda| < 0.15 carries two or more levels below 0.45
D2_GRID = GridSpec(d1=1, d2=2, x1_extent=16.0, x1_count=48, x2_count=32,
                   lambda_min=0.0625, lambda_max=1.0, lambda_count=16)


@pytest.mark.parametrize("grid_name", ["weighted", "d2=2"])
def test_restriction_norm_by_parseval_matches_the_output_field(grid_name):
    # Parseval over the x''-lattice against the explicit weighted sum
    # over the synthesized output field.
    from grushin.calculus import restriction_apply_l2
    from grushin.verifier import probe_grid
    g = (make_grid(Dims(1, 2), D2_GRID) if grid_name == "d2=2"
         else probe_grid("weighted"))
    F = indicator_symbol_1d(0.0, 0.45)
    for x0, s in ((0.0, 0.7), (4.0, 1.0)):
        h = _restriction_bump(g, x0, s)
        out = apply_linear_multiplier_gridded(F, h).values
        assert np.abs(out).max() > 0.0
        for gamma in (0.0, 0.25):
            wx = g.x1_weights * np.abs(g.x1_points[:, 0]) ** (2 * gamma)
            explicit = np.sqrt(np.sum(np.multiply.outer(wx, g.x2_weights)
                                      * np.abs(out) ** 2))
            assert restriction_apply_l2(F, h, gamma) == pytest.approx(
                explicit, rel=1e-12)


def whole_table_parseval_norm(F, h, gamma):
    """The restriction norm with every bin's row sum B_b held at once."""
    from grushin.calculus import _gridded_coefficients
    grid = h.grid
    lam, bank, c = _gridded_coefficients(F, h)
    bins = grid._x2_bins(lam)[0]
    order = np.argsort(bins, kind="stable")
    first = np.flatnonzero(np.diff(bins[order], prepend=-1))
    binned = np.add.reduceat(c[order, None] * bank[order], first, axis=0)
    wx = np.linalg.norm(grid.x1_points, axis=1) ** (2 * gamma) * grid.x1_weights
    power = np.sum(binned.real ** 2 + binned.imag ** 2, axis=0)
    return float(np.sqrt(grid.x2_box_length ** grid.dims.d2 * (power @ wx)))


@pytest.mark.parametrize("grid_name", ["weighted", "d2=2"])
def test_parseval_norm_in_bin_blocks_is_the_whole_table_norm(grid_name,
                                                             monkeypatch):
    from grushin import calculus
    from grushin.calculus import restriction_apply_l2
    from grushin.verifier import probe_grid
    g = (make_grid(Dims(1, 2), D2_GRID) if grid_name == "d2=2"
         else probe_grid("weighted"))
    F = indicator_symbol_1d(0.0, 0.45)
    h = _restriction_bump(g, 4.0, 1.0)
    for gamma in (0.0, 0.25):
        ref = whole_table_parseval_norm(F, h, gamma)
        for block in (1, 7, 32, 1 << 30):      # the last: one block
            monkeypatch.setattr(calculus, "_BLOCK_ITEMS", block)
            assert restriction_apply_l2(F, h, gamma) == ref


def test_plancherel_pass_builds_each_bank_and_base_point_column_once(
        tmp_path, monkeypatch):
    # Each weighted grid's bank once, and each base point's profiles once
    # per grid, across all five probes: 2 banks and 8 x 2 columns.
    from grushin import calculus
    from grushin.cli import main
    calls = []
    build = calculus._profile_bank

    def counted(atoms, points):
        calls.append((id(atoms.grid), np.asarray(points).tobytes()))
        return build(atoms, points)

    monkeypatch.setattr(calculus, "_profile_bank", counted)
    calculus._grid_bank.cache_clear()
    calculus._base_point_bank.cache_clear()
    try:
        main(["verify", "--suite", "plancherel", "--out", str(tmp_path)])
    finally:
        calculus._grid_bank.cache_clear()
        calculus._base_point_bank.cache_clear()
    assert len(calls) == 18
    assert len(set(calls)) == 18
    assert len({grid for grid, _ in calls}) == 2


@pytest.mark.parametrize("grid_name", ["weighted", "d2=2"])
def test_gridded_multiplier_does_not_depend_on_the_row_block(grid_name,
                                                             monkeypatch):
    from grushin import calculus
    from grushin.fields import GriddedField
    from grushin.verifier import probe_grid
    g = (make_grid(Dims(1, 2), D2_GRID) if grid_name == "d2=2"
         else probe_grid("weighted"))
    F = bump_symbol_1d(0.05, 0.45)
    rng = np.random.default_rng(5)                # mass in every x'-row
    h = GriddedField(grid=g, values=rng.standard_normal((g.n_x1, g.n_x2))
                     + 1j * rng.standard_normal((g.n_x1, g.n_x2)))
    ref = apply_linear_multiplier_gridded(F, h).values
    for rows in (1, 7, g.n_x1):
        monkeypatch.setattr(calculus, "_FORWARD_ROWS", rows)
        got = apply_linear_multiplier_gridded(F, h).values
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_channel_form_with_a_gap_in_its_live_steps(riesz_grid):
    # A cutoff that empties the middle frequency sizes leaves live nodes
    # with a gap in their steps (besides the punctured origin); the
    # zero-filled positions of the autocorrelation must not change the
    # form, which is checked against the literal Gram.
    from grushin.calculus import _weighted_gram
    g = riesz_grid
    prof = bump_symbol_1d(0.05, 0.45)
    x1 = np.array([0.7])
    atoms = build_atoms(g, 0.45)
    sums = channel_sums(prof, g, x1)
    tau = g.lambda_abs[sums[2]]
    lo, hi = np.quantile(tau, [0.3, 0.7])

    def gap(t):
        return np.where((t < lo) | (t > hi), 1.0, 0.0)

    kept = gap(tau) != 0
    assert kept.any() and not kept.all()
    steps = np.round(g.lambda_points[sums[2], 0] / g.lambda_step)
    live = steps[kept & (steps > 0)]
    assert np.any(np.diff(live) > 1)              # a gap on one side
    c = prof(atoms.eigen) * atoms.weight * gap(atoms.lam_abs)
    for e in (0.25, 0.4, 1.0):
        want = float(np.real(np.conj(c) @ _weighted_gram(atoms, x1, e) @ c))
        got = second_layer_channel_l2(sums, e, cutoff=gap)
        assert got == pytest.approx(want / (2 * np.pi) ** 2, rel=1e-12)
