import numpy as np
import pytest

from grushin.dims import ConfigError
from grushin.symbols import (DyadicCutoff, DyadicPiece, RieszParams,
                             builtin_symbol, distinct,
                             Symbol2D, bump_symbol_1d, dyadic_bump,
                             dyadic_piece_profile, dyadic_piece_symbol,
                             plateau, riesz_symbol,
                             SeparableSymbol2D, tensor_symbol, truncated_power)

from conftest import riesz_symbol_1d


@pytest.fixture(scope="module")
def decay_eigen():
    """Atom eigenvalues of the ``decay`` probe grid up to 1."""
    from grushin.calculus import build_atoms
    from grushin.verifier import probe_grid
    return build_atoms(probe_grid("decay"), 1.0).eigen


def partition_defect(taus) -> float:
    """Max deviation of the truncated dyadic sum from 1 over given tau > 0."""
    taus = np.asarray(taus, dtype=float)
    total = np.zeros_like(taus)
    m_lo = np.floor(-1.0 - np.log2(taus)).astype(int)
    for off in (0, 1, 2):
        total += dyadic_bump(np.ldexp(taus, (m_lo + off).astype(np.int32)))
    return float(np.max(np.abs(total - 1.0)))


def test_dyadic_partition_of_unity():
    taus = np.concatenate([np.geomspace(1e-6, 1e3, 4001),
                           [0.5, 1.0, 2.0, 0.25, 4.0]])
    assert partition_defect(taus) <= 1e-12


def three_scale_dyadic_bump(t):
    """Theta by the three-scale formula: every 2^M t with M = m_lo..m_lo+2
    that can fall in (1/2, 2), summed in that order."""
    from grushin.symbols import mollifier_bump
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0.5) & (t < 2.0)
    ti = t[inside]
    num = mollifier_bump(ti)
    den = np.zeros_like(ti)
    m_lo = np.floor(-1.0 - np.log2(ti)).astype(int)
    for off in (0, 1, 2):
        den += mollifier_bump(np.ldexp(ti, (m_lo + off).astype(np.int32)))
    out[inside] = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return out


def test_dyadic_bump_is_the_three_scale_formula_bit_for_bit():
    # Two bumps (b(t) and its one live neighbour) against three scales:
    # the dropped scale is an exact zero, so the bits are the same.
    edges = np.array([0.5, 1.0, 2.0])
    t = np.concatenate([
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 4.0),
        np.ldexp(1.0, np.arange(-8, 9)), [0.0, -1.0, 0.75, 1.5],
        np.random.default_rng(7).uniform(0.25, 2.5, 10 ** 6)])
    got = dyadic_bump(t)
    assert np.array_equal(got, three_scale_dyadic_bump(t))
    assert got[1] == 1.0 and np.all(got[[0, 2]] == 0.0)


def test_bump_support_and_center():
    assert dyadic_bump(np.array([1.0]))[0] == pytest.approx(1.0)
    assert np.all(dyadic_bump(np.array([0.5, 2.0, 0.1, 5.0])) == 0.0)
    t = np.linspace(0.51, 1.99, 101)
    assert np.all(dyadic_bump(t) >= 0.0)


def test_plateau_shape():
    assert np.all(plateau(np.array([-1.0, -0.3, 0.0, 0.7, 1.0])) == 1.0)
    assert np.all(plateau(np.array([2.0, 2.5, -3.0])) == 0.0)
    mid = plateau(np.array([1.5]))[0]
    assert 0.0 < mid < 1.0


def test_riesz_symbol_values():
    sym = riesz_symbol(RieszParams(1.0, 1.0))
    assert sym(np.array([0.0]), np.array([0.0]))[0] == 1.0
    assert sym(np.array([0.25]), np.array([0.25]))[0] == pytest.approx(0.5)
    assert sym(np.array([0.5]), np.array([0.5]))[0] == 0.0
    for alpha in (0.0, 0.5, 2.0):
        s = riesz_symbol(RieszParams(alpha, 1.0))
        assert s(np.array([0.0]), np.array([0.0]))[0] == 1.0
        assert s(np.array([0.5]), np.array([0.5]))[0] == 0.0
    with pytest.raises(ValueError):
        RieszParams(-1.0)
    with pytest.raises(ValueError):
        RieszParams(1.0, 0.0)


def test_riesz_symbol_scaled():
    sym = riesz_symbol(RieszParams(2.0, 4.0))
    assert sym(np.array([1.0]), np.array([1.0]))[0] == pytest.approx(0.25)


def test_dyadic_piece_support_and_values():
    piece = DyadicPiece(3, 1.0)
    sym = dyadic_piece_symbol(piece)
    # at 1 - eta1 - eta2 = 2^-j the bump sits at its center value 1
    e1 = np.array([0.4])
    val = sym(e1, 1.0 - e1 - 2.0 ** -3)
    assert val[0].real == pytest.approx(2.0 ** -3)
    # outside the shell
    assert sym(e1, 1.0 - e1 - 2.0 ** -1)[0] == 0.0
    lo, hi = piece.shell
    assert (lo, hi) == (2.0 ** -4, 2.0 ** -2)


def _shell_points(j):
    """(eta1, eta2) pairs: s = 1 - eta1 - eta2 exactly at both shell edges
    and one ulp around them, at 0, below 0, and above 1 (negative eta)."""
    e1, e2 = [], []
    for edge in (2.0 ** (-j - 1), 2.0 ** (-j + 1)):
        for t in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, 3.0)):
            for share in (0.0, 0.5, 1.0):
                e1.append(share * (1.0 - t))
                e2.append((1.0 - share) * (1.0 - t))
    e1 += [0.5, 0.6, 1.0, 0.0, -0.25, -1.5, -0.5]
    e2 += [0.5, 0.7, 1.0, 1.0, -0.25, 0.0, -0.5]
    return np.array(e1), np.array(e2)


@pytest.mark.parametrize("j", range(9))
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_dyadic_piece_symbol_is_its_profile_bit_for_bit(decay_eigen, j, alpha):
    # The symbol is its profile at 1 - eta1 - eta2; everywhere
    # the result must be the full-grid evaluation, to the last bit.
    piece = DyadicPiece(j, alpha)
    profile = dyadic_piece_profile(piece)
    sym = dyadic_piece_symbol(piece)
    full = Symbol2D(lambda e1, e2: profile(1.0 - e1 - e2), sym.support)
    e1, e2 = _shell_points(j)
    for got, want in ((sym(e1, e2), full(e1, e2)),
                      (sym.evaluator(e1, e2), profile(1.0 - e1 - e2)),
                      (sym(decay_eigen[:, None], decay_eigen[None, :]),
                       full(decay_eigen[:, None], decay_eigen[None, :]))):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name, params", [
    ("riesz", {}), *(("dyadic", {"j": j}) for j in range(1, 7)),
    ("tensor-bump", {})])
def test_on_pairs_is_the_broadcast_call_bit_for_bit(decay_eigen, name,
                                                     params):
    # atom eigenvalues (repeated across nodes) plus one value outside the
    # support box; the first input is 2-D, as a field's eigenvalues are
    sym = builtin_symbol(name, **params)
    eta = np.append(decay_eigen, 3.0)
    e1 = eta.reshape(17, 43)
    table, inv1, inv2 = sym.on_pairs(e1, eta[::-1])
    assert table.shape == (distinct(eta)[0].size,) * 2
    assert inv1.shape == e1.shape and inv2.shape == eta.shape
    got = table[inv1.reshape(-1)][:, inv2]
    want = sym(eta[:, None], eta[None, ::-1])
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [
    lambda: RieszParams(float("nan")), lambda: RieszParams(float("inf")),
    lambda: RieszParams(1.0, float("nan")), lambda: RieszParams(1.0, np.inf),
    lambda: DyadicPiece(2, float("nan")), lambda: DyadicPiece(2, np.inf)])
def test_non_finite_symbol_parameters_are_rejected(bad):
    with pytest.raises(ConfigError, match=r"^(alpha must lie in \[0|R must "
                                          r"lie in \(0), inf\), got (nan|inf)$"):
        bad()


def test_symbol_inside_its_box_is_the_gathered_evaluation():
    # a grid inside the support box is evaluated without gathers; one
    # point outside sends the same grid through the gathered path
    e1 = np.linspace(0.0, 1.0, 37)[:, None]
    e2 = np.linspace(0.0, 1.0, 41)[None, :]
    for sym in (dyadic_piece_symbol(DyadicPiece(2, 0.7)),
                riesz_symbol(RieszParams(1.5)),
                Symbol2D(lambda a, b: np.exp(1j * a * b), ((0.0, 1.0),) * 2)):
        whole = sym(e1, e2)
        part = sym(np.vstack([e1, [[2.0]]]), e2)
        assert np.array_equal(whole, part[:-1])
        assert not np.any(part[-1])


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_dyadic_partial_sum_reconstruction(alpha):
    e1 = np.linspace(0, 1, 231)
    e2 = np.linspace(0, 1, 229)
    E1, E2 = np.meshgrid(e1, e2, indexing="ij")
    s = 1.0 - E1 - E2
    total = np.zeros_like(E1, dtype=complex)
    for j in range(13):
        total += dyadic_piece_symbol(DyadicPiece(j, alpha))(E1, E2)
    target = truncated_power(s, alpha)
    mask = (s >= 2.0 ** -12) | (s <= 0)
    assert np.max(np.abs(total - target)[mask]) <= 1e-10


def test_cutoff_band_and_symbol_masks():
    theta2 = DyadicCutoff(2)
    taus = np.array([0.05, 0.125, 0.2, 0.5, 0.7])
    vals = theta2(taus)
    assert vals[0] == 0.0 and vals[3] == 0.0 and vals[4] == 0.0
    assert vals[1] == 0.0  # boundary of the open support
    assert vals[2] > 0.0

    f = bump_symbol_1d(0.2, 0.8)
    assert np.all(f(np.array([0.1, 0.9])) == 0)
    assert abs(f(np.array([0.5]))[0]) == pytest.approx(1.0)


def test_tensor_symbol_and_builtins():
    f1 = riesz_symbol_1d(alpha=1.0, R=1.0)
    f2 = builtin_symbol("gaussian", center=0.5, width=0.1)
    g = tensor_symbol(f1, f2)
    assert isinstance(g, SeparableSymbol2D)
    v = g(np.array([0.5]), np.array([0.5]))
    assert v[0] == pytest.approx(0.5 * 1.0)
    assert builtin_symbol("indicator")(np.array([0.5]))[0] == 1.0
    with pytest.raises(KeyError):
        builtin_symbol("nope")
    sym2 = builtin_symbol("dyadic", j=2, alpha=1.0)
    assert sym2(np.array([2.0]), np.array([2.0]))[0] == 0.0


def test_truncated_power_convention():
    vals = truncated_power(np.array([-1.0, 0.0, 0.5, 2.0]), 0.0)
    assert list(vals) == [0.0, 0.0, 1.0, 1.0]
    vals = truncated_power(np.array([-1.0, 0.0, 4.0]), 0.5)
    assert list(vals) == [0.0, 0.0, 2.0]
