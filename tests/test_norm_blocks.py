"""The norms summed in blocks of x'-rows, and the level step of the
pairwise tree they rest on, each against the whole-array form it
replaces, kept here as the oracle; and the traced memory of both norms on
the restriction probe's refined field."""

import numpy as np
import pytest

from grushin.dims import Dims
from grushin.fields import GriddedField, lp_norm, mixed_norm
from grushin.grid import GridSpec, make_grid
from grushin.reductions import pairwise_levels, pairwise_sum
from grushin.verifier import probe_grid

from conftest import traced_transient_mb


def _pairwise_loop(values, axis=0):
    """The pairwise tree as one loop over the whole array."""
    a = np.moveaxis(np.asarray(values), axis, 0)
    if a.shape[0] == 0:
        return np.zeros(a.shape[1:], dtype=a.dtype)
    while a.shape[0] > 1:
        if a.shape[0] % 2:
            a = np.concatenate([a[:-1:2] + a[1::2], a[-1:]], axis=0)
        else:
            a = a[0::2] + a[1::2]
    return a[0]


def _whole_lp_norm(h, p):
    """``lp_norm`` over the whole field at once."""
    a = np.abs(h.values)
    if np.isinf(p):
        return float(a.max(initial=0.0))
    w = np.multiply.outer(h.grid.x1_weights, h.grid.x2_weights)
    return float(pairwise_sum((w * a ** p).reshape(-1)) ** (1.0 / p))


def _whole_mixed_norm(h, p, q):
    """``mixed_norm`` over the whole field at once."""
    a = np.abs(h.values)
    if np.isinf(p):
        inner = a.max(axis=1, initial=0.0)
    else:
        inner = pairwise_sum((a ** p) * h.grid.x2_weights[None, :], axis=1) \
            ** (1.0 / p)
    if np.isinf(q):
        return float(inner.max(initial=0.0))
    return float(pairwise_sum(h.grid.x1_weights * inner ** q) ** (1.0 / q))


def test_pairwise_sum_is_the_whole_array_loop_bit_for_bit():
    rng = np.random.default_rng(4)
    for n in list(range(0, 70)) + [127, 128, 129, 1000, 1025]:
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        got, want = pairwise_sum(x), _pairwise_loop(x)
        assert got.dtype == want.dtype and got == want
    m = rng.standard_normal((5, 37, 3))
    for axis in range(3):
        assert np.array_equal(pairwise_sum(m, axis=axis),
                              _pairwise_loop(m, axis=axis))


def test_level_step_blocks_are_the_whole_arrays_slices():
    # Blocks at multiples of 2**k, the last of any length (odd ones too),
    # reduce to their slices of the whole array's level-k array.
    rng = np.random.default_rng(5)
    for n in [1, 2, 3, 5, 31, 64, 65, 127, 200, 513, 1001, 4099]:
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        for k in range(0, 8):
            whole = pairwise_levels(x, k)
            for blocks_of in (1, 2, 3):
                size = blocks_of * 2 ** k
                parts = [pairwise_levels(x[s:s + size], k)
                         for s in range(0, n, size)]
                assert np.array_equal(np.concatenate(parts), whole)
                assert pairwise_sum(np.concatenate(parts)) == pairwise_sum(x)


def _field(d1, d2, kind):
    # odd n_x1 over more than one 64-row block; odd n_x2, so a block's
    # flat length is a multiple of 2**6 and of no higher power of 2
    c1 = 67 if d1 == 1 else 9
    c2 = 25 if d2 == 1 else 11
    g = make_grid(Dims(d1, d2), GridSpec(
        x1_extent=float(c1), x1_count=c1, x2_count=c2,
        lambda_min=0.0625, lambda_max=0.25, lambda_count=4))
    rng = np.random.default_rng(d1 + 2 * d2)
    values = (rng.standard_normal((g.n_x1, g.n_x2))
              + 1j * rng.standard_normal((g.n_x1, g.n_x2)))
    h = GriddedField(g, np.zeros_like(values) if kind == "zero" else values)
    if kind == "complex64":
        h.values = h.values.astype(np.complex64)    # as handed in, unconverted
    return h


EXPONENTS = [0.5, 1.0, 2.0, 3.0, np.inf, 2.0 / 3.0]


@pytest.mark.parametrize("kind", ["random", "complex64", "zero"])
@pytest.mark.parametrize("d1,d2", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_norms_in_row_blocks_are_the_whole_field_norms(d1, d2, kind):
    h = _field(d1, d2, kind)
    assert h.grid.n_x1 % 2 == h.grid.n_x2 % 2 == 1 and h.grid.n_x1 > 64
    for p in EXPONENTS:
        assert lp_norm(h, p) == _whole_lp_norm(h, p)
        for q in EXPONENTS:
            assert mixed_norm(h, p, q) == _whole_mixed_norm(h, p, q)
    if kind == "zero":
        assert lp_norm(h, 1.0) == 0.0 and mixed_norm(h, 2.0, np.inf) == 0.0


def test_norms_of_the_refined_restriction_field_stay_in_their_memory():
    # The whole-field forms held |h|, the weight outer product, |h|^p and
    # their product, 7.3 MB each, on this (448 x 2,048) field.
    g = probe_grid("weighted", 2)
    assert (g.n_x1, g.n_x2) == (448, 2048)
    h = GriddedField(g, np.multiply.outer(
        np.exp(-0.5 * (g.x1_points[:, 0] - 4.0) ** 2),
        np.exp(-0.5 * (g.x2_points[:, 0] / 4.0) ** 2)))
    for p in (1.0, 2.0, np.inf):
        assert traced_transient_mb(lambda: lp_norm(h, p)) <= 4.0
    for p, q in ((2.0, np.inf), (2.0 / 3.0, 1.0)):
        assert traced_transient_mb(lambda: mixed_norm(h, p, q)) <= 4.0
