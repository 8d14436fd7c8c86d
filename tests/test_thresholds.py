import math

import numpy as np
import pytest

from grushin.dims import Dims
from grushin.thresholds import (RegionVerdict, figure_corners, reciprocal,
                                threshold, threshold_table)

D11 = Dims(1, 1)


def _p(u):
    return math.inf if u == 0 else 1.0 / u


def test_general_corners_d11():
    d, q = D11.total_dim, D11.homogeneous_dim
    dk = D11.threshold_dim
    expect = {
        (0.0, 0.0): d - 0.5,
        (0.5, 0.0): (d - 1) / 2, (0.0, 0.5): (d - 1) / 2,
        (1.0, 0.0): q / 2, (0.0, 1.0): q / 2,
        (0.5, 0.5): 0.0,
        (1.0, 0.5): dk / 2, (0.5, 1.0): dk / 2,
        (1.0, 1.0): dk,
    }
    assert figure_corners(D11, "general") == pytest.approx(expect)


def test_restricted_corners_d11():
    d = D11.total_dim
    expect = {
        (0.0, 0.0): d - 0.5,
        (0.5, 0.0): (d - 1) / 2, (0.0, 0.5): (d - 1) / 2,
        (1.0, 0.0): d / 2, (0.0, 1.0): d / 2,
        (0.5, 0.5): 0.0,
        (1.0, 0.5): d / 2, (0.5, 1.0): d / 2,
        (1.0, 1.0): d,
    }
    assert figure_corners(D11, "restricted") == pytest.approx(expect)


def test_named_examples():
    assert threshold(2, 2, D11).region == "I"
    assert threshold(2, 2, D11).threshold == 0.0
    v = threshold(1, 1, D11)
    assert v.region == "V" and v.threshold == D11.threshold_dim
    assert threshold(1, math.inf, D11).threshold == pytest.approx(1.5)
    r = threshold(1, 1, D11, "restricted")
    assert r.threshold == pytest.approx(D11.total_dim)


def test_restricted_beats_general_where_it_applies():
    d12 = Dims(1, 2)
    gen = threshold(1, 1, d12).threshold
    res = threshold(1, 1, d12, "restricted").threshold
    assert res == pytest.approx(d12.total_dim)
    assert gen == pytest.approx(d12.threshold_dim)
    assert res < gen


def test_endpoint_corner_sourcing():
    v = threshold(math.inf, math.inf, D11)
    assert v.source == "endpoint"
    assert v.threshold == pytest.approx(D11.total_dim - 0.5)
    # a plain interior point comes from the region items
    assert threshold(4, 4, D11).source == "item"


def test_uncovered_edge():
    # 1/p2 = 0 with 1/p1 strictly inside (0, 1/2) is not covered
    v = threshold(4, math.inf, D11)
    assert v.region == "NotCovered" and v.threshold is None


# B(f, g) = B(g, f), so swapping (p1, p2) swaps each _a region with its _b
MIRROR = {"III_a": "III_b", "III_b": "III_a", "IV_a": "IV_b", "IV_b": "IV_a"}


@pytest.mark.parametrize("variant", ["general", "restricted"])
@pytest.mark.parametrize("d1, d2", [(d1, d2) for d1 in (1, 2, 3)
                                    for d2 in (1, 2, 3)])
def test_mirror_is_exact_on_the_lattice(d1, d2, variant):
    dims, n = Dims(d1, d2), 20
    for i in range(n + 1):
        for j in range(n + 1):
            p1, p2 = reciprocal(i / n), reciprocal(j / n)
            a = threshold(p1, p2, dims, variant)
            b = threshold(p2, p1, dims, variant)
            # repr tells 0.0 from -0.0, so the thresholds agree bit for bit
            assert repr(b.threshold) == repr(a.threshold), (i, j)
            assert b.region == MIRROR.get(a.region, a.region), (i, j)
            assert b.source == a.source


def test_nonnegative_and_dims_identity():
    for dims in (Dims(1, 1), Dims(2, 1), Dims(3, 2)):
        # d1 >= d2 forces the threshold dimension down to the topological one
        assert dims.threshold_dim == dims.total_dim
        for u in np.linspace(0, 1, 11):
            for v in np.linspace(0, 1, 11):
                t = threshold(_p(u), _p(v), dims).threshold
                if t is not None:
                    assert t >= -1e-12


def test_region_continuity_along_interior_lines():
    # thresholds vary continuously along a sweep inside region I
    vals = [threshold(_p(u), _p(u), D11).threshold
            for u in np.linspace(0.26, 0.49, 24)]
    diffs = np.abs(np.diff(vals))
    assert np.max(diffs) < 0.1


def test_errors():
    with pytest.raises(ValueError):
        threshold(0.5, 2, D11)
    with pytest.raises(ValueError):
        threshold(2, 0.0, D11)
    with pytest.raises(ValueError):
        threshold(2, 2, D11, "bogus")
    with pytest.raises(ValueError):
        RegionVerdict("nope", 1.0)
    with pytest.raises(ValueError):
        RegionVerdict("NotCovered", 1.0)
    with pytest.raises(ValueError):
        threshold_table(D11, resolution=1)


def test_table_rows_and_corners():
    table = threshold_table(D11, "general", 2)
    lines = table.strip().splitlines()
    assert lines[0] == "inv_p1,inv_p2,region,alpha,variant"
    assert len(lines) == 1 + 9
    rows = {tuple(line.split(",")[:2]): line.split(",")[3]
            for line in lines[1:]}
    assert float(rows[("0.0", "0.0")]) == pytest.approx(1.5)
    assert float(rows[("0.5", "0.0")]) == pytest.approx(0.5)
    assert float(rows[("1.0", "0.5")]) == pytest.approx(1.0)
    big = threshold_table(D11, "restricted", 20)
    assert len(big.strip().splitlines()) == 1 + 21 * 21
