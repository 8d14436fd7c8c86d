import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grushin.dims import Dims
from grushin.fields import (DegreeError, GriddedField, SpectralField, analyze,
                            dilate_gridded, dilate_spectral, lp_norm,
                            mixed_norm, read_field_binary, synthesize,
                            write_field_binary, write_field_csv)
from grushin.grid import GRID_KEYS, GridError, GridSpec, make_grid
from grushin.report import csv_row

from conftest import random_field


def test_dims_derived_values():
    d = Dims(1, 1)
    assert (d.total_dim, d.homogeneous_dim, d.volume_dim, d.threshold_dim) \
        == (2, 3, 2, 2)
    d = Dims(1, 2)
    assert (d.total_dim, d.homogeneous_dim, d.volume_dim, d.threshold_dim) \
        == (3, 5, 4, 4)
    d = Dims(3, 2)
    assert (d.total_dim, d.homogeneous_dim, d.volume_dim, d.threshold_dim) \
        == (5, 7, 5, 5)
    with pytest.raises(ValueError):
        Dims(0, 1)


def test_make_grid_counts(default_grid):
    g = default_grid
    assert g.n_x1 == 64
    assert g.n_lambda == 64          # 32 per sign
    assert g.resolved.lambda_min >= GridSpec().lambda_min - 1e-12
    assert np.all(g.lambda_weights > 0)
    assert np.all(g.x1_weights > 0)


def test_make_grid_rejects_bad_specs():
    with pytest.raises(GridError):
        make_grid(Dims(1, 1), GridSpec(lambda_min=0.0))
    with pytest.raises(GridError):
        make_grid(Dims(1, 1), GridSpec(lambda_min=-1.0))
    with pytest.raises(GridError):
        make_grid(Dims(1, 1), GridSpec(x1_count=0))
    with pytest.raises(GridError):
        # spacing too coarse for the requested top frequency
        make_grid(Dims(1, 1), GridSpec(x1_count=16, lambda_max=4.0))


COUNTS = ("d1", "d2", "x1_count", "x2_count", "lambda_count")


def _bad_values(key):
    """Values ``key`` must reject: NaN and +-inf, and for the counts (and
    dimensions) numbers that are not integers."""
    return ["nan", "inf", "-inf"] + (["4.0", "2.5"] if key in COUNTS else [])


@pytest.mark.parametrize("key", GRID_KEYS)
def test_grid_config_rejects_non_finite_and_non_integer_values(key):
    assert set(COUNTS) <= set(GRID_KEYS)
    for raw in _bad_values(key):
        with pytest.raises(GridError, match=key):
            GridSpec.from_mapping({"d1": "1", "d2": "1", key: raw})
        value = float(raw)
        with pytest.raises(GridError, match=key):      # not read as text
            GridSpec.from_mapping({"d1": 1, "d2": 1, key: value})
        if key not in ("d1", "d2"):      # make_grid takes those from dims
            with pytest.raises(GridError, match=key):
                make_grid(Dims(1, 1), replace(GridSpec(), **{key: value}))


def test_make_grid_deterministic():
    a = make_grid(Dims(1, 1), GridSpec())
    b = make_grid(Dims(1, 1), GridSpec())
    assert (a.lambda_axis == b.lambda_axis).all()
    assert (a.x1_axis == b.x1_axis).all()
    assert (a.x2_axis == b.x2_axis).all()


@pytest.mark.parametrize("d2", [1, 2])
def test_lambda_index_batches(d2):
    g = make_grid(Dims(1, d2), GridSpec(lambda_count=6))
    every = np.arange(g.n_lambda)
    assert np.array_equal(g.lambda_index(g.lambda_points), every)
    picks = [3, 0, g.n_lambda - 1, 3]
    assert g.lambda_index(g.lambda_points[picks]).tolist() == picks
    assert [g.lambda_index(lam) for lam in g.lambda_points[picks]] == picks
    assert isinstance(g.lambda_index(g.lambda_points[3]), int)
    # one row half a step off the lattice sinks the whole batch
    off = g.lambda_points[picks].copy()
    off[2, -1] += 0.5 * g.lambda_step
    with pytest.raises(GridError, match="not a grid node"):
        g.lambda_index(off)
    # NaN is no node: every lattice check must hold, not merely not fail
    nan = g.lambda_points[picks].copy()
    nan[1, 0] = np.nan
    with pytest.raises(GridError, match="not a grid node"):
        g.lambda_index(nan)
    with pytest.raises(GridError, match="not a grid node"):
        g.lambda_index([np.nan] * d2)


def test_synthesize_zero_and_linearity(default_grid):
    g = default_grid
    f = random_field(g, (0.5, 2.0), 3, seed=1)
    zero = f.copy_with(np.zeros_like(f.coeffs))
    assert np.all(synthesize(zero, g).values == 0)
    a, b = 1.7 - 0.3j, -0.8 + 2.1j
    f2 = random_field(g, (0.5, 2.0), 3, seed=2)
    lhs = synthesize(f.copy_with(a * f.coeffs + b * f2.coeffs), g).values
    rhs = a * synthesize(f, g).values + b * synthesize(f2, g).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))


def test_synthesize_single_coefficient_closed_form(default_grid):
    g = default_grid
    lam = g.lambda_points[g.n_lambda // 2 + 3]
    f = SpectralField(g.dims, lam[None, :], 0, np.array([[1.0 + 0j]]))
    h = synthesize(f, g)
    w = g.lambda_weights[g.lambda_index(lam)]
    x1 = g.x1_points[:, 0]
    x2 = g.x2_points[:, 0]
    a = abs(lam[0])
    ref = ((2 * np.pi) ** -1 * w * a ** 0.25 * np.pi ** -0.25
           * np.exp(-a * x1 ** 2 / 2)[:, None]
           * np.exp(1j * lam[0] * x2)[None, :])
    assert np.max(np.abs(h.values - ref)) <= 1e-14


def test_round_trip_and_plancherel(default_grid):
    g = default_grid
    f = random_field(g, (1.25, 2.0), 16, seed=7)
    h = synthesize(f, g)
    back = analyze(h, 16, lambda_support=f.lambda_support)
    rel = np.max(np.abs(back.coeffs - f.coeffs)) / np.max(np.abs(f.coeffs))
    assert rel <= 1e-6

    idx = [g.lambda_index(lam) for lam in f.lambda_support]
    w = g.lambda_weights[np.asarray(idx)]
    plancherel = (2 * np.pi) ** -1 * np.sum(w[:, None]
                                            * np.abs(f.coeffs) ** 2)
    assert lp_norm(h, 2.0) ** 2 == pytest.approx(plancherel, rel=1e-6)


def test_analyze_zero_field_and_degree_leakage(default_grid):
    g = default_grid
    zero = GriddedField(g, np.zeros((g.n_x1, g.n_x2), dtype=complex))
    band = g.lambda_points[g.lambda_abs >= 1.0]
    out = analyze(zero, 4, lambda_support=band)
    assert np.all(out.coeffs == 0)

    f0 = random_field(g, (1.25, 2.0), 0, seed=3)
    got = analyze(synthesize(f0, g), 4, lambda_support=f0.lambda_support)
    assert np.max(np.abs(got.coeffs[:, 1:])) <= 1e-8


def test_analyze_rejects_unresolvable_degree(default_grid):
    g = default_grid
    low = g.lambda_points[np.argmin(g.lambda_abs)]
    f = SpectralField(g.dims, low[None, :], 0, np.ones((1, 1), dtype=complex))
    h = synthesize(f, g)
    with pytest.raises(DegreeError):
        analyze(h, 16, lambda_support=low[None, :])


def test_lp_norm_unit_mass_and_errors(default_grid):
    g = default_grid
    vals = np.zeros((g.n_x1, g.n_x2), dtype=complex)
    vals[5, 7] = 1.0 / (g.x1_weights[5] * g.x2_weights[7])
    h = GriddedField(g, vals)
    assert lp_norm(h, 1.0) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        lp_norm(h, 0.0)
    with pytest.raises(ValueError):
        mixed_norm(h, -1.0, 2.0)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=1e-3, max_value=1e3),
       p=st.sampled_from([0.5, 2.0 / 3.0, 1.0, 2.0, 4.0, np.inf]))
def test_norm_homogeneity(scale, p):
    g = make_grid(Dims(1, 1), GridSpec(x1_count=16, x2_count=16,
                                       lambda_count=4, lambda_max=0.5,
                                       x1_extent=8.0))
    rng = np.random.default_rng(0)
    h = GriddedField(g, rng.normal(size=(g.n_x1, g.n_x2))
                     + 1j * rng.normal(size=(g.n_x1, g.n_x2)))
    hs = GriddedField(g, scale * h.values)
    assert lp_norm(hs, p) == pytest.approx(scale * lp_norm(h, p), rel=1e-9)
    assert mixed_norm(hs, p, 1.0) == pytest.approx(
        scale * mixed_norm(h, p, 1.0), rel=1e-9)


def test_mixed_norm_pq_consistency_and_separability(default_grid):
    g = default_grid
    rng = np.random.default_rng(4)
    h = GriddedField(g, rng.normal(size=(g.n_x1, g.n_x2))
                     + 1j * rng.normal(size=(g.n_x1, g.n_x2)))
    for p in (0.5, 1.0, 2.0, 3.0):
        assert mixed_norm(h, p, p) == pytest.approx(lp_norm(h, p), rel=1e-12)

    a = np.exp(-0.3 * g.x1_points[:, 0] ** 2)
    b = np.cos(0.2 * g.x2_points[:, 0]) + 1.5
    sep = GriddedField(g, np.multiply.outer(a, b).astype(complex))
    p, q = 2.0, 3.0
    na = np.sum(g.x1_weights * a ** q) ** (1 / q)
    nb = np.sum(g.x2_weights * b ** p) ** (1 / p)
    assert mixed_norm(sep, p, q) == pytest.approx(nb * na, rel=1e-12)


def test_dilate_identity_roundtrip_group(dilation_grid):
    g = dilation_grid
    f = random_field(g, (0.25, 0.75), 2, seed=5)
    d1 = dilate_spectral(f, 1.0, g)
    assert np.max(np.abs(d1.coeffs - f.coeffs)) == 0.0
    back = dilate_spectral(dilate_spectral(f, 2.0, g), 0.5)
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-15
    assert np.max(np.abs(back.lambda_support - f.lambda_support)) <= 1e-12
    # group action: two quarter steps equal one half step
    two = dilate_spectral(dilate_spectral(f, 1.5), 2.0)
    one = dilate_spectral(f, 3.0)
    assert np.max(np.abs(two.coeffs - one.coeffs)) <= 1e-14


def test_dilate_commuting_square(dilation_grid):
    g = dilation_grid
    f = random_field(g, (0.25, 0.75), 2, seed=6)
    lhs = synthesize(dilate_spectral(f, 2.0, g), g)
    rhs = dilate_gridded(synthesize(f, g), 2.0)
    i1 = [int(np.argmin(np.abs(g.x1_axis - v)))
          for v in rhs.grid.x1_axis]
    i2 = [int(np.argmin(np.abs(g.x2_axis - v)))
          for v in rhs.grid.x2_axis]
    dev = np.max(np.abs(lhs.values[np.ix_(i1, i2)] - rhs.values))
    assert dev <= 1e-8 * np.max(np.abs(rhs.values))


def test_dilated_subgrid_analysis_matches_dilate_spectral(dilation_grid):
    # The sub-grid resolves its own box, so analyzing the dilated samples
    # there recovers the spectral dilation.  Coefficients are densities
    # against the frequency weights, which the sub-grid's t^2-coarser
    # lattice scales by t^2: the routes agree as w(lambda) C(lambda).
    g = dilation_grid
    f = random_field(g, (0.25, 0.75), 2, seed=6)
    fs = dilate_spectral(f, 2.0, g)
    h = dilate_gridded(synthesize(f, g), 2.0)
    sub = h.grid
    assert sub.x2_box_length == pytest.approx(g.x2_box_length / 4.0)
    assert sub.resolved.x2_count == sub.n_x2
    assert sub.resolved.x1_extent == pytest.approx(g.resolved.x1_extent / 2.0)
    got = analyze(h, 2, lambda_support=fs.lambda_support)
    w_sub = sub.lambda_weights[[sub.lambda_index(l) for l in fs.lambda_support]]
    w_g = g.lambda_weights[[g.lambda_index(l) for l in fs.lambda_support]]
    mass = w_g[:, None] * fs.coeffs
    dev = np.max(np.abs(w_sub[:, None] * got.coeffs - mass))
    assert dev <= 1e-4 * np.max(np.abs(mass))


def test_dilate_rejects_inadmissible(dilation_grid):
    g = dilation_grid
    f = random_field(g, (0.25, 0.3), 1, seed=8)
    with pytest.raises(GridError):
        dilate_spectral(f, 1.3, g)       # 1.69x is off the lattice
    with pytest.raises(GridError):
        dilate_spectral(f, 64.0, g)      # off the grid range


@pytest.mark.parametrize("d1,d2", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_field_serialization_roundtrip(tmp_path, d1, d2):
    g = make_grid(Dims(d1, d2), GridSpec(
        x1_extent=8.0, x1_count=16, x2_count=8,
        lambda_min=0.25, lambda_max=1.0, lambda_count=4))
    f = random_field(g, (0.75, 1.0), 1, seed=9)
    h = synthesize(f, g)
    path = tmp_path / "field.grsh"
    write_field_binary(h, str(path))
    back = read_field_binary(str(path), g)
    # complex64 payload: roundtrip at single precision
    assert np.max(np.abs(back.values - h.values)) <= 1e-6 * \
        np.max(np.abs(h.values)) + 1e-12
    raw = path.read_bytes()
    assert raw[:5] == b"GRSH1"
    # header: d1, d2, then the node count of each x'- and x''-coordinate
    counts = [16] * d1 + [g.resolved.x2_count] * d2
    assert struct.unpack_from(f"<{2 + d1 + d2}i", raw, 5) == (d1, d2, *counts)

    csv_path = tmp_path / "field.csv"
    write_field_csv(h, str(csv_path), ["config_hash=deadbeef"])
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# config_hash=deadbeef"
    assert lines[1].split(",") == ([f"x1_{k}" for k in range(d1)]
                                   + [f"x2_{k}" for k in range(d2)]
                                   + ["re", "im"])
    assert len(lines) == 2 + g.n_x1 * g.n_x2
    # each row's coordinates are its node's, x' slowest
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert np.array_equal(rows[:, :d1], np.repeat(g.x1_points, g.n_x2, axis=0))
    assert np.array_equal(rows[:, d1:d1 + d2], np.tile(g.x2_points, (g.n_x1, 1)))


def _csv_by_rows(h, path, comments):
    """The row-by-row field writer, kept as the byte oracle: one
    ``csv_row`` per node, every coordinate formatted again on every row."""
    grid = h.grid
    with open(path, "w") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        d1, d2 = grid.dims.d1, grid.dims.d2
        cols = [f"x1_{j}" for j in range(d1)] + [f"x2_{j}" for j in range(d2)]
        fh.write(",".join(cols + ["re", "im"]) + "\n")
        x2 = grid.x2_points.tolist()
        for x1, row in zip(grid.x1_points.tolist(), h.values):
            for x2_j, v in zip(x2, row.tolist()):
                fh.write(csv_row(*x1, *x2_j, v.real, v.imag))


# repr switches to exponent form at 1e16 and below 1e-4
_SPECIAL = [-0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e16, -1e16,
            9999999999999998.0, 1e-5, 1.0000000000000001e-4, 1e-4, 0.1,
            1.7976931348623157e308, -201.06192982974676]


@pytest.mark.parametrize("kind", ["random", "special", "complex64", "zero"])
@pytest.mark.parametrize("d1,d2", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_field_csv_matches_the_row_by_row_writer(tmp_path, d1, d2, kind):
    g = make_grid(Dims(d1, d2), GridSpec(
        x1_extent=8.0, x1_count=16, x2_count=8,
        lambda_min=0.25, lambda_max=1.0, lambda_count=4))
    h = synthesize(random_field(g, (0.75, 1.0), 1, seed=9), g)
    if kind == "special":
        # every (re, im) pair of special values, then the field's own
        special = np.array(_SPECIAL)
        pairs = np.arange(len(special) ** 2)
        flat = h.values.reshape(-1)
        assert flat.size >= pairs.size and np.shares_memory(flat, h.values)
        flat.real[pairs] = special[pairs % len(special)]
        flat.imag[pairs] = special[pairs // len(special)]
    elif kind == "complex64":
        h.values = h.values.astype(np.complex64)    # as handed in, unconverted
    elif kind == "zero":
        h = GriddedField(g, np.zeros((g.n_x1, g.n_x2)))
    comments = ["config_hash=deadbeef", "second line"]
    write_field_csv(h, str(tmp_path / "new.csv"), comments)
    _csv_by_rows(h, str(tmp_path / "old.csv"), comments)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    if kind == "special":
        for text in ("-0.0", "inf", "-inf", "nan", "5e-324", "1e+16",
                     "9999999999999998.0", "1e-05", "0.0001"):
            assert f",{text},".encode() in new or f",{text}\n".encode() in new


def test_field_serialization_rejects_mismatch(tmp_path, default_grid,
                                              riesz_grid):
    h = synthesize(random_field(default_grid, (1.0, 2.0), 1, seed=1),
                   default_grid)
    path = tmp_path / "f.grsh"
    write_field_binary(h, str(path))
    with pytest.raises(ValueError):
        read_field_binary(str(path), riesz_grid)


@pytest.mark.parametrize("cut", ["header", "payload", "trailing"])
def test_read_field_binary_rejects_malformed_files(tmp_path, default_grid, cut):
    g = default_grid
    path = tmp_path / "f.grsh"
    write_field_binary(synthesize(random_field(g, (1.0, 2.0), 1, seed=2), g),
                       str(path))
    raw = path.read_bytes()
    size = len(raw)
    raw = {"header": raw[:9], "payload": raw[:-8],
           "trailing": raw + b"\0" * 3}[cut]
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=f"expected {size} bytes .* found "
                                         f"{len(raw)}"):
        read_field_binary(str(path), g)
