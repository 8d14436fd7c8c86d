"""Every input check raises its own type with its own message, and every
unknown name reads the one ``unknown <what> '<name>'; available: (...)``
line of ``dims.known_name``."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from grushin.calculus import (atom_projection_values, build_atoms,
                              linear_kernel, sobolev_product_norm)
from grushin.cli import cmd_probe, cmd_verify, main
from grushin.dims import ConfigError, Dims, UnknownName
from grushin.fields import (GriddedField, SpectralField, dilate_gridded,
                            dilate_spectral, read_field_binary, synthesize,
                            write_field_binary)
from grushin.geometry import Point, weight_integral_check
from grushin.grid import GridError, GridSpec, make_grid, trapezoid_weights
from grushin.hermite import hermite_all, multi_indices
from grushin.report import fit_line
from grushin.riesz import bilinear_apply_direct
from grushin.symbols import (DyadicPiece, builtin_symbol, dyadic_piece_symbol,
                             indicator_symbol_1d, tensor_symbol,
                             bump_symbol_1d)
from grushin.thresholds import threshold
from grushin.verifier import (family_fields, pointwise_kernel_probe,
                              probe_grid, weighted_plancherel_probe)

from conftest import random_field

# what -> the call that names 'nope' as one
UNKNOWN_NAMES = {
    "grid": lambda: probe_grid("nope"),
    "family": lambda: family_fields("nope", probe_grid("default"), 0),
    "kernel-variant": lambda: pointwise_kernel_probe(1.0, 0.0, 0.0,
                                                     variant="nope"),
    "kind": lambda: weighted_plancherel_probe("nope"),
    "symbol": lambda: builtin_symbol("nope"),
    "suite": lambda: cmd_verify({"suite": "nope"}, None),
    "probe": lambda: cmd_probe({"probe": "nope"}, None),
    "threshold-variant": lambda: threshold(2.0, 2.0, Dims(1, 1), "nope"),
    "layer": lambda: weight_integral_check(Point([0.0], [0.0]), [1.0], 0.5,
                                           "nope"),
}


@pytest.mark.parametrize("case", UNKNOWN_NAMES)
def test_an_unknown_name_lists_the_known_ones(case):
    what = case.split("-")[-1]
    with pytest.raises(UnknownName) as err:   # str() of a KeyError quotes
        UNKNOWN_NAMES[case]()
    assert err.value.args[0].startswith(
        f"unknown {what} 'nope'; available: ('")


def _grid(**spec):
    return lambda: make_grid(Dims(1, 1), GridSpec(**spec))


def _field(support, degree, n_coeffs):
    return lambda: SpectralField(Dims(1, 1), support, degree,
                                 np.zeros((1, n_coeffs)))


# case -> (call, exception type, the message in full)
CHECKS = {
    "grid-x1-count": (_grid(x1_count=1), GridError,
                      "x node counts must be >= 2"),
    "grid-x2-count": (_grid(x2_count=1), GridError,
                      "x node counts must be >= 2"),
    "grid-lambda-order": (_grid(lambda_min=1.0, lambda_max=0.5), GridError,
                          "lambda_max must be >= lambda_min"),
    # one node, at lambda_min = lambda_max, cannot hold 32
    "grid-lattice-nodes": (_grid(lambda_min=1.0, lambda_max=1.0), GridError,
                           "cannot place 32 lattice nodes in [1.0, 1.0] "
                           "with step 3.225806451612903e-302"),
    # a window so narrow its lattice indices pass 2^53, where float64
    # holds only every other integer
    "grid-node-collision": (_grid(lambda_min=1.0,
                                  lambda_max=1.0 + 2 * np.finfo(float).eps,
                                  lambda_count=9),
                            GridError,
                            "frequency node collision; reduce lambda_count"),
    "field-coeff-shape": (_field([[0.5]], 2, 2), ValueError,
                          "coeffs shape (1, 2) != (n_supp, n_mu) = (1, 3)"),
    "field-zero-frequency": (_field([[0.0]], 0, 1), ValueError,
                             "frequency support must avoid 0"),
    "gridded-shape": (lambda: GriddedField(probe_grid("default"),
                                           np.zeros((2, 2))),
                      ValueError, "values shape (2, 2) != (64, 256)"),
    "dims-integer": (lambda: Dims(1.5, 1), ConfigError,
                     "d1, d2 must be integers"),
    "dyadic-piece-j": (lambda: DyadicPiece(-1, 1.0), ConfigError,
                       "j must lie in [0, inf), got -1"),
    "hermite-max-l": (lambda: hermite_all(-1, np.zeros(3)), ValueError,
                      "max_l must be >= 0"),
    "multi-indices-d1": (lambda: multi_indices(0, 1), ValueError,
                         "need d1 >= 1, k >= 0"),
    "sobolev-order": (lambda: sobolev_product_norm(
        tensor_symbol(bump_symbol_1d(0.1, 0.4), bump_symbol_1d(0.1, 0.4)),
        -1.0, 0.0), ConfigError, "s1 must lie in [0, inf), got -1.0"),
}


@pytest.mark.parametrize("case", CHECKS)
def test_an_input_check_raises_its_type_and_message(case):
    call, kind, message = CHECKS[case]
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        call()


def _cli(*words):
    """argv of a command with ``--set`` before each key=value word."""
    command, *sets = words
    return [command] + [a for item in sets for a in ("--set", item)]


README_GRID = ("d1=1", "d2=1", "x1_extent=28", "x1_count=56", "x2_count=128",
               "lambda_min=0.015625", "lambda_max=0.5", "lambda_count=32")

# case -> (argv, the one line it stops with): numbers that parse but lie
# in no range, each named as the key was typed
BAD_NUMBERS = {
    "gaussian-width-nan": (
        _cli("kernel", *README_GRID, "symbol=gaussian", "symbol.width=nan"),
        "bad kernel config: symbol.width must lie in (0, inf), got nan"),
    "gaussian-center-inf": (
        _cli("kernel", *README_GRID, "symbol=gaussian", "symbol.center=inf"),
        "bad kernel config: symbol.center must lie in (-inf, inf), got inf"),
    "bump-lo-nan": (
        _cli("kernel", *README_GRID, "symbol=bump", "symbol.lo=nan"),
        "bad kernel config: symbol.lo must lie in (-inf, inf), got nan"),
    "indicator-hi-inf": (
        _cli("kernel", *README_GRID, "symbol=indicator", "symbol.hi=inf"),
        "bad kernel config: symbol.hi must lie in (-inf, inf), got inf"),
    "weight-integral-a1-nan": (
        _cli("probe", "probe=weight-integral", "a1=nan"),
        "bad probe config: a1 must lie in (-inf, inf), got nan"),
    "weight-integral-a2-inf": (
        _cli("probe", "probe=weight-integral", "a2=-inf"),
        "bad probe config: a2 must lie in (-inf, inf), got -inf"),
    "riesz-band-hi-inf": (
        _cli("riesz", *README_GRID, "band_hi=inf"),
        "bad riesz config: band_hi must lie in [0, inf), got inf"),
    "riesz-band-lo-nan": (
        _cli("riesz", *README_GRID, "band_lo=nan"),
        "bad riesz config: band_lo must lie in [0, inf), got nan"),
    # verify passes alpha_mixed to the mixed probe as its alpha
    "verify-alpha-mixed-nan": (
        _cli("verify", "suite=decay", "alpha_mixed=nan"),
        "bad probe config: alpha_mixed must lie in [0, inf), got nan"),
    "verify-alpha-mixed-text": (
        _cli("verify", "suite=decay", "alpha_mixed=abc"),
        "bad probe config: alpha_mixed must parse as float, got 'abc'"),
}


@pytest.mark.parametrize("case", BAD_NUMBERS)
def test_a_number_out_of_range_stops_naming_its_key(tmp_path, case):
    argv, message = BAD_NUMBERS[case]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(tmp_path / "out")])
    assert str(err.value) == message
    assert list(tmp_path.iterdir()) == []


# a small d1 = 2 grid
GRID21 = GridSpec(x1_extent=8.0, x1_count=16, lambda_max=0.5, lambda_count=8)


def test_dilate_gridded_rejects_a_ratio_with_no_node_image(dilation_grid):
    h = synthesize(random_field(dilation_grid, (0.25, 0.5), 1, seed=3),
                   dilation_grid)
    with pytest.raises(ConfigError,
                       match=r"^t must lie in \(0, inf\), got 0\.0$"):
        dilate_gridded(h, 0.0)
    # a zero-anchored axis maps its origin onto itself at every finite
    # ratio; shifted by half a step, ratio 2 maps every node to a whole
    # step, which is no node
    step = dilation_grid.x1_axis[1] - dilation_grid.x1_axis[0]
    shifted = replace(dilation_grid, x1_axis=dilation_grid.x1_axis + step / 2)
    with pytest.raises(GridError,
                       match="^dilation ratio 2.0 is inadmissible for this "
                             "grid$"):
        dilate_gridded(GriddedField(shifted, h.values), 2.0)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_a_dilation_ratio_that_is_not_finite_is_rejected(dilation_grid, t):
    # inf once passed both sign checks: dilate_gridded's node tolerance
    # grew infinite and matched every node, and dilate_spectral moved the
    # support to inf; NaN lies in no interval
    f = random_field(dilation_grid, (0.25, 0.5), 1, seed=3)
    message = f"^t must lie in \\(0, inf\\), got {t!r}$"
    with pytest.raises(ConfigError, match=message):
        dilate_gridded(synthesize(f, dilation_grid), t)
    with pytest.raises(ConfigError, match=message):
        dilate_spectral(f, t)


def test_read_field_binary_names_a_bad_magic_and_other_dims(tmp_path,
                                                            default_grid):
    path = tmp_path / "f.grsh"
    write_field_binary(GriddedField(default_grid, np.zeros(
        (default_grid.n_x1, default_grid.n_x2))), str(path))
    grid21 = make_grid(Dims(2, 1), GRID21)
    with pytest.raises(ValueError, match=r"^dims mismatch: file \(1, 1\) "
                                         r"vs grid \(2, 1\)$"):
        read_field_binary(str(path), grid21)
    path.write_bytes(b"GRSH2" + path.read_bytes()[5:])
    with pytest.raises(ValueError, match=r"^bad magic b'GRSH2'; expected "
                                         r"b'GRSH1'$"):
        read_field_binary(str(path), default_grid)


def test_the_contraction_rejects_fields_of_other_dims(riesz_grid):
    f = random_field(riesz_grid, (0.34, 0.45), 1, seed=4)
    grid21 = make_grid(Dims(2, 1), GRID21)
    with pytest.raises(GridError,
                       match="^field dims do not match grid dims$"):
        bilinear_apply_direct(dyadic_piece_symbol(DyadicPiece(3, 1.0)), f, f,
                              grid21)


def test_points_of_another_width_than_the_grid_are_rejected():
    # each case once returned numbers from the leading axes alone
    grid21 = make_grid(Dims(2, 1), GRID21)
    x_prime = "^x' points need d1 = 2 coordinates$"
    with pytest.raises(ValueError, match=x_prime):
        atom_projection_values(build_atoms(grid21, 0.45), np.zeros(1),
                               np.zeros((3, 1)))
    with pytest.raises(ValueError, match=x_prime):   # 1-D stratified triples
        pointwise_kernel_probe(1.0, 0.0, 0.0, grid=grid21)
    grid12 = make_grid(Dims(1, 2), GridSpec(
        x1_extent=8.0, x1_count=16, x2_count=8, lambda_min=0.125,
        lambda_max=0.5, lambda_count=4))
    point = (np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError, match="^x'' points need d2 = 2 "
                                         "coordinates$"):
        linear_kernel(indicator_symbol_1d(0.0, 0.45), point, point, grid12)


def test_a_one_node_axis_weighs_one_and_an_empty_fit_is_flat():
    assert trapezoid_weights(1, 0.5, periodic=False).tolist() == [1.0]
    assert trapezoid_weights(1, 0.5, periodic=True).tolist() == [1.0]
    assert fit_line([], []) == (0.0, 0.0)
