"""Every input check raises its own type with its own message, and every
unknown name reads the one ``unknown <what> '<name>'; available: (...)``
line of ``dims.known_name``."""

import math
import re

import numpy as np
import pytest

from grushin.calculus import sobolev_product_norm
from grushin.cli import cmd_probe, cmd_verify
from grushin.dims import ConfigError, Dims, UnknownName
from grushin.fields import (GriddedField, SpectralField, dilate_gridded,
                            read_field_binary, synthesize, write_field_binary)
from grushin.geometry import Point, weight_integral_check
from grushin.grid import GridError, GridSpec, make_grid, trapezoid_weights
from grushin.hermite import hermite_all, multi_indices
from grushin.report import fit_line
from grushin.riesz import bilinear_apply_direct
from grushin.symbols import (DyadicPiece, builtin_symbol, dyadic_piece_symbol,
                             tensor_symbol, bump_symbol_1d)
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
                       "j must be >= 0"),
    "hermite-max-l": (lambda: hermite_all(-1, np.zeros(3)), ValueError,
                      "max_l must be >= 0"),
    "multi-indices-d1": (lambda: multi_indices(0, 1), ValueError,
                         "need d1 >= 1, k >= 0"),
    "sobolev-order": (lambda: sobolev_product_norm(
        tensor_symbol(bump_symbol_1d(0.1, 0.4), bump_symbol_1d(0.1, 0.4)),
        -1.0, 0.0), ValueError, "Sobolev orders must be >= 0"),
}


@pytest.mark.parametrize("case", CHECKS)
def test_an_input_check_raises_its_type_and_message(case):
    call, kind, message = CHECKS[case]
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        call()


# a small d1 = 2 grid
GRID21 = GridSpec(x1_extent=8.0, x1_count=16, lambda_max=0.5, lambda_count=8)


def test_dilate_gridded_rejects_a_ratio_with_no_node_image(dilation_grid):
    h = synthesize(random_field(dilation_grid, (0.25, 0.5), 1, seed=3),
                   dilation_grid)
    with pytest.raises(ConfigError, match="^dilation ratio must be positive$"):
        dilate_gridded(h, 0.0)
    # a NaN ratio passes the sign check, but maps every node, the origin
    # too, to NaN, which is no node
    with pytest.raises(GridError,
                       match="^dilation ratio nan is inadmissible for this "
                             "grid$"):
        dilate_gridded(h, math.nan)


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


def test_a_one_node_axis_weighs_one_and_an_empty_fit_is_flat():
    assert trapezoid_weights(1, 0.5, periodic=False).tolist() == [1.0]
    assert trapezoid_weights(1, 0.5, periodic=True).tolist() == [1.0]
    assert fit_line([], []) == (0.0, 0.0)
