import tracemalloc

import numpy as np
import pytest

from grushin.dims import Dims
from grushin.fields import SpectralField
from grushin.grid import GridSpec, make_grid
from grushin.hermite import multi_indices_upto
from grushin.symbols import Symbol1D, truncated_power
from grushin.verifier import probe_grid


@pytest.fixture(scope="session")
def default_grid():
    return make_grid(Dims(1, 1), GridSpec())


@pytest.fixture(scope="session")
def riesz_grid():
    # Separated-path test grid: fine frequency lattice, modest box.
    return make_grid(Dims(1, 1), GridSpec(
        x1_extent=28.0, x1_count=56, x2_count=128,
        lambda_min=1.0 / 64.0, lambda_max=0.5, lambda_count=32))


@pytest.fixture(scope="session")
def named_grid(riesz_grid):
    """Grid by name: "riesz" is ``riesz_grid``, any other a probe grid."""
    return lambda name: riesz_grid if name == "riesz" else probe_grid(name)


@pytest.fixture(scope="session")
def dilation_grid():
    return make_grid(Dims(1, 1), GridSpec(
        x1_extent=16.0, x1_count=64, x2_count=256,
        lambda_min=1.0 / 16.0, lambda_max=4.0, lambda_count=64))


def random_field(grid, band, max_degree, seed, stride=1):
    rng = np.random.default_rng(seed)
    sel = (grid.lambda_abs >= band[0] - 1e-12) \
        & (grid.lambda_abs <= band[1] + 1e-12)
    idx = np.where(sel)[0][::stride]
    support = grid.lambda_points[idx]
    n_mu = len(multi_indices_upto(grid.dims.d1, max_degree))
    coeffs = rng.normal(size=(idx.size, n_mu)) \
        + 1j * rng.normal(size=(idx.size, n_mu))
    return SpectralField(grid.dims, support, max_degree, coeffs)


def traced_transient_mb(call) -> float:
    """The peak traced allocation of ``call`` above what was held before."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - held) / 1e6
    finally:
        tracemalloc.stop()


def riesz_symbol_1d(alpha, R=1.0):
    """The 1-D Riesz symbol (1 - eta/R)_+^alpha on [0, R]."""
    return Symbol1D(lambda e: truncated_power(1.0 - e / R, alpha), (0.0, R))
