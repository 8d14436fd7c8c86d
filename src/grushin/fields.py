"""Field representations and the transforms between them.

A ``SpectralField`` is the computable dense-class object: finitely many
Hermite modes per frequency node, compactly supported on the frequency
grid.  A ``GriddedField`` holds complex samples on the spatial tensor
grid.  ``synthesize`` and ``analyze`` convert between the two; on the
lattice grids built by :mod:`grushin.grid` the round trip is exact up to
x'-quadrature error.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dims import ConfigError, Dims
from .grid import Grid, GridError, nearest_node, trapezoid_weights
from .hermite import multi_index_degrees, scaled_profile_bank
from .reductions import pairwise_levels, pairwise_sum

FIELD_MAGIC = b"GRSH1"


class DegreeError(ConfigError):
    """Requested Hermite degree exceeds what the grid resolves."""


@dataclass(frozen=True)
class SpectralField:
    """Coefficients C(lambda, mu) over a compact frequency support.

    ``lambda_support`` has shape (n_supp, d2); ``coeffs`` has shape
    (n_supp, n_mu) with columns ordered like
    ``multi_indices_upto(d1, max_degree)``.
    """

    dims: Dims
    lambda_support: np.ndarray
    max_degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        # Frozen, so the cached eigenvalues and lambda_abs cannot go stale.
        object.__setattr__(self, "lambda_support", np.atleast_2d(
            np.asarray(self.lambda_support, dtype=float)))
        object.__setattr__(self, "coeffs",
                           np.asarray(self.coeffs, dtype=complex))
        n_mu = multi_index_degrees(self.dims.d1, self.max_degree).size
        if self.coeffs.shape != (self.lambda_support.shape[0], n_mu):
            raise ValueError(
                f"coeffs shape {self.coeffs.shape} != "
                f"(n_supp, n_mu) = ({self.lambda_support.shape[0]}, {n_mu})")
        if np.any(np.sqrt(np.sum(self.lambda_support ** 2, axis=1)) == 0.0):
            raise ValueError("frequency support must avoid 0")

    @cached_property
    def lambda_abs(self) -> np.ndarray:
        return np.sqrt(np.sum(self.lambda_support ** 2, axis=1))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Joint eigenvalues (2|mu| + d1)|lambda|, shape (n_supp, n_mu)."""
        degs = multi_index_degrees(self.dims.d1, self.max_degree)
        return np.outer(self.lambda_abs, 2 * degs + self.dims.d1)

    def copy_with(self, coeffs: np.ndarray) -> "SpectralField":
        return SpectralField(self.dims, self.lambda_support.copy(),
                             self.max_degree, coeffs)


@dataclass
class GriddedField:
    """Complex samples over the tensor (x', x'') node set."""

    grid: Grid
    values: np.ndarray  # shape (n_x1, n_x2)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        want = (self.grid.n_x1, self.grid.n_x2)
        if self.values.shape != want:
            raise ValueError(f"values shape {self.values.shape} != {want}")


def support_degree(lam: np.ndarray, grid: Grid) -> int:
    """Largest degree the grid resolves on all of ``lam`` (its tighter end)."""
    return min(map(grid.resolvable_degree, (lam.min(), lam.max())))


def _check_degree(max_degree: int, lambda_abs: np.ndarray, grid: Grid):
    """Raise DegreeError unless the grid resolves ``max_degree`` there."""
    cap = support_degree(lambda_abs, grid)
    if max_degree > cap:
        raise DegreeError(
            f"degree {max_degree} unresolvable on support |lambda| in "
            f"[{lambda_abs.min():.4g}, {lambda_abs.max():.4g}] "
            f"(grid supports degree <= {cap})")


def profile_tensor(f: SpectralField, grid: Grid) -> np.ndarray:
    """Per-node x'-profiles P[i, x'] = sum_mu C(lambda_i, mu) Phi_mu^lambda(x')."""
    bank = scaled_profile_bank(f.max_degree, f.lambda_support, grid.x1_points)
    return np.matmul(f.coeffs[:, None, :], bank)[:, 0]


def synthesize(f: SpectralField, grid: Grid) -> GriddedField:
    """Evaluate the field on the grid.

    values(x', x'') = (2 pi)^{-d2} sum_lambda w(lambda) e^{i lambda x''}
    sum_mu C(lambda, mu) Phi_mu^lambda(x').  The frequency sum is finite,
    so the only discretization is the declared node set itself.
    """
    idx = grid.lambda_index(f.lambda_support)
    _check_degree(f.max_degree, f.lambda_abs, grid)
    w = grid.lambda_weights[idx]
    profiles = profile_tensor(f, grid)                      # (n_supp, n_x1)
    scale = (2.0 * np.pi) ** (-grid.dims.d2)
    values = grid.x2_inverse(profiles.T * (scale * w), f.lambda_support)
    return GriddedField(grid=grid, values=values)


def analyze(h: GriddedField, max_degree: int,
            lambda_support: np.ndarray) -> SpectralField:
    """Extract coefficients C(lambda, mu) = <h^lambda, Phi_mu^lambda>.

    ``h^lambda`` is the discrete x''-Fourier transform of the samples at
    the requested frequency nodes.  Raises DegreeError when the grid
    cannot resolve ``max_degree`` on the requested support.
    """
    grid = h.grid
    lambda_support = np.atleast_2d(np.asarray(lambda_support, dtype=float))
    idx = grid.lambda_index(lambda_support)
    _check_degree(max_degree, grid.lambda_abs[idx], grid)

    # h^lambda(x') = sum_{x''} w2 h e^{-i lambda x''}; the synthesize
    # prefactor (2 pi)^{-d2} w(lambda) cancels against the box length, so
    # coefficients come out unscaled.
    box = grid.x2_box_length ** grid.dims.d2
    norm = (2.0 * np.pi) ** grid.dims.d2 / (grid.lambda_weights[idx] * box)
    sections = grid.x2_forward(h.values, lambda_support)    # (n_supp, n_x1)
    sections *= norm[:, None]

    bank = scaled_profile_bank(max_degree, lambda_support, grid.x1_points)
    coeffs = np.matmul(bank * grid.x1_weights, sections[:, :, None])[..., 0]
    return SpectralField(grid.dims, lambda_support, max_degree, coeffs)


# ---------------------------------------------------------------------------
# norms

# x'-rows per block of the norms, 2**6: 6 tree levels reduce a block exactly
_NORM_ROWS, _NORM_LEVELS = 64, 6


def _row_blocks(h: GriddedField):
    """(x'-weights, |h|) per block of ``_NORM_ROWS`` x'-rows."""
    for r0 in range(0, h.grid.n_x1, _NORM_ROWS):
        rows = slice(r0, r0 + _NORM_ROWS)
        yield h.grid.x1_weights[rows], np.abs(h.values[rows])


def lp_norm(h: GriddedField, p: float) -> float:
    """(sum w(x) |h(x)|^p)^(1/p); max for p = inf.  Quasi-norms (p < 1) use
    the same formula."""
    if not (p > 0):
        raise ConfigError(f"p must be positive or inf, got {p}")
    if np.isinf(p):
        return float(np.max([a.max(initial=0.0) for _, a in _row_blocks(h)]))
    level = np.concatenate([pairwise_levels(
        (np.multiply.outer(w1, h.grid.x2_weights) * a ** p).reshape(-1),
        _NORM_LEVELS) for w1, a in _row_blocks(h)])
    return float(pairwise_sum(level) ** (1.0 / p))


def mixed_norm(h: GriddedField, p: float, q: float) -> float:
    """Inner p-norm over x'' then outer q-norm over x'."""
    if not (p > 0) or not (q > 0):
        raise ConfigError(f"p, q must be positive or inf, got ({p}, {q})")
    inner = np.concatenate([
        a.max(axis=1, initial=0.0) if np.isinf(p) else
        pairwise_sum((a ** p) * h.grid.x2_weights, axis=1) ** (1.0 / p)
        for _, a in _row_blocks(h)])
    if np.isinf(q):
        return float(inner.max(initial=0.0))
    return float(pairwise_sum(h.grid.x1_weights * inner ** q) ** (1.0 / q))


# ---------------------------------------------------------------------------
# non-isotropic dilation

def dilate_spectral(f: SpectralField, t: float,
                    grid: Grid | None = None) -> SpectralField:
    """Coefficient-side dilation: support lambda -> t^2 lambda, C scaled by
    t^{-d1/2}.

    Chosen so that synthesize(dilate(f)) equals synthesize(f) sampled at
    (t x', t^2 x'') exactly on uniform-weight frequency lattices.  With a
    grid argument the mapped support is validated against the node set.
    """
    if t <= 0:
        raise ConfigError("dilation ratio must be positive")
    new_support = (t * t) * f.lambda_support
    if grid is not None:
        try:
            grid.lambda_index(new_support)
        except GridError as e:
            raise GridError(f"dilation by {t} maps support off the grid: {e}") from e
    scale = t ** (-f.dims.d1 / 2.0)
    return SpectralField(f.dims, new_support, f.max_degree, scale * f.coeffs)


def dilate_gridded(h: GriddedField, t: float) -> GriddedField:
    """Pointwise dilation (x', x'') -> values at (t x', t^2 x''), restricted
    to the sub-grid of nodes whose image is again a node."""
    if t <= 0:
        raise ConfigError("dilation ratio must be positive")
    grid, res = h.grid, h.grid.resolved
    layers = []
    for axis, factor, extent, count, periodic in (
            (grid.x1_axis, t, res.x1_extent, res.x1_count, False),
            (grid.x2_axis, t * t, res.x2_extent, res.x2_count, True)):
        image, hit = nearest_node(axis, factor * axis,
                                  1e-9 * max(1.0, factor) * (axis[1] - axis[0]))
        keep = np.flatnonzero(hit)
        if keep.size == 0:
            raise GridError(f"dilation ratio {t} is inadmissible for this grid")
        # The sub-axis resolves to its own extent: node count times node
        # spacing (the parent's spacing for a one-node axis).
        sub = axis[keep]
        h_sub = float(sub[1] - sub[0]) if sub.size > 1 else extent / count
        layers.append((image[keep], sub,
                       trapezoid_weights(sub.size, h_sub, periodic),
                       sub.size * h_sub))
    (take1, x1, w1, extent1), (take2, x2, w2, extent2) = layers
    new_grid = replace(
        grid, x1_axis=x1, x1_axis_weights=w1, x2_axis=x2, x2_axis_weights=w2,
        lambda_axis=(t * t) * grid.lambda_axis,
        lambda_step=(t * t) * grid.lambda_step,
        resolved=replace(res, x1_extent=extent1, x1_count=x1.size,
                         x2_extent=extent2, x2_count=x2.size,
                         lambda_min=(t * t) * res.lambda_min,
                         lambda_max=(t * t) * res.lambda_max))
    vals = h.values.reshape(grid.tensor_shape)
    for axis, take in enumerate((take1,) * grid.dims.d1
                                + (take2,) * grid.dims.d2):
        vals = np.take(vals, take, axis=axis)
    # replace() made a fresh grid, so no cached view of the old one leaks
    return GriddedField(grid=new_grid, values=vals.reshape(new_grid.n_x1, -1))


# ---------------------------------------------------------------------------
# serialization

def write_field_binary(h: GriddedField, path: str):
    """Little-endian: magic GRSH1, int32 d1, d2, per-axis counts, then
    row-major complex64 pairs."""
    counts = h.grid.tensor_shape
    with open(path, "wb") as fh:
        fh.write(FIELD_MAGIC)
        fh.write(struct.pack("<2i", h.grid.dims.d1, h.grid.dims.d2))
        fh.write(struct.pack(f"<{len(counts)}i", *counts))
        fh.write(np.ascontiguousarray(h.values.astype(np.complex64)).tobytes())


def read_field_binary(path: str, grid: Grid) -> GriddedField:
    """Read a ``write_field_binary`` file; ValueError unless it fits ``grid``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:5] != FIELD_MAGIC:
        raise ValueError(f"bad magic {raw[:5]!r}; expected {FIELD_MAGIC!r}")
    want = (grid.dims.d1, grid.dims.d2) + grid.tensor_shape
    head = 5 + 4 * len(want)
    got = struct.unpack_from(f"<{(min(len(raw), head) - 5) // 4}i", raw, 5)
    if len(got) >= 2 and got[:2] != want[:2]:
        raise ValueError(f"dims mismatch: file {got[:2]} vs grid {want[:2]}")
    if len(got) == len(want) and got != want:
        raise ValueError(f"axis counts mismatch: file {got[2:]} vs grid {want[2:]}")
    size = head + 8 * grid.n_x1 * grid.n_x2
    if len(raw) != size:
        raise ValueError(f"{path}: expected {size} bytes for this grid, "
                         f"found {len(raw)}")
    values = np.frombuffer(raw, np.complex64, offset=head)
    return GriddedField(grid=grid,
                        values=values.reshape(grid.n_x1, -1).astype(complex))


def write_field_csv(h: GriddedField, path: str, comments: list[str] | None = None):
    """One node per row: x' coordinates, x'' coordinates, re, im, each the
    ``repr`` of a float (``report.csv_row``'s text); one write per x'-row."""
    grid = h.grid
    x1, x2 = (["".join(f"{c!r}," for c in node) for node in points.tolist()]
              for points in (grid.x1_points, grid.x2_points))
    with open(path, "w") as fh:
        for line in comments or []:
            fh.write(f"# {line}\n")
        d1, d2 = grid.dims.d1, grid.dims.d2
        cols = [f"x1_{j}" for j in range(d1)] + [f"x2_{j}" for j in range(d2)]
        fh.write(",".join(cols + ["re", "im"]) + "\n")
        for x1_i, row in zip(x1, h.values):
            fh.write("".join([f"{x1_i}{x2_j}{v.real!r},{v.imag!r}\n"
                              for x2_j, v in zip(x2, row.tolist())]))
