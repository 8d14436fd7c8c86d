"""Tensor grids for the two-layer space and the punctured frequency lattice.

The x''-axis and the frequency nodes are built together: nodes are placed
on the lattice ``step * {a, ..., b}`` (both signs, zero excluded) with
``step = 2*pi / x2_extent``, so complex exponentials at distinct nodes
are exactly orthogonal under the grid quadrature.  This makes the
discrete Plancherel identity exact up to x'-quadrature error, which is
what every spectral-side test in this package relies on.

Because of that coupling the constructor treats ``x2_extent`` and
``x2_count`` as hints: the extent is re-derived from the frequency
window (largest step that divides lambda_min into the lattice) and the
count is raised to meet the Nyquist limit.  Resolved values are recorded
on the grid and in run manifests.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .dims import ConfigError, Dims, config_value


class GridError(ConfigError):
    pass


@dataclass(frozen=True)
class GridSpec:
    """Flat key-value grid description (the external config format)."""

    d1: int = 1
    d2: int = 1
    x1_extent: float = 16.0
    x1_count: int = 64
    x2_extent: float = 16.0
    x2_count: int = 64
    lambda_min: float = 1.0 / 16.0
    lambda_max: float = 4.0
    lambda_count: int = 32

    @classmethod
    def from_mapping(cls, mapping) -> "GridSpec":
        """The keys of ``mapping`` that name a field, each read by
        ``config_value`` (so 4.5 is no count; GridError if a value does
        not parse), then ``check_spec``-ed."""
        try:
            values = {f.name: config_value(mapping, f.name, f.default)
                      for f in fields(cls)}
        except ConfigError as err:
            raise GridError(err.args[0]) from None
        return check_spec(cls(**values))


GRID_KEYS = tuple(f.name for f in fields(GridSpec))


def check_spec(spec: GridSpec) -> GridSpec:
    """``spec``, if each field is a finite positive number of its default's
    type (an integer for counts and dimensions; NaN fails); else GridError
    naming the first that is not."""
    for f in fields(GridSpec):
        kind, value = type(f.default), getattr(spec, f.name)
        number = numbers.Integral if kind is int else numbers.Real
        if not (isinstance(value, number) and math.isfinite(value)
                and value > 0):
            raise GridError(f"{f.name} must be a finite positive "
                            f"{kind.__name__}, got {value!r}")
    return spec


def parse_flat_config(text: str) -> dict:
    """Parse ``key=value`` lines; '#' starts a comment."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key=value, got {body!r}")
        key, val = body.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def format_flat_config(mapping: dict) -> str:
    return "".join(f"{k}={mapping[k]}\n" for k in sorted(mapping))


def trapezoid_weights(count: int, h: float, periodic: bool) -> np.ndarray:
    """Trapezoid weights of a ``count``-node axis of spacing ``h``; the
    periodic rule weighs the end nodes fully, and a one-node axis weighs 1."""
    if count == 1:
        return np.ones(1)
    weights = np.full(count, h)
    if not periodic:
        weights[0] = weights[-1] = h / 2.0
    return weights


def nearest_node(axis: np.ndarray, values, tol: float):
    """Index of the node of the ascending ``axis`` nearest each of
    ``values``, and whether that node lies within ``tol`` of it (never so
    for NaN)."""
    values = np.asarray(values, dtype=float)
    right = np.minimum(np.searchsorted(axis, values), axis.size - 1)
    left = np.maximum(right - 1, 0)
    idx = np.where(np.abs(axis[left] - values) <= np.abs(axis[right] - values),
                   left, right)
    return idx, np.abs(axis[idx] - values) <= tol


@dataclass(frozen=True, eq=False)
class Grid:
    """Discretization: the x'-axis, the x''-axis and the punctured
    frequency axis, one per layer; each layer's nodes are the d1- or
    d2-fold tensor power of its axis.

    Compared and hashed by identity, so a grid can key a cache.
    """

    dims: Dims
    x1_axis: np.ndarray
    x1_axis_weights: np.ndarray
    x2_axis: np.ndarray
    x2_axis_weights: np.ndarray
    lambda_axis: np.ndarray       # weighs lambda_step per node
    lambda_step: float
    resolved: GridSpec      # the spec after extent/count adjustment

    # -- flattened tensor views -------------------------------------------
    @cached_property
    def x1_points(self) -> np.ndarray:
        return _tensor_points(self.x1_axis, self.dims.d1)

    @cached_property
    def x1_weights(self) -> np.ndarray:
        return _tensor_weights(self.x1_axis_weights, self.dims.d1)

    @cached_property
    def x2_points(self) -> np.ndarray:
        return _tensor_points(self.x2_axis, self.dims.d2)

    @cached_property
    def x2_weights(self) -> np.ndarray:
        return _tensor_weights(self.x2_axis_weights, self.dims.d2)

    @cached_property
    def lambda_points(self) -> np.ndarray:
        return _tensor_points(self.lambda_axis, self.dims.d2)

    @cached_property
    def lambda_weights(self) -> np.ndarray:
        return _tensor_weights(np.full(self.lambda_axis.size, self.lambda_step),
                               self.dims.d2)

    @cached_property
    def lambda_abs(self) -> np.ndarray:
        return np.sqrt(np.sum(self.lambda_points ** 2, axis=1))

    @property
    def n_x1(self) -> int:
        return self.x1_axis.size ** self.dims.d1

    @property
    def n_x2(self) -> int:
        return self.x2_axis.size ** self.dims.d2

    @property
    def tensor_shape(self) -> tuple[int, ...]:
        """Node count along each x'- then each x''-coordinate: the shape
        of a gridded field's values as a tensor."""
        return ((self.x1_axis.size,) * self.dims.d1
                + (self.x2_axis.size,) * self.dims.d2)

    @property
    def n_lambda(self) -> int:
        return self.lambda_points.shape[0]

    @property
    def x2_box_length(self) -> float:
        return float(self.resolved.x2_extent)

    # -- lookups ------------------------------------------------------------
    def lambda_index(self, lam):
        """Index of a frequency vector among the grid nodes, or the index
        array of an (n, d2) batch; GridError if any is absent (off by more
        than 1e-9 steps).  The nodes are a tensor product, so each
        coordinate is matched on the frequency axis."""
        lam = np.asarray(lam, dtype=float)
        rows = np.atleast_2d(lam)
        nearest, hit = nearest_node(self.lambda_axis, rows,
                                    1e-9 * max(1.0, self.lambda_step))
        off = np.flatnonzero(~hit.all(axis=1))
        if off.size:
            raise GridError(f"frequency {rows[off[0]]} is not a grid node")
        idx = np.ravel_multi_index(tuple(nearest.T),
                                   (self.lambda_axis.size,) * self.dims.d2)
        return int(idx[0]) if lam.ndim < 2 else idx

    def resolvable_degree(self, lam_abs: float) -> int:
        """Largest Hermite degree the x'-grid resolves at frequency size lam_abs.

        Extent rule: half-extent > 1.5*sqrt(2l+d1)/sqrt(lam) (the scaled
        Hermite function of degree l lives in |u| <~ sqrt(2l+d1)).
        Spacing rule: at least 3 grid points per oscillation wavelength,
        i.e. 2l+d1 <= (2*pi / (3*h*sqrt(lam)))**2.
        """
        half = 0.5 * self.resolved.x1_extent
        h = self.resolved.x1_extent / self.resolved.x1_count
        root = math.sqrt(lam_abs)
        cap_extent = (half * root / 1.5) ** 2 - self.dims.d1
        cap_spacing = (2.0 * math.pi / (3.0 * h * root)) ** 2 - self.dims.d1
        return max(-1, int(math.floor(min(cap_extent, cap_spacing) / 2.0)))

    # -- the x''-transform pair ----------------------------------------------
    # With step = 2 pi / L and x''-nodes (m - n//2) L/n, lambda x'' is
    # 2 pi k (m - n//2) / n for lambda = k step, so the dense exponential
    # sums are exactly DFTs along the x''-axes, read at (or scattered
    # into) bin k mod n.  Frequencies past Nyquist alias exactly as the
    # dense sums do, because x'' is an integer multiple of L/n.

    def _x2_bins(self, lam) -> tuple[np.ndarray, tuple[int, ...]]:
        """Flat DFT bin of each frequency row of ``lam`` (shape (n, d2)),
        and the x''-axis counts.

        Raises GridError unless the x''-axis is the periodic lattice dual
        to ``lambda_step`` and every frequency lies on that lattice.
        """
        n = self.x2_axis.size
        counts = (n,) * self.dims.d2
        L = 2.0 * math.pi / self.lambda_step
        if not np.allclose(self.x2_axis, (np.arange(n) - n // 2) * (L / n),
                           rtol=0.0, atol=1e-9 * L / n):
            raise GridError("x''-axis is not the periodic lattice of the "
                            "frequency step; the x''-transform is undefined")
        lam = np.asarray(lam, dtype=float)
        k = np.round(lam / self.lambda_step)
        if not np.all(np.abs(k * self.lambda_step - lam)
                      <= 1e-9 * self.lambda_step):
            raise GridError("frequencies off the lattice of the frequency step")
        bins = np.ravel_multi_index(tuple(np.mod(k.astype(int), counts).T),
                                    counts)
        return bins, counts

    def x2_forward(self, values: np.ndarray, lam) -> np.ndarray:
        """S[i, x'] = sum_{x''} w2(x'') values[x', x''] e^{-i lam_i x''}.

        ``values`` has shape (n_x1, n_x2), ``lam`` shape (n, d2); returns
        shape (n, n_x1).  One FFT over the x''-axes, read at the bins.
        """
        bins, counts = self._x2_bins(lam)
        axes = tuple(range(1, 1 + len(counts)))
        cube = (values * self.x2_weights).reshape((-1,) + counts)
        spec = np.fft.fftn(np.fft.ifftshift(cube, axes=axes), axes=axes)
        return spec.reshape(values.shape[0], -1)[:, bins].T

    def x2_inverse(self, coeffs: np.ndarray, lam) -> np.ndarray:
        """V[x', x''] = sum_i coeffs[x', i] e^{i lam_i x''}.

        ``coeffs`` has shape (n_x1, n), ``lam`` shape (n, d2); returns
        shape (n_x1, n_x2).  Each x'-row adds its columns into their DFT
        bins in column order (one ``np.add.at`` per row), so columns that
        share a bin (equal frequencies, or frequencies equal up to
        aliasing) sum in the order the bilinear contraction sums them;
        then ``_x2_ifft`` takes the inverse FFT.
        """
        bins = self._x2_bins(lam)[0]
        spec = np.zeros((coeffs.shape[0], self.n_x2), dtype=complex)
        for r in range(coeffs.shape[0]):
            np.add.at(spec[r], bins, coeffs[r])
        # the inputs are freed before the FFT, where a gridded multiplier peaks
        del coeffs
        return self._x2_ifft(spec)

    def _x2_ifft(self, spec: np.ndarray) -> np.ndarray:
        """The synthesis half of ``x2_inverse``: the inverse FFT over the
        x''-axes of a C-contiguous (n_x1, n_x2) spectrum in DFT bins."""
        counts = (self.x2_axis.size,) * self.dims.d2
        axes = tuple(range(1, 1 + len(counts)))
        # nested, so the unshifted output is freed before the scaling
        out = np.fft.fftshift(np.fft.ifftn(spec.reshape((-1,) + counts),
                                           axes=axes), axes=axes)
        return self.n_x2 * out.reshape(spec.shape[0], -1)


def _tensor_points(axis: np.ndarray, d: int) -> np.ndarray:
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def _tensor_weights(axis_weights: np.ndarray, d: int) -> np.ndarray:
    w = axis_weights
    for _ in range(d - 1):
        w = np.multiply.outer(w, axis_weights)
    return w.reshape(-1)


def make_grid(dims: Dims, spec: GridSpec) -> Grid:
    """Build a grid; deterministic function of the spec.

    Raises GridError on a spec ``check_spec`` rejects, x-counts below 2,
    or a frequency window the lattice cannot host.
    """
    if spec.d1 != dims.d1 or spec.d2 != dims.d2:
        spec = replace(spec, d1=dims.d1, d2=dims.d2)
    check_spec(spec)
    if spec.x1_count < 2 or spec.x2_count < 2:
        raise GridError("x node counts must be >= 2")
    if spec.lambda_max < spec.lambda_min:
        raise GridError("lambda_max must be >= lambda_min")

    # Lattice step: largest divisor of lambda_min compatible with the
    # requested node count over [lambda_min, lambda_max].
    m = spec.lambda_count
    a = max(1, int(round(spec.lambda_min * (m - 1)
                         / max(spec.lambda_max - spec.lambda_min, 1e-300))))
    step = spec.lambda_min / a
    b = int(math.floor(spec.lambda_max / step + 1e-9))
    if b - a + 1 < m:
        raise GridError(
            f"cannot place {m} lattice nodes in [{spec.lambda_min}, "
            f"{spec.lambda_max}] with step {step}")
    idx = np.unique(np.round(np.linspace(a, b, m)).astype(int))
    if idx.size != m:
        raise GridError("frequency node collision; reduce lambda_count")
    pos = idx * step

    x2_extent = 2.0 * math.pi / step
    lam_top = pos[-1]
    n2 = spec.x2_count
    # Nyquist: need pi * n2 / extent > lam_top strictly.
    min_n2 = int(math.ceil(x2_extent * lam_top / math.pi)) + 1
    while n2 < min_n2:
        n2 *= 2
    h1 = spec.x1_extent / spec.x1_count
    if h1 > 0.5 / math.sqrt(lam_top) + 1e-12:
        raise GridError(
            f"x1 spacing {h1:.4g} too coarse for lambda_max {lam_top:.4g}; "
            f"the rule requires h <= 0.5/sqrt(lambda_max)")

    h2 = x2_extent / n2
    resolved = replace(spec, x2_extent=x2_extent, x2_count=n2,
                       lambda_min=float(pos[0]), lambda_max=float(lam_top))
    # zero-anchored axes on [-extent/2, extent/2); the x''-axis takes the
    # periodic rule, so its exponentials at distinct nodes are orthogonal
    return Grid(
        dims=dims,
        x1_axis=(np.arange(spec.x1_count) - spec.x1_count // 2) * h1,
        x1_axis_weights=trapezoid_weights(spec.x1_count, h1, periodic=False),
        x2_axis=(np.arange(n2) - n2 // 2) * h2,
        x2_axis_weights=trapezoid_weights(n2, h2, periodic=True),
        lambda_axis=np.concatenate([-pos[::-1], pos]),
        lambda_step=step,
        resolved=resolved,
    )
