"""Metric-measure layer: control distance, ball volumes, weight integrals.

The control distance is only defined up to equivalence; this module
fixes the canonical two-branch representative and the constant-1 ball
volume.  Every inequality from the source estimates is exposed as a
ratio probe, never as an assertion with an absolute constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dims import ConfigError, Dims, known_name
from .report import ProbeReport


@dataclass(frozen=True)
class Point:
    """A point (x', x'') of the two-layer space."""

    x1: np.ndarray
    x2: np.ndarray

    def __init__(self, x1, x2):
        object.__setattr__(self, "x1", np.atleast_1d(np.asarray(x1, dtype=float)))
        object.__setattr__(self, "x2", np.atleast_1d(np.asarray(x2, dtype=float)))

    @property
    def dims(self) -> Dims:
        return Dims(self.x1.size, self.x2.size)


def control_distance(x: Point, y: Point) -> float:
    """Canonical two-branch control distance.

    |x'-y'| plus |x''-y''| / (|x'|+|y'|) when |x''-y''|^{1/2} <= |x'|+|y'|,
    else |x''-y''|^{1/2}.  Symmetric, zero iff x == y; satisfies only a
    quasi-triangle inequality.  The one-row case of
    ``control_distance_batch``.
    """
    return float(control_distance_batch(x.x1, x.x2, y.x1, y.x2)[0])


def control_distance_batch(x1a, x2a, x1b, x2b) -> np.ndarray:
    """Vectorized control distance for aligned point batches (n, d1)/(n, d2)."""
    d1 = np.linalg.norm(np.atleast_2d(x1a) - np.atleast_2d(x1b), axis=1)
    gap = np.linalg.norm(np.atleast_2d(x2a) - np.atleast_2d(x2b), axis=1)
    radial = (np.linalg.norm(np.atleast_2d(x1a), axis=1)
              + np.linalg.norm(np.atleast_2d(x1b), axis=1))
    root = np.sqrt(gap)
    ratio = np.divide(gap, radial, out=np.full_like(gap, np.inf),
                      where=radial > 0)
    return d1 + np.where((root <= radial) & (gap > 0), ratio,
                         np.where(gap > 0, root, 0.0))


def ball_volume(x: Point, r: float) -> float:
    """Canonical ball volume r^{d1+d2} * max(r, |x'|)^{d2} (constant 1)."""
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    dims = x.dims
    radial = float(np.linalg.norm(x.x1))
    return r ** dims.total_dim * max(r, radial) ** dims.d2


def second_layer_reach(x1_norm: float, r: float) -> float:
    """Upper bound on |x''-y''| over the radius-r ball around (x', .)."""
    return max(r * r, r * (2.0 * x1_norm + r))


def _ball_quadrature(a: Point, r: float, integrand, n_per_axis: int) -> float:
    """Midpoint tensor quadrature of ``integrand`` over the distance ball."""
    dims = a.dims
    reach2 = second_layer_reach(float(np.linalg.norm(a.x1)), r)
    axes = []
    for c, h in zip([*a.x1, *a.x2], [r] * dims.d1 + [reach2] * dims.d2):
        lo, hi = c - h, c + h
        axes.append(np.linspace(lo, hi, n_per_axis, endpoint=False)
                    + (hi - lo) / (2 * n_per_axis))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    x1, x2 = pts[:, :dims.d1], pts[:, dims.d1:]
    dist = control_distance_batch(x1, x2,
                                  np.broadcast_to(a.x1, x1.shape),
                                  np.broadcast_to(a.x2, x2.shape))
    inside = dist < r
    vol_cell = np.prod([ax[1] - ax[0] for ax in axes])
    vals = integrand(x1, x2)
    return float(np.sum(vals[inside]) * vol_cell)


def weight_integral_check(a: Point, r_values, gamma: float, layer: str,
                          n_per_axis: int = 160) -> ProbeReport:
    """Ratio probe for the ball-weight integral estimates.

    First layer: integral of |x'|^{-gamma} over the ball around ``a`` vs
    r^{d1+d2} * max(4r, |a'|)^{d2-gamma}, for 0 <= gamma < d1.  Second
    layer: integral of |a''-y''|^{-gamma} over the ball vs
    r^{d1+2(d2-gamma)}, for 0 <= gamma < d2.  Reports per-radius ratios,
    their log2 fit against log2(r), the max ratio, and the max-ratio
    growth under one quadrature refinement doubling.
    """
    dims = a.dims
    top = {"first": dims.d1, "second": dims.d2}
    if not 0 <= gamma < top[known_name("layer", layer, top)]:
        raise ConfigError(f"{layer}-layer gamma must lie in [0, {top[layer]})")
    first = layer == "first"
    a_norm = float(np.linalg.norm(a.x1))

    def integrand(x1, x2):
        nrm = np.linalg.norm(x1 if first else x2 - a.x2, axis=1)
        return np.where(nrm > 0, nrm ** -gamma if gamma else 1.0,
                        0.0 if gamma else 1.0)

    def rhs(r):
        if first:
            return r ** dims.total_dim * max(4 * r, a_norm) ** (dims.d2 - gamma)
        return r ** (dims.d1 + 2 * (dims.d2 - gamma))

    def run(n):
        return np.array([_ball_quadrature(a, r, integrand, n) / rhs(r)
                         for r in r_values])

    r_values = np.asarray(list(r_values), dtype=float)
    ratios, refined = run(n_per_axis), run(2 * n_per_axis)
    return ProbeReport.refinement(np.log2(r_values), ratios, refined,
                                  float(np.max(refined)), gamma=gamma,
                                  layer=layer, refined_ratios=refined.tolist())
