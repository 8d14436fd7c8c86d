"""Smoothness-threshold tables over the (1/p1, 1/p2) square.

Each sufficiency item of the boundedness results is encoded as a
region plus a threshold formula in the inverse exponents (each region's
predicate is written once, and both variants share it); a query
returns the minimum threshold over all applicable items.  The
(infinity, infinity) corner is not literally covered by any item and its
value is sourced from the endpoint analysis instead; that sourcing is
recorded on the verdict.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

from .dims import ConfigError, Dims, known_name

REGIONS = ("I", "II", "III_a", "III_b", "IV_a", "IV_b", "V", "NotCovered")
VARIANTS = ("general", "restricted")

_EPS = 1e-12


def _in(lo, x, hi):
    return lo <= x + _EPS and x <= hi + _EPS


def reciprocal(t: float) -> float:
    """1/t with 1/0 = inf and 1/inf = 0: p = 1/u from u, and u from p."""
    return math.inf if t == 0 else 1.0 / t


@dataclass(frozen=True)
class RegionVerdict:
    region: str
    threshold: float | None
    source: str = "item"

    def __post_init__(self):
        if self.region not in REGIONS:
            raise ValueError(f"unknown region {self.region!r}")
        if (self.threshold is None) != (self.region == "NotCovered"):
            raise ValueError("threshold present iff covered")
        if self.threshold is not None and self.threshold < -_EPS:
            raise ValueError("thresholds are non-negative")


# u = 1/p1, v = 1/p2, w = 1/p = u + v
def _items(dims: Dims) -> dict:
    """Region -> (predicate, general threshold, restricted threshold or
    None), each a function of (u, v, w).  The means are symmetric in
    (f, g), so each _b region is its _a region at (v, u)."""
    d, q, dk = dims.total_dim, dims.homogeneous_dim, dims.threshold_dim
    items = {
        "I": (lambda u, v, w: 0 < u <= 0.5 + _EPS and 0 < v <= 0.5 + _EPS
              and _in(0.5, w, 1.0),
              lambda u, v, w: (d - 1) * (1.0 - w), None),
        "II": (lambda u, v, w: 0 < u <= 0.5 + _EPS and 0 < v <= 0.5 + _EPS
               and 0 < w <= 0.5 + _EPS,
               lambda u, v, w: (d - 1) / 2.0 + d * (0.5 - w), None),
        "III_a": (lambda u, v, w: _in(0.5, u, 1.0) and _in(0.0, v, 0.5)
                  and _in(0.5, w, 1.0),
                  lambda u, v, w: q * (u - 0.5) + (d - 1) * (1.0 - w),
                  lambda u, v, w: d * (0.5 - v) - (1.0 - w)),
        "IV_a": (lambda u, v, w: _in(0.5, u, 1.0) and _in(0.0, v, 0.5)
                 and _in(1.0, w, math.inf),
                 lambda u, v, w: dk * (w - 1.0) + q * (0.5 - v),
                 lambda u, v, w: d * (u - 0.5)),
        "V": (lambda u, v, w: _in(0.5, u, 1.0) and _in(0.5, v, 1.0),
              lambda u, v, w: dk * (w - 1.0), lambda u, v, w: d * (w - 1.0)),
    }
    for name in ("III_a", "IV_a"):
        items[name[:-1] + "b"] = tuple(
            f and (lambda u, v, w, f=f: f(v, u, w)) for f in items[name])
    return items


def threshold(p1: float, p2: float, dims: Dims,
              variant: str = "general") -> RegionVerdict:
    """Classify (p1, p2) and return the minimal applicable threshold.

    Exponents live in [1, inf].  The restricted variant assumes the
    frequency-support restriction on the inputs and draws on both item
    sets (the support hypothesis only helps).
    """
    known_name("variant", variant, VARIANTS)
    for p in (p1, p2):
        if not (p >= 1.0):
            raise ConfigError(f"exponents must lie in [1, inf], got {p}")
    u, v = reciprocal(p1), reciprocal(p2)
    w = u + v

    formulas = 2 if variant == "restricted" else 1
    hits = [(fml(u, v, w), name)
            for name, (inside, *fmls) in _items(dims).items()
            if inside(u, v, w) for fml in fmls[:formulas] if fml]
    if hits:
        best, region = min(hits)
        return RegionVerdict(region=region, threshold=float(best))
    if u < _EPS and v < _EPS:
        # The joint-sup corner: the endpoint estimate gives d - 1/2
        # (the limit of the region-II formula), proved separately.
        d = dims.total_dim
        return RegionVerdict(region="II", threshold=float(d - 0.5),
                             source="endpoint")
    return RegionVerdict(region="NotCovered", threshold=None)


def threshold_table(dims: Dims, variant: str = "general",
                    resolution: int = 20) -> str:
    """CSV rows over the inverse-exponent lattice with spacing 1/resolution.

    Header: inv_p1,inv_p2,region,alpha,variant.
    """
    if resolution < 2:
        raise ConfigError("resolution must be >= 2")
    buf = io.StringIO()
    buf.write("inv_p1,inv_p2,region,alpha,variant\n")
    for i in range(resolution + 1):
        for j in range(resolution + 1):
            u, v = i / resolution, j / resolution
            verdict = threshold(reciprocal(u), reciprocal(v), dims, variant)
            alpha = "" if verdict.threshold is None else repr(verdict.threshold)
            buf.write(f"{u!r},{v!r},{verdict.region},{alpha},{variant}\n")
    return buf.getvalue()


def figure_corners(dims: Dims, variant: str = "general") -> dict:
    """The nine labeled lattice nodes (u, v) in {0, 1/2, 1}^2 -> threshold."""
    return {(ui, vi): threshold(reciprocal(ui), reciprocal(vi), dims,
                                variant).threshold
            for ui in (0.0, 0.5, 1.0) for vi in (0.0, 0.5, 1.0)}
