"""Regression-style numerical probes for the kernel and decay estimates.

Every probe is deterministic given its seed and grid; verdicts compare
slopes or ratio stability, never absolute constants.  Left-hand sides
come from the kernel/norm modules so no formula is duplicated here.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .calculus import (bilinear_kernel_batch, bilinear_weighted_l2,
                       channel_sums, linear_first_layer_weighted_l2,
                       restriction_apply_l2, second_layer_channel_l2,
                       sobolev_norm_1d)
from .dims import ConfigError, Dims, in_range, known_name
from .fields import GriddedField, SpectralField, lp_norm, mixed_norm, synthesize
from .geometry import Point, ball_volume, control_distance_batch
from .grid import Grid, GridSpec, make_grid
from .hermite import multi_index_degrees
from .report import DECAY_SLOPE_TOL, SLOPE_TOL, ProbeReport
from .reductions import gauss_legendre, parallel_map
from .riesz import (bilinear_apply_separated, build_expansion,
                    fourier_coeff_batch, series_trig)
from .symbols import (DyadicCutoff, DyadicPiece, Symbol1D, bump_symbol_1d,
                      dyadic_piece_symbol, indicator_symbol_1d, tensor_symbol)
from .thresholds import reciprocal, threshold


# ---------------------------------------------------------------------------
# probe grids

_GRID_SPECS = {
    "default": GridSpec(),
    "decay": GridSpec(x1_extent=28.0, x1_count=64, x2_count=512,
                      lambda_min=1.0 / 128.0, lambda_max=1.0, lambda_count=128),
    "weighted": GridSpec(x1_extent=144.0, x1_count=224, x2_count=1024,
                         lambda_min=1.0 / 512.0, lambda_max=0.5,
                         lambda_count=256),
    "dilation": GridSpec(x1_extent=16.0, x1_count=64, x2_count=256,
                         lambda_min=1.0 / 16.0, lambda_max=4.0,
                         lambda_count=64),
}


def probe_grid(name: str, refine: int = 1) -> Grid:
    """Named probe grid; ``refine`` doubles the spatial resolution."""
    return _probe_grid(name, int(refine))


# Large enough that one `grushin verify --suite all` run evicts nothing:
# it builds 4 probe grids and 6 kernel sample sets.
@lru_cache(maxsize=16)
def _probe_grid(name: str, refine: int) -> Grid:
    spec = _GRID_SPECS[known_name("grid", name, _GRID_SPECS)]
    if refine != 1:
        spec = replace(spec, x1_count=spec.x1_count * refine,
                       x2_count=spec.x2_count * refine)
    return make_grid(Dims(spec.d1, spec.d2), spec)


# ---------------------------------------------------------------------------
# test-function families

FAMILIES = ("hermite-bump", "two-scale")


def family_fields(name: str, grid: Grid, seed: int,
                  band: tuple[float, float] = (1.0 / 8.0, 0.96),
                  max_degree: int = 4) -> SpectralField:
    """Named, seeded field families.

    * ``hermite-bump``: random degree <= 4 coefficients on a dyadic
      frequency band, amplitudes damped geometrically in the degree.
    * ``two-scale``: the same construction split across two bands a
      factor 4 apart, stressing both branches of the ball-volume formula.
    """
    known_name("family", name, FAMILIES)
    in_range("max_degree", max_degree, 0)
    name_tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4],
                              "little")
    rng = np.random.default_rng(np.random.SeedSequence([name_tag, seed]))
    if name == "two-scale":
        lo, hi = band
        bands = [(lo, min(2 * lo, hi)), (min(4 * lo, hi), min(8 * lo, hi))]
    else:
        bands = [band]
    sel = np.zeros(grid.n_lambda, dtype=bool)
    for lo, hi in bands:
        sel |= (grid.lambda_abs >= lo - 1e-12) & (grid.lambda_abs <= hi + 1e-12)
    idx = np.where(sel)[0]
    if idx.size == 0:
        raise ConfigError(f"family band {band} misses every grid node")
    support = grid.lambda_points[idx]
    degs = multi_index_degrees(grid.dims.d1, max_degree)
    coeffs = (rng.normal(size=(idx.size, degs.size))
              + 1j * rng.normal(size=(idx.size, degs.size))) * 0.5 ** degs
    return SpectralField(grid.dims, support, max_degree, coeffs)


def live_eigenvalues(f: SpectralField) -> np.ndarray:
    """The distinct eigenvalues of f up to 1, the top of every dyadic
    piece's support."""
    ev = np.unique(f.eigenvalues.reshape(-1))
    return ev[ev <= 1.0 + 1e-12]


# ---------------------------------------------------------------------------
# pointwise kernel probe

# variant -> the two points of (x, y, z) whose unit-ball volumes weight
# the kernel
KERNEL_VARIANTS = {"xx": (0, 0), "xz": (0, 2), "xy": (0, 1), "yz": (1, 2)}


TRIPLES_PER_BAND = 8
TRIPLE_SCALES = (0.5, 1.0, 2.0, 4.0, 8.0)


@lru_cache(maxsize=16)
def _stratified_triples(seed: int) -> tuple:
    """Reproducible (x, y, z) triples stratified by distance scale; cached
    (a kernel probe and its sample sets share them), so read-only."""
    rng = np.random.default_rng(np.random.SeedSequence([0x7A, seed]))
    triples = []
    for s_y in TRIPLE_SCALES:
        for _ in range(TRIPLES_PER_BAND):
            x1 = rng.uniform(-3, 3, 1)
            x2 = rng.uniform(-8, 8, 1)
            s_z = float(rng.choice(TRIPLE_SCALES))
            y1 = x1 + rng.uniform(-s_y, s_y, 1)
            y2 = x2 + rng.uniform(-1, 1, 1) * max(
                s_y * s_y, s_y * (abs(x1[0]) + abs(y1[0])))
            z1 = x1 + rng.uniform(-s_z, s_z, 1)
            z2 = x2 + rng.uniform(-1, 1, 1) * max(
                s_z * s_z, s_z * (abs(x1[0]) + abs(z1[0])))
            for arr in (x1, x2, y1, y2, z1, z2):
                arr.flags.writeable = False
            triples.append(((x1, x2), (y1, y2), (z1, z2)))
    return tuple(triples)


@lru_cache(maxsize=16)
def _volume_factors(variant: str, seed: int) -> tuple:
    """Per triple of the seed, the product of the unit-ball volumes at
    the two points ``variant`` names; the kernel probes share them."""
    pair = KERNEL_VARIANTS[known_name("variant", variant, KERNEL_VARIANTS)]
    return tuple(math.prod(ball_volume(Point(*t[k]), 1.0) for k in pair)
                 for t in _stratified_triples(seed))


@lru_cache(maxsize=64)
def _kernel_samples(grid: Grid, alpha: float, j: int, seed: int) -> np.ndarray:
    """|kernel_j| at the seed's stratified triples, read-only.  Cached on
    the grid object itself; the cache keeps it alive, so no id is reused."""
    triples = _stratified_triples(seed)
    sym = dyadic_piece_symbol(DyadicPiece(j, alpha))
    kv = np.abs(bilinear_kernel_batch(sym, *zip(*triples), grid))
    kv.flags.writeable = False
    return kv


def pointwise_kernel_probe(alpha: float, beta1: float, beta2: float,
                           j_range=range(1, 7), variant: str = "xx",
                           seed: int = 0, grid: Grid | None = None,
                           workers: int | None = None) -> ProbeReport:
    """Slope check of the weighted pointwise kernel bound.

    For each j, S_j is the max over stratified samples of
    |kernel_j(x,y,z)| (1+dist(x,y))^{beta1} (1+dist(x,z))^{beta2} times
    the selected volume-weight combination; passes when the fitted log2
    slope stays at or below beta1 + beta2 + 1/2 + tolerance.
    """
    in_range("beta1", beta1, 0)
    in_range("beta2", beta2, 0)
    grid = grid or probe_grid("decay")
    triples = _stratified_triples(seed)
    (x1, x2), (y1, y2), (z1, z2) = ([np.array(c) for c in zip(*p)]
                                    for p in zip(*triples))
    dy = control_distance_batch(x1, x2, y1, y2).tolist()
    dz = control_distance_batch(x1, x2, z1, z2).tolist()
    wts = np.array([(1.0 + a) ** beta1 * (1.0 + b) ** beta2 * v
                    for a, b, v in zip(dy, dz, _volume_factors(variant, seed))])

    def one_j(j):
        return float(np.max(_kernel_samples(grid, alpha, j, seed) * wts))

    j_values = list(j_range)
    s = parallel_map(one_j, j_values, workers)
    return ProbeReport.slope_bound(j_values, s, beta1 + beta2 + 0.5 + SLOPE_TOL,
                                   alpha=alpha, beta1=beta1, beta2=beta2,
                                   variant=variant, values=list(s))


# ---------------------------------------------------------------------------
# weighted Plancherel probes

PLANCHEREL_KINDS = ("linear_first_layer", "bilinear", "second_layer",
                    "truncated")

_BASE_POINTS = (0.5, 2.0, 5.0, 12.0, 30.0)


def _first_layer_rhs(F: Symbol1D, gamma: float, y1_norm: float,
                     dims: Dims) -> float:
    """Closed-form right side: weighted eta-integral of |F|^2 with the
    min(eta^{d2/2-gamma}, |y'|^{2gamma-d2}) weight."""
    d, d2 = dims.total_dim, dims.d2
    lo, hi = F.support
    knee = y1_norm ** -2.0 if y1_norm > 0 else np.inf

    def piece(a, b, small_eta):
        if b <= a:
            return 0.0
        nodes, w = gauss_legendre(200)
        eta = 0.5 * (b + a) + 0.5 * (b - a) * nodes
        vals = np.abs(np.asarray(F(eta))) ** 2 * eta ** (d / 2.0 - 1.0)
        vals = vals * (eta ** (d2 / 2.0 - gamma) if small_eta
                       else y1_norm ** (2 * gamma - d2))
        return float(np.sum(w * vals) * 0.5 * (b - a))

    split = min(max(knee, lo), hi)
    return piece(lo, split, True) + piece(split, hi, False)


def _refinement_report(ratios, abscissa, **details) -> ProbeReport:
    """Refinement report of ``ratios(grid)`` on the ``weighted`` grid and
    on that grid refined once."""
    base = ratios(probe_grid("weighted"))
    return ProbeReport.refinement(abscissa, base, ratios(probe_grid("weighted", 2)),
                                  float(np.max(base)), **details)


def weighted_plancherel_probe(kind: str, gamma1: float = 0.0,
                              gamma2: float = 0.0, n1: float = 1.0,
                              n2: float = 0.0,
                              workers: int | None = None) -> ProbeReport:
    """Ratio/slope probes for the four weighted-kernel estimates.

    * linear_first_layer: first-layer weight |x'|^{2 gamma1}, gamma1 in
      [0, d2/2); ratio LHS/RHS over base points, refinement-stable.
    * bilinear: double kernel integral against the product frequency
      weight at gamma = 0; ratio over base points.
    * second_layer: |x''-y''| weights with gamma1, gamma2 in [0, d2/2);
      RHS is the product Sobolev norm.
    * truncated: frequency-size cutoffs at scales M = 2..5; log2 LHS vs
      M slope compared with 2*n1 - d2 (and the ratio against the closed
      RHS).
    """
    known_name("kind", kind, PLANCHEREL_KINDS)
    grid = probe_grid("weighted")
    dims = grid.dims
    prof = bump_symbol_1d(0.05, 0.45)
    if kind == "linear_first_layer":
        in_range("gamma1", gamma1, 0, dims.d2 / 2)
        symbols = [indicator_symbol_1d(0.0, 0.45), prof]
        ys = [5.0, 10.0, 20.0, 40.0]

        def ratios(gr):
            return np.array([linear_first_layer_weighted_l2(
                F, (np.array([y1]), np.array([0.0])), gr, gamma1)
                / _first_layer_rhs(F, gamma1, y1, dims)
                for F in symbols for y1 in ys])

        return _refinement_report(ratios, np.log2(np.array(ys + ys)),
                                  gamma=gamma1, kind=kind)

    if kind == "bilinear":
        G = tensor_symbol(prof, prof)

        def ratios(gr):
            return np.array([bilinear_weighted_l2(
                G, (np.array([x1]), np.array([0.0])), gr, 0.0, 0.0)
                / _first_layer_rhs(prof, 0.0, x1, dims) ** 2
                for x1 in _BASE_POINTS])

        return _refinement_report(ratios, np.log2(np.array(_BASE_POINTS)),
                                  kind=kind)

    if kind == "second_layer":
        in_range("gamma1", gamma1, 0, dims.d2 / 2)
        in_range("gamma2", gamma2, 0, dims.d2 / 2)
        rhs = (sobolev_norm_1d(prof, gamma1) * sobolev_norm_1d(prof, gamma2)) ** 2

        def ratios(gr):      # one base point's channel sums at a time
            return np.array([second_layer_channel_l2(sums, gamma1)
                             * second_layer_channel_l2(sums, gamma2) / rhs
                             for sums in (channel_sums(prof, gr, np.array([x1]))
                                          for x1 in _BASE_POINTS)])

        return _refinement_report(ratios, np.log2(np.array(_BASE_POINTS)),
                                  kind=kind, gamma1=gamma1, gamma2=gamma2)

    # truncated: channel slope in the first cutoff index; the bilinear
    # left side factors over channels for a tensor symbol, so the slope
    # and ratio live in channel one while channel two is held fixed.  One
    # read-only table of channel sums per base point serves every cutoff.
    s1 = sobolev_norm_1d(prof, in_range("N1", n1, 0)) ** 2
    s2 = sobolev_norm_1d(prof, in_range("N2", n2, 0)) ** 2
    m_values = [2, 3, 4, 5]
    tables = [channel_sums(prof, grid, np.array([x1])) for x1 in _BASE_POINTS]

    def chan(m, order):
        return float(np.mean([second_layer_channel_l2(t, order, DyadicCutoff(m))
                              for t in tables]))

    chan1 = np.array(parallel_map(lambda m: chan(m, n1), m_values, workers))
    m2_fixed = m_values[0]
    chan2 = chan(m2_fixed, n2)
    target = 2.0 * n1 - dims.d2
    rhs1 = np.array([2.0 ** (m * target) * s1 for m in m_values])
    rhs2 = 2.0 ** (m2_fixed * (2.0 * n2 - dims.d2)) * s2
    return ProbeReport.slope_target(
        m_values, np.log2(chan1), target,
        float(np.max(chan1 / rhs1) * chan2 / rhs2),
        kind=kind, n1=n1, n2=n2, channel_values=chan1.tolist())


# ---------------------------------------------------------------------------
# coefficient decay probe

def coefficient_decay_probe(alpha: float, beta: float,
                            j_range=range(2, 9), l_max: int = 512,
                            shell_clear: bool = False,
                            workers: int | None = None) -> ProbeReport:
    """Slope of the weighted sup-norm coefficient maxima in j.

    D_j = max over |l| <= l_max of sup_eta1 |coeff_{j,l}| (1+|l|)^{1+beta};
    passes when the fitted slope stays at or below -alpha + beta + tol.

    Over the full eta1 interval the zero extension of the piece jumps at
    the second variable's origin wherever 1 - eta1 lies inside the shell,
    and the jump's 1/l coefficient tail makes the measured slope track
    -alpha rather than the sharp -alpha + beta.  ``shell_clear`` takes
    the sup over eta1 below the shell window instead, where coefficients
    decay superalgebraically and the sharp rate is visible.
    """
    ls = np.arange(0, l_max + 1)
    weights = (1.0 + ls) ** (1.0 + in_range("beta", beta, 0))

    def one_j(j):
        hi = 1.0 - 2.0 ** (-j + 1) - 0.02 if shell_clear else 1.0
        eta1 = np.linspace(0.0, hi, 257)
        coeffs = fourier_coeff_batch(DyadicPiece(j, alpha), ls, eta1)
        sup = np.max(np.abs(coeffs), axis=1)
        return float(np.max(weights * sup))

    j_values = list(j_range)
    d = parallel_map(one_j, j_values, workers)
    return ProbeReport.slope_bound(j_values, d, -alpha + beta + SLOPE_TOL,
                                   alpha=alpha, beta=beta, l_max=l_max,
                                   values=list(d))


# ---------------------------------------------------------------------------
# dyadic and mixed-norm decay probes

@dataclass(frozen=True)
class DecayProbeSpec:
    """Configuration of a geometric-decay probe at the input exponents
    (p1, p2); the output exponent p follows from 1/p = 1/p1 + 1/p2."""

    alpha: float
    p1: float
    p2: float
    j_range: tuple = (1, 2, 3, 4, 5, 6)
    seed: int = 0

    @property
    def p(self) -> float:
        return reciprocal(reciprocal(self.p1) + reciprocal(self.p2))


def _decay_fields(spec_family: str, seed: int, grid: Grid):
    return tuple(family_fields(spec_family, grid, s, band=(1.0 / 8.0, 0.96))
                 for s in (seed, seed + 1))


def _decay_probe(alpha: float, j_range, seed: int, grid: Grid,
                 workers: int | None, norms, alpha_threshold,
                 **details) -> ProbeReport:
    """Shared body of the decay probes.

    ``norms`` is (f_norm, g_norm, out_norm): the slope is fitted to
    log2 out_norm(piece_j(f, g)) / (f_norm(f) g_norm(g)) against j, each
    piece evaluated on the separated path; ``expansion_cap_hits`` counts
    the pieces whose series stopped at its cap, and ``truncations`` and
    ``tail_bounds`` give each piece's series cutoff and measured tail.
    ``alpha_threshold`` is a (details key, value) pair: at or below the
    value nothing is claimed (no slope bound); above it (or when the
    value is None) the slope bound is -DECAY_SLOPE_TOL.
    """
    f_norm, g_norm, out_norm = norms
    f, g = _decay_fields("hermite-bump", seed, grid)
    denom = f_norm(synthesize(f, grid)) * g_norm(synthesize(g, grid))
    j_values = list(j_range)
    key, value = alpha_threshold
    bound = None if value is not None and alpha <= value else -DECAY_SLOPE_TOL
    if denom == 0.0:
        return ProbeReport.slope_bound(j_values, [0.0] * len(j_values), bound,
                                       alpha=alpha)

    cap = 2048   # one trig table for every piece, made at the first symbol
    trig = lru_cache(None)(lambda: series_trig(cap, np.unique(g.eigenvalues)))

    def one_j(j):
        exp = build_expansion(DyadicPiece(j, alpha),
                              eta1_samples=live_eigenvalues(f), l_cap=cap)
        return out_norm(bilinear_apply_separated(exp, f, g, grid,
                                                  trig=trig())), exp

    n, exps = zip(*parallel_map(one_j, j_values, workers))
    return ProbeReport.slope_bound(
        j_values, np.array(n) / denom, bound, alpha=alpha, **details,
        values=list(n), denominator=denom,
        expansion_cap_hits=sum(not e.converged for e in exps),
        truncations=[e.truncation for e in exps],
        tail_bounds=[e.tail_bound for e in exps], **{key: value})


def dyadic_decay_probe(spec: DecayProbeSpec, grid: Grid | None = None,
                       workers: int | None = None) -> ProbeReport:
    """Fitted slope of log2 ||piece_j(f, g)||_p / (||f||_p1 ||g||_p2) vs j.

    Passes at a strictly negative slope when alpha exceeds the corner
    threshold; below the threshold the report is labeled as the
    no-guarantee regime (nothing is claimed there) and still succeeds.
    """
    grid = grid or probe_grid("decay")
    norms = (lambda h: lp_norm(h, spec.p1), lambda h: lp_norm(h, spec.p2),
             lambda h: lp_norm(h, spec.p))
    corner = threshold(spec.p1, spec.p2, grid.dims, "general").threshold
    return _decay_probe(spec.alpha, spec.j_range, spec.seed, grid, workers,
                        norms, ("corner_threshold", corner),
                        exponents=(spec.p1, spec.p2, spec.p))


def mixed_norm_decay_probe(alpha: float, j_range=range(1, 7), seed: int = 0,
                           grid: Grid | None = None,
                           workers: int | None = None) -> ProbeReport:
    """Decay probe in the mixed norms: output in the inner-2/3 outer-1
    norm against inputs in L1 x (inner-2, outer-sup)."""
    grid = grid or probe_grid("decay")
    norms = (lambda h: lp_norm(h, 1.0), lambda h: mixed_norm(h, 2.0, np.inf),
             lambda h: mixed_norm(h, 2.0 / 3.0, 1.0))
    return _decay_probe(alpha, j_range, seed, grid, workers, norms,
                        ("threshold", (grid.dims.total_dim + 1) / 2.0))


# ---------------------------------------------------------------------------
# restriction-estimate probe (first-layer weighted output bound)

def restriction_probe(gamma: float = 0.0) -> ProbeReport:
    """Ratio probe for the weighted output estimate against ||F||_2 ||f||_1.

    Bump inputs at several positions; ratio bounded and refinement-stable.
    """
    grid = probe_grid("weighted")
    in_range("gamma", gamma, 0, grid.dims.d2 / 2)
    F = indicator_symbol_1d(0.0, 0.45)
    f2 = math.sqrt(0.45)

    def ratio(gr, x0, s):   # the bump field lives only in this call
        h = GriddedField(grid=gr, values=np.zeros((gr.n_x1, gr.n_x2), complex))
        np.multiply.outer(np.exp(-0.5 * ((gr.x1_points[:, 0] - x0) / s) ** 2),
                          np.exp(-0.5 * (gr.x2_points[:, 0] / (4 * s)) ** 2),
                          out=h.values.real)
        return restriction_apply_l2(F, h, gamma) / (f2 * lp_norm(h, 1.0))

    return _refinement_report(lambda gr: np.array(
        [ratio(gr, *bump) for bump in ((0.0, 0.7), (4.0, 1.0), (12.0, 1.5))]),
        np.arange(3), gamma=gamma)
