import math
import pickle

import numpy as np
import pytest

from grushin.report import ProbeReport, fit_line
from grushin.riesz import build_expansion
from grushin.symbols import DyadicPiece
from grushin.verifier import (DecayProbeSpec, _decay_fields,
                              coefficient_decay_probe,
                              dyadic_decay_probe, family_fields,
                              live_eigenvalues, mixed_norm_decay_probe,
                              pointwise_kernel_probe,
                              weighted_plancherel_probe)

from conftest import traced_transient_mb


def test_probe_report_fit_invariants():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = 2.5 * x - 1.0
    rep = ProbeReport.from_samples(x, y)
    assert rep.slope == pytest.approx(2.5)
    assert rep.intercept == pytest.approx(-1.0)
    assert np.max(np.abs(rep.residual())) <= 1e-12
    with pytest.raises(ValueError):
        fit_line([1.0], [1.0, 2.0])
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "# verdict=NONE"
    assert "abscissa,ordinate,fitted,residual" in csv


@pytest.mark.parametrize("measured, bound, verdict", [
    ([0.0, 0.0, 0.0], None, "DEGENERATE-PASS"),   # before no guarantee
    ([0.0, 0.0, 0.0], -5.0, "DEGENERATE-PASS"),   # before a failing slope
    ([1.0, 4.0, 16.0], None, "NO-GUARANTEE"),     # before a failing slope
    ([1.0, 4.0, 16.0], 1.5, "FAIL"),
    ([1.0, 4.0, 16.0], 2.5, "PASS"),
    ([16.0, 4.0, 1.0], -1.5, "PASS"),
])
def test_slope_bound_verdict_precedence(measured, bound, verdict):
    rep = ProbeReport.slope_bound([1.0, 2.0, 3.0], measured, bound, tag="t")
    assert rep.verdict == verdict
    assert rep.max_ratio == max(measured)
    assert rep.details == {"tag": "t", "slope_bound": bound}
    assert np.all(np.isfinite(rep.ordinate))


def test_a_slope_equal_to_its_bound_passes():
    x, measured = [1.0, 2.0, 3.0, 4.0], [3.0, 1.0, 7.0, 20.0]
    slope = ProbeReport.slope_bound(x, measured, None).slope
    assert ProbeReport.slope_bound(x, measured, slope).verdict == "PASS"
    below = np.nextafter(slope, -np.inf)
    assert ProbeReport.slope_bound(x, measured, below).verdict == "FAIL"


@pytest.mark.parametrize("factor, verdict", [(1.0 - 1e-9, "PASS"),
                                             (1.0 + 1e-9, "FAIL")])
def test_refinement_growth_against_the_tolerance(factor, verdict):
    from grushin.report import REFINEMENT_TOL
    ratios = np.array([0.5, 2.0, 1.0])
    refined = ratios * np.array([1.0, 1.0 + factor * REFINEMENT_TOL, 0.9])
    rep = ProbeReport.refinement([0.0, 1.0, 2.0], ratios, refined, 3.0,
                                 kind="k")
    assert rep.verdict == verdict
    assert rep.details["refinement_growth"] == pytest.approx(
        factor * REFINEMENT_TOL, rel=1e-12)
    assert rep.details["ratios"] == ratios.tolist()
    assert rep.details["kind"] == "k"
    assert rep.max_ratio == 3.0


def test_refinement_of_a_zero_base_ratio():
    # a zero ratio is divided by the 1e-300 floor: staying zero is no
    # growth, any refined value at all is unbounded growth
    ratios = np.array([0.0, 1.0])
    same = ProbeReport.refinement([0.0, 1.0], ratios, ratios.copy(), 1.0)
    assert same.verdict == "PASS"
    assert same.details["refinement_growth"] == 0.0
    assert np.all(np.isfinite(same.ordinate))
    grown = ProbeReport.refinement([0.0, 1.0], ratios, np.array([1e-12, 1.0]),
                                   1.0)
    assert grown.verdict == "FAIL"


@pytest.mark.parametrize("offset, verdict", [(0.0, "PASS"), (0.1, "PASS"),
                                             (-0.1, "PASS"), (0.2, "FAIL"),
                                             (-0.2, "FAIL")])
def test_slope_target_is_two_sided(offset, verdict):
    from grushin.report import SLOPE_TOL
    assert 0.1 < SLOPE_TOL < 0.2
    x = [2.0, 3.0, 4.0, 5.0]
    rep = ProbeReport.slope_target(x, [(1.5 + offset) * v for v in x], 1.5,
                                   7.0, kind="k")
    assert rep.verdict == verdict
    assert rep.details == {"kind": "k", "slope_target": 1.5}
    assert rep.max_ratio == 7.0


@pytest.mark.parametrize("dev, reference, verdict, shown", [
    (0.5, None, "PASS", 0.5),
    (1.0, None, "PASS", 1.0),
    (1.5, None, "FAIL", 1.5),
    (2.0, 4.0, "PASS", 0.5),
    (6.0, 4.0, "FAIL", 1.5),
    (0.0, 0.0, "DEGENERATE-PASS", 0.0),    # a zero reference, a zero field
    (3.0, 0.0, "DEGENERATE-PASS", 0.0),
    (1.0, math.nan, "FAIL", math.nan),
])
def test_deviation_verdicts(dev, reference, verdict, shown):
    rep = ProbeReport.deviation(dev, 1.0, reference=reference, t=2.0)
    assert rep.verdict == verdict
    np.testing.assert_equal(rep.max_ratio, shown)
    assert rep.details == ({"t": 2.0} if reference is None else
                           {"t": 2.0, "reference": reference})
    assert np.all(np.isfinite(rep.ordinate)) or math.isnan(shown)


def test_coefficient_probe_of_zero_coefficients_is_degenerate(monkeypatch):
    from grushin import verifier
    monkeypatch.setattr(verifier, "fourier_coeff_batch",
                        lambda piece, ls, eta1: np.zeros((ls.size, eta1.size)))
    rep = coefficient_decay_probe(1.0, 0.05, j_range=range(2, 5), workers=1)
    assert rep.verdict == "DEGENERATE-PASS"
    assert rep.max_ratio == 0.0


def test_family_fields_seeded_and_banded(riesz_grid):
    g = riesz_grid
    f1 = family_fields("hermite-bump", g, 3, band=(1 / 8, 0.49))
    f2 = family_fields("hermite-bump", g, 3, band=(1 / 8, 0.49))
    f3 = family_fields("hermite-bump", g, 4, band=(1 / 8, 0.49))
    assert np.array_equal(f1.coeffs, f2.coeffs)
    assert not np.array_equal(f1.coeffs, f3.coeffs)
    assert np.all(f1.lambda_abs >= 1 / 8 - 1e-12)
    two = family_fields("two-scale", g, 0, band=(1 / 16, 0.5))
    assert two.lambda_abs.min() < 0.14 < two.lambda_abs.max()
    with pytest.raises(KeyError):
        family_fields("nope", g, 0)
    assert live_eigenvalues(f1).max() <= 1.0 + 1e-12


def test_pointwise_kernel_probe_passes():
    rep = pointwise_kernel_probe(1.0, 0.0, 0.0, j_range=range(1, 5), seed=1)
    assert rep.verdict == "PASS"
    assert rep.slope <= 0.5 + 0.15
    with pytest.raises(ValueError):
        pointwise_kernel_probe(1.0, -1.0, 0.0)
    with pytest.raises(KeyError):
        pointwise_kernel_probe(1.0, 0.0, 0.0, variant="zz")


def test_pointwise_kernel_probe_deterministic():
    a = pointwise_kernel_probe(1.0, 0.0, 0.0, j_range=range(1, 4), seed=7)
    b = pointwise_kernel_probe(1.0, 0.0, 0.0, j_range=range(1, 4), seed=7,
                               workers=4)
    assert pickle.dumps((a.abscissa, a.ordinate, a.slope)) \
        == pickle.dumps((b.abscissa, b.ordinate, b.slope))


def test_weighted_plancherel_argument_validation():
    with pytest.raises(KeyError):
        weighted_plancherel_probe("nope")
    with pytest.raises(ValueError):
        weighted_plancherel_probe("linear_first_layer", gamma1=0.5)
    with pytest.raises(ValueError):
        weighted_plancherel_probe("second_layer", gamma1=0.25, gamma2=0.7)
    with pytest.raises(ValueError):
        weighted_plancherel_probe("truncated", n1=-1.0)


def test_coefficient_decay_probe_contract():
    rep = coefficient_decay_probe(1.0, 0.05, j_range=range(2, 7), l_max=256)
    assert rep.verdict == "PASS"
    assert rep.slope <= -1.0 + 0.05 + 0.15
    with pytest.raises(ValueError):
        coefficient_decay_probe(1.0, -0.5)


def test_coefficient_decay_doubling_alpha():
    r1 = coefficient_decay_probe(1.0, 0.05, j_range=range(2, 7), l_max=128)
    r2 = coefficient_decay_probe(2.0, 0.05, j_range=range(2, 7), l_max=128)
    assert r2.slope <= r1.slope - 0.7


def test_coefficient_decay_shell_clear_sharp_rate():
    rep = coefficient_decay_probe(1.0, 0.5, j_range=range(2, 8), l_max=512,
                                  shell_clear=True)
    assert rep.slope == pytest.approx(-0.5, abs=0.15)


def test_decay_probe_spec_validates_product_relation():
    # the output exponent follows from 1/p = 1/p1 + 1/p2
    assert DecayProbeSpec(alpha=1.0, p1=2, p2=2).p == 1.0
    assert DecayProbeSpec(alpha=1.0, p1=2, p2=math.inf).p == 2.0
    assert DecayProbeSpec(alpha=1.0, p1=math.inf, p2=math.inf).p == math.inf


def test_decay_probe_no_guarantee_labeling():
    spec = DecayProbeSpec(alpha=0.0, p1=2, p2=2, j_range=(1, 2, 3))
    rep = dyadic_decay_probe(spec)
    assert rep.verdict == "NO-GUARANTEE"


def test_decay_probe_degenerate_zero_field(riesz_grid):
    # zero-coefficient family member: all norms vanish, degenerate pass
    spec = DecayProbeSpec(alpha=1.0, p1=2, p2=2, j_range=(1, 2))
    grid = riesz_grid
    from grushin import verifier as V

    def zero_fields(name, seed, g):
        f = family_fields(name, g, seed)
        z = f.copy_with(np.zeros_like(f.coeffs))
        return z, z

    orig = V._decay_fields
    V._decay_fields = lambda name, seed, g: zero_fields(name, seed, g)
    try:
        rep = dyadic_decay_probe(spec, grid=grid)
    finally:
        V._decay_fields = orig
    assert rep.verdict == "DEGENERATE-PASS"


def test_mixed_probe_no_guarantee_below_threshold(riesz_grid):
    grid = riesz_grid
    rep = mixed_norm_decay_probe(1.0, j_range=range(1, 4), grid=grid)
    assert rep.verdict == "NO-GUARANTEE"
    # each piece's series cutoff and tail, as build_expansion reports them
    f, _ = _decay_fields("hermite-bump", 0, grid)
    exps = [build_expansion(DyadicPiece(j, 1.0), l_cap=2048,
                            eta1_samples=live_eigenvalues(f))
            for j in range(1, 4)]
    assert rep.details["truncations"] == [e.truncation for e in exps]
    assert rep.details["tail_bounds"] == [e.tail_bound for e in exps]
    assert rep.details["expansion_cap_hits"] == sum(not e.converged
                                                    for e in exps)


def test_decay_probe_runs_bit_identical_across_workers(riesz_grid):
    spec = DecayProbeSpec(alpha=0.7, p1=2, p2=math.inf,
                          j_range=(1, 2, 3), seed=2)
    grid = riesz_grid
    a = dyadic_decay_probe(spec, grid=grid, workers=1)
    b = dyadic_decay_probe(spec, grid=grid, workers=8)
    c = dyadic_decay_probe(spec, grid=grid, workers=1)
    assert a.ordinate.tobytes() == b.ordinate.tobytes() == c.ordinate.tobytes()
    assert (a.slope, a.intercept) == (b.slope, b.intercept)


def test_restriction_probe_bounded_and_stable():
    from grushin.verifier import restriction_probe
    rep = restriction_probe(0.0)
    assert rep.verdict == "PASS"
    assert rep.details["refinement_growth"] < 0.05
    with pytest.raises(ValueError):
        restriction_probe(0.5)
    # With its grids' banks warm, the probe holds no bump field whole:
    # each refined field alone is 14.7 MB.
    assert traced_transient_mb(lambda: restriction_probe(0.0)) <= 6.0


def test_no_guarantee_counts_as_success():
    from grushin.report import PASSING_VERDICTS
    rep = ProbeReport.from_samples([1.0, 2.0], [0.0, 1.0])
    rep.verdict = "NO-GUARANTEE"
    assert rep.passed
    assert "NO-GUARANTEE" in PASSING_VERDICTS


def test_mixed_probe_slope_monotone_in_alpha(riesz_grid):
    g = riesz_grid
    fast = mixed_norm_decay_probe(1.6, j_range=range(1, 5), grid=g)
    faster = mixed_norm_decay_probe(3.0, j_range=range(1, 5), grid=g)
    assert faster.slope <= fast.slope


def test_kernel_sample_cache_tells_grids_apart():
    # Two grids from one spec are two cache keys; a third, other grid
    # gets its own values.  Every entry is read-only and correct.
    from grushin import verifier as V
    from grushin.calculus import bilinear_kernel_batch
    from grushin.dims import Dims
    from grushin.grid import GridSpec, make_grid
    from grushin.symbols import DyadicPiece, dyadic_piece_symbol

    spec = GridSpec(x1_extent=8.0, x1_count=32, x2_count=32, lambda_min=0.25,
                    lambda_max=2.0, lambda_count=8)
    grids = [make_grid(Dims(1, 1), spec) for _ in range(2)]
    grids.append(make_grid(Dims(1, 1), GridSpec(lambda_count=8)))
    sym = dyadic_piece_symbol(DyadicPiece(2, 1.0))
    triples = V._stratified_triples(0)
    misses = V._kernel_samples.cache_info().misses
    got = [V._kernel_samples(g, 1.0, 2, 0) for g in grids]
    assert V._kernel_samples.cache_info().misses == misses + 3
    assert not np.array_equal(got[0], got[2])
    for grid, vals in zip(grids, got):
        assert V._kernel_samples(grid, 1.0, 2, 0) is vals
        assert not vals.flags.writeable
        want = np.abs(bilinear_kernel_batch(sym, *zip(*triples), grid))
        assert np.array_equal(vals, want)


def test_truncated_probe_identical_across_workers():
    # The cutoff forms run under parallel_map and share the read-only
    # channel sums and grid bank built before it.
    a = weighted_plancherel_probe("truncated", workers=1)
    b = weighted_plancherel_probe("truncated", workers=4)
    assert a.ordinate.tobytes() == b.ordinate.tobytes()
    assert (a.slope, a.max_ratio, a.verdict) == (b.slope, b.max_ratio,
                                                 b.verdict)
    assert a.details == b.details
