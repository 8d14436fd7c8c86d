"""Acceptance criteria, one test per numbered item.

Property-based checks at desk scale (both layers one-dimensional, with a
spot check at (2, 1)); every tolerance is pinned here.  Each test prints
a single PASS/FAIL line.
"""

import math
import pickle

import numpy as np
import pytest

from grushin.dims import Dims
from grushin.fields import SpectralField, analyze, lp_norm, synthesize
from grushin.grid import GridSpec, make_grid
from grushin.hermite import (build_hermite_table, hermite_all,
                             hermite_second_derivative, multi_indices_upto)
from grushin.riesz import (bilinear_apply_direct, bilinear_apply_separated,
                           build_expansion, dilation_covariance_check)
from grushin.symbols import (DyadicPiece, RieszParams, dyadic_piece_symbol,
                             truncated_power)
from grushin.thresholds import figure_corners, threshold
from grushin.verifier import (DecayProbeSpec, coefficient_decay_probe,
                              dyadic_decay_probe, family_fields,
                              live_eigenvalues, mixed_norm_decay_probe,
                              pointwise_kernel_probe,
                              weighted_plancherel_probe)

from conftest import random_field


def _verdict(number, label, ok, detail=""):
    print(f"ACCEPTANCE {number:02d} {label}: "
          f"{'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({label}) failed: {detail}"


def test_acceptance_01_hermite_orthonormality():
    tab = build_hermite_table(32)
    gram = (tab.values * tab.weights) @ tab.values.T
    gram_dev = float(np.max(np.abs(gram - np.eye(33))))
    t = np.linspace(-20.0, 20.0, 401)
    vals = hermite_all(256, t)
    rec = 0.0
    for l in range(1, 256):
        lhs = vals[l + 1]
        rhs = (t * np.sqrt(2.0 / (l + 1)) * vals[l]
               - np.sqrt(l / (l + 1.0)) * vals[l - 1])
        scale = max(np.max(np.abs(lhs)), 1e-300)
        rec = max(rec, float(np.max(np.abs(lhs - rhs)) / scale))
    ok = gram_dev <= 1e-8 and rec <= 1e-12
    _verdict(1, "hermite orthonormality", ok,
             f"gram={gram_dev:.2e} recurrence={rec:.2e}")


def test_acceptance_02_eigenrelation():
    worst_spec, worst_fd = 0.0, 0.0
    for lam in (0.25, 1.0, 4.0):
        for mu in range(0, 9):
            t = np.linspace(-6.0, 6.0, 201)
            u = np.sqrt(lam) * t
            h = hermite_all(mu, u)[mu]
            h2 = hermite_second_derivative(mu, u)
            resid = -lam * h2 + lam * u * u * h - (2 * mu + 1) * lam * h
            scale = np.max(np.abs((2 * mu + 1) * lam * h))
            worst_spec = max(worst_spec, float(np.max(np.abs(resid)) / scale))

            step = 2e-3
            tt = np.arange(-8.0, 8.0, step)
            phi = lam ** 0.25 * hermite_all(mu, np.sqrt(lam) * tt)[mu]
            d2 = (-phi[:-4] + 16 * phi[1:-3] - 30 * phi[2:-2]
                  + 16 * phi[3:-1] - phi[4:]) / (12 * step * step)
            inner = slice(2, -2)
            resid = -d2 + (lam * tt[inner]) ** 2 * phi[inner] \
                - (2 * mu + 1) * lam * phi[inner]
            scale = np.max(np.abs((2 * mu + 1) * lam * phi))
            worst_fd = max(worst_fd, float(np.max(np.abs(resid)) / scale))
    ok = worst_spec <= 1e-10 and worst_fd <= 1e-5
    _verdict(2, "scaled eigenrelation", ok,
             f"ladder={worst_spec:.2e} fd={worst_fd:.2e}")


def test_acceptance_03_roundtrip_and_plancherel(default_grid):
    g = default_grid
    f = random_field(g, (1.25, 2.0), 16, seed=11)
    h = synthesize(f, g)
    back = analyze(h, 16, lambda_support=f.lambda_support)
    roundtrip = float(np.max(np.abs(back.coeffs - f.coeffs))
                      / np.max(np.abs(f.coeffs)))
    idx = [g.lambda_index(lam) for lam in f.lambda_support]
    w = g.lambda_weights[np.asarray(idx)]
    plancherel = (2 * np.pi) ** -1 * float(np.sum(w[:, None]
                                                  * np.abs(f.coeffs) ** 2))
    plan_err = abs(lp_norm(h, 2.0) ** 2 - plancherel) / plancherel
    # spot check at layer dimensions (2, 1)
    g21 = make_grid(Dims(2, 1), GridSpec(d1=2, d2=1, x1_extent=16,
                                         x1_count=48, x2_count=64,
                                         lambda_min=0.25, lambda_max=2.0,
                                         lambda_count=8))
    f21 = random_field(g21, (1.0, 2.0), 4, seed=12)
    h21 = synthesize(f21, g21)
    back21 = analyze(h21, 4, lambda_support=f21.lambda_support)
    rt21 = float(np.max(np.abs(back21.coeffs - f21.coeffs))
                 / np.max(np.abs(f21.coeffs)))
    ok = roundtrip <= 1e-6 and plan_err <= 1e-6 and rt21 <= 1e-6
    _verdict(3, "roundtrip + plancherel", ok,
             f"roundtrip={roundtrip:.2e} plancherel={plan_err:.2e} "
             f"(2,1)-spot={rt21:.2e}")


def test_acceptance_04_partition_reconstruction():
    e1 = np.linspace(0, 1, 301)
    e2 = np.linspace(0, 1, 299)
    E1, E2 = np.meshgrid(e1, e2, indexing="ij")
    s = 1.0 - E1 - E2
    mask = (s >= 2.0 ** -12) | (s <= 0)
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        total = np.zeros_like(E1, dtype=complex)
        for j in range(13):
            total += dyadic_piece_symbol(DyadicPiece(j, alpha))(E1, E2)
        target = truncated_power(s, alpha)
        worst = max(worst, float(np.max(np.abs(total - target)[mask])))
    _verdict(4, "dyadic partition", worst <= 1e-10, f"max dev={worst:.2e}")


def test_acceptance_05_separated_vs_direct(riesz_grid):
    g = riesz_grid
    # live eigenvalues stay clear of the shell windows of j = 2..4, where
    # the zero extension's series converges slowly
    f = random_field(g, (0.34, 0.495), 4, seed=21)
    h = random_field(g, (0.34, 0.495), 4, seed=22)
    live = live_eigenvalues(f)
    worst = 0.0
    for j in (2, 3, 4):
        for alpha in (1.0, 2.0):
            exp = build_expansion(DyadicPiece(j, alpha), eta1_samples=live,
                                  tol=1e-8)
            sep = bilinear_apply_separated(exp, f, h, g)
            direct = bilinear_apply_direct(
                dyadic_piece_symbol(DyadicPiece(j, alpha)), f, h, g)
            den = np.sqrt(np.sum(np.abs(direct.values) ** 2))
            dev = float(np.sqrt(np.sum(np.abs(sep.values - direct.values)
                                       ** 2)) / den)
            worst = max(worst, dev)
    _verdict(5, "separated vs direct", worst <= 1e-6, f"max relL2={worst:.2e}")


def test_acceptance_06_coefficient_decay_slope():
    details = []
    ok = True
    for alpha in (1.0, 2.0):
        rep = coefficient_decay_probe(alpha, beta=0.05, j_range=range(2, 9),
                                      l_max=512)
        details.append(f"alpha={alpha}: slope={rep.slope:.3f}")
        ok = ok and abs(rep.slope - (-alpha)) <= 0.15
    _verdict(6, "coefficient decay", ok, "; ".join(details))


def test_acceptance_07_dilation_covariance(dilation_grid):
    g = dilation_grid
    rng = np.random.default_rng(31)
    sup = np.array([[v * s] for s in (-1, 1) for v in (0.25, 0.5, 0.75)])
    n_mu = len(multi_indices_upto(1, 2))

    def field(seed):
        r = np.random.default_rng(seed)
        return SpectralField(g.dims, sup, 2,
                             r.normal(size=(len(sup), n_mu))
                             + 1j * r.normal(size=(len(sup), n_mu)))

    f, h = field(1), field(2)
    worst = 0.0
    for t in (2.0, 0.5):
        rep = dilation_covariance_check(RieszParams(1.0, t * t),
                                        f, h, t, g)
        worst = max(worst, rep.max_ratio)
    _verdict(7, "dilation covariance", worst <= 1e-4, f"max dev={worst:.2e}")


def test_acceptance_08_weighted_plancherel():
    details = []
    ok = True
    for kind, kwargs in (
            ("linear_first_layer", dict(gamma1=0.25)),
            ("bilinear", dict()),
            ("second_layer", dict(gamma1=0.25, gamma2=0.4))):
        rep = weighted_plancherel_probe(kind, **kwargs)
        growth = rep.details["refinement_growth"]
        details.append(f"{kind}: ratio={rep.max_ratio:.3g} "
                       f"growth={growth:.2%}")
        ok = ok and rep.verdict == "PASS" and growth < 0.05 \
            and np.isfinite(rep.max_ratio)
    rep = weighted_plancherel_probe("truncated", n1=1.0, n2=0.0)
    target = rep.details["slope_target"]
    details.append(f"truncated: slope={rep.slope:.3f} target={target}")
    ok = ok and abs(rep.slope - target) <= 0.15
    _verdict(8, "weighted plancherel", ok, "; ".join(details))


@pytest.mark.parametrize("beta1,beta2", [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)])
def test_acceptance_09_pointwise_kernel(beta1, beta2):
    details = []
    ok = True
    for variant in ("xx", "xz", "xy", "yz"):
        rep = pointwise_kernel_probe(1.0, beta1, beta2,
                                     j_range=range(1, 7), variant=variant,
                                     seed=5)
        bound = beta1 + beta2 + 0.5 + 0.15
        details.append(f"{variant}: {rep.slope:.2f}<= {bound:.2f}")
        ok = ok and rep.slope <= bound
    _verdict(9, f"pointwise kernel ({beta1:g},{beta2:g})", ok,
             "; ".join(details))


@pytest.mark.parametrize("p1,p2,p,alpha,corner", [
    (2.0, 2.0, 1.0, 0.5, 0.0),
    (math.inf, math.inf, math.inf, 2.0, 1.5),
    (1.0, math.inf, 1.0, 1.7, 1.5),
    (2.0, math.inf, 2.0, 0.7, 0.5),
])
def test_acceptance_10_dyadic_decay(p1, p2, p, alpha, corner):
    spec = DecayProbeSpec(alpha=alpha, p1=p1, p2=p2,
                          j_range=(1, 2, 3, 4, 5, 6), seed=3)
    rep = dyadic_decay_probe(spec)
    assert rep.details["corner_threshold"] == pytest.approx(corner)
    ok = rep.verdict == "PASS" and rep.slope <= -0.1
    _verdict(10, f"dyadic decay ({p1:g},{p2:g},{p:g})", ok,
             f"alpha={alpha} slope={rep.slope:.3f}")


def test_acceptance_11_mixed_norm_decay():
    rep = mixed_norm_decay_probe(1.6, j_range=range(1, 7), seed=3)
    ok = rep.verdict == "PASS" and rep.slope <= -0.1
    _verdict(11, "mixed-norm decay", ok, f"slope={rep.slope:.3f}")


def test_acceptance_12_threshold_tables():
    d11 = Dims(1, 1)
    d, q = d11.total_dim, d11.homogeneous_dim
    dk = d11.threshold_dim
    general = {
        (0.0, 0.0): d - 0.5, (0.5, 0.0): (d - 1) / 2, (0.0, 0.5): (d - 1) / 2,
        (1.0, 0.0): q / 2, (0.0, 1.0): q / 2, (0.5, 0.5): 0.0,
        (1.0, 0.5): dk / 2, (0.5, 1.0): dk / 2, (1.0, 1.0): dk,
    }
    restricted = {
        (0.0, 0.0): d - 0.5, (0.5, 0.0): (d - 1) / 2, (0.0, 0.5): (d - 1) / 2,
        (1.0, 0.0): d / 2, (0.0, 1.0): d / 2, (0.5, 0.5): 0.0,
        (1.0, 0.5): d / 2, (0.5, 1.0): d / 2, (1.0, 1.0): d,
    }
    ok = figure_corners(d11, "general") == pytest.approx(general)
    ok = ok and figure_corners(d11, "restricted") == pytest.approx(restricted)
    symmetric = True
    for i in range(21):
        for j in range(21):
            u, v = i / 20, j / 20
            p1 = math.inf if u == 0 else 1 / u
            p2 = math.inf if v == 0 else 1 / v
            a = threshold(p1, p2, d11).threshold
            b = threshold(p2, p1, d11).threshold
            if (a is None) != (b is None) or \
                    (a is not None and abs(a - b) > 1e-12):
                symmetric = False
    ok = ok and symmetric
    _verdict(12, "threshold tables", ok, f"symmetric={symmetric}")


def test_acceptance_13_determinism(riesz_grid):
    g = riesz_grid
    runs = []
    for workers in (1, 2, 8, 1):
        spec = DecayProbeSpec(alpha=0.7, p1=2.0, p2=math.inf,
                              j_range=(1, 2, 3), seed=9)
        rep = dyadic_decay_probe(spec, grid=g, workers=workers)
        runs.append(pickle.dumps((rep.abscissa.tobytes(),
                                  rep.ordinate.tobytes(),
                                  rep.slope, rep.intercept, rep.max_ratio)))
    probes_ok = len(set(runs)) == 1

    f = family_fields("hermite-bump", g, 17, band=(1 / 8, 0.49))
    h = family_fields("hermite-bump", g, 18, band=(1 / 8, 0.49))
    sym = dyadic_piece_symbol(DyadicPiece(2, 1.0))
    outs = {bilinear_apply_direct(sym, f, h, g).values.tobytes()
            for _ in range(3)}
    ops_ok = len(outs) == 1

    kernels = set()
    for workers in (1, 2, 8):
        rep = pointwise_kernel_probe(1.0, 0.0, 0.0, j_range=range(1, 4),
                                     seed=4, grid=g, workers=workers)
        kernels.add(rep.ordinate.tobytes())
    kern_ok = len(kernels) == 1

    ok = probes_ok and ops_ok and kern_ok
    _verdict(13, "determinism", ok,
             f"probe={probes_ok} operator={ops_ok} kernel={kern_ok}")
