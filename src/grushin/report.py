"""Regression-style probe reports: per-abscissa values plus a fitted line,
and each probe's pass rule, applied by the constructor of its report."""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

#: Verdicts that count as success for aggregate pass/fail purposes.
PASSING_VERDICTS = ("PASS", "DEGENERATE-PASS", "NO-GUARANTEE")
#: Largest growth of a probe's ratios under one refinement doubling.
REFINEMENT_TOL = 0.05
SLOPE_TOL = 0.15          # log2 slope tolerance at desk scale
DECAY_SLOPE_TOL = 0.1     # decay probes must fit at or below -this


def fit_line(abscissa, ordinate) -> tuple[float, float]:
    """Least-squares slope/intercept of ordinate on abscissa (slope 0 if n < 2)."""
    x = np.asarray(abscissa, dtype=float)
    y = np.asarray(ordinate, dtype=float)
    if x.size != y.size:
        raise ValueError("abscissa and ordinate lengths differ")
    if x.size == 0:
        return 0.0, 0.0
    if x.size == 1:
        return 0.0, float(y[0])
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


@dataclass
class ProbeReport:
    """Output of a verifier probe.

    ``abscissa`` is typically the dyadic index j (or a cutoff index M),
    ``ordinate`` the log2 of the measured quantity.  ``slope`` and
    ``intercept`` are the least-squares fit of ordinate on abscissa and
    ``max_ratio`` carries the largest measured LHS/RHS ratio for
    bound-style probes.
    """

    abscissa: np.ndarray
    ordinate: np.ndarray
    slope: float
    intercept: float
    max_ratio: float = float("nan")
    verdict: str = ""
    details: dict = field(default_factory=dict)

    @classmethod
    def from_samples(cls, abscissa, ordinate, max_ratio=float("nan"), **details):
        slope, intercept = fit_line(abscissa, ordinate)
        return cls(abscissa=np.asarray(abscissa, dtype=float),
                   ordinate=np.asarray(ordinate, dtype=float), slope=slope,
                   intercept=intercept, max_ratio=float(max_ratio),
                   details=dict(details))

    @classmethod
    def slope_bound(cls, abscissa, measured, bound, **details):
        """Fit of log2 ``measured`` (values >= 0) on ``abscissa``:
        DEGENERATE-PASS when every value is 0, else NO-GUARANTEE when
        ``bound`` is None, else PASS when the slope is at most ``bound``."""
        measured = np.asarray(measured, dtype=float)
        report = cls.from_samples(abscissa, log2_safe(measured), np.max(measured),
                                  **details, slope_bound=bound)
        report.verdict = ("DEGENERATE-PASS" if not measured.any() else
                          "NO-GUARANTEE" if bound is None else
                          "PASS" if report.slope <= bound else "FAIL")
        return report

    @classmethod
    def refinement(cls, abscissa, ratios, refined, max_ratio, **details):
        """Fit of log2 ``ratios`` on ``abscissa``: PASS when ``refined``, the
        ratios after one refinement doubling, grow by below REFINEMENT_TOL."""
        growth = float(np.max(refined / np.maximum(ratios, 1e-300))) - 1.0
        report = cls.from_samples(abscissa, log2_safe(ratios), max_ratio,
                                  **details, ratios=ratios.tolist(),
                                  refinement_growth=growth)
        report.verdict = "PASS" if growth < REFINEMENT_TOL else "FAIL"
        return report

    @classmethod
    def slope_target(cls, abscissa, ordinate, target, max_ratio, **details):
        """Fit of ``ordinate`` on ``abscissa``: PASS when the slope lies
        within SLOPE_TOL of ``target`` on either side."""
        report = cls.from_samples(abscissa, ordinate, max_ratio, **details,
                                  slope_target=target)
        report.verdict = ("PASS" if abs(report.slope - target) <= SLOPE_TOL
                          else "FAIL")
        return report

    @classmethod
    def deviation(cls, dev: float, tol: float, reference=None, **details):
        """Report of one measured deviation, divided by ``reference`` if one
        is given: DEGENERATE-PASS when that is 0 (the deviation reads 0),
        else PASS when the deviation is at most ``tol``."""
        if reference is not None:
            details["reference"] = reference
            dev = dev / reference if reference else 0.0
        report = cls.from_samples([0.0], [np.log2(max(dev, 1e-300))],
                                  max_ratio=dev, **details)
        report.verdict = ("DEGENERATE-PASS" if reference == 0.0 else
                          "PASS" if dev <= tol else "FAIL")
        return report

    @property
    def passed(self) -> bool:
        return self.verdict in PASSING_VERDICTS

    def fitted(self) -> np.ndarray:
        return self.slope * self.abscissa + self.intercept

    def residual(self) -> np.ndarray:
        return self.ordinate - self.fitted()

    def to_csv(self) -> str:
        """Serialize as CSV: verdict and fit comments, then the data rows."""
        buf = io.StringIO()
        buf.write(f"# verdict={self.verdict or 'NONE'}\n")
        buf.write(f"# slope={self.slope!r} intercept={self.intercept!r} "
                  f"max_ratio={self.max_ratio!r}\n")
        buf.write("abscissa,ordinate,fitted,residual\n")
        for row in zip(self.abscissa, self.ordinate, self.fitted(),
                       self.residual()):
            buf.write(csv_row(*row))
        return buf.getvalue()


def csv_row(*values) -> str:
    """One CSV line of plain round-trip floats (numpy scalars would print
    as ``np.float64(...)``)."""
    return ",".join(repr(float(v)) for v in values) + "\n"


def log2_safe(values) -> np.ndarray:
    """log2 with a floor of 1e-300, so exact zeros do not poison
    regression fits."""
    return np.log2(np.maximum(np.asarray(values, dtype=float), 1e-300))
