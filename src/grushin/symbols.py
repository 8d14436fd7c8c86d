"""Multiplier symbols: truncated-power profiles, dyadic pieces, cutoffs.

All smooth bumps are pinned to one mollifier construction so results are
reproducible: the base bump on (1/2, 2) is

    b(t) = exp(-1/(t - 1/2) - 1/(2 - t)),

normalized by the (positive, dyadically periodic) sum D(t) =
sum_M b(2^M t), which enforces sum_M Theta(2^M t) = 1 for every t > 0
exactly by construction.  The plateau function used by the separated
path is 1 on [-1, 1] and 0 outside [-2, 2], built from the same
exp(-1/u) smooth step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dims import ConfigError, config_value, in_range, known_name


def _exp_inv(u):
    """exp(-1/u) for u > 0, 0 otherwise (smooth at 0)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def smooth_step(u):
    """C^inf step: 0 for u <= 0, 1 for u >= 1."""
    a = _exp_inv(u)
    b = _exp_inv(1.0 - np.asarray(u, dtype=float))
    return np.divide(a, a + b, out=np.zeros_like(a), where=(a + b) > 0)


def mollifier_bump(t):
    """The base bump b(t) on (1/2, 2), zero elsewhere."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0.5) & (t < 2.0)
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (ti - 0.5) - 1.0 / (2.0 - ti))
    return out


def dyadic_bump(t):
    """Normalized bump: Theta(t) = b(t) / sum_M b(2^M t); partition of
    unity over dyadic scales for t > 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0.5) & (t < 2.0)  # b, so Theta, vanishes elsewhere
    ti = t[inside]
    num = mollifier_bump(ti)
    # Only b(t) and one neighbour are nonzero: b(2t) below 1, b(t/2) above.
    den = num + mollifier_bump(np.ldexp(ti, np.where(ti < 1.0, 1, -1)))
    out[inside] = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return out


def plateau(t):
    """Smooth plateau: 1 on [-1, 1], 0 outside [-2, 2]."""
    t = np.abs(np.asarray(t, dtype=float))
    return 1.0 - smooth_step(t - 1.0)


def truncated_power(t, alpha: float):
    """(t)_+^alpha with the convention 0^alpha = 0 (also for alpha = 0)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = t[pos] ** alpha if alpha != 0 else 1.0
    return out


def distinct(values):
    """The sorted distinct entries of ``values``, and the index of each
    entry among them (shaped like ``values``)."""
    uniq, inv = np.unique(values, return_inverse=True)
    return uniq, inv.reshape(np.shape(values))


# ---------------------------------------------------------------------------
# symbol types

@dataclass
class Symbol1D:
    """A multiplier F(eta) with declared support interval."""

    evaluator: callable
    support: tuple[float, float]

    def __call__(self, eta):
        eta = np.asarray(eta, dtype=float)
        lo, hi = self.support
        inside = (eta >= lo) & (eta <= hi)
        out = np.zeros(eta.shape, dtype=complex)
        if inside.any():
            out[inside] = self.evaluator(eta[inside])
        return out


@dataclass
class Symbol2D:
    """A bilinear multiplier G(eta1, eta2) with declared support box.

    The evaluator must be elementwise: it sees only points inside the
    box, either the broadcast inputs whole or the gathered inside points.
    """

    evaluator: callable
    support: tuple[tuple[float, float], tuple[float, float]]

    def __call__(self, eta1, eta2):
        eta1 = np.asarray(eta1, dtype=float)
        eta2 = np.asarray(eta2, dtype=float)
        (a1, b1), (a2, b2) = self.support
        inside = (eta1 >= a1) & (eta1 <= b1) & (eta2 >= a2) & (eta2 <= b2)
        out = np.zeros(np.broadcast(eta1, eta2).shape, dtype=complex)
        if inside.all():    # the evaluator is elementwise: nothing to gather
            out[...] = self.evaluator(eta1, eta2)
        elif inside.any():
            e1 = np.broadcast_to(eta1, out.shape)[inside]
            e2 = np.broadcast_to(eta2, out.shape)[inside]
            out[inside] = self.evaluator(e1, e2)
        return out

    def on_pairs(self, eta1, eta2):
        """The symbol on every pair (eta1[a], eta2[b]), evaluated once per
        pair of distinct values: (table, inv1, inv2), where
        table[inv1[a], inv2[b]] is self(eta1[a], eta2[b]) bit for bit and
        inv1, inv2 have the shapes of eta1, eta2."""
        (u1, inv1), (u2, inv2) = distinct(eta1), distinct(eta2)
        return self(u1[:, None], u2[None, :]), inv1, inv2


@dataclass(frozen=True)
class DyadicCutoff:
    """The scale-M cutoff Theta_M(tau) = Theta(2^M tau)."""

    M: int

    def __call__(self, tau):
        return dyadic_bump(np.ldexp(np.asarray(tau, dtype=float), self.M))


# ---------------------------------------------------------------------------
# concrete symbols

@dataclass(frozen=True)
class RieszParams:
    alpha: float
    R: float = 1.0

    def __post_init__(self):
        in_range("alpha", self.alpha, 0)
        in_range("R", self.R, 0, lo_open=True)


@dataclass(frozen=True)
class DyadicPiece:
    """Dyadic localization of the truncated power near its vanishing set."""

    j: int
    alpha: float

    def __post_init__(self):
        in_range("j", self.j, 0)
        in_range("alpha", self.alpha, 0)

    @property
    def shell(self) -> tuple[float, float]:
        return (2.0 ** (-self.j - 1), 2.0 ** (-self.j + 1))


def riesz_symbol(params: RieszParams) -> Symbol2D:
    """(1 - (eta1 + eta2)/R)_+^alpha on the quadrant box [0, R]^2."""
    alpha, R = params.alpha, params.R
    return Symbol2D(lambda e1, e2: truncated_power(1.0 - (e1 + e2) / R, alpha),
                    ((0.0, R), (0.0, R)))


def dyadic_piece_profile(piece: DyadicPiece):
    """The 1-variable profile u_j(s) = s_+^alpha * phi(2^j s) of the piece,
    as a function of s = 1 - eta1 - eta2."""
    j, alpha = piece.j, piece.alpha

    def profile(s):
        return truncated_power(s, alpha) * dyadic_bump(np.ldexp(
            np.asarray(s, dtype=float), j))

    return profile


def dyadic_piece_symbol(piece: DyadicPiece) -> Symbol2D:
    """The dyadic piece as a 2-variable symbol restricted to [0, 1]^2: its
    profile at s = 1 - eta1 - eta2, exactly 0 outside the open shell."""
    profile = dyadic_piece_profile(piece)
    return Symbol2D(lambda e1, e2: profile(1.0 - e1 - e2),
                    ((0.0, 1.0), (0.0, 1.0)))


def indicator_symbol_1d(lo: float = 0.0, hi: float = 1.0) -> Symbol1D:
    return Symbol1D(lambda e: np.ones_like(e), (lo, hi))


def gaussian_symbol_1d(center: float = 0.5, width: float = 0.15) -> Symbol1D:
    """Gaussian profile, cut to zero beyond five widths from the center."""
    return Symbol1D(lambda e: np.exp(-0.5 * ((e - center) / width) ** 2),
                    (center - 5.0 * width, center + 5.0 * width))


def bump_symbol_1d(lo: float, hi: float) -> Symbol1D:
    """Smooth bump compactly supported inside (lo, hi)."""
    mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def ev(e):
        u = (np.asarray(e, dtype=float) - mid) / rad
        return _exp_inv(1.0 - u * u) * np.e  # normalized to 1 at the center

    return Symbol1D(ev, (lo, hi))


@dataclass
class SeparableSymbol2D(Symbol2D):
    """Tensor product of two 1-D symbols; keeps the factors accessible."""

    factor1: Symbol1D = None
    factor2: Symbol1D = None


def tensor_symbol(f1: Symbol1D, f2: Symbol1D) -> SeparableSymbol2D:
    return SeparableSymbol2D(
        evaluator=lambda e1, e2: f1(e1) * f2(e2),
        support=(f1.support, f2.support), factor1=f1, factor2=f2)


def _finite(p, key: str, default: float, lo: float = -np.inf) -> float:
    """Symbol parameter ``key``: finite, and above ``lo``."""
    return in_range(key, config_value(p, key, default), lo, lo_open=True)


def _bump(p):
    return bump_symbol_1d(_finite(p, "lo", 0.25), _finite(p, "hi", 0.75))


# 2-D symbols first: the order an unknown name's error lists them in.
_BUILTIN = {
    "riesz": lambda p: riesz_symbol(RieszParams(config_value(p, "alpha", 1.0),
                                                config_value(p, "R", 1.0))),
    "dyadic": lambda p: dyadic_piece_symbol(
        DyadicPiece(config_value(p, "j", 2), config_value(p, "alpha", 1.0))),
    "tensor-bump": lambda p: tensor_symbol(_bump(p), _bump(p)),
    "indicator": lambda p: indicator_symbol_1d(_finite(p, "lo", 0.0),
                                               _finite(p, "hi", 1.0)),
    "gaussian": lambda p: gaussian_symbol_1d(_finite(p, "center", 0.5),
                                             _finite(p, "width", 0.15, 0)),
    "bump": _bump,
}


def builtin_symbol(name: str, **params) -> Symbol1D | Symbol2D:
    """The built-in symbol ``name``; UnknownName naming every built-in if
    there is none.  ``params`` are its ``symbol.*`` config keys without the
    prefix, and a ConfigError names the parameter with it."""
    build = _BUILTIN[known_name("symbol", name, _BUILTIN)]
    try:
        return build(params)
    except ConfigError as err:
        raise ConfigError(f"symbol.{err.args[0]}") from None
