"""Hermite functions, their scaled variants, and spectral projections.

The one-dimensional Hermite functions are generated by the normalized
three-term recurrence

    h_{l+1}(t) = t*sqrt(2/(l+1))*h_l(t) - sqrt(l/(l+1))*h_{l-1}(t),

seeded with h_0(t) = pi^{-1/4} exp(-t^2/2).  Factorials never appear, so
the recurrence is stable to degree 512 and beyond.  An exponent carry
guards the Gaussian tail against underflow; tails below 1e-300 flush to
exactly zero.

Multi-indices mu with |mu| = k are enumerated in colexicographic order
(last component compared first), fixed so coefficient layouts are
reproducible across implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import trapezoid_weights

_PI_M14 = np.pi ** -0.25
_TAIL_FLUSH = 1e-300
_RESCALE_LIMIT = 1e280
_RESCALE_EXP = 512  # rescale by 2**±512 when magnitudes leave range


def hermite_all(max_l: int, t) -> np.ndarray:
    """Values h_l(t) for l = 0..max_l; shape (max_l+1,) + t.shape."""
    if max_l < 0:
        raise ValueError("max_l must be >= 0")
    t = np.asarray(t, dtype=float)
    out = _recurrence(t.reshape(1, -1), [1] * (max_l + 1))
    return out.reshape((max_l + 1,) + t.shape)


def hermite_ragged(top, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ragged table of h_l(t[i]) for l = 0..top[i], every row i at once.

    ``t`` has shape (rows, points) and ``top`` one level per row.  Rows
    are sorted by top level, so at level l only a leading slice of them
    keeps advancing: the work is sum_i (top[i]+1) * points.  Returns
    (table, start, rank) with h_l(t[i]) = table[start[l] + rank[i]],
    bit for bit equal to ``hermite_all(top[i], t[i])[l]``.
    """
    top = np.asarray(top, dtype=int)
    t = np.asarray(t, dtype=float)
    if top.size == 0 or top.min() < 0:
        raise ValueError("need at least one row, every top level >= 0")
    order = np.argsort(-top, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    # counts[l] = rows still running at level l: the block length of l.
    counts = np.cumsum(np.bincount(top)[::-1])[::-1]
    start = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return _recurrence(t[order], counts.tolist()), start, rank


def _recurrence(t: np.ndarray, counts: list[int]) -> np.ndarray:
    """Level-major table of the three-term recurrence over t (rows, points).

    Block l of the result holds h_l at the leading ``counts[l]`` rows of
    t; counts must not increase, so every state array shrinks to a
    prefix slice as rows reach their top level.
    """
    out = np.empty((sum(counts), t.shape[1]))
    tf = t[:counts[0]]
    half_t2 = 0.5 * tf * tf
    # Carry h_l = v_l * 2**expo with v in a safe magnitude window, seeded
    # in base-2 exponent form to survive exp(-t^2/2) underflow.
    e0 = -half_t2 / np.log(2.0)
    expo = np.floor(e0).astype(np.int64)
    v_cur = _PI_M14 * np.exp2(e0 - expo)
    v_prev = np.zeros_like(v_cur)        # h_{-1} = 0: level 1 is one step
    pos, n = 0, counts[0]
    out[:n] = _emit(v_cur, expo)
    for l in range(len(counts) - 1):
        pos += n
        n = counts[l + 1]
        if n < v_cur.shape[0]:
            tf, v_prev, v_cur, expo = tf[:n], v_prev[:n], v_cur[:n], expo[:n]
        v_prev, v_cur = v_cur, _step(l, tf, v_cur, v_prev)
        big = np.abs(v_cur) > _RESCALE_LIMIT
        if big.any():
            v_cur[big] = np.ldexp(v_cur[big], -_RESCALE_EXP)
            v_prev[big] = np.ldexp(v_prev[big], -_RESCALE_EXP)
            expo[big] += _RESCALE_EXP
        out[pos:pos + n] = _emit(v_cur, expo)
    return out


def _step(l: int, t, h_cur, h_prev):
    """The three-term recurrence: h_{l+1}(t) from h_l(t) and h_{l-1}(t)."""
    return t * np.sqrt(2.0 / (l + 1)) * h_cur - np.sqrt(l / (l + 1.0)) * h_prev


def _emit(v, expo):
    h = np.ldexp(v, expo.astype(np.int32, copy=False))
    h[np.abs(h) < _TAIL_FLUSH] = 0.0
    return h


def hermite_eval(l: int, t):
    """The l-th Hermite function at t (scalar in, scalar out)."""
    vals = hermite_all(l, np.asarray(t, dtype=float))[l]
    return vals if vals.shape else float(vals)


def hermite_second_derivative(l: int, t):
    """h_l''(t) via two ladder steps (exact, no finite differences)."""
    tab = hermite_all(l + 2, np.asarray(t, dtype=float))
    low = tab[l - 2] if l >= 2 else 0.0
    return (np.sqrt(l * (l - 1)) / 2.0 * low
            - (2 * l + 1) / 2.0 * tab[l]
            + np.sqrt((l + 1) * (l + 2)) / 2.0 * tab[l + 2])


@dataclass(frozen=True)
class HermiteTable:
    """Tabulated h_l over a quadrature grid, with trapezoid weights."""

    max_l: int
    nodes: np.ndarray
    values: np.ndarray  # shape (max_l+1, len(nodes))
    weights: np.ndarray


def build_hermite_table(max_l: int) -> HermiteTable:
    """Table over a uniform grid wide/fine enough for discrete orthonormality.

    The extent covers the classical turning point sqrt(2*max_l+1) with
    margin; the spacing is 0.05.
    """
    extent = 1.6 * np.sqrt(2.0 * max_l + 1.0) + 4.0
    count = int(np.ceil(2.0 * extent / 0.05)) | 1
    nodes = np.linspace(-extent, extent, count)
    return HermiteTable(max_l=max_l, nodes=nodes, values=hermite_all(max_l, nodes),
                        weights=trapezoid_weights(count, nodes[1] - nodes[0],
                                                  periodic=False))


def multi_indices(d1: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All mu in N^{d1} with |mu| = k, colexicographic (last component first)."""
    if d1 < 1 or k < 0:
        raise ValueError("need d1 >= 1, k >= 0")
    if d1 == 1:
        return ((k,),)
    return tuple(head + (last,) for last in range(k + 1)
                 for head in multi_indices(d1 - 1, k - last))


@lru_cache(maxsize=32)
def multi_indices_upto(d1: int, max_degree: int) -> tuple[tuple[int, ...], ...]:
    """Multi-indices with |mu| <= max_degree, by degree then colex within degree."""
    return tuple(mu for k in range(max_degree + 1)
                 for mu in multi_indices(d1, k))


@lru_cache(maxsize=32)
def multi_index_degrees(d1: int, max_degree: int) -> np.ndarray:
    """|mu| for every mu of ``multi_indices_upto(d1, max_degree)``; read-only."""
    deg = np.array([sum(mu) for mu in multi_indices_upto(d1, max_degree)])
    deg.flags.writeable = False
    return deg


def _lambda_norm(lam) -> float:
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    norm = float(np.sqrt(np.sum(lam * lam)))
    if norm == 0.0:
        raise ValueError("lambda must be nonzero")
    return norm


def scaled_hermite_eval(mu, lam, x1) -> np.ndarray:
    """Scaled Hermite function |lam|^{d1/4} * prod_j h_{mu_j}(|lam|^{1/2} x1_j).

    ``x1`` may be a point of shape (d1,) or a batch (n, d1); returns the
    matching scalar/vector.
    """
    mu = tuple(np.atleast_1d(mu).astype(int))
    norm = _lambda_norm(lam)
    x1 = np.asarray(x1, dtype=float)
    squeeze = x1.ndim == 1
    pts = x1.reshape(-1, len(mu))
    root = np.sqrt(norm)
    val = norm ** (len(mu) / 4.0) * np.ones(pts.shape[0])
    for j, m in enumerate(mu):
        val = val * hermite_all(m, root * pts[:, j])[m]
    return float(val[0]) if (squeeze and pts.shape[0] == 1) else val


def scaled_profile_matrix(max_degree: int, lam, x1_nodes: np.ndarray) -> np.ndarray:
    """Matrix Phi[mu, x] of scaled Hermite functions over a 1-axis grid batch.

    ``x1_nodes`` has shape (n, d1); rows of the result follow
    ``multi_indices_upto(d1, max_degree)``.  The one-node case of
    ``scaled_profile_bank``.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    return scaled_profile_bank(max_degree, lam[None], x1_nodes)[0]


def scaled_profile_bank(max_degree: int, lam, x1_nodes) -> np.ndarray:
    """Phi[i, mu, x]: ``scaled_profile_matrix`` at every frequency node
    lam[i] of ``lam`` (n_nodes, d2) at once."""
    pts = np.asarray(x1_nodes, dtype=float).reshape(len(x1_nodes), -1)
    lam = np.asarray(lam, dtype=float)
    mus = np.array(multi_indices_upto(pts.shape[1], max_degree))
    n = lam.shape[0]
    rows = _profile_rows(lam, np.repeat(np.arange(n), len(mus)),
                         np.tile(mus, (n, 1)), pts)
    return rows.reshape(n, len(mus), pts.shape[0])


def _profile_rows(lam: np.ndarray, node: np.ndarray, mu: np.ndarray,
                  points: np.ndarray) -> np.ndarray:
    """Rows |lam_n|^{d1/4} prod_j h_{mu_j}(|lam_n|^{1/2} p_j) over ``points``.

    ``lam`` (n_nodes, d2) holds the frequency nodes; row r is multi-index
    mu[r] at node node[r], and ``points`` has shape (n, d1).  Each x'-axis
    is one ragged Hermite recurrence over every node and point, each node
    to the highest index its rows ask for.  Bit for bit equal to the rows
    of ``scaled_profile_matrix`` at each node.
    """
    d1 = points.shape[1]
    if d1 != mu.shape[1]:
        raise ValueError(f"x' points need d1 = {mu.shape[1]} coordinates")
    norm = np.sqrt(np.sum(lam * lam, axis=1))
    if np.any(norm == 0.0):
        raise ValueError("lambda must be nonzero")
    top = np.zeros(norm.size, dtype=int)
    np.maximum.at(top, node, mu.max(axis=1))
    # Python-float powers: numpy's array power can differ in the last bit.
    scale = np.array([v ** (d1 / 4.0) for v in norm.tolist()])
    t = np.sqrt(norm)[:, None, None] * points[None]
    for j in range(d1):
        table, start, rank = hermite_ragged(top, t[:, :, j])
        rows = table[start[mu[:, j]] + rank[node]]
        bank = rows if j == 0 else bank * rows
    bank *= scale[node][:, None]
    return bank


def projection_kernel(k: int, lam, x1, y1):
    """Eigenspace kernel sum_{|mu|=k} Phi_mu^lam(x1) Phi_mu^lam(y1).

    ``x1``/``y1`` may be points (d1,) or aligned batches (n, d1);
    symmetric in (x1, y1).
    """
    norm = _lambda_norm(lam)
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    y1 = np.atleast_1d(np.asarray(y1, dtype=float))
    squeeze = x1.ndim == 1
    xs, ys = x1.reshape(-1, x1.shape[-1]), y1.reshape(-1, y1.shape[-1])
    d1 = xs.shape[1]
    root = np.sqrt(norm)
    tx = [hermite_all(k, root * xs[:, j]) for j in range(d1)]
    ty = [hermite_all(k, root * ys[:, j]) for j in range(d1)]
    acc = np.zeros(xs.shape[0])
    for mu in multi_indices(d1, k):
        term = np.ones(xs.shape[0])
        for j, m in enumerate(mu):
            term = term * tx[j][m] * ty[j][m]
        acc += term
    acc *= norm ** (d1 / 2.0)
    return float(acc[0]) if (squeeze and acc.size == 1) else acc
