"""Deterministic reductions, Gauss-Legendre rules and parallel mapping.

Every summation that defines a library result goes through
``pairwise_sum`` so the floating-point tree shape is fixed by the data
alone.  ``parallel_map`` distributes *independent* work items over a
thread pool and reassembles results in submission order, so outputs are
bit-identical for any worker count.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def pairwise_sum(values, axis: int = 0):
    """Sum along ``axis`` with a fixed-shape binary tree.

    The tree is a function of the axis length only, never of execution
    order, so results are reproducible to the last bit.
    """
    a = np.moveaxis(np.asarray(values), axis, 0)
    if a.shape[0] == 0:
        return np.zeros(a.shape[1:], dtype=a.dtype)
    return pairwise_levels(a, (a.shape[0] - 1).bit_length())[0]


def pairwise_levels(a: np.ndarray, levels: int) -> np.ndarray:
    """``levels`` levels of ``pairwise_sum``'s tree along axis 0.  A block
    whose start and length are multiples of 2**levels, or that ends the
    array, reduces to exactly its slice of the whole array's level array."""
    for _ in range(levels):
        a = (np.concatenate([a[:-1:2] + a[1::2], a[-1:]], axis=0)
             if a.shape[0] % 2 else a[0::2] + a[1::2])
    return a


@lru_cache(maxsize=16)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the n-point rule on [-1, 1].
    numpy.polynomial loads on first use: importing it slows start-up."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def parallel_map(fn, items, workers: int | None = None) -> list:
    """Map a pure function over items, preserving order.

    ``fn`` must not mutate shared state.  With ``workers > 1`` the items
    run on a thread pool; the result list is identical to the serial one.
    ``workers=None`` runs one worker.
    """
    items = list(items)
    n = max(1, int(workers or 1))
    if n == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # imported here, so a serial run does not load it (0.6 MB resident)
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
