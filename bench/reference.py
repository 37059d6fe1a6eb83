"""A frozen reference computation, timed between requests.

This machine's speed swings by 15-30% over tens of seconds, because other
tenants share its cores, and a whole run is fast or slow together.  The
reference does the two kinds of work the program does, exact rational
elimination with sparse polynomial products and small numpy kernels, so
its time tracks those swings.  End-to-end times are also reported in units
of it.  Never change this file: that would move every relative metric.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

_MATRIX = [
    [Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1) for j in range(10)]
    for i in range(7)
]
_POLY = {(i, j, (i + j) % 3): Fraction(i - 3, j + 1) for i in range(6) for j in range(6)}
_POINTS = np.linspace(0.1, 0.9, 11 * 7).reshape(11, 7)
_EXPONENTS = (np.arange(60 * 7).reshape(60, 7) % 3).astype(np.int64)
_SUMS = np.ones((60, 25))


def _exact() -> int:
    m = [row[:] for row in _MATRIX]
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    prod: dict = {}
    for ea, ca in _POLY.items():
        for eb, cb in _POLY.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = prod.get(e, Fraction(0)) + ca * cb
            if s:
                prod[e] = s
            else:
                prod.pop(e, None)
    return rank + len(prod)


def _numeric() -> float:
    acc = 0.0
    for _ in range(60):
        vals = np.prod(_POINTS[:, np.newaxis, :] ** _EXPONENTS[np.newaxis, :, :], axis=2)
        m = np.eye(5)[np.newaxis] + 1e-3 * (vals @ _SUMS).reshape(11, 5, 5)
        acc += float(np.linalg.solve(m, np.ones((11, 5, 1))).sum())
    return acc


def reference_time() -> float:
    """Seconds one run of the reference computation takes now."""
    start = time.perf_counter()
    _exact()
    _numeric()
    return time.perf_counter() - start
