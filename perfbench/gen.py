"""Seeded synthetic inputs for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns a float64
array with values strictly inside (0, 1) (or rounded copies of such), so
the same seed always yields the same bytes.
"""

import numpy as np

#: anti-correlated plane offsets are drawn from N(ANTI_MEAN, ANTI_SD)
ANTI_MEAN = 0.5
ANTI_SD = 0.05


def uniform(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n points drawn uniformly from the open unit cube."""
    out = rng.random((n, d))
    # random() is in [0, 1); an exact 0 is possible in principle, and a tie
    # at the cube boundary is exactly what the inputs should not contain
    while np.any(out == 0.0):
        bad = out == 0.0
        out[bad] = rng.random(int(bad.sum()))
    return out


def anticorrelated(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n points near the planes sum(x) = d*c, c ~ N(0.5, 0.05), in (0, 1)^d.

    Each candidate is a uniform point shifted along the diagonal onto its
    plane; candidates that leave the open cube are rejected, never clipped,
    so no attribute piles up ties at 0 or 1 (Borzsonyi et al., ICDE 2001).
    """
    rows = []
    have = 0
    while have < n:
        m = 2 * (n - have) + 64
        c = rng.normal(ANTI_MEAN, ANTI_SD, size=(m, 1))
        y = rng.random((m, d))
        x = y - y.mean(axis=1, keepdims=True) + c
        x = x[np.all((x > 0.0) & (x < 1.0), axis=1)]
        rows.append(x[: n - have])
        have += rows[-1].shape[0]
    return np.concatenate(rows)


def rounded(values: np.ndarray, decimals: int) -> np.ndarray:
    """Values rounded to ``decimals`` places: ties on every attribute."""
    return np.round(values, decimals)
