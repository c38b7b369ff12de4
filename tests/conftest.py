import numpy as np
import pytest

from rankregret import Dataset

# the 7-point, 2-attribute worked example used throughout the tests;
# labels t1..t7 map to ids 0..6
FIG1_VALUES = np.array([
    [0.80, 0.28],  # t1
    [0.54, 0.45],  # t2
    [0.67, 0.60],  # t3
    [0.32, 0.42],  # t4
    [0.46, 0.72],  # t5
    [0.23, 0.52],  # t6
    [0.91, 0.43],  # t7
])

T = {f"t{i + 1}": i for i in range(7)}


def tids(*labels):
    return frozenset(T[name] for name in labels)


@pytest.fixture
def fig1():
    return Dataset(FIG1_VALUES)


def random_dataset(rng, n, d):
    return Dataset(rng.random((n, d)))


def anticorrelated(rng, n, d):
    """Uniform points shifted onto sum(x) = d * c, c ~ N(0.5, 0.05); points
    leaving the unit cube are drawn again."""
    out = np.empty((0, d))
    while len(out) < n:
        x = rng.random((n, d))
        c = rng.normal(0.5, 0.05, size=(n, 1))
        x += c - x.mean(axis=1, keepdims=True)
        out = np.vstack([out, x[((x >= 0) & (x <= 1)).all(axis=1)]])
    return out[:n]


def grid_with_duplicates(rng, n, d):
    """Values i/q with q in 3..7 and a tenth of the rows copied."""
    q = int(rng.integers(3, 8))
    values = rng.integers(0, q + 1, size=(n, d)) / q
    copies = rng.choice(n, size=max(1, n // 10), replace=False)
    values[copies] = values[rng.choice(n, size=copies.size)]
    return values


def tie_heavy_2d(rng, i):
    """2-D values with exact ties and near-tied crossings, by ``i % 3``:
    an i/q grid (q in 3..11), values rounded to 1 decimal, or a uniform
    half with every row copied; n in 3..44."""
    n = int(rng.integers(3, 45))
    if i % 3 == 0:
        q = int(rng.integers(3, 12))
        return rng.integers(0, q + 1, (n, 2)) / q
    if i % 3 == 1:
        return np.round(rng.random((n, 2)), 1)
    half = rng.random(((n + 1) // 2, 2))
    return np.concatenate([half, half])[:n]
