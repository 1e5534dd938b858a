"""Small quadrature helpers shared by the energy and modal modules."""
from __future__ import annotations

import numpy as np


def gauss_nodes_1d(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def tensor_grid(x1_bounds, x2_bounds, n1: int, n2: int):
    """Tensor Gauss grid: meshes X1, X2 of shape (n1, n2) plus weight mesh W."""
    x1, w1 = gauss_nodes_1d(*x1_bounds, n1)
    x2, w2 = gauss_nodes_1d(*x2_bounds, n2)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    W = np.outer(w1, w2)
    return X1, X2, W


def simpson_uniform(values: np.ndarray, h: float) -> float:
    """Composite Simpson on uniformly spaced samples (odd count)."""
    n = len(values)
    if n < 3 or n % 2 == 0:
        raise ValueError("simpson_uniform needs an odd number of samples >= 3")
    acc = values[0] + values[-1] + 4.0 * np.sum(values[1:-1:2]) \
        + 2.0 * np.sum(values[2:-1:2])
    return float(h / 3.0 * acc)

