"""Gauss-Legendre quadrature helpers shared by the energy, modal and ODE modules."""
from __future__ import annotations

import numpy as np


def gauss_nodes_1d(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def tensor_grid(region, n: int):
    """n x n tensor Gauss grid on (a1, b1) x (a2, b2), region = (a1, b1, a2, b2):
    meshes X1, X2 of shape (n, n) plus weight mesh W."""
    a1, b1, a2, b2 = region
    x1, w1 = gauss_nodes_1d(a1, b1, n)
    x2, w2 = gauss_nodes_1d(a2, b2, n)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    return X1, X2, np.outer(w1, w2)
