"""Gauss-Legendre quadrature helpers shared by the energy, modal and ODE modules."""
from __future__ import annotations

import numpy as np

# gauss_nodes_1d(0.0, 1.0, 8) to the bit: ODE runs need not load numpy.polynomial
GAUSS_8_UNIT = (np.array([0.019855071751231912, 0.10166676129318664, 0.2372337950418355,
    0.4082826787521751, 0.5917173212478248, 0.7627662049581645, 0.8983332387068134,
    0.9801449282487681]), np.array([0.05061426814518853, 0.11119051722668721,
    0.15685332293894344, 0.18134189168918083, 0.18134189168918083, 0.15685332293894344,
    0.11119051722668721, 0.05061426814518853]))


_UNIT_RULES = {}  # n -> leggauss(n), read-only: each n is computed once per process


def gauss_nodes_1d(a: float, b: float, n: int):
    """Gauss-Legendre nodes and weights mapped to [a, b], as new arrays."""
    if n not in _UNIT_RULES:
        rule = np.polynomial.legendre.leggauss(n)
        for arr in rule:
            arr.flags.writeable = False
        _UNIT_RULES[n] = rule
    x, w = _UNIT_RULES[n]
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
