"""Reduction kernels over partition cells.

Everything in this package reduces values over the cells of a partition
(label array): probability-weighted sums for conditioning and block
integrals, per-cell maxima for measurable majorants.
"""

import numpy as np


def cell_sums(labels, n_cells, weights):
    # labels: int array, weights: float array of equal length
    return np.bincount(labels, weights=weights, minlength=n_cells)


def cell_max(labels, n_cells, values):
    out = np.full(n_cells, -np.inf)
    np.maximum.at(out, labels, values)
    return out
