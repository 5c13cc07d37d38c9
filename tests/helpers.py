"""Helpers that several test modules share."""

import numpy as np

import cineseg.numcore as nc


def weighted_sum(x, r=1.0):
    """sum(x * r) as a scalar loss: one linear node over a flat view of
    the tensor x, whose weight column is the constant r broadcast to x's
    shape."""
    w = np.broadcast_to(np.asarray(r, dtype=np.float64), x.shape).reshape(-1, 1)
    return nc.reshape(nc.linear(nc.reshape(x, (1, -1)), w, np.zeros(1)), ())
