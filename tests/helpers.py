"""Helpers that several test modules share."""

import numpy as np

import cineseg.alignfuse as af
import cineseg.numcore as nc
from cineseg import sync


def weighted_sum(x, r=1.0):
    """sum(x * r) as a scalar loss: one linear node over a flat view of
    the tensor x, whose weight column is the constant r broadcast to x's
    shape."""
    w = np.broadcast_to(np.asarray(r, dtype=np.float64), x.shape).reshape(-1, 1)
    return nc.reshape(nc.linear(nc.reshape(x, (1, -1)), w, np.zeros(1)), ())


def record_fusion_lengths(monkeypatch) -> list:
    """Wrap alignfuse._encoder_block so that every fusion block it runs
    appends, once per tower, the length of the sequence that tower
    attends over; returns the list it fills."""
    lengths, block = [], af._encoder_block

    def recording(model, prefix, x):
        if prefix.startswith("fus"):
            lengths.extend([x.shape[-2]] * x.shape[-3])
        return block(model, prefix, x)

    monkeypatch.setattr(af, "_encoder_block", recording)
    return lengths


def e_step_by_movie(shot_model, synopsis_model, head, movie_inputs, xi=sync.DEFAULT_BAND_XI):
    """sync.run_e_step as one forward per movie and tower, with numpy's
    own percentile: the reference its grouped forwards must match."""
    syncs = []
    for shot_feats, synopsis_feats in movie_inputs:
        u = head.features(af.encode_sequence(shot_model, shot_feats))
        v = head.features(af.encode_sequence(synopsis_model, [synopsis_feats]))
        values = nc.scaled_scores(u, v, 1.0).data
        lambdas = np.percentile(values, sync.E_STEP_PERCENTILE, axis=0, method="linear")
        syncs.append(sync.e_step(values, lambdas, xi))
    return syncs
