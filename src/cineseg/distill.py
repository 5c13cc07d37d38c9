"""Transfer of synopsis turning-point supervision onto shot predictions.

Shot-sentence attention (row softmax of cosine similarities scaled by
the contrastive temperature, as in the contrastive loss) carries the
synopsis model's per-sentence turning-point logits onto shots. Both the
carried target distribution and the shot model's own prediction are
normalized over the shot axis per turning point, and the distillation
loss is the sum over turning points of KL(shot distribution ||
transferred target), one ``nc.kl_div`` node. The targets are constant
arrays, so distillation gradients reach the shot model only.
"""

from __future__ import annotations

import numpy as np

from . import numcore as nc
from .errors import DataError, NumericError
from .numcore import Tensor

PROB_FLOOR = 1e-12
LOSS_WEIGHTS = (1.0, 1.0, 10.0)  # contrastive, synopsis CE, distillation


def attention_weights(u, v, tau) -> Tensor:
    """Shot-over-sentence attention: row softmax of (u @ v.T) / tau."""
    return nc.softmax(nc.scaled_scores(u, v, tau), axis=1)


def transfer_targets(attn: Tensor, q) -> Tensor:
    """Carry sentence logits onto shots: shot-axis softmax of attn @ q.

    attn: [num_shots x num_sentences] row-stochastic; q: per-sentence
    turning-point logits [num_sentences x num_tp]. Columns of the result
    sum to one. Adding a constant to a column of q leaves the result
    unchanged because attention rows sum to one.
    """
    return nc.softmax(nc.linear(attn, q, np.zeros(q.shape[1])), axis=0)


def shot_distribution(logits) -> Tensor:
    """Per turning point, the shot-axis softmax of the shot logits."""
    return nc.softmax(logits, axis=0)


def kd_loss(shot_probs, target_probs) -> Tensor:
    """Sum over turning points of KL(shot column || target column).

    Expects column-stochastic matrices [num_shots x num_tp] of one shape,
    target_probs a constant array; entries are floored at 1e-12 before
    the logs.
    """
    return nc.kl_div(shot_probs, target_probs, PROB_FLOOR)


def synopsis_ce_loss(sentence_logits, tp_labels) -> Tensor:
    """Cross-entropy between sentence-axis softmax and the gold sentences.

    For each turning point the target is uniform over its gold sentence
    index set; the per-turning-point terms are summed.
    """
    num_sentences, num_tp = sentence_logits.shape
    if len(tp_labels) != num_tp:
        raise DataError(f"{len(tp_labels)} gold sets for {num_tp} turning points")
    target = np.zeros((num_sentences, num_tp))
    for n, gold in enumerate(tp_labels):
        if not gold:
            raise DataError(f"turning point {n} has an empty gold set")
        for s in gold:
            if not 0 <= s < num_sentences:
                raise DataError(f"gold sentence {s} out of range for {num_sentences} sentences")
            target[s, n] = 1.0 / len(gold)
    return nc.cross_entropy(sentence_logits, target, 0)


def total_loss(contrastive, synopsis_ce, distillation) -> Tensor:
    """Sum of the three objectives weighted by LOSS_WEIGHTS; rejects non-finite parts."""
    parts = {
        "contrastive": contrastive,
        "synopsis_ce": synopsis_ce,
        "distillation": distillation,
    }
    terms = []
    for (name, value), weight in zip(parts.items(), LOSS_WEIGHTS):
        # the values of a Tensor or of an array, without building a Tensor
        if not np.isfinite(getattr(value, "data", value)).all():
            raise NumericError(f"{name} component of the total loss is not finite")
        terms.append(nc.mul(value, weight))
    return nc.add(nc.add(terms[0], terms[1]), terms[2])
