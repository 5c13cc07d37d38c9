"""Evaluation: boundary AP and F1, turning-point agreement, and
Grad-CAM modality importance.

Turning-point agreement follows TRIPOD (Papalampidi et al., arXiv
1908.10328). Per turning-point event, S = {the argmax scene} and G is
the set of gold scenes; averaged over events and times 100:

- TA (total agreement) = |S & G| / |S | G|;
- PA (partial agreement) = 1 if S & G is non-empty, else 0;
- D (distance) = min |s - g| over s in S, g in G, divided by the
  number of scenes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import alignfuse as af
from .errors import DataError

METRICS_SCHEMA = "cineseg-metrics"
METRICS_VERSION = 1


@dataclass
class MetricsReport:
    task: str
    values: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    threshold: float | None = None
    seed: int | None = None

    def to_json(self) -> dict:
        return {
            "schema": METRICS_SCHEMA,
            "version": METRICS_VERSION,
            "task": self.task,
            "values": {k: float(v) for k, v in sorted(self.values.items())},
            "flags": sorted(self.flags),
            "threshold": self.threshold,
            "seed": self.seed,
        }


# ---- boundary metrics ----


def average_precision(scores, labels) -> float:
    """Rank-accumulation AP: mean precision at each positive, scores
    descending. Tied scores form one threshold: each positive takes the
    precision at the end of its tie group, so AP depends only on the
    multiset of (score, label) pairs, as scikit-learn's
    average_precision_score does."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DataError(f"scores {scores.shape} and labels {labels.shape} must be matching vectors")
    if not (labels == 1).any():
        raise DataError("average precision needs at least one positive label")
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order] == 1
    hits = np.cumsum(ranked)
    sorted_scores = scores[order]
    # the last position of every run of equal scores, then for each
    # positive the end of its run (its own position when untied)
    ends = np.flatnonzero(np.append(sorted_scores[1:] != sorted_scores[:-1], True))
    at = ends[np.searchsorted(ends, np.flatnonzero(ranked))]
    return float((hits[at] / (at + 1)).mean())


def f1_at(scores, labels, threshold: float):
    """F1 with predictions = (score >= threshold). Returns (f1, degenerate)
    where degenerate flags the no-predicted-positives fallback to 0."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels) == 1
    predicted = scores >= threshold
    if not predicted.any():
        return 0.0, True
    true_pos = (predicted & labels).sum()
    if true_pos == 0:
        return 0.0, False
    precision = true_pos / predicted.sum()
    recall = true_pos / labels.sum()
    return float(2 * precision * recall / (precision + recall)), False


def best_f1(scores, labels):
    """Best (f1, threshold) over thresholds at each unique score, as f1_at computes
    F1: the first maximum in ascending order, or (0.0, inf) if none is above 0."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    # a tie group's threshold predicts its scores and all above but NaN (sorted last)
    starts = np.flatnonzero(np.append(True, ranked[1:] != ranked[:-1]))
    end = np.searchsorted(ranked, np.inf, side="right")
    hits = np.append(0, np.cumsum(np.asarray(labels)[order] == 1))
    true_pos, predicted = hits[end] - hits[starts], end - starts
    with np.errstate(divide="ignore", invalid="ignore"):
        precision, recall = true_pos / predicted, true_pos / hits[-1]
        value = np.where(true_pos > 0, 2 * precision * recall / (precision + recall), 0.0)
    best = int(np.argmax(value))
    if value[best] > 0.0:
        return float(value[best]), float(ranked[starts[best]])
    return 0.0, float("inf")


# ---- turning-point agreement ----


def tp_metrics(events):
    """Pooled TRIPOD TA/PA/D over TP events from any number of movies.

    events: iterable of (predicted_scene, gold_scene_set, total_scenes),
    with S = {predicted_scene} and G = gold_scene_set. Returns a dict
    with the percentages ta and pa and the scaled distance d.
    """
    events = list(events)
    if not events:
        raise DataError("tp_metrics needs at least one event")
    ta, pa, distances = [], [], []
    for predicted, gold, total_scenes in events:
        gold = {int(g) for g in gold}
        if not gold:
            raise DataError("a turning point with an empty gold set cannot be scored")
        if total_scenes < 1:
            raise DataError("total_scenes must be positive")
        predicted = {int(predicted)}
        ta.append(len(predicted & gold) / len(predicted | gold))
        pa.append(float(bool(predicted & gold)))
        distances.append(min(abs(s - g) for s in predicted for g in gold) / total_scenes)
    return {
        "ta": 100.0 * float(np.mean(ta)),
        "pa": 100.0 * float(np.mean(pa)),
        "d": 100.0 * float(np.mean(distances)),
    }


# ---- modality importance ----


def modality_slices(config) -> list[slice]:
    width = config.width
    return [slice(m * width, (m + 1) * width) for m in range(config.num_modalities)]


def _normalize_importance(raw: np.ndarray):
    """ReLU then normalize across modalities; all-zero falls back to
    uniform with a flag."""
    raw = np.maximum(np.asarray(raw, dtype=np.float64), 0.0)
    total = raw.sum()
    if total <= 0.0:
        return np.full(raw.shape, 1.0 / raw.size), True
    return raw / total, False


def gradcam_importance(model, feats_list):
    """Per-modality Grad-CAM importance for one input sequence.

    The selected output y* is the max-class logit of the row the scene
    head reads (af.scene_head_rows) for a scene model (two classes), and
    the sum over turning points of the max-shot logit for an act model.
    The head is linear, so the gradient of y* with respect to a selected
    row's activation a is the head column head.w[:, n], and modality m's raw
    score is sum_c head.w[c, n] * a[c] over its channel slice, summed
    over the selected (row, class) pairs. Scores are rectified and
    normalized to sum to one. Returns (weights [M], uniform_fallback).
    """
    cfg = model.config
    rows = af.encode_sequence(model, feats_list)
    if cfg.num_classes == 2:
        rows = af.scene_head_rows(rows)
        selections = [(0, int(np.argmax(af.apply_head(model, rows).data[0])))]
    else:
        logits = af.apply_head(model, rows).data
        selections = [(int(np.argmax(logits[:, n])), n) for n in range(cfg.num_classes)]

    head_w = model.params["head.w"].data
    raw = np.zeros(cfg.num_modalities)
    for i, n in selections:
        contribution = head_w[:, n] * rows.data[i]
        for m, channels in enumerate(modality_slices(cfg)):
            raw[m] += contribution[channels].sum()
    return _normalize_importance(raw)
