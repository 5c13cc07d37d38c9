"""Shot-to-synopsis synchronization by expectation maximization.

The E-step is closed form: a shot-sentence pair is assigned (w_ij = 1)
exactly when its cosine similarity clears the sentence's threshold
lambda_j (the 90th percentile of column j, E_STEP_PERCENTILE) and the pair
lies inside a diagonal band of half-width xi. That binary matrix is the
exact maximizer of sum_ij w_ij * (m_ij - lambda_j) over in-band binary
matrices, because the objective separates per cell. Its forwards run
grouped (alignfuse.encode_sequences: at desk scale every synopsis in one,
the shots two movies at a time), and each movie keeps the bits of its
own forward, so no result depends on the grouping.

The M-step trains the feature extractors with a symmetric multi-positive
contrastive loss over a batch of movies. Queries are shots in one
direction and sentences in the other; positives come from the E-step,
negatives are out-of-band pairs of the same movie plus every pair
across movies, and in-band non-positives of the same movie are left out
of the denominator entirely. Temperature is learned in log space and
clamped to [1e-3, 10]. trainer.train_act alternates the two steps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import alignfuse as af
from . import numcore as nc
from .dataio import atomic_write
from .errors import ContractError, ShapeError
from .numcore import Tensor

DEFAULT_BAND_XI = 0.3
E_STEP_PERCENTILE = 90.0
TAU_INIT = 0.07
LOG_TAU_MIN = float(np.log(1e-3))
LOG_TAU_MAX = float(np.log(10.0))
_MASK_OFF = -1e9  # additive mask; keeps every intermediate finite


@dataclass
class SyncMatrix:
    """Binary shot-to-sentence assignment with the thresholds that made it."""

    w: np.ndarray  # [num_shots x num_sentences] in {0,1}
    xi: float
    lambdas: np.ndarray  # per-sentence thresholds


def lambda_per_sentence(values: np.ndarray) -> np.ndarray:
    """Per-sentence threshold: each column's E_STEP_PERCENTILE, linearly
    interpolated; np.percentile(..., axis=0, method="linear")'s bits from
    one sort and numpy's own lerp at virtual index (n - 1) q."""
    ordered = np.sort(values, axis=0)
    last = len(ordered) - 1
    at = last * (E_STEP_PERCENTILE / 100)
    lo = int(at)
    g = at - lo if lo < last else 1.0  # numpy's weight at the last value
    a, b = ordered[lo], ordered[min(lo + 1, last)]
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


@functools.lru_cache
def band_mask(num_shots: int, num_sentences: int, xi: float = DEFAULT_BAND_XI) -> np.ndarray:
    """Diagonal band: pairs whose positions agree up to a xi fraction
    slack; built once per shape and xi, and read-only."""
    i = np.arange(num_shots)[:, None]
    j = np.arange(num_sentences)[None, :]
    lo = j < i * (num_sentences / num_shots) + xi * num_sentences
    hi = i < j * (num_shots / num_sentences) + xi * num_shots
    band = lo & hi
    band.flags.writeable = False
    return band


def e_step(values: np.ndarray, lambdas: np.ndarray, xi: float = DEFAULT_BAND_XI) -> SyncMatrix:
    """Closed-form assignment: w_ij = 1 iff m_ij >= lambda_j and in band."""
    values = np.asarray(values, dtype=np.float64)
    lambdas = np.asarray(lambdas, dtype=np.float64)
    if lambdas.shape != (values.shape[1],):
        raise ShapeError(f"{lambdas.shape[0]} thresholds for {values.shape[1]} sentences")
    band = band_mask(values.shape[0], values.shape[1], xi)
    w = ((values >= lambdas[None, :]) & band).astype(np.float64)
    return SyncMatrix(w, xi, lambdas)


class SyncHead:
    """Shared projection to the synchronization space plus the temperature.

    One linear map serves both shot and synopsis fused features (their
    widths must match), followed by row L2-normalization, so similarities
    are cosines. The temperature parameter lives in log space.
    """

    def __init__(self, fused_width: int, proj_dim: int, seed):
        rng = af.initial_draws(seed)
        limit = np.sqrt(6.0 / (fused_width + proj_dim))
        self.params: dict[str, Tensor] = {
            "sync.proj.w": Tensor(
                rng.uniform(-limit, limit, size=(fused_width, proj_dim)), requires_grad=True
            ),
            "sync.proj.b": Tensor(np.zeros(proj_dim), requires_grad=True),
            "sync.log_tau": Tensor(np.log(TAU_INIT), requires_grad=True),
        }

    def features(self, fused: Tensor) -> Tensor:
        """Project fused rows into the sync space and L2-normalize them."""
        x = nc.linear(fused, self.params["sync.proj.w"], self.params["sync.proj.b"])
        return nc.normalize_rows(x)

    def tau(self) -> Tensor:
        return nc.exp(self.params["sync.log_tau"])

    def clamp_tau(self) -> None:
        data = self.params["sync.log_tau"].data
        np.clip(data, LOG_TAU_MIN, LOG_TAU_MAX, out=data)


def m_step_loss(terms, tau: Tensor) -> Tensor:
    """Symmetric multi-positive contrastive loss over one batch of movies.

    terms: per movie (u, v, w, band) with u [L_sh x P] and v [L_syn x P]
    unit-norm feature tensors, w the binary assignment, band the in-band
    mask. Each direction averages the per-query loss over queries that
    have at least one positive; queries without positives are skipped
    (skipped_queries counts them). Returns the sum of the two directions,
    or an untaped zero when no query has a positive.
    """
    if not terms:
        raise ContractError("m_step_loss needs at least one movie")
    u_all = nc.concat([t[0] for t in terms], -2)
    v_all = nc.concat([t[1] for t in terms], -2)
    total_sh, total_syn = u_all.shape[0], v_all.shape[0]

    pos = np.zeros((total_sh, total_syn))
    cand = np.ones((total_sh, total_syn), dtype=bool)
    oi = oj = 0
    for u, v, w, band in terms:
        ns, ny = u.shape[0], v.shape[0]
        if w.shape != (ns, ny) or band.shape != (ns, ny):
            raise ShapeError(f"assignment shape {w.shape} does not match features ({ns}, {ny})")
        block = (slice(oi, oi + ns), slice(oj, oj + ny))
        pos[block] = w
        cand[block] = (w > 0) | ~band
        oi += ns
        oj += ny
    if ((pos > 0) & ~cand).any():
        raise ContractError("every positive must be a candidate key")

    sims = nc.scaled_scores(u_all, v_all, tau, np.where(cand, 0.0, _MASK_OFF))

    pieces = []
    for axis in (1, 0):  # shot queries over sentence keys, then the reverse
        positives = pos.sum(axis=axis, keepdims=True)
        queries = int((positives > 0).sum())
        if queries:
            weights = np.divide(pos, positives, out=np.zeros_like(pos), where=positives > 0)
            pieces.append(nc.cross_entropy(sims, weights / queries, axis))
    if not pieces:
        return Tensor(0.0)
    return pieces[0] if len(pieces) == 1 else nc.add(pieces[0], pieces[1])


def skipped_queries(assignments) -> int:
    """Queries m_step_loss skips for want of a positive key: shots with
    no assigned sentence plus sentences with no assigned shot."""
    return sum(
        int((w.sum(axis=1) == 0).sum() + (w.sum(axis=0) == 0).sum()) for w in assignments
    )


def run_e_step(
    shot_model,
    synopsis_model,
    head: SyncHead,
    movie_inputs,
    xi: float = DEFAULT_BAND_XI,
):
    """E-step over every movie with the current parameters (no gradients):
    the evaluation-mode unit-norm sync features of its shots and sentences,
    then their cosines through the product the M-step and distillation
    take (dividing by 1.0 is exact). One SyncMatrix per movie, in input
    order; the towers run grouped (af.encode_sequences)."""
    shots = af.encode_sequences(shot_model, [feats for feats, _ in movie_inputs])
    sentences = af.encode_sequences(synopsis_model, [[syn] for _, syn in movie_inputs])
    values = [nc.scaled_scores(head.features(u), head.features(v), 1.0).data
              for u, v in zip(shots, sentences)]
    return [e_step(m, lambda_per_sentence(m), xi) for m in values]


def gold_agreement(w: np.ndarray, sentence_of: np.ndarray) -> dict:
    """The pairs w [shots x sentences] assigns, the share of them on each
    shot's planted sentence (None for none) and the share of shots on it."""
    assigned = int(w.sum())
    hits = int(w[np.arange(len(sentence_of)), sentence_of].sum())
    return {"assigned": assigned, "gold_precision": hits / assigned if assigned else None,
            "gold_recall": hits / len(sentence_of)}


# ---- exports ----


def _rle_encode(w: np.ndarray) -> list:
    """Run lengths of alternating values from the zero run: a list per
    row of the matrix w."""
    values = np.asarray(w).astype(np.int64)  # int() of each entry
    rows, width = values.shape
    # a run ends before each change of value and at the end of its row
    ends = np.ones((rows, width + 1), dtype=bool)
    ends[:, :width] = np.diff(values, axis=1, prepend=0) != 0
    at = np.flatnonzero(ends)
    # ends as offsets into the rows laid end to end: a row starts where the last ended
    runs = np.diff(at - at // (width + 1), prepend=0).tolist()
    stops = np.cumsum(ends.sum(axis=1)).tolist()
    return [runs[start:stop] for start, stop in zip([0] + stops[:-1], stops)]


def _rle_decode(runs: list[int], length: int) -> np.ndarray:
    row = np.zeros(length)
    pos, value = 0, 0
    for count in runs:
        if value:
            row[pos:pos + count] = 1.0
        pos += count
        value = 1 - value
    if pos != length:
        raise ContractError(f"run lengths cover {pos} of {length} entries")
    return row


def sync_to_json(sm: SyncMatrix) -> dict:
    """JSON-ready dict: dimensions, band width, thresholds, RLE rows."""
    return {
        "shots": int(sm.w.shape[0]),
        "sentences": int(sm.w.shape[1]),
        "xi": float(sm.xi),
        "lambdas": [float(x) for x in sm.lambdas],
        "rows": _rle_encode(sm.w),
    }


def sync_from_json(payload: dict) -> SyncMatrix:
    w = np.stack(
        [_rle_decode(runs, payload["sentences"]) for runs in payload["rows"]]
    ) if payload["rows"] else np.zeros((0, payload["sentences"]))
    return SyncMatrix(w, float(payload["xi"]), np.asarray(payload["lambdas"]))


def write_pgm(matrix: np.ndarray, path) -> None:
    """Render a matrix as a binary-format portable graymap (min-max scaled)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    lo, hi = matrix.min(), matrix.max()
    scaled = np.zeros_like(matrix) if hi == lo else (matrix - lo) / (hi - lo)
    pixels = np.round(scaled * 255).astype(np.uint8)
    header = f"P5\n{matrix.shape[1]} {matrix.shape[0]}\n255\n".encode("ascii")
    atomic_write(path, header + pixels.tobytes())
