"""Shot-to-synopsis synchronization by expectation maximization.

The E-step is closed form: a shot-sentence pair is assigned (w_ij = 1)
exactly when its cosine similarity clears the sentence's threshold
lambda_j (a high percentile of column j, 99th by default) and the pair
lies inside a diagonal band of half-width xi. That binary matrix is the
exact maximizer of sum_ij w_ij * (m_ij - lambda_j) over in-band binary
matrices, because the objective separates per cell.

The M-step trains the feature extractors with a symmetric multi-positive
contrastive loss over a batch of movies. Queries are shots in one
direction and sentences in the other; positives come from the E-step,
negatives are out-of-band pairs of the same movie plus every pair
across movies, and in-band non-positives of the same movie are left out
of the denominator entirely. Temperature is learned in log space and
clamped to [1e-3, 10]. trainer.train_act alternates the two steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import alignfuse as af
from . import numcore as nc
from .dataio import atomic_write
from .errors import ConfigError, ContractError, ShapeError
from .numcore import Tensor

DEFAULT_BAND_XI = 0.3
DEFAULT_PERCENTILE = 99.0
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


def compute_similarity(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Shot-by-sentence similarities u @ v.T (cosines for unit-norm rows),
    the product the M-step and distillation take; dividing by 1.0 is exact."""
    return nc.scaled_scores(u, v, 1.0).data


def check_e_step_config(xi: float, percentile: float) -> None:
    """ConfigError unless the band is non-empty (0 < xi < inf) and the
    threshold percentile lies in [0, 100]."""
    if not 0 < xi < np.inf:
        raise ConfigError(f"em_xi (the band half-width) must be positive and finite, got {xi}")
    if not 0 <= percentile <= 100:
        raise ConfigError(f"em_percentile must lie in [0, 100], got {percentile}")


def lambda_per_sentence(values: np.ndarray, percentile: float = DEFAULT_PERCENTILE) -> np.ndarray:
    """Per-sentence threshold: the given percentile of each similarity column,
    with linear interpolation between order statistics."""
    return np.percentile(values, percentile, axis=0, method="linear")


def band_mask(num_shots: int, num_sentences: int, xi: float = DEFAULT_BAND_XI) -> np.ndarray:
    """Diagonal band: pairs whose positions agree up to a xi fraction slack."""
    i = np.arange(num_shots)[:, None]
    j = np.arange(num_sentences)[None, :]
    lo = j < i * (num_sentences / num_shots) + xi * num_sentences
    hi = i < j * (num_shots / num_sentences) + xi * num_shots
    return lo & hi


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
        rng = np.random.default_rng(seed)
        limit = np.sqrt(6.0 / (fused_width + proj_dim))
        self.params: dict[str, Tensor] = {
            "sync.proj.w": Tensor(
                rng.uniform(-limit, limit, size=(fused_width, proj_dim)), requires_grad=True
            ),
            "sync.proj.b": Tensor(np.zeros(proj_dim), requires_grad=True),
            "sync.log_tau": Tensor(np.log(TAU_INIT), requires_grad=True),
        }
        self.proj_dim = proj_dim
        self.fused_width = fused_width

    def features(self, fused: Tensor) -> Tensor:
        """Project fused rows into the sync space and L2-normalize them."""
        if fused.shape[-1] != self.fused_width:
            raise ShapeError(
                f"sync head expects width {self.fused_width}, got {fused.shape[-1]}"
            )
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


def sync_features(shot_model, synopsis_model, head: SyncHead, shot_feats, synopsis_feats):
    """Evaluation-mode unit-norm sync features (u, v) for one movie."""
    u = head.features(af.encode_sequence(shot_model, shot_feats))
    v = head.features(af.encode_sequence(synopsis_model, [synopsis_feats]))
    return u.data, v.data


def run_e_step(
    shot_model,
    synopsis_model,
    head: SyncHead,
    movie_inputs,
    xi: float = DEFAULT_BAND_XI,
    percentile: float = DEFAULT_PERCENTILE,
):
    """E-step over every movie with the current parameters (no gradients)."""
    syncs = []
    for shot_feats, synopsis_feats in movie_inputs:
        u, v = sync_features(shot_model, synopsis_model, head, shot_feats, synopsis_feats)
        values = compute_similarity(u, v)
        syncs.append(e_step(values, lambda_per_sentence(values, percentile), xi))
    return syncs


# ---- exports ----


def _rle_encode(w: np.ndarray) -> list:
    """Run lengths of alternating values from the zero run: a list per row."""
    values = np.atleast_2d(np.asarray(w).astype(np.int64))  # int() of each entry
    rows, width = values.shape
    # a run ends before each change of value and at the end of its row
    ends = np.ones((rows, width + 1), dtype=bool)
    ends[:, :width] = np.diff(values, axis=1, prepend=0) != 0
    at = np.flatnonzero(ends)
    # ends as offsets into the rows laid end to end: a row starts where the last ended
    runs = np.diff(at - at // (width + 1), prepend=0).tolist()
    stops = np.cumsum(ends.sum(axis=1)).tolist()
    out = [runs[start:stop] for start, stop in zip([0] + stops[:-1], stops)]
    return out if np.ndim(w) > 1 else out[0]


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
