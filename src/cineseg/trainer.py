"""Optimizers and the two trainers: scene boundary windows with
class-weighted cross-entropy, and the joint act pipeline that alternates
the synchronization E-step with gradient steps on the combined objective.

Both trainers run one gradient loop, _fit, and differ only in how they
make an epoch's batches (the act ones after that epoch's E-step) and in
their objective: one batch's loss and the fields it adds to its step's
log record.

window_index owns the scene window geometry: the shot indices of the
window around each key shot, mirror-padded at movie edges. Evaluation
scores every shot that way and flags the padding in reports; training
stacks the training movies once and gathers each batch through one
index of the windows that stay inside their movie.

act_objective is the act loss of one batch of whole movies, and both
train_act and the gradient check call it: the contrastive term pools
the movies for negatives, the synopsis CE and distillation terms are
per-movie means, and the three are weighted into the total.

The optimizer keeps every parameter in one flat float64 vector (each
Tensor's data is a view of its slice), so an Adam step is a few
whole-vector operations instead of a Python loop over the tensors.
Each step's log record counts what would otherwise be a per-step
warning (single-class scene batches, skipped contrastive queries); a
run warns once with the totals it reads from the logs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import alignfuse as af
from . import distill
from . import metrics as mx
from . import numcore as nc
from . import sync
from .dataio import NUM_TURNING_POINTS
from .errors import ConfigError, ContractError, DataError, NumericError
from .numcore import Tensor

log = logging.getLogger(__name__)

MIRROR_EVAL_FLAG = "mirror-padded-eval"
SCENE_THRESHOLD = 0.5  # the boundary probability at which a shot ends a scene
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def flatten_params(params: dict) -> tuple[np.ndarray, list[slice]]:
    """Move every parameter into one contiguous float64 vector, in dict
    order, and rebind each Tensor's data to a view of its slice, so the
    Tensor objects stay the same and edits of the vector reach them.
    Returns the vector and the slices."""
    seen = {}
    for name, p in params.items():
        if id(p) in seen:
            raise ContractError(f"parameters '{seen[id(p)]}' and '{name}' are the same tensor")
        seen[id(p)] = name
    flat = np.empty(sum(p.data.size for p in params.values()))
    slices = []
    offset = 0
    for p in params.values():
        size = p.data.size
        view = flat[offset:offset + size].reshape(p.data.shape)
        view[...] = p.data
        p.data = view
        slices.append(slice(offset, offset + size))
        offset += size
    return flat, slices


class Optimizer:
    """SGD or bias-corrected Adam over a named parameter dict.

    The optimizer owns one contiguous float64 vector holding every
    parameter (flatten_params). A step gathers the gradients into a
    second vector and updates all parameters with a few whole-vector
    operations. A parameter without a gradient keeps its value and Adam
    moments; the update is masked over its slice.
    """

    def __init__(self, params: dict, kind: str = "adam", lr: float = 1e-4):
        if kind not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer kind {kind!r}")
        if not (np.isfinite(lr) and lr > 0):
            raise ConfigError(f"learning rate must be positive and finite, got {lr}")
        self.params = dict(params)
        self.kind = kind
        self.lr = float(lr)
        self.step_count = 0
        self.flat, self._slices = flatten_params(self.params)
        self._grad = np.zeros_like(self.flat)
        if kind == "adam":
            self._m = np.zeros_like(self.flat)
            self._v = np.zeros_like(self.flat)

    def zero_grad(self) -> None:
        nc.zero_grads(self.params.values())

    def _gather_grads(self):
        """Fill the gradient vector; True, or a mask of the live entries
        when some parameter has no gradient."""
        grad = self._grad
        missing = []
        for p, sl in zip(self.params.values(), self._slices):
            if p.grad is None:
                missing.append(sl)
                grad[sl] = 0.0
            else:
                grad[sl] = p.grad.reshape(-1)
        if not np.isfinite(grad).all():
            for name, sl in zip(self.params, self._slices):
                if not np.isfinite(grad[sl]).all():
                    raise NumericError(f"non-finite gradient for parameter '{name}'")
        if not missing:
            return True
        live = np.ones(grad.size, dtype=bool)
        for sl in missing:
            live[sl] = False
        return live

    def step(self) -> float:
        """Update every parameter once; returns the global L2 norm of
        the gathered gradient vector."""
        self.step_count += 1
        live = self._gather_grads()
        g = self._grad
        if self.kind == "sgd":
            update = self.lr * g
        else:
            m, v = self._m, self._v
            np.multiply(m, ADAM_BETA1, out=m, where=live)
            np.add(m, (1.0 - ADAM_BETA1) * g, out=m, where=live)
            np.multiply(v, ADAM_BETA2, out=v, where=live)
            np.add(v, (1.0 - ADAM_BETA2) * g * g, out=v, where=live)
            m_hat = m / (1.0 - ADAM_BETA1 ** self.step_count)
            v_hat = v / (1.0 - ADAM_BETA2 ** self.step_count)
            update = self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        np.subtract(self.flat, update, out=self.flat, where=live)
        # numpy's pairwise sum, not BLAS: the same bits on every run
        return float(np.sqrt((g * g).sum()))


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 1024
    optimizer: str = "adam"
    lr: float = 1e-4
    seed: int = 0
    holdout: int = 2
    loss_weights: tuple = distill.DEFAULT_LOSS_WEIGHTS
    em_xi: float = sync.DEFAULT_BAND_XI
    em_percentile: float = sync.DEFAULT_PERCENTILE
    sync_dim: int = 128

    def validate(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.holdout < 1:
            raise ConfigError("holdout must leave at least one evaluation movie")
        if len(self.loss_weights) != 3:
            raise ConfigError("loss_weights needs exactly three entries")
        if not all(np.isfinite(w) and w >= 0 for w in self.loss_weights):
            raise ConfigError(f"loss weights must be finite and >= 0, got {self.loss_weights}")


def weighted_scene_ce(logits: Tensor, labels) -> Tensor:
    """Class-weighted boundary cross-entropy, weight_c = batch/(2*count_c),
    normalized as a weighted mean. Single-class batches fall back to the
    unweighted mean; train_scene counts them."""
    labels = np.asarray(labels)
    batch = labels.shape[0]
    if batch == 0:
        raise DataError("weighted_scene_ce needs a non-empty batch")
    if logits.shape != (batch, 2):
        raise DataError(f"expected logits ({batch}, 2), got {logits.shape}")
    # exact 0 or 1 as passed: a cast first would truncate 0.5 or 1.9
    if not ((labels == 0) | (labels == 1)).all():
        raise DataError("scene labels must be binary")
    labels = labels.astype(np.int64)
    counts = np.bincount(labels, minlength=2)
    if counts.min() == 0:
        weights = np.ones(batch)
    else:
        weights = (batch / (2.0 * counts))[labels]
    target = np.zeros((batch, 2))
    target[np.arange(batch), labels] = weights / weights.sum()
    return nc.cross_entropy(logits, target, -1)


# ---- scene windows ----


def window_index(keys, half: int, num_shots: int) -> np.ndarray:
    """Shot indices of the window around each key shot [K x (2*half + 1)],
    mirror-padded at the movie edges (shot -1 reads shot 1, shot n reads
    shot n - 2)."""
    idx = np.asarray(keys, dtype=np.int64)[:, None] + np.arange(-half, half + 1)
    if num_shots == 1:
        return np.zeros_like(idx)
    period = 2 * (num_shots - 1)
    idx = np.abs(idx) % period
    return np.where(idx >= num_shots, period - idx, idx)


def check_scene_lengths(movies, model_cfg) -> None:
    """A DataError naming the first movie with no more shots than half a
    scene window, whose windows mirror padding cannot fill."""
    for movie in movies:
        if movie.num_shots <= model_cfg.seq_len // 2:
            raise DataError(f"movie {movie.movie_id} has {movie.num_shots} shots, "
                            f"too short for a {model_cfg.seq_len}-shot window")


def scene_shot_scores(model, movie) -> np.ndarray:
    """Boundary probability for every shot, with mirror-padded edge windows."""
    check_scene_lengths([movie], model.config)
    half = model.config.seq_len // 2
    n = movie.num_shots
    scores = np.empty(n)
    for start in range(0, n, 256):
        idx = window_index(np.arange(start, min(start + 256, n)), half, n)
        logits = af.forward_scene(model, [x[idx] for x in movie.streams])
        probs = nc.softmax(logits, axis=-1)
        scores[start:start + len(idx)] = probs.data[:, 1]
    return scores


def scene_report(per_movie_scores, eval_movies, epoch: int, seed: int) -> mx.MetricsReport:
    """Boundary metrics from each movie's scene_shot_scores."""
    bare = [movie.movie_id for movie in eval_movies if not movie.scene_labels.any()]
    if bare:
        raise DataError(f"movie {bare[0]} has no scene boundary, so its AP is undefined")
    per_movie_ap = [
        mx.average_precision(scores, movie.scene_labels)
        for scores, movie in zip(per_movie_scores, eval_movies)
    ]
    scores = np.concatenate(per_movie_scores)
    labels = np.concatenate([movie.scene_labels for movie in eval_movies])
    flags = [MIRROR_EVAL_FLAG]
    f1, degenerate = mx.f1_at(scores, labels, SCENE_THRESHOLD)
    if degenerate:
        flags.append("f1-no-predicted-positives")
    best, best_threshold = mx.best_f1(scores, labels)
    values = {
        "epoch": float(epoch),
        "ap": mx.average_precision(scores, labels),
        "ap_macro": float(np.mean(per_movie_ap)),
        "f1_at_threshold": f1,
        "best_f1": best,
        "best_f1_threshold": best_threshold,
        "positive_rate": float(np.mean(labels)),
    }
    return mx.MetricsReport(
        task="scene", values=values, flags=flags, threshold=SCENE_THRESHOLD, seed=seed
    )


def _start(movies, cfg: TrainConfig):
    """The prelude both trainers share: the config check first, then the
    train/eval split, then the shuffle and dropout streams and the model
    seed, three children of the run seed."""
    cfg.validate()
    if len(movies) <= cfg.holdout:
        raise ConfigError(
            f"{len(movies)} movies cannot spare {cfg.holdout} for evaluation"
        )
    shuffle_seed, dropout_seed, model_seed = np.random.SeedSequence(cfg.seed).spawn(3)
    return (movies[:-cfg.holdout], movies[-cfg.holdout:], np.random.default_rng(shuffle_seed),
            np.random.default_rng(dropout_seed), model_seed)


def _fit(cfg, trained, optimizer, batches, objective, report, checkpoint_dir, after_step=None):
    """The gradient loop of both trainers; returns (reports, logs).

    Each epoch steps once per batch of batches(): objective(batch) runs
    on the tape and returns the loss and its log fields, to which the
    step adds the common ones. Reports start with report(0), before any
    step, and each epoch ends with its report and checkpoint."""
    reports, logs = [report(0)], []
    for epoch in range(1, cfg.epochs + 1):
        for batch in batches():
            optimizer.zero_grad()
            with nc.Tape() as tape:
                loss, record = objective(batch)
            nc.backward(tape, loss)
            grad_norm = optimizer.step()
            if after_step is not None:
                after_step()
            logs.append({"step": len(logs) + 1, "epoch": epoch, "lr": cfg.lr,
                         "seed": cfg.seed, **record, "grad_norm": grad_norm})
        reports.append(report(epoch))
        _save_epoch(checkpoint_dir, epoch, trained)
    return reports, logs


def train_scene(movies, model_cfg: af.ModelConfig, cfg: TrainConfig, checkpoint_dir=None):
    """Returns (model, per-epoch reports incl. the pre-training one, logs)."""
    train_movies, eval_movies, shuffle_rng, dropout_rng, model_seed = _start(movies, cfg)
    model = af.FusionModel(model_cfg, model_seed)
    optimizer = Optimizer(model.params, cfg.optimizer, cfg.lr)
    half = model_cfg.seq_len // 2
    # the training movies' shots stacked once; a batch gathers its windows
    # through one [num_windows x window] index in (movie, key shot) order,
    # and only windows that stay inside their movie train
    streams = [np.concatenate(group) for group in zip(*(m.streams for m in train_movies))]
    labels = np.concatenate([m.scene_labels for m in train_movies])
    index, offset = [], 0
    for movie in train_movies:
        keys = np.arange(half, movie.num_shots - half)
        index.append(offset + window_index(keys, half, movie.num_shots))
        offset += movie.num_shots
    index = np.concatenate(index)
    if not len(index):
        raise DataError("no training windows fit inside the training movies")

    def batches():
        order = shuffle_rng.permutation(len(index))
        for start in range(0, len(order), cfg.batch_size):
            yield index[order[start:start + cfg.batch_size]]

    def objective(chosen):
        batch_labels = labels[chosen[:, half]]
        logits = af.forward_scene(model, [s[chosen] for s in streams], dropout_rng)
        loss = weighted_scene_ce(logits, batch_labels)
        return loss, {"losses": {"scene_ce": float(loss.data)},
                      "single_class_batch": bool(batch_labels.min() == batch_labels.max())}

    def report(epoch):
        scores = [scene_shot_scores(model, movie) for movie in eval_movies]
        return scene_report(scores, eval_movies, epoch, cfg.seed)

    reports, logs = _fit(cfg, model, optimizer, batches, objective, report, checkpoint_dir)
    single_class = sum(rec["single_class_batch"] for rec in logs)
    if single_class:
        log.warning(
            "%d of %d training batches held one class only and used "
            "unweighted cross-entropy", single_class, len(logs),
        )
    return model, reports, logs


# ---- act pipeline ----


@dataclass
class ActPipeline:
    """Both towers, the sync head, and the E-step settings they trained
    with, which the checkpoint keeps so a later sync export matches."""

    shot_model: af.FusionModel
    synopsis_model: af.FusionModel
    sync_head: sync.SyncHead
    em_xi: float
    em_percentile: float

    def e_step(self, movie_inputs) -> list:
        """One SyncMatrix per (shot feats, synopsis) pair of movie_inputs."""
        return sync.run_e_step(
            self.shot_model, self.synopsis_model, self.sync_head,
            movie_inputs, self.em_xi, self.em_percentile,
        )

    def named_params(self) -> dict:
        merged = {}
        for prefix, params in (
            ("shot.", self.shot_model.params),
            ("synopsis.", self.synopsis_model.params),
            ("", self.sync_head.params),
        ):
            for name, p in params.items():
                merged[prefix + name] = p
        return merged


def build_act_pipeline(shot_cfg, synopsis_cfg, sync_dim: int, seed, em_xi=sync.DEFAULT_BAND_XI,
                       em_percentile=sync.DEFAULT_PERCENTILE) -> ActPipeline:
    """The only ActPipeline constructor, for training and loading alike."""
    sync.check_e_step_config(em_xi, em_percentile)
    if sync_dim < 1:
        raise ConfigError(f"sync_dim must be positive, got {sync_dim}")
    if synopsis_cfg.num_modalities != 1:
        raise ConfigError("the synopsis model takes a single text modality")
    if shot_cfg.fused_width != synopsis_cfg.fused_width:
        raise ConfigError(
            "shot and synopsis fused widths must match for the shared sync head "
            f"({shot_cfg.fused_width} vs {synopsis_cfg.fused_width})"
        )
    for cfg in (shot_cfg, synopsis_cfg):
        cfg.validate()
    head = (shot_cfg.fused_width + 1) * sync_dim + 1  # proj.w, proj.b, log_tau
    total = shot_cfg.num_params + synopsis_cfg.num_params + head
    af.check_param_budget(total, f"the act pipeline with its sync_dim {sync_dim} head")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    tower_seed, head_seed = seed.spawn(2)
    # both towers draw from the same stream: parameters drawn before the
    # towers' shapes diverge (notably the input projections) start identical,
    # so the first expectation step scores shots against sentences through a
    # common random map instead of two unrelated ones
    return ActPipeline(
        af.FusionModel(shot_cfg, tower_seed),
        af.FusionModel(synopsis_cfg, tower_seed),
        sync.SyncHead(shot_cfg.fused_width, sync_dim, head_seed), em_xi, em_percentile,
    )


# ---- checkpoints ----

# the configs of each checkpoint kind, with the class count of each
_CHECKPOINT_CLASSES = {
    "scene": {"model": 2},
    "act": {"shot": NUM_TURNING_POINTS, "synopsis": NUM_TURNING_POINTS},
}


def _save_epoch(checkpoint_dir, epoch: int, trained) -> None:
    # the directory is made on the first save, so a run rejected before
    # any training leaves no directory behind
    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)
        save_checkpoint(checkpoint_dir / f"epoch_{epoch:03d}.ckpt", trained, epoch)


def save_checkpoint(path, trained, epoch: int | None = None) -> None:
    """A FusionModel as a 'scene' checkpoint, an ActPipeline as an 'act' one."""
    extra = {} if epoch is None else {"epoch": epoch}
    if isinstance(trained, ActPipeline):
        extra["em_xi"] = trained.em_xi
        extra["em_percentile"] = trained.em_percentile
        extra["sync_dim"] = trained.sync_head.params["sync.proj.w"].shape[1]
        configs = {
            "shot": trained.shot_model.config,
            "synopsis": trained.synopsis_model.config,
        }
        af.save_checkpoint(path, "act", configs, trained.named_params(), extra)
    else:
        af.save_checkpoint(path, "scene", {"model": trained.config}, trained.params, extra)


def load_checkpoint(path, expected: str | None = None):
    """(kind, FusionModel or ActPipeline, extra) from one read of the file;
    a kind other than expected (when given), or a checkpoint that training
    could not have written, is a DataError. The model is built by the
    constructor training uses, so its checks run here too."""
    kind, configs, extra, body = af.load_checkpoint(path)
    if kind not in _CHECKPOINT_CLASSES:
        raise DataError(f"{path} holds an unknown {kind!r} checkpoint")
    if expected is not None and kind != expected:
        raise DataError(f"{path} holds a {kind!r} checkpoint, expected {expected}")
    classes = {name: cfg.num_classes for name, cfg in configs.items()}
    if classes != _CHECKPOINT_CLASSES[kind]:
        raise DataError(
            f"{path}: a {kind} checkpoint needs configs with these class counts: "
            f"{_CHECKPOINT_CLASSES[kind]}, got {classes}"
        )
    epoch = extra.get("epoch", 0)
    if type(epoch) is not int or epoch < 0:
        raise DataError(f"{path}: extra 'epoch' must be a non-negative integer, got {epoch!r}")
    try:
        if kind == "scene":
            trained = af.FusionModel(configs["model"], seed=0)
            params = trained.params
        else:
            xi, percentile, sync_dim = (extra.get(k) for k in ("em_xi", "em_percentile", "sync_dim"))
            if {type(xi), type(percentile)} - {int, float} or type(sync_dim) is not int:
                raise ConfigError("em_xi and em_percentile must be numbers, sync_dim an integer")
            trained = build_act_pipeline(
                configs["shot"], configs["synopsis"], sync_dim, 0, float(xi), float(percentile)
            )
            params = trained.named_params()
    except ConfigError as exc:
        raise DataError(f"{path} holds no {kind} model that training accepts: {exc}") from None
    af.load_params(params, body, path)
    return kind, trained, extra


def check_tower_lengths(movies, shot_cfg, synopsis_cfg=None) -> None:
    """A DataError naming the first movie longer than a tower, whose forward
    takes whole movies; the synopsis tower is checked only given its config."""
    for movie in movies:
        if movie.num_shots > shot_cfg.seq_len:
            raise DataError(f"movie {movie.movie_id} has {movie.num_shots} shots, more than "
                            f"shot.seq_len = {shot_cfg.seq_len}")
        sentences = movie.synopsis_features.shape[0]
        if synopsis_cfg is not None and sentences > synopsis_cfg.seq_len:
            raise DataError(f"movie {movie.movie_id} has {sentences} synopsis sentences, "
                            f"more than synopsis.seq_len = {synopsis_cfg.seq_len}")


def movie_inputs(movie):
    """(per-modality shot matrices, synopsis matrix) for the act pipeline."""
    return movie.streams, movie.synopsis_features


def _gold_span_shots(movie, tp: int) -> np.ndarray:
    return np.flatnonzero(np.isin(movie.sentence_of, movie.tp_labels[tp]))


def act_shot_probs(shot_model, movie) -> np.ndarray:
    """Per turning point, the shot distribution of one movie [shots x turning points]."""
    return distill.shot_distribution(af.forward_act(shot_model, movie.streams)).data


def act_eval(per_movie_probs, movies):
    """Span hits at shot level plus scene-level agreement events, from
    each movie's act_shot_probs."""
    hits, total, events = 0, 0, []
    for probs, movie in zip(per_movie_probs, movies):
        # the first shot of every scene; the last shot ends the last scene
        # whatever its label, so no scene is empty
        starts = np.concatenate(([0], np.flatnonzero(movie.scene_labels[:-1]) + 1))
        # every scene's maximum per turning point [scenes x turning points]
        scene_max = np.maximum.reduceat(probs, starts, axis=0)
        for tp in range(probs.shape[1]):
            span = _gold_span_shots(movie, tp)
            if span.size == 0:
                raise DataError(
                    f"movie {movie.movie_id} has no gold shots for turning point {tp}"
                )
            predicted_shot = int(np.argmax(probs[:, tp]))
            total += 1
            if predicted_shot in set(span.tolist()):
                hits += 1
            gold_scenes = np.searchsorted(starts, span, side="right") - 1
            events.append(
                (int(np.argmax(scene_max[:, tp])), set(gold_scenes.tolist()), len(starts))
            )
    return hits, total, events


def act_report(per_movie_probs, eval_movies, epoch: int, seed: int) -> mx.MetricsReport:
    hits, total, events = act_eval(per_movie_probs, eval_movies)
    values = {
        "epoch": float(epoch),
        "span_hits": float(hits),
        "span_total": float(total),
        "span_hit_rate": hits / total,
        **mx.tp_metrics(events),
    }
    return mx.MetricsReport(task="act", values=values, seed=seed)


def _mean(parts):
    total = parts[0]
    for p in parts[1:]:
        total = nc.add(total, p)
    return nc.mul(total, 1.0 / len(parts)) if len(parts) > 1 else total


def act_objective(pipeline: ActPipeline, items, loss_weights, joint: bool = False, rng=None):
    """(total, (contrastive, synopsis_ce, distillation), max_col_dev, tau)
    of one batch; items holds one (shot feats, synopsis, w, band,
    tp_labels) tuple per movie, w its E-step assignment and band its
    in-band mask. max_col_dev is the largest |column sum - 1| of the
    transferred targets, tau the temperature tensor the loss used. Unless
    joint, the targets are detached, so distillation trains the shot
    model only.
    """
    head = pipeline.sync_head
    tau = head.tau()
    terms, ce_parts, kd_parts = [], [], []
    max_col_dev = 0.0
    for feats, synopsis, w, band, tp_labels in items:
        rows = af.encode_sequence(pipeline.shot_model, feats, rng)
        syn_rows = af.encode_sequence(pipeline.synopsis_model, [synopsis], rng)
        u = head.features(rows)
        v = head.features(syn_rows)
        shot_logits = af.apply_head(pipeline.shot_model, rows)
        q = af.apply_head(pipeline.synopsis_model, syn_rows)
        terms.append((u, v, w, band))
        ce_parts.append(distill.synopsis_ce_loss(q, tp_labels))
        if joint:
            attn = distill.attention_weights(u, v, tau)
        else:
            attn = distill.attention_weights(u.detach(), v.detach(), tau.detach())
            q = q.detach()
        targets = distill.transfer_targets(attn, q)
        max_col_dev = max(
            max_col_dev, float(np.abs(targets.data.sum(axis=0) - 1.0).max())
        )
        kd_parts.append(
            distill.kd_loss(distill.shot_distribution(shot_logits), targets)
        )
    l_c = sync.m_step_loss(terms, tau)
    l_ce = _mean(ce_parts)
    l_kd = _mean(kd_parts)
    total = distill.total_loss(l_c, l_ce, l_kd, loss_weights)
    return total, (l_c, l_ce, l_kd), max_col_dev, tau


def train_act(movies, shot_cfg, synopsis_cfg, cfg: TrainConfig, checkpoint_dir=None):
    """EM training: an E-step over the training movies at the start of
    every epoch, then the epoch's gradient steps on those assignments.
    Returns (pipeline, final, reports, logs), final being {movie_id:
    SyncMatrix} of the training movies from one more E-step."""
    train_movies, eval_movies, shuffle_rng, dropout_rng, model_seed = _start(movies, cfg)
    check_tower_lengths(movies, shot_cfg, synopsis_cfg)
    pipeline = build_act_pipeline(
        shot_cfg, synopsis_cfg, cfg.sync_dim, model_seed, cfg.em_xi, cfg.em_percentile
    )
    optimizer = Optimizer(pipeline.named_params(), cfg.optimizer, cfg.lr)

    inputs = [movie_inputs(m) for m in train_movies]
    bands = [
        sync.band_mask(m.num_shots, synopsis.shape[0], pipeline.em_xi)
        for m, (_, synopsis) in zip(train_movies, inputs)
    ]

    def batches():
        syncs = pipeline.e_step(inputs)
        order = shuffle_rng.permutation(len(train_movies))
        for start in range(0, len(order), cfg.batch_size):
            yield [
                (*inputs[mi], syncs[mi].w, bands[mi], train_movies[mi].tp_labels)
                for mi in order[start:start + cfg.batch_size]
            ]

    def objective(items):
        total, (l_c, l_ce, l_kd), step_dev, tau = act_objective(
            pipeline, items, cfg.loss_weights, rng=dropout_rng
        )
        return total, {
            "losses": {
                "contrastive": float(l_c.data),
                "synopsis_ce": float(l_ce.data),
                "distillation": float(l_kd.data),
                "total": float(total.data),
            },
            "max_p_col_dev": step_dev,
            "skipped_queries": sync.skipped_queries([item[2] for item in items]),
            "tau": float(tau.data),
        }

    def report(epoch):
        probs = [act_shot_probs(pipeline.shot_model, movie) for movie in eval_movies]
        return act_report(probs, eval_movies, epoch, cfg.seed)

    reports, logs = _fit(cfg, pipeline, optimizer, batches, objective, report,
                         checkpoint_dir, pipeline.sync_head.clamp_tau)
    skipped = [rec["skipped_queries"] for rec in logs]
    if sum(skipped):
        log.warning(
            "contrastive loss: skipped %d queries with no positive key "
            "in %d of %d steps", sum(skipped), sum(n > 0 for n in skipped), len(logs),
        )
    final = {movie.movie_id: sm for movie, sm in zip(train_movies, pipeline.e_step(inputs))}
    return pipeline, final, reports, logs
