"""Multimodal bottleneck-fusion encoder with scene, act, and synopsis heads.

Inputs are per-shot (or per-sentence) feature matrices, one per
modality. Each modality is projected to a shared width, gets a regular
learnable positional encoding plus a shared *alignment* positional
encoding, and runs through its own transformer blocks behind a small
set of learnable bottleneck tokens. Fusion then lets modalities talk
only through those tokens: in at most one fusion block, every modality
re-encodes the concatenation of all token sets with its own latents.
The fused representation is the channel-wise concatenation of the
per-modality latents.

The towers run as one [B x M x L x C] tensor from the embedding
layernorm to the fused output, so each depth is one encoder block for
all M and a fusion block builds the shared token input once. Their
parameters are stacked along a leading modality axis (embed_ln and
every block's qkv, ln1, ffn and ln2; vectors as [M x 1 x N]). The
input projections, positional tables and bottleneck tokens, whose
shapes or gradient order are per modality, stay per modality. Each
modality's tokens take the alignment PE right after its embedding does,
so the shared table's gradient sums in the per-modality order, and the
stacked graph keeps the bits of one op sequence per modality.

The alignment encoding maps position i of a length-L input to bucket
floor(align_len * i / L), so two inputs of different lengths share the
same coarse timeline. It is the piece that makes shot sequences and
synopsis sentences comparable, and both ablation switches for it live
in the config.

Encoder blocks follow post-norm ordering: self-attention, residual +
layernorm, a GeLU feed-forward (width -> ffn_width -> width), residual
+ layernorm. One linear layer projects q, k and v side by side (width ->
3 * width) for single-head scaled dot-product attention.

A checkpoint is a JSON header line (format, version, kind, configs,
extra) and then every parameter's float64 bytes in the order the model
constructors create them. The header names no parameter, so a change of
that order (FusionModel, sync.SyncHead, trainer.ActPipeline.named_params)
must bump CHECKPOINT_VERSION; version 3 holds the stacked towers, each
stacked parameter where its modality-0 slice was, and version 4 one qkv
projection per block where q, k and v were; version 5 drops the head
count from the model config, and version 6 its dropout rate. The
constructor draws its random values in the per-modality order, and q, k
and v as three draws, so a seed gives the same initial values as before
the stacking.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import numcore as nc
from .dataio import NUM_TURNING_POINTS, atomic_write
from .errors import BlobIOError, ConfigError, ContractError, DataError
from .numcore import Tensor

CHECKPOINT_FORMAT = "cineseg-checkpoint"
CHECKPOINT_VERSION = 6
# the most parameters a model or an act pipeline may have, checked from
# the configs before any allocation: 800 MB per float64 copy, of which
# training holds about five (values, two gradient copies, Adam moments)
MAX_MODEL_PARAMS = 10**8
# the one budget of every grouped untaped forward, in activation rows:
# members x M x span, a tower attending over span = L + M x align_len (see
# group_size). Two 300-shot movies behind 12 tokens; attention scores one
# member at a time (numcore._CHUNK_SCORES), so this bounds activations
GROUP_POSITIONS = 2 * 312
# the JSON types a checkpoint may give each ModelConfig field, by its
# annotation (modality_dims is a list of ints)
_JSON_TYPES = {"int": (int,), "bool": (bool,)}


@dataclass
class ModelConfig:
    seq_len: int  # maximum input length L
    align_len: int  # alignment buckets / bottleneck tokens per modality
    width: int  # channels per modality C
    ffn_width: int
    unimodal_depth: int
    fusion_depth: int
    num_classes: int  # 2 = scene boundary, NUM_TURNING_POINTS = acts
    modality_dims: tuple
    align_pe_embed: bool = True  # add alignment PE to embeddings
    align_pe_tokens: bool = True  # add alignment PE to bottleneck tokens

    @property
    def num_modalities(self) -> int:
        return len(self.modality_dims)

    @property
    def fused_width(self) -> int:
        return self.width * self.num_modalities

    @property
    def num_params(self) -> int:
        """How many float64 values FusionModel holds, in Python ints."""
        c, ck, a, n = self.width, self.ffn_width, self.align_len, self.num_modalities
        block = 3 * c * c + 2 * c * ck + ck + 8 * c  # qkv, ffn, ln1, ln2
        depth = self.unimodal_depth + self.fusion_depth
        per_modality = (self.seq_len + a + 2) * c + depth * block  # pe, tokens, embed_ln
        return (a * c + sum(d * c + c for d in self.modality_dims) + n * per_modality
                + (self.fused_width + 1) * self.num_classes)

    def validate(self) -> None:
        for name in ("seq_len", "width", "ffn_width"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 < self.align_len <= self.seq_len:
            raise ConfigError(f"align_len must lie in [1, seq_len], got {self.align_len}")
        if self.unimodal_depth < 0:
            raise ConfigError(f"unimodal_depth must be non-negative, got {self.unimodal_depth}")
        if self.fusion_depth not in (0, 1):
            raise ConfigError(f"fusion_depth must be 0 or 1, got {self.fusion_depth}")
        if self.num_classes not in (2, NUM_TURNING_POINTS):
            raise ConfigError(f"num_classes must be 2 or {NUM_TURNING_POINTS}, got {self.num_classes}")
        if self.num_classes == 2 and self.seq_len % 2 == 0:
            raise ConfigError(
                f"seq_len must be an odd length so the key shot is central, got {self.seq_len}")
        if not self.modality_dims or any(d < 1 for d in self.modality_dims):
            raise ConfigError(
                f"modality_dims must be a non-empty tuple of positive ints, got {self.modality_dims}")
        check_param_budget(self.num_params, f"the model {self.to_dict()}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["modality_dims"] = list(self.modality_dims)
        return d

    @classmethod
    def from_dict(cls, d) -> "ModelConfig":
        """The inverse of to_dict for a checkpoint's config: every field
        present with its JSON type, else a DataError. The values are
        checked once, by the model constructor."""
        if not isinstance(d, dict):
            raise DataError(f"a model config must be an object, got {type(d).__name__}")
        names = {f.name for f in fields(cls)}
        if set(d) != names:
            raise DataError(
                f"model config keys: missing {sorted(names - set(d))}, "
                f"unknown {sorted(set(d) - names)}"
            )
        for f in fields(cls):
            value = d[f.name]
            if f.name == "modality_dims":
                ok = isinstance(value, list) and all(type(v) is int for v in value)
            else:
                ok = type(value) in _JSON_TYPES[f.type]
            if not ok:
                raise DataError(f"model config key '{f.name}' has a bad type: {value!r}")
        return cls(**{**d, "modality_dims": tuple(d["modality_dims"])})


def check_param_budget(count: int, what: str) -> None:
    if count > MAX_MODEL_PARAMS:
        raise ConfigError(
            f"{what} has {count:,} parameters, over the budget of {MAX_MODEL_PARAMS:,}"
        )


def align_buckets(seq_len: int, align_len: int) -> np.ndarray:
    """Alignment bucket floor(align_len * i / seq_len) of every position i."""
    return (align_len * np.arange(seq_len, dtype=np.int64)) // seq_len


def initial_draws(seed):
    """The Generator of a model's initial values. Seed None gives zeros in
    place of draws, for a model whose values a checkpoint fills: numpy.random
    then stays unloaded (about 6 MB per process)."""
    if seed is None:
        return SimpleNamespace(normal=lambda loc, scale, size: np.zeros(size),
                               uniform=lambda low, high, size: np.zeros(size))
    return np.random.default_rng(seed)


class FusionModel:
    """Parameter container plus the forward passes defined below."""

    def __init__(self, config: ModelConfig, seed):
        config.validate()
        self.config = config
        self.params: dict[str, Tensor] = {}
        rng = initial_draws(seed)
        c, ck = config.width, config.ffn_width

        self._table(rng, "align_pe", config.align_len, c)
        for m, dim in enumerate(config.modality_dims):
            p = f"mod{m}."
            self._linear(rng, p + "proj", None, dim, c)
            self._table(rng, p + "pe", config.seq_len, c)
            self._layernorm("embed_ln", m, c)
            self._table(rng, p + "tokens", 1, config.align_len, c)
            for d in range(config.unimodal_depth):
                self._block(rng, f"uni{d}.", m, c, ck)
            if config.fusion_depth:
                self._block(rng, "fus0.", m, c, ck)
        self._linear(rng, "head", None, config.fused_width, config.num_classes)

    def _put(self, name: str, m, value: np.ndarray) -> None:
        """value as parameter name, or as slice m of the stacked parameter
        name, which its modality-0 slice creates: [M x ...] for matrices,
        [M x 1 x N] for vectors, which then broadcast over positions."""
        if m is not None:
            value = value.reshape(-1, value.shape[-1])
        if m in (None, 0):
            stack = () if m is None else (self.config.num_modalities,)
            self.params[name] = Tensor(np.empty(stack + value.shape), requires_grad=True)
        self.params[name].data[... if m is None else m] = value

    def _table(self, rng, name: str, *shape: int) -> None:
        self._put(name, None, rng.normal(0.0, 0.02, size=shape))

    def _linear(self, rng, name: str, m, fan_in: int, fan_out: int, parts: int = 1) -> None:
        """parts fan_in x fan_out layers side by side, each its own draw."""
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        draws = [rng.uniform(-limit, limit, size=(fan_in, fan_out)) for _ in range(parts)]
        self._put(name + ".w", m, np.concatenate(draws, axis=1))
        self._put(name + ".b", m, np.zeros(parts * fan_out))

    def _layernorm(self, name: str, m, width: int) -> None:
        self._put(name + ".g", m, np.ones(width))
        self._put(name + ".b", m, np.zeros(width))

    def _block(self, rng, prefix: str, m, c: int, ck: int) -> None:
        self._linear(rng, prefix + "attn.qkv", m, c, c, parts=3)
        self._layernorm(prefix + "ln1", m, c)
        self._linear(rng, prefix + "ffn.lift", m, c, ck)
        self._linear(rng, prefix + "ffn.drop", m, ck, c)
        self._layernorm(prefix + "ln2", m, c)

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]


def _linear_apply(model, prefix: str, x: Tensor) -> Tensor:
    return nc.linear(x, model[prefix + ".w"], model[prefix + ".b"])


def _encoder_block(model, prefix: str, x: Tensor) -> Tensor:
    """One block of every tower at once: x is [B x M x T x C]."""
    attn = nc.attention(_linear_apply(model, prefix + "attn.qkv", x))
    x = nc.layernorm(nc.add(x, attn), model[prefix + "ln1.g"], model[prefix + "ln1.b"])
    h = nc.gelu(_linear_apply(model, prefix + "ffn.lift", x))
    h = _linear_apply(model, prefix + "ffn.drop", h)
    return nc.layernorm(nc.add(x, h), model[prefix + "ln2.g"], model[prefix + "ln2.b"])


def embed_modality(model, feats, m: int) -> Tensor:
    """Project modality m and add positional encodings: its [B x 1 x L_in
    x C] slice of the stacked towers, before their layernorm.

    Regular PE is indexed by absolute position; the alignment PE bucket
    for position i of a length-L_in input is floor(align_len * i / L_in).
    """
    cfg = model.config
    if feats.ndim != 3:
        raise ContractError(f"embed_modality expects [batch x length x dim], got {feats.shape}")
    batch, length, dim = feats.shape
    if length > cfg.seq_len:
        raise DataError(
            f"input length {length} exceeds model length {cfg.seq_len}; chunk the input"
        )
    if dim != cfg.modality_dims[m]:
        raise DataError(
            f"modality {m} width {dim} does not match config {cfg.modality_dims[m]}"
        )
    x = _linear_apply(model, f"mod{m}.proj", nc.reshape(feats, (batch, 1, length, dim)))
    x = nc.add(x, nc.narrow(model[f"mod{m}.pe"], -2, 0, length))
    if cfg.align_pe_embed:
        x = nc.add(x, nc.gather_rows(model["align_pe"], align_buckets(length, cfg.align_len)))
    return x


def make_bottleneck(model, m: int) -> Tensor:
    """Modality m's [1 x A x C] bottleneck tokens, with the shared
    alignment PE added."""
    tokens = model[f"mod{m}.tokens"]
    if model.config.align_pe_tokens:
        tokens = nc.add(tokens, model["align_pe"])
    return tokens


def unimodal_encode(model, embedded: Tensor, bottlenecks: Tensor):
    """Normalize the stacked embeddings [B x M x L x C] and run [tokens;
    latents] through every modality's own encoder blocks, the [M x A x C]
    tokens broadcast over the batch by concat; returns [tokens; latents]
    [B x M x (A + L) x C]."""
    cfg = model.config
    x = nc.layernorm(embedded, model["embed_ln.g"], model["embed_ln.b"])
    seq = nc.concat([nc.reshape(bottlenecks, (1,) + bottlenecks.shape), x], -2)
    for d in range(cfg.unimodal_depth):
        seq = _encoder_block(model, f"uni{d}.", seq)
    return seq


def fusion_encode(model, seq: Tensor) -> Tensor:
    """Cross-modal stage on [tokens; latents]; returns the fused [B x L_in x M*C],
    the channel-wise concatenation of the per-modality latents. A fusion
    block first lets every modality encode [all M token sets; its own
    latents] with its own parameters."""
    ln = model.config.align_len
    latents = nc.narrow(seq, -2, ln, seq.shape[-2])
    if model.config.fusion_depth:
        batch, n_mod, _, width = seq.shape
        shared = n_mod * ln
        # every token set, in modality order, broadcast to each tower by concat
        token_sets = nc.reshape(nc.narrow(seq, -2, 0, ln), (batch, 1, shared, width))
        out = _encoder_block(model, "fus0.", nc.concat([token_sets, latents], -2))
        latents = nc.narrow(out, -2, shared, out.shape[-2])
    return nc.merge_channels(latents)


def encode(model, feats_list) -> Tensor:
    """Full encoder: per-modality embedding, then the stacked towers'
    unimodal blocks and fusion; returns the fused [B x L_in x M*C]."""
    cfg = model.config
    if len(feats_list) != cfg.num_modalities:
        raise DataError(
            f"model expects {cfg.num_modalities} modalities, got {len(feats_list)}"
        )
    embedded, bottlenecks = [], []
    for m, feats in enumerate(feats_list):
        embedded.append(embed_modality(model, feats, m))
        # right after the embedding's: the alignment table's gradient then
        # sums its per-modality terms in the order of the unstacked towers
        bottlenecks.append(make_bottleneck(model, m))
    seq = unimodal_encode(model, nc.concat(embedded, -3), nc.concat(bottlenecks, -3))
    return fusion_encode(model, seq)


def scene_head_rows(fused) -> Tensor:
    """The rows of a fused output [... x L x C] that the scene head reads,
    one per sequence, as an [N x C] matrix: the key (middle) row, L // 2."""
    key = fused.shape[-2] // 2
    row = nc.narrow(fused, -2, key, key + 1)
    return nc.reshape(row, (math.prod(fused.shape[:-2]), fused.shape[-1]))


def forward_scene(model, windows) -> Tensor:
    """Boundary logits [B x 2] for the middle (key) shot of each window:
    the head applied to scene_head_rows of the fused windows."""
    cfg = model.config
    if cfg.num_classes != 2:
        raise ContractError("scene forward needs a 2-class head")
    for w in windows:
        if w.ndim != 3 or w.shape[1] != cfg.seq_len:
            raise DataError(
                f"scene windows must be [batch x {cfg.seq_len} x dim], got {w.shape}"
            )
    return apply_head(model, scene_head_rows(encode(model, windows)))


def encode_sequence(model, feats_list) -> Tensor:
    """Fused per-position features [L_in x fused_width] for one sequence."""
    feats3 = []
    for f in feats_list:
        if f.ndim != 2:
            raise ContractError(f"sequence forward expects 2-D features, got {f.shape}")
        feats3.append(nc.reshape(f, (1,) + f.shape))
    fused = encode(model, feats3)
    return nc.reshape(fused, (fused.shape[1], model.config.fused_width))


def group_size(cfg, length: int) -> int:
    """How many length-L sequences one grouped untaped forward runs: as many
    as GROUP_POSITIONS activation rows hold, and at least one."""
    span = length + cfg.num_modalities * cfg.align_len
    return max(1, GROUP_POSITIONS // (cfg.num_modalities * span))


def encode_sequences(model, sequences) -> list:
    """Untaped fused rows [L_in x fused_width] of each sequence (its per-modality
    [L_in x dim] matrices), in input order: sequences of one shape run batched
    in groups of group_size, each with the bits encode_sequence gives it alone."""
    by_shape: dict[tuple, list] = {}
    for i, feats in enumerate(sequences):
        by_shape.setdefault(tuple(f.shape for f in feats), []).append(i)
    rows = {}
    for shapes, members in by_shape.items():
        size = group_size(model.config, max((s[0] for s in shapes), default=0))
        for lo in range(0, len(members), size):
            group = members[lo:lo + size]
            stacked = [np.stack(m) for m in zip(*(sequences[i] for i in group))]
            rows.update(zip(group, encode(model, stacked).data))
    return [rows[i] for i in range(len(sequences))]


def apply_head(model, rows) -> Tensor:
    """Classification head on already-encoded rows."""
    return _linear_apply(model, "head", rows)


# ---- checkpoints ----


def save_checkpoint(path, kind: str, configs: dict, params: dict, extra: dict | None = None):
    """A header line, then the parameters' float64 bytes in dict order."""
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": kind,
        "configs": {k: v.to_dict() for k, v in configs.items()},
        "extra": extra or {},
    }
    chunks = [json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"]
    chunks += [np.ascontiguousarray(t.data, dtype="<f8").tobytes() for t in params.values()]
    atomic_write(path, chunks)


def load_checkpoint(path):
    """(kind, configs, extra, body) with the parameter bytes in body; a
    header that save_checkpoint could not have written is a DataError."""
    path = Path(path)
    if not path.exists():
        raise BlobIOError(f"checkpoint not found: {path}")
    line, _, body = path.read_bytes().partition(b"\n")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path} does not start with a checkpoint header") from exc
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise DataError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    version = header.get("version")
    # the integer save_checkpoint writes: 6.0 == 6, but no version wrote 6.0
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise DataError(
            f"{path} has checkpoint version {version!r}, this version reads "
            f"only {CHECKPOINT_VERSION}; re-train the model to write one"
        )
    for key, want in (("kind", str), ("configs", dict), ("extra", dict)):
        if not isinstance(header.get(key), want):
            raise DataError(
                f"{path}: checkpoint header key '{key}' must hold a {want.__name__}, "
                f"got {type(header.get(key)).__name__}"
            )
    configs = {}
    for key, value in header["configs"].items():
        try:
            configs[key] = ModelConfig.from_dict(value)
        except DataError as exc:
            raise DataError(f"{path}: config '{key}': {exc}") from None
    return header["kind"], configs, header["extra"], body


def load_params(params: dict, body: bytes, path) -> None:
    """Fill the parameters in place, in dict order, from a checkpoint body
    that covers them exactly: a shorter body is a BlobIOError, a longer
    one a DataError."""
    need = 8 * sum(t.data.size for t in params.values())
    if len(body) < need:
        raise BlobIOError(f"{path} is truncated: {len(body)} of the {need} parameter bytes")
    if len(body) > need:
        raise DataError(f"{path} has {len(body) - need} trailing bytes after its parameters")
    flat = np.frombuffer(body, dtype="<f8")
    offset = 0
    for t in params.values():
        t.data[...] = flat[offset:offset + t.data.size].reshape(t.data.shape)
        offset += t.data.size
