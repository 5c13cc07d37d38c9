"""Movie samples, synthetic data, and disk I/O.

A movie is a list of shot intervals plus one feature stream per
modality, each holding one feature row per shot.

Synthetic movies plant all ground truth the trainers and metrics need:
a hidden per-scene latent drives every modality through a fixed linear
map, act turning points sit near the classic screenplay positions
(10/25/50/75/95% of the movie) with jitter, and each synopsis sentence
is the mean of its shot span's concatenated features plus noise. With
zero noise the shot-to-sentence assignment problem is exactly solvable,
which the synchronization tests rely on.

Disk format: one JSON manifest per movie plus raw little-endian float64
blobs (row-major; the row count is the file size divided by 8*dim).
Synopsis features live in the concatenated modality space, so their
width is the sum of the modality dims and needs no extra manifest field.
Loading checks one row per shot and restores the features bit-exactly.
Every file is written through ``atomic_write``, so a failed write never
leaves a partial file under its final name.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BlobIOError, ConfigError, DataError, NumericError

# act turning points of classic screenplay structure, as movie fractions
THEORY_POSITIONS = (0.10, 0.25, 0.50, 0.75, 0.95)
NUM_TURNING_POINTS = len(THEORY_POSITIONS)
SHOT_SECONDS = 2.0  # every synthetic shot spans this long


@dataclass
class ModalityStream:
    """One modality's features, one row per shot."""

    name: str
    samples: np.ndarray  # [num_shots x dim]

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 2:
            raise DataError(f"stream '{self.name}' samples must be 2-D, got {self.samples.shape}")

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


@dataclass
class MovieSample:
    """A movie's shots, streams, and whatever ground truth it carries."""

    movie_id: str
    shots: list[tuple[float, float]]
    streams: list[ModalityStream]
    synopsis_features: np.ndarray | None = None  # [num_sentences x sum(dims)]
    scene_labels: np.ndarray | None = None  # [num_shots] in {0,1}, 1 = scene ends here
    tp_labels: list[list[int]] | None = None  # per turning point, gold sentence indices
    gold_sync: np.ndarray | None = None  # [num_shots x num_sentences] in {0,1}

    @property
    def num_shots(self) -> int:
        return len(self.shots)

    def validate(self) -> None:
        n = self.num_shots
        if n == 0:
            raise DataError(f"movie '{self.movie_id}' has no shots")
        for s, e in self.shots:
            if not e > s:
                raise DataError(f"movie '{self.movie_id}' has an empty shot interval [{s}, {e})")
        if self.scene_labels is not None:
            if self.scene_labels.shape != (n,):
                raise DataError(
                    f"movie '{self.movie_id}': scene_labels shape {self.scene_labels.shape} "
                    f"does not match {n} shots"
                )
            if not np.isin(self.scene_labels, (0, 1)).all():
                raise DataError(f"movie '{self.movie_id}': scene_labels must be binary")
        if self.gold_sync is not None:
            if self.synopsis_features is None:
                raise DataError(f"movie '{self.movie_id}': gold_sync without synopsis features")
            want = (n, self.synopsis_features.shape[0])
            if self.gold_sync.shape != want:
                raise DataError(
                    f"movie '{self.movie_id}': gold_sync shape {self.gold_sync.shape}, "
                    f"expected {want}"
                )
            if not (self.gold_sync.sum(axis=1) == 1).all():
                raise DataError(
                    f"movie '{self.movie_id}': every shot must map to exactly one sentence"
                )
        if self.tp_labels is not None:
            if self.synopsis_features is None:
                raise DataError(f"movie '{self.movie_id}': tp_labels without synopsis features")
            n_sent = self.synopsis_features.shape[0]
            if len(self.tp_labels) != NUM_TURNING_POINTS:
                raise DataError(
                    f"movie '{self.movie_id}': expected {NUM_TURNING_POINTS} turning points"
                )
            for gold in self.tp_labels:
                if not gold:
                    raise DataError(f"movie '{self.movie_id}': empty turning-point gold set")
                if min(gold) < 0 or max(gold) >= n_sent:
                    raise DataError(f"movie '{self.movie_id}': turning-point label out of range")


# ---- synthetic movies ----


@dataclass
class SynthConfig:
    shots: int = 200
    shots_jitter: int = 0  # per-movie shot count varies by +/- this
    scenes: int = 10
    sentences: int = 5
    modalities: tuple = (("visual", 16), ("audio", 12))
    latent_dim: int = 32
    noise: float = 0.1
    tp_jitter: float = 0.01  # turning-point jitter as a fraction of the movie
    # scene cut jitter as a fraction of the even-grid scene spacing
    cut_jitter: float = 1.0 / 3.0
    # strength of a dataset-wide turning-point content cue added to the
    # features around each planted TP shot; 0 disables it. The cue direction
    # is shared across movies, so TP detectors learned on one subset of
    # movies carry over to the rest.
    tp_motif_scale: float = 0.0
    tp_motif_halfwidth: int = 2

    def validate(self) -> None:
        if self.shots - self.shots_jitter < self.scenes:
            raise ConfigError("need at least one shot per scene (shots - jitter >= scenes)")
        if self.scenes < self.sentences:
            raise ConfigError("sentence spans are whole scenes, so scenes >= sentences")
        if self.sentences < 1:
            raise ConfigError("need at least one synopsis sentence")
        if not self.modalities:
            raise ConfigError("need at least one modality")
        names = [name for name, _ in self.modalities]
        if len(set(names)) != len(names):
            raise ConfigError(f"modality names must be unique, got {names}")
        for name, dim in self.modalities:
            # the name is its blob's file name, beside synopsis and gold_sync
            if not re.fullmatch(r"[A-Za-z0-9_-]+", name) or name in ("synopsis", "gold_sync"):
                raise ConfigError(f"modality name {name!r} is not [A-Za-z0-9_-]+ or is reserved")
            if dim < 1:
                raise ConfigError(f"modality '{name}' dim must be positive")
        if self.latent_dim < 1:
            raise ConfigError("latent_dim must be positive")
        if self.noise < 0:
            raise ConfigError("noise must be non-negative")
        if self.shots_jitter < 0:
            raise ConfigError("shots_jitter must be non-negative")
        if self.tp_motif_scale < 0:
            raise ConfigError("tp_motif_scale must be non-negative")
        if self.tp_motif_halfwidth < 0:
            raise ConfigError("tp_motif_halfwidth must be non-negative")
        if self.cut_jitter < 0:
            raise ConfigError("cut_jitter must be non-negative")


def _scene_latents(rng, scenes: int, latent_dim: int) -> np.ndarray:
    # orthonormal latents when the latent space allows; separated scenes
    # keep the zero-noise synchronization problem exactly solvable
    raw = rng.normal(size=(latent_dim, max(scenes, 1)))
    if latent_dim >= scenes:
        q, _ = np.linalg.qr(raw)
        return q[:, :scenes].T
    raw = raw[:, :scenes].T
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _partition_sizes(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def synth_movie(
    cfg: SynthConfig,
    rng: np.random.Generator,
    movie_id: str,
    tp_motifs: np.ndarray | None = None,
) -> MovieSample:
    """Generate one movie with planted scenes, turning points, and synopsis.

    tp_motifs, when given, holds one unit-RMS feature-space direction per
    turning point (concatenated over modalities); it is added around each
    planted TP shot at cfg.tp_motif_scale, and the synopsis rows shift by
    the span mean of the same bump.
    """
    cfg.validate()
    num_shots = int(cfg.shots)
    if cfg.shots_jitter:
        num_shots += int(rng.integers(-cfg.shots_jitter, cfg.shots_jitter + 1))

    # contiguous scene segments: interior cuts on a jittered even grid, so
    # scene lengths stay within a bounded factor of each other and shot
    # progress tracks story progress (the premise of banded synchronization)
    spacing = num_shots / cfg.scenes
    grid = np.linspace(0.0, num_shots, cfg.scenes + 1)[1:-1]
    # the uniform draw happens even at cut_jitter=0 so the downstream
    # stream of random values does not depend on the jitter setting
    slack = spacing * cfg.cut_jitter
    raw = np.sort(grid + rng.uniform(-slack, slack, size=grid.size))
    cuts = np.clip(np.round(raw).astype(np.int64), 1, num_shots - 1)
    for k in range(1, cuts.size):
        cuts[k] = max(cuts[k], cuts[k - 1] + 1)
    for k in range(cuts.size - 2, -1, -1):
        cuts[k] = min(cuts[k], cuts[k + 1] - 1)
    scene_of = np.searchsorted(cuts, np.arange(num_shots), side="right")

    latents = _scene_latents(rng, cfg.scenes, cfg.latent_dim)
    shot_latents = latents[scene_of]

    streams = []
    shots = [(i * SHOT_SECONDS, (i + 1) * SHOT_SECONDS) for i in range(num_shots)]
    clean_parts = []
    for name, dim in cfg.modalities:
        mix = rng.normal(size=(cfg.latent_dim, dim))
        raw = shot_latents @ mix
        rms = np.sqrt((raw * raw).mean())
        if rms > 0:
            raw = raw / rms
        clean_parts.append(raw.copy())
        feats = raw + cfg.noise * rng.normal(size=raw.shape)
        streams.append(ModalityStream(name, feats))

    scene_labels = np.zeros(num_shots, dtype=np.int64)
    for c in cuts:
        scene_labels[c - 1] = 1  # shot before each cut ends a scene

    # sentence spans are contiguous groups of whole scenes
    sizes = _partition_sizes(cfg.scenes, cfg.sentences)
    scene_to_sentence = np.repeat(np.arange(cfg.sentences), sizes)
    sentence_of = scene_to_sentence[scene_of]

    gold_sync = np.zeros((num_shots, cfg.sentences), dtype=np.float64)
    gold_sync[np.arange(num_shots), sentence_of] = 1.0

    clean_concat = np.concatenate(clean_parts, axis=1)
    synopsis = np.zeros((cfg.sentences, clean_concat.shape[1]))
    for s in range(cfg.sentences):
        span = sentence_of == s
        synopsis[s] = clean_concat[span].mean(axis=0)
    synopsis = synopsis + cfg.noise * rng.normal(size=synopsis.shape)

    jitter = max(0, int(round(cfg.tp_jitter * num_shots)))
    tp_shots = []
    prev = -1
    for frac in THEORY_POSITIONS:
        t = int(round(frac * (num_shots - 1)))
        if jitter:
            t += int(rng.integers(-jitter, jitter + 1))
        t = min(max(t, prev + 1), num_shots - 1)
        tp_shots.append(t)
        prev = t
    tp_labels = [[int(sentence_of[t])] for t in tp_shots]

    if tp_motifs is not None and cfg.tp_motif_scale > 0:
        offsets = np.cumsum([0] + [dim for _, dim in cfg.modalities])
        for k, t in enumerate(tp_shots):
            lo = max(0, t - cfg.tp_motif_halfwidth)
            hi = min(num_shots, t + cfg.tp_motif_halfwidth + 1)
            bump = cfg.tp_motif_scale * tp_motifs[k]
            for m in range(len(cfg.modalities)):
                streams[m].samples[lo:hi] += bump[offsets[m]:offsets[m + 1]]
            # the synopsis is the span mean of the bumped features, and the
            # mean is linear, so shift each overlapped sentence row directly
            for s in range(cfg.sentences):
                inside = int(np.count_nonzero(sentence_of[lo:hi] == s))
                if inside:
                    span_size = int(np.count_nonzero(sentence_of == s))
                    synopsis[s] += bump * (inside / span_size)

    sample = MovieSample(
        movie_id=movie_id,
        shots=shots,
        streams=streams,
        synopsis_features=synopsis,
        scene_labels=scene_labels,
        tp_labels=tp_labels,
        gold_sync=gold_sync,
    )
    sample.validate()
    return sample


def make_dataset(cfg: SynthConfig, movies: int, seed: int) -> list[MovieSample]:
    """Generate a deterministic list of movies from one root seed."""
    if movies < 1:
        raise ConfigError(f"need at least one movie, got {movies}")
    root = np.random.SeedSequence(seed)
    children = root.spawn(movies)
    motifs = None
    if cfg.tp_motif_scale > 0:
        # one direction per turning point, shared by every movie in the
        # dataset; drawn from a separate child so the per-movie streams are
        # bit-identical whether or not the motif is enabled
        motif_rng = np.random.default_rng(root.spawn(1)[0])
        total = sum(dim for _, dim in cfg.modalities)
        raw = motif_rng.normal(size=(NUM_TURNING_POINTS, total))
        motifs = raw / np.sqrt((raw * raw).mean(axis=1, keepdims=True))
    return [
        synth_movie(cfg, np.random.default_rng(children[i]), f"movie_{i:04d}", motifs)
        for i in range(movies)
    ]


# ---- blob + manifest serialization ----


def atomic_write(path, data: bytes) -> None:
    """Write data to a temporary file beside path, then rename it onto
    path, so path holds either its old content or all of data. The
    temporary file is removed when the write fails."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_blob(path: Path, matrix: np.ndarray) -> None:
    matrix = np.ascontiguousarray(matrix, dtype="<f8")
    if matrix.ndim != 2:
        raise DataError(f"blobs hold 2-D matrices, got shape {matrix.shape}")
    atomic_write(path, matrix.tobytes())


def read_blob(path: Path, dim: int) -> np.ndarray:
    """Read a little-endian float64 blob; rows are inferred from the size."""
    if not path.exists():
        raise BlobIOError(f"blob not found: {path}")
    raw = path.read_bytes()
    row_bytes = 8 * dim
    if dim < 1 or len(raw) == 0 or len(raw) % row_bytes != 0:
        raise BlobIOError(
            f"blob {path} holds {len(raw)} bytes, not a multiple of {row_bytes} "
            f"(8 bytes x {dim} columns)"
        )
    matrix = np.frombuffer(raw, dtype="<f8").reshape(-1, dim).copy()
    if not np.isfinite(matrix).all():
        raise NumericError(f"blob {path} contains non-finite values")
    return matrix


def save_movie(sample: MovieSample, out_dir: Path) -> Path:
    """Write manifest.json plus blobs; returns the manifest path."""
    sample.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "movie_id": sample.movie_id,
        "shots": [[float(s), float(e)] for s, e in sample.shots],
        "modalities": [],
    }
    for stream in sample.streams:
        blob_name = f"{stream.name}.f64"
        write_blob(out_dir / blob_name, stream.samples)
        manifest["modalities"].append(
            {"name": stream.name, "dim": stream.dim, "blob": blob_name}
        )
    if sample.synopsis_features is not None:
        total = sum(s.dim for s in sample.streams)
        if sample.synopsis_features.shape[1] != total:
            raise DataError(
                f"synopsis width {sample.synopsis_features.shape[1]} must equal the "
                f"concatenated modality width {total}"
            )
        write_blob(out_dir / "synopsis.f64", sample.synopsis_features)
        manifest["synopsis_blob"] = "synopsis.f64"
    if sample.scene_labels is not None:
        manifest["scene_labels"] = [int(v) for v in sample.scene_labels]
    if sample.tp_labels is not None:
        manifest["tp_labels"] = [[int(i) for i in gold] for gold in sample.tp_labels]
    if sample.gold_sync is not None:
        write_blob(out_dir / "gold_sync.f64", sample.gold_sync)
        manifest["gold_sync_blob"] = "gold_sync.f64"
    manifest_path = out_dir / "manifest.json"
    atomic_write(manifest_path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
    return manifest_path


def load_movie(manifest_path: Path) -> MovieSample:
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    if not manifest_path.exists():
        raise BlobIOError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
    for key in ("movie_id", "shots", "modalities"):
        if key not in manifest:
            raise DataError(f"manifest {manifest_path} is missing '{key}'")
    shots = [(float(s), float(e)) for s, e in manifest["shots"]]

    def blob(name, dim: int) -> np.ndarray:
        if not isinstance(name, str) or name in ("", "..") or Path(name).name != name:
            raise DataError(f"manifest {manifest_path} names blob {name!r}, not a file beside it")
        return read_blob(manifest_path.parent / name, dim)

    streams = []
    for entry in manifest["modalities"]:
        matrix = blob(entry["blob"], int(entry["dim"]))
        if matrix.shape[0] != len(shots):
            raise DataError(
                f"stream '{entry['name']}': blob has {matrix.shape[0]} rows for "
                f"{len(shots)} shots"
            )
        streams.append(ModalityStream(entry["name"], matrix))

    synopsis = None
    if "synopsis_blob" in manifest:
        total = sum(s.dim for s in streams)
        synopsis = blob(manifest["synopsis_blob"], total)

    scene_labels = None
    if "scene_labels" in manifest:
        scene_labels = np.asarray(manifest["scene_labels"], dtype=np.int64)

    tp_labels = None
    if "tp_labels" in manifest:
        tp_labels = [[int(i) for i in gold] for gold in manifest["tp_labels"]]

    gold_sync = None
    if "gold_sync_blob" in manifest:
        if synopsis is None:
            raise DataError(f"manifest {manifest_path}: gold_sync_blob without synopsis_blob")
        gold_sync = blob(manifest["gold_sync_blob"], synopsis.shape[0])

    sample = MovieSample(
        movie_id=str(manifest["movie_id"]),
        shots=shots,
        streams=streams,
        synopsis_features=synopsis,
        scene_labels=scene_labels,
        tp_labels=tp_labels,
        gold_sync=gold_sync,
    )
    sample.validate()
    return sample


def save_dataset(samples: list[MovieSample], out_dir: Path) -> list[Path]:
    out_dir = Path(out_dir)
    return [save_movie(s, out_dir / s.movie_id) for s in samples]


def load_dataset(root: Path) -> list[MovieSample]:
    root = Path(root)
    manifests = sorted(root.glob("*/manifest.json"))
    if not manifests:
        raise BlobIOError(f"no movie manifests under {root}")
    movies = [load_movie(p) for p in manifests]
    want = [(s.name, s.dim) for s in movies[0].streams]
    for movie in movies[1:]:
        have = [(s.name, s.dim) for s in movie.streams]
        if have != want:
            raise DataError(
                f"movie {movie.movie_id} has modalities {have}, but "
                f"{movies[0].movie_id} has {want}"
            )
    return movies
