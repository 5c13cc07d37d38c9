"""Movie samples, synthetic data, and disk I/O.

A movie is num_shots shots, one feature stream per modality, a
synopsis of sentence feature rows, and its planted ground truth: the
shot that ends each scene, the gold sentence of each shot, and the gold
sentences of each turning point. MovieSample.modalities names the
modalities in model order, and MovieSample.streams holds their float64
[num_shots x dim] matrices in that order; a dim is its matrix's width.

Synthetic movies plant all ground truth the trainers and metrics need:
a hidden per-scene latent drives every modality through a fixed linear
map, act turning points sit near the classic screenplay positions
(10/25/50/75/95% of the movie) with jitter, and each synopsis sentence
is the mean of its shot span's concatenated features plus noise. With
zero noise the shot-to-sentence assignment problem is exactly solvable,
which the synchronization tests rely on.

Disk format: a movie directory holds manifest.json, one blob <name>.f64
per modality and synopsis.f64; no manifest key names a file. Every key
of MANIFEST_KEYS is required and no other is allowed: movie_id, the
name of the movie's directory; num_shots, the count that every per-shot list and blob is checked
against; modalities, a list of {name, dim} whose names follow
check_modalities; scene_labels, 1 where a scene ends, else 0;
sentence_of, each shot's gold synopsis sentence; tp_labels, each turning
point's gold sentences. A manifest written by an older version fails to
load with a DataError naming the keys; re-synthesize such datasets.
Blobs are raw little-endian float64, row-major, with file size / (8*dim)
rows; synopsis rows are as wide as the concatenated modalities. Loading
restores the features bit-exactly. Every file is written through
``atomic_write``, so a failed write never leaves a partial file under
its final name.
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
MANIFEST_KEYS = ("movie_id", "num_shots", "modalities", "scene_labels", "sentence_of", "tp_labels")


def check_modalities(modalities, error: type[Exception]) -> None:
    """Raise error unless modalities is a non-empty list of (name, dim)
    with positive dims and unique names that are plain blob file names
    ([A-Za-z0-9_-]+) other than the synopsis blob's."""
    if not modalities:
        raise error("need at least one modality")
    names = [name for name, _ in modalities]
    for name, dim in modalities:
        if not (isinstance(name, str) and re.fullmatch(r"[A-Za-z0-9_-]+", name)):
            raise error(f"modality name {name!r} is not [A-Za-z0-9_-]+")
        if name == "synopsis" or names.count(name) > 1:
            raise error(f"modality name {name!r} is reserved or repeated in {names}")
        if dim < 1:
            raise error(f"modality '{name}' dim must be positive")


@dataclass
class MovieSample:
    """A movie's streams, synopsis and planted ground truth."""

    movie_id: str
    num_shots: int
    modalities: tuple  # modality names, in model order
    streams: list  # per modality, a float64 [num_shots x dim] matrix
    synopsis_features: np.ndarray  # [num_sentences x sum(dims)]
    scene_labels: np.ndarray  # [num_shots] in {0,1}, 1 = scene ends here
    sentence_of: np.ndarray  # [num_shots], each shot's gold sentence index
    tp_labels: list[list[int]]  # per turning point, gold sentence indices

    def __post_init__(self):
        self.streams = [np.asarray(x, dtype=np.float64) for x in self.streams]
        self.validate()

    @property
    def layout(self) -> list:
        """(name, dim) per modality, in model order."""
        return [(name, x.shape[1]) for name, x in zip(self.modalities, self.streams)]

    @property
    def gold_sync(self) -> np.ndarray:
        """The read-only one-hot [num_shots x num_sentences] of sentence_of."""
        gold = np.eye(self.synopsis_features.shape[0])[self.sentence_of]
        gold.flags.writeable = False
        return gold

    def validate(self) -> None:
        n, where = self.num_shots, f"movie '{self.movie_id}'"
        if n < 1:
            raise DataError(f"{where} has no shots")
        if len(self.modalities) != len(self.streams):
            raise DataError(f"{where} has {len(self.modalities)} names for {len(self.streams)} streams")
        for name, x in zip(self.modalities, self.streams):
            if x.ndim != 2:
                raise DataError(f"{where}: stream '{name}' must be 2-D, got {x.shape}")
            if x.shape[0] != n:
                raise DataError(f"{where}: stream '{name}' has {x.shape[0]} rows for {n} shots")
        check_modalities(self.layout, DataError)
        n_sent = self.synopsis_features.shape[0]
        if n_sent < 1 or self.synopsis_features.shape[1:] != (sum(d for _, d in self.layout),):
            raise DataError(f"{where}: synopsis rows must be as wide as the modalities together")
        for key, bound in (("scene_labels", 2), ("sentence_of", n_sent)):
            labels = getattr(self, key)
            if labels.shape != (n,):
                raise DataError(f"{where}: {key} shape {labels.shape} does not match {n} shots")
            if not 0 <= labels.min() <= labels.max() < bound:
                raise DataError(f"{where}: {key} values must lie in [0, {bound})")
        if len(self.tp_labels) != NUM_TURNING_POINTS:
            raise DataError(f"{where}: expected {NUM_TURNING_POINTS} turning points")
        for gold in self.tp_labels:
            if not gold:
                raise DataError(f"{where}: empty turning-point gold set")
            if min(gold) < 0 or max(gold) >= n_sent:
                raise DataError(f"{where}: turning-point label out of range")


# ---- synthetic movies ----


MAX_FEATURE_SCALE = 1e3
# the most float64 values one synth run may hold (800 MB), the same on
# every box; make_dataset checks it before it allocates anything
MAX_SYNTH_VALUES = 10**8


@dataclass
class SynthConfig:
    """noise and tp_motif_scale scale unit-RMS features, so they lie in
    [0, MAX_FEATURE_SCALE = 1e3]; tp_jitter and cut_jitter are fractions in [0, 1]."""

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
        check_modalities(self.modalities, ConfigError)
        if self.latent_dim < 1:
            raise ConfigError("latent_dim must be positive")
        if self.shots_jitter < 0:
            raise ConfigError("shots_jitter must be non-negative")
        if self.tp_motif_halfwidth < 0:
            raise ConfigError("tp_motif_halfwidth must be non-negative")
        for name, top in (("noise", MAX_FEATURE_SCALE), ("tp_motif_scale", MAX_FEATURE_SCALE),
                          ("tp_jitter", 1.0), ("cut_jitter", 1.0)):
            value = getattr(self, name)
            if not 0.0 <= value <= top:  # NaN fails too
                raise ConfigError(f"{name} must lie in [0, {top:g}], got {value}")


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
    the span mean of the same bump. cfg is assumed valid: make_dataset
    validates it.
    """
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
    clean_parts = []
    for name, dim in cfg.modalities:
        mix = rng.normal(size=(cfg.latent_dim, dim))
        raw = shot_latents @ mix
        rms = np.sqrt((raw * raw).mean())
        if rms > 0:
            raw = raw / rms
        clean_parts.append(raw.copy())
        feats = raw + cfg.noise * rng.normal(size=raw.shape)
        streams.append(feats)

    scene_labels = np.zeros(num_shots, dtype=np.int64)
    for c in cuts:
        scene_labels[c - 1] = 1  # shot before each cut ends a scene

    # sentence spans are contiguous groups of whole scenes
    sizes = _partition_sizes(cfg.scenes, cfg.sentences)
    scene_to_sentence = np.repeat(np.arange(cfg.sentences), sizes)
    sentence_of = scene_to_sentence[scene_of]

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
                streams[m][lo:hi] += bump[offsets[m]:offsets[m + 1]]
            # the synopsis is the span mean of the bumped features, and the
            # mean is linear, so shift each overlapped sentence row directly
            for s in range(cfg.sentences):
                inside = int(np.count_nonzero(sentence_of[lo:hi] == s))
                if inside:
                    span_size = int(np.count_nonzero(sentence_of == s))
                    synopsis[s] += bump * (inside / span_size)

    names = tuple(name for name, _ in cfg.modalities)
    return MovieSample(movie_id, num_shots, names, streams, synopsis, scene_labels, sentence_of,
                       tp_labels)


def make_dataset(cfg: SynthConfig, movies: int, seed: int) -> list[MovieSample]:
    """Generate a deterministic list of movies from one root seed, after
    checking cfg and the MAX_SYNTH_VALUES budget."""
    cfg.validate()
    if movies < 1:
        raise ConfigError(f"need at least one movie, got {movies}")
    width = sum(dim for _, dim in cfg.modalities)
    # in Python ints, which do not overflow: every movie's shot latents and
    # streams at its longest and its synopsis, plus one movie's scene
    # latents and modality mixing maps
    held = (movies * ((cfg.shots + cfg.shots_jitter) * (cfg.latent_dim + width)
                      + cfg.sentences * width) + cfg.latent_dim * (cfg.scenes + width))
    if held > MAX_SYNTH_VALUES:
        raise ConfigError(
            f"synth would hold {held:,} float64 values, over the budget of "
            f"{MAX_SYNTH_VALUES:,}; lower movies ({movies}), shots ({cfg.shots}), "
            f"shots_jitter ({cfg.shots_jitter}), latent_dim ({cfg.latent_dim}) or "
            f"modalities (dims sum to {width})"
        )
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
    atomic_write(path, np.ascontiguousarray(matrix, dtype="<f8").tobytes())


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
    """Write a validated sample's manifest.json and blobs; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, x in zip(sample.modalities, sample.streams):
        write_blob(out_dir / f"{name}.f64", x)
    write_blob(out_dir / "synopsis.f64", sample.synopsis_features)
    manifest = {
        "movie_id": sample.movie_id,
        "num_shots": sample.num_shots,
        "modalities": [{"name": name, "dim": dim} for name, dim in sample.layout],
        "scene_labels": sample.scene_labels.tolist(),
        "sentence_of": sample.sentence_of.tolist(),
        "tp_labels": sample.tp_labels,
    }
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
    keys = set(manifest) if isinstance(manifest, dict) else set()
    missing = [k for k in MANIFEST_KEYS if k not in keys]
    unknown = sorted(keys - set(MANIFEST_KEYS))
    if missing or unknown:
        raise DataError(
            f"manifest {manifest_path}: missing keys {missing}, unknown keys {unknown}; "
            f"re-synthesize datasets written by older versions"
        )
    try:
        modalities = [(entry["name"], entry["dim"]) for entry in manifest["modalities"]]
        movie_id, num_shots = manifest["movie_id"], manifest["num_shots"]
        tp_labels = [list(gold) for gold in manifest["tp_labels"]]
        # JSON integers only: an int64 cast would silently truncate 0.6 to 0,
        # and type() also turns away true and false, which Python counts as ints
        for key, values in (
            ("num_shots", [num_shots]), ("modalities[].dim", [dim for _, dim in modalities]),
            ("scene_labels", manifest["scene_labels"]), ("sentence_of", manifest["sentence_of"]),
            ("tp_labels", [i for gold in tp_labels for i in gold]),
        ):
            bad = [v for v in values if type(v) is not int]
            if bad:
                raise DataError(f"manifest {manifest_path}: {key} holds {bad[0]!r}, "
                                f"not an integer")
        scene_labels = np.asarray(manifest["scene_labels"], dtype=np.int64)
        sentence_of = np.asarray(manifest["sentence_of"], dtype=np.int64)
    except DataError:
        raise  # a DataError is a ValueError, and this one names its key
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"manifest {manifest_path} is malformed: {exc!r}") from exc
    # train-act and sync name their per-movie files by movie_id
    if movie_id != manifest_path.parent.name:
        raise DataError(f"manifest {manifest_path} has movie_id {movie_id!r}, not its directory's")
    # the names become blob paths, so check them before reading any blob
    check_modalities(modalities, DataError)
    names = tuple(name for name, _ in modalities)
    streams = [read_blob(manifest_path.parent / f"{name}.f64", dim) for name, dim in modalities]
    synopsis = read_blob(manifest_path.parent / "synopsis.f64", sum(dim for _, dim in modalities))
    return MovieSample(movie_id, num_shots, names, streams, synopsis, scene_labels, sentence_of,
                       tp_labels)


def save_dataset(samples: list[MovieSample], out_dir: Path) -> list[Path]:
    return [save_movie(s, Path(out_dir) / s.movie_id) for s in samples]


def load_dataset(root: Path) -> list[MovieSample]:
    manifests = sorted(Path(root).glob("*/manifest.json"))
    if not manifests:
        raise BlobIOError(f"no movie manifests under {root}")
    movies = [load_movie(p) for p in manifests]
    want = movies[0].layout
    for movie in movies[1:]:
        if movie.layout != want:
            raise DataError(
                f"movie {movie.movie_id} has modalities {movie.layout}, but "
                f"{movies[0].movie_id} has {want}"
            )
    return movies
