import dataclasses
import json
import re

import numpy as np
import numpy.testing as npt
import pytest

from cineseg import dataio
from cineseg.errors import BlobIOError, ConfigError, DataError, NumericError


def small_cfg(**kw):
    base = dict(
        shots=40,
        scenes=8,
        sentences=4,
        modalities=(("visual", 6), ("audio", 4)),
        latent_dim=16,
        noise=0.0,
        tp_jitter=0.0,
    )
    base.update(kw)
    return dataio.SynthConfig(**base)


# ---- the movie sample ----


def _two_stream_movie():
    return dataio.synth_movie(small_cfg(), np.random.default_rng(7), "m0")


@pytest.mark.parametrize("edit, fault", [
    (lambda m: dict(modalities=m.modalities + ("extra",)),
     "movie 'm0' has 3 names for 2 streams"),
    (lambda m: dict(streams=[m.streams[0][:, 0], m.streams[1]]),
     "movie 'm0': stream 'visual' must be 2-D, got (40,)"),
    (lambda m: dict(streams=[m.streams[0][1:], m.streams[1]]),
     "movie 'm0': stream 'visual' has 39 rows for 40 shots"),
], ids=["more-names-than-streams", "1-D-stream", "short-stream"])
def test_movie_sample_rejects_streams_that_do_not_fit_its_names(edit, fault):
    movie = _two_stream_movie()
    with pytest.raises(DataError, match=re.escape(fault)):
        dataclasses.replace(movie, **edit(movie))


def test_movie_sample_casts_integer_streams_to_float64():
    movie = _two_stream_movie()
    ints = np.arange(40 * 6).reshape(40, 6)
    cast = dataclasses.replace(movie, streams=[ints, movie.streams[1]])
    assert cast.streams[0].dtype == np.float64
    assert np.array_equal(cast.streams[0], ints)
    assert cast.layout == [("visual", 6), ("audio", 4)]


# ---- synthetic movies ----


def test_synth_plants_expected_structure():
    cfg = small_cfg(noise=0.25)
    movie = dataio.synth_movie(cfg, np.random.default_rng(7), "m0")
    assert movie.num_shots == 40
    assert movie.scene_labels.sum() == cfg.scenes - 1
    assert movie.scene_labels[-1] == 0
    assert movie.layout == [("visual", 6), ("audio", 4)]
    assert movie.synopsis_features.shape == (4, 10)
    # every shot maps to exactly one sentence and spans are contiguous
    assert (movie.gold_sync.sum(axis=1) == 1).all()
    owner = movie.gold_sync.argmax(axis=1)
    assert (np.diff(owner) >= 0).all()
    for gold in movie.tp_labels:
        assert len(gold) == 1 and 0 <= gold[0] < 4


def test_synth_turning_points_near_theory_positions():
    cfg = small_cfg(shots=200, scenes=20, sentences=10)
    movie = dataio.synth_movie(cfg, np.random.default_rng(3), "m0")
    owner = movie.gold_sync.argmax(axis=1)
    for frac, gold in zip(dataio.THEORY_POSITIONS, movie.tp_labels):
        t = int(round(frac * (movie.num_shots - 1)))
        assert owner[t] == gold[0]


def test_synth_noiseless_synopsis_is_span_mean():
    cfg = small_cfg(modalities=(("only", 6),), noise=0.0)
    movie = dataio.synth_movie(cfg, np.random.default_rng(11), "m0")
    feats = movie.streams[0]
    owner = movie.gold_sync.argmax(axis=1)
    for s in range(4):
        npt.assert_allclose(
            movie.synopsis_features[s], feats[owner == s].mean(axis=0), atol=1e-12
        )


def test_synth_deterministic_under_seed():
    a = dataio.make_dataset(small_cfg(noise=0.3), 3, seed=42)
    b = dataio.make_dataset(small_cfg(noise=0.3), 3, seed=42)
    for ma, mb in zip(a, b):
        assert ma.movie_id == mb.movie_id
        for sa, sb in zip(ma.streams, mb.streams):
            assert sa.tobytes() == sb.tobytes()
        assert ma.synopsis_features.tobytes() == mb.synopsis_features.tobytes()
        assert ma.tp_labels == mb.tp_labels


def test_synth_shot_count_jitter_varies_lengths():
    cfg = small_cfg(shots=60, shots_jitter=10, scenes=8)
    lengths = {m.num_shots for m in dataio.make_dataset(cfg, 6, seed=5)}
    assert len(lengths) > 1
    assert all(50 <= n <= 70 for n in lengths)


def test_synth_rejects_bad_configs():
    for overrides in (
        dict(scenes=2, sentences=4),
        dict(shots=5, scenes=8),
        dict(noise=-1.0),
        dict(noise=1001.0),
        dict(tp_motif_scale=-0.5),
        dict(tp_motif_halfwidth=-1),
        dict(cut_jitter=-0.1),
        dict(cut_jitter=1.5),
        dict(tp_jitter=1.5),
    ):
        with pytest.raises(ConfigError):
            dataio.make_dataset(small_cfg(**overrides), 1, seed=0)


def test_synth_bounds_are_inclusive():
    movie, = dataio.make_dataset(small_cfg(noise=1e3, tp_jitter=1.0, cut_jitter=1.0), 1, seed=0)
    assert all(np.isfinite(x).all() for x in movie.streams)


def test_synth_value_budget_is_inclusive(monkeypatch):
    cfg = small_cfg(shots_jitter=3)
    # 2 movies x (43 shots x (16 + 10) + 4 sentences x 10) + 16 x (8 scenes + 10)
    held = 2 * (43 * 26 + 40) + 16 * 18
    monkeypatch.setattr(dataio, "MAX_SYNTH_VALUES", held)
    assert len(dataio.make_dataset(cfg, 2, seed=0)) == 2
    monkeypatch.setattr(dataio, "MAX_SYNTH_VALUES", held - 1)
    with pytest.raises(ConfigError, match=f"hold {held:,} float64 values"):
        dataio.make_dataset(cfg, 2, seed=0)


@pytest.mark.parametrize("overrides, named", [
    (dict(shots=10**12), "shots (1000000000000)"),
    (dict(latent_dim=10**11), "latent_dim (100000000000)"),
    (dict(modalities=(("a", 10**11),)), "modalities (dims sum to 100000000000)"),
], ids=["shots", "latent_dim", "modalities"])
def test_synth_over_the_value_budget_names_its_settings(overrides, named):
    # checked with Python ints before numpy allocates anything
    with pytest.raises(ConfigError, match=re.escape(named)):
        dataio.make_dataset(small_cfg(**overrides), 1, seed=0)


# ---- turning-point motif and cut jitter ----


def _stream_diff(on, off):
    a = np.concatenate(on.streams, axis=1)
    b = np.concatenate(off.streams, axis=1)
    return a - b


def test_motif_bump_is_local_and_shared_across_movies():
    kw = dict(noise=0.2, tp_jitter=0.0, tp_motif_halfwidth=1)
    on = dataio.make_dataset(small_cfg(tp_motif_scale=2.0, **kw), 3, seed=7)
    off = dataio.make_dataset(small_cfg(tp_motif_scale=0.0, **kw), 3, seed=7)
    tp_shots = [int(round(f * 39)) for f in dataio.THEORY_POSITIONS]
    windows = {t + d for t in tp_shots for d in (-1, 0, 1)}
    for mon, moff in zip(on, off):
        diff = _stream_diff(mon, moff)
        touched = set(np.flatnonzero(np.abs(diff).sum(axis=1)).tolist())
        assert touched == windows
    # the same unit-RMS direction lands at every movie's k-th turning point
    d0 = _stream_diff(on[0], off[0])
    d1 = _stream_diff(on[1], off[1])
    for t in tp_shots:
        npt.assert_allclose(d0[t], d1[t], atol=1e-12)
        npt.assert_allclose(np.sqrt(((d0[t] / 2.0) ** 2).mean()), 1.0, atol=1e-12)


def test_motif_shifts_synopsis_by_span_mean_of_bump():
    kw = dict(noise=0.1, tp_jitter=0.01, tp_motif_halfwidth=2)
    on = dataio.make_dataset(small_cfg(tp_motif_scale=1.5, **kw), 2, seed=9)
    off = dataio.make_dataset(small_cfg(tp_motif_scale=0.0, **kw), 2, seed=9)
    for mon, moff in zip(on, off):
        diff = _stream_diff(mon, moff)
        owner = mon.gold_sync.argmax(axis=1)
        syn_diff = mon.synopsis_features - moff.synopsis_features
        for s in range(mon.synopsis_features.shape[0]):
            npt.assert_allclose(syn_diff[s], diff[owner == s].mean(axis=0), atol=1e-12)


def test_cut_jitter_zero_plants_even_grid_cuts():
    movie = dataio.synth_movie(small_cfg(cut_jitter=0.0), np.random.default_rng(3), "m0")
    want = np.zeros(40, dtype=np.int64)
    want[[4, 9, 14, 19, 24, 29, 34]] = 1
    npt.assert_array_equal(movie.scene_labels, want)


def test_cut_jitter_setting_leaves_other_draws_untouched():
    # locate planted turning points via a zero-width motif; the tp jitter
    # draw must not depend on how the scene cuts were placed
    kw = dict(noise=0.0, tp_jitter=0.05, tp_motif_scale=1.0, tp_motif_halfwidth=0)
    loose = dataio.make_dataset(small_cfg(**kw), 2, seed=13)
    base = dataio.make_dataset(small_cfg(tp_motif_scale=0.0, noise=0.0, tp_jitter=0.05), 2, seed=13)
    tight = dataio.make_dataset(small_cfg(cut_jitter=0.0, **kw), 2, seed=13)
    tbase = dataio.make_dataset(
        small_cfg(cut_jitter=0.0, tp_motif_scale=0.0, noise=0.0, tp_jitter=0.05), 2, seed=13
    )
    for ml, mb, mt, mtb in zip(loose, base, tight, tbase):
        loose_tps = np.flatnonzero(np.abs(_stream_diff(ml, mb)).sum(axis=1))
        tight_tps = np.flatnonzero(np.abs(_stream_diff(mt, mtb)).sum(axis=1))
        npt.assert_array_equal(loose_tps, tight_tps)


# ---- serialization ----


def test_round_trip_is_bit_identical(tmp_path):
    movie = dataio.synth_movie(small_cfg(noise=0.5), np.random.default_rng(1), "m0")
    manifest = dataio.save_movie(movie, tmp_path / "m0")
    back = dataio.load_movie(manifest)
    assert back.movie_id == movie.movie_id
    assert back.num_shots == movie.num_shots
    assert back.modalities == movie.modalities
    for sa, sb in zip(movie.streams, back.streams):
        assert sa.tobytes() == sb.tobytes()
    assert back.synopsis_features.tobytes() == movie.synopsis_features.tobytes()
    npt.assert_array_equal(back.sentence_of, movie.sentence_of)
    assert back.gold_sync.tobytes() == movie.gold_sync.tobytes()
    npt.assert_array_equal(back.scene_labels, movie.scene_labels)
    assert back.tp_labels == movie.tp_labels


def test_synth_and_save_validate_each_movie_once(tmp_path, monkeypatch):
    calls = []
    validate = dataio.MovieSample.validate
    monkeypatch.setattr(dataio.MovieSample, "validate",
                        lambda self: calls.append(self.movie_id) or validate(self))
    movies = dataio.make_dataset(small_cfg(), movies=3, seed=2)
    dataio.save_dataset(movies, tmp_path)
    assert sorted(calls) == sorted(m.movie_id for m in movies)


def test_manifest_schema_keys(tmp_path):
    movie = dataio.synth_movie(small_cfg(), np.random.default_rng(2), "m0")
    manifest = json.loads(dataio.save_movie(movie, tmp_path / "m0").read_text())
    assert set(manifest) == set(dataio.MANIFEST_KEYS) == {
        "movie_id", "num_shots", "modalities", "scene_labels", "sentence_of", "tp_labels",
    }
    assert manifest["num_shots"] == 40 and len(manifest["sentence_of"]) == 40
    assert manifest["modalities"] == [{"name": "visual", "dim": 6}, {"name": "audio", "dim": 4}]
    # blob names follow from the schema, and there is no other file
    assert sorted(p.name for p in (tmp_path / "m0").iterdir()) == [
        "audio.f64", "manifest.json", "synopsis.f64", "visual.f64",
    ]


def test_gold_sync_is_a_read_only_one_hot_view_of_sentence_of():
    movie = dataio.synth_movie(small_cfg(), np.random.default_rng(3), "m0")
    gold = movie.gold_sync
    assert gold.shape == (40, 4) and not gold.flags.writeable
    npt.assert_array_equal(gold.sum(axis=1), 1.0)
    npt.assert_array_equal(gold.argmax(axis=1), movie.sentence_of)


def test_blob_row_count_inferred_from_size(tmp_path):
    mat = np.arange(12.0).reshape(4, 3)
    dataio.write_blob(tmp_path / "x.f64", mat)
    back = dataio.read_blob(tmp_path / "x.f64", 3)
    npt.assert_array_equal(back, mat)
    assert (tmp_path / "x.f64").stat().st_size == 12 * 8


def test_missing_blob_raises_io_error(tmp_path):
    with pytest.raises(BlobIOError):
        dataio.read_blob(tmp_path / "absent.f64", 4)


def test_truncated_blob_reports_byte_counts(tmp_path):
    (tmp_path / "bad.f64").write_bytes(b"\x00" * 20)
    with pytest.raises(BlobIOError) as exc:
        dataio.read_blob(tmp_path / "bad.f64", 3)
    assert "20" in str(exc.value) and "24" in str(exc.value)


def test_non_finite_blob_raises_numeric_error(tmp_path):
    mat = np.array([[1.0, np.nan]])
    (tmp_path / "nan.f64").write_bytes(mat.astype("<f8").tobytes())
    with pytest.raises(NumericError):
        dataio.read_blob(tmp_path / "nan.f64", 2)


def test_row_count_mismatch_is_data_error(tmp_path):
    movie = dataio.synth_movie(small_cfg(), np.random.default_rng(4), "m0")
    out = tmp_path / "m0"
    dataio.save_movie(movie, out)
    # append one extra feature row to the first stream blob
    blob = out / "visual.f64"
    blob.write_bytes(blob.read_bytes() + b"\x00" * 8 * 6)
    with pytest.raises(DataError):
        dataio.load_movie(out)


def test_failed_write_leaves_no_file_behind(tmp_path, monkeypatch):
    class HalfWriter:
        """A file that takes half of the bytes, then reports a full disk."""

        def __init__(self, path, mode):
            self.fh = open(path, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError("disk full")

    target = tmp_path / "out.json"
    monkeypatch.setattr(dataio, "open", HalfWriter, raising=False)
    with pytest.raises(OSError, match="disk full"):
        dataio.atomic_write(target, b"0123456789")
    assert list(tmp_path.iterdir()) == []

    # a failed write keeps the previous content under the final name
    monkeypatch.undo()
    target.write_bytes(b"old")
    monkeypatch.setattr(dataio, "open", HalfWriter, raising=False)
    with pytest.raises(OSError):
        dataio.atomic_write(target, b"new content")
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_bytes() == b"old"


@pytest.mark.parametrize(
    "modalities",
    [
        (("visual", 6), ("visual", 4)),  # both would write visual.f64
        (("synopsis", 6),),  # clobbers the synopsis blob
        (("../../escaped", 6),),  # a path, not a file name
        (("", 6),),
    ],
    ids=["duplicate", "synopsis", "path", "empty"],
)
def test_modality_names_must_be_unique_plain_file_names(modalities):
    with pytest.raises(ConfigError, match="modality name"):
        small_cfg(modalities=modalities).validate()


def _saved_manifest(tmp_path):
    movie = dataio.synth_movie(small_cfg(), np.random.default_rng(5), "m0")
    path = dataio.save_movie(movie, tmp_path / "m0")
    return path, json.loads(path.read_text())


@pytest.mark.parametrize(
    "key, name",
    [("modality", "../visual.f64"), ("synopsis_blob", "/dev/null"),
     ("gold_sync_blob", "sub/gold_sync.f64"), ("modality", "..")],
)
def test_load_movie_rejects_blob_outside_movie_dir(tmp_path, key, name):
    # a modality name is the only part of a blob path that a manifest
    # holds, and a key that once named a blob is an unknown key now
    manifest_path, manifest = _saved_manifest(tmp_path)
    if key == "modality":
        manifest["modalities"][0]["name"] = name
    else:
        manifest[key] = name
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(DataError, match=re.escape(repr(name if key == "modality" else key))):
        dataio.load_movie(manifest_path)


def _drop(key):
    return lambda m: m.pop(key)


def _old_format(m):
    m["shots"] = [[2.0 * i, 2.0 * i + 2.0] for i in range(m.pop("num_shots"))]


def _rename_first_modality(name):
    return lambda m: m["modalities"][0].update(name=name)


@pytest.mark.parametrize(
    "edit, fault",
    [(_drop(key), repr(key)) for key in dataio.MANIFEST_KEYS]
    + [
        (_old_format, "'num_shots'"),
        (lambda m: m["sentence_of"].pop(), "sentence_of shape"),
        (lambda m: m["sentence_of"].__setitem__(0, 4), "sentence_of values"),
        (lambda m: m["sentence_of"].__setitem__(0, -1), "sentence_of values"),
        (lambda m: m["scene_labels"].append(0), "scene_labels shape"),
        (lambda m: m.update(movie_id="../m1"), "'../m1'"),
        (lambda m: m["scene_labels"].__setitem__(0, 10**20), "OverflowError"),
        (_rename_first_modality("../visual"), "'../visual'"),
        (_rename_first_modality("synopsis"), "'synopsis'"),
        (_rename_first_modality("audio"), "'audio'"),
    ],
    ids=[f"no-{key}" for key in dataio.MANIFEST_KEYS] + [
        "old-format", "short-sentence_of", "sentence_of-too-high", "sentence_of-negative",
        "long-scene_labels", "movie_id-not-dir-name", "huge-scene_label", "name-path",
        "name-synopsis", "name-duplicate",
    ],
)
def test_load_movie_rejects_malformed_manifest(tmp_path, edit, fault):
    manifest_path, manifest = _saved_manifest(tmp_path)
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(DataError, match=re.escape(fault)):
        dataio.load_movie(manifest_path)


def _set_first(key, value):
    return lambda m: m[key].__setitem__(0, value)


@pytest.mark.parametrize(
    "edit, key, value",
    [
        (lambda m: m.update(num_shots=40.9), "num_shots", 40.9),
        (lambda m: m["modalities"][0].update(dim=6.5), "modalities[].dim", 6.5),
        (_set_first("scene_labels", 0.6), "scene_labels", 0.6),
        (_set_first("scene_labels", True), "scene_labels", True),
        (_set_first("sentence_of", 1.5), "sentence_of", 1.5),
        (lambda m: m["tp_labels"][0].__setitem__(0, 0.7), "tp_labels", 0.7),
    ],
    ids=["num_shots", "dim", "scene_labels", "scene_labels-bool", "sentence_of", "tp_labels"],
)
def test_load_movie_rejects_a_value_that_is_not_an_integer(tmp_path, edit, key, value):
    # an int64 cast would load 0.6 as 0, and true as 1
    manifest_path, manifest = _saved_manifest(tmp_path)
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(DataError) as exc:
        dataio.load_movie(manifest_path)
    assert str(exc.value) == f"manifest {manifest_path}: {key} holds {value!r}, not an integer"
