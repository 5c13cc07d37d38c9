"""CLI tests: config resolution, every subcommand end to end on tiny
synthetic datasets, exit-code mapping, and byte-level reproducibility."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from cineseg import alignfuse as af
from cineseg import cli
from cineseg import dataio
from cineseg import gradcheck
from cineseg import numcore as nc
from cineseg import sync
from cineseg import trainer
from cineseg.errors import ConfigError, DataError, NumericError


def tree_digest(root) -> str:
    digest = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            digest.update(p.relative_to(root).as_posix().encode())
            digest.update(p.read_bytes())
    return digest.hexdigest()


# ---- config plumbing ----


def test_read_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\n\nshots = 40\nnoise=0.5\n")
    assert cli.read_config_file(cfg) == {"shots": "40", "noise": "0.5"}


def test_config_file_with_a_byte_order_mark_resolves_like_the_plain_one(tmp_path):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text("shots = 40\nnoise = 0.5\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert (cli.resolve_config(cli.SYNTH_KEYS, marked, [])
            == cli.resolve_config(cli.SYNTH_KEYS, plain, []))


def test_read_config_file_rejects_bare_words(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("shots\n")
    with pytest.raises(ConfigError):
        cli.read_config_file(cfg)


def test_resolve_config_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("shots=40\nscenes=5\n")
    resolved = cli.resolve_config(cli.SYNTH_KEYS, cfg, ["shots=60"])
    assert resolved["shots"] == 60  # --set beats the file
    assert resolved["scenes"] == 5  # file beats the default
    assert resolved["sentences"] == 5  # untouched default


def test_resolve_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        cli.resolve_config(cli.SYNTH_KEYS, None, ["frames=3"])


def test_resolve_config_rejects_bad_value():
    with pytest.raises(ConfigError, match="bad value"):
        cli.resolve_config(cli.SYNTH_KEYS, None, ["shots=many"])


def test_parse_modalities():
    assert cli._parse_modalities("visual:16, audio:12") == (
        ("visual", 16),
        ("audio", 12),
    )
    with pytest.raises(ConfigError):
        cli._parse_modalities("visual16")


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize(
    "path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda path: path.name
)
def test_shipped_config_resolves_against_its_command(path):
    # each shipped config names its command on a "# Run: cineseg <command>" line
    command = re.search(r"^# Run: cineseg (\S+)", path.read_text(), re.M).group(1)
    registry = {
        "synth": cli.SYNTH_KEYS, "train-scene": cli.SCENE_KEYS, "train-act": cli.ACT_KEYS,
    }[command]
    cli.resolve_config(registry, path, [])  # a stale or unknown key raises


def test_every_train_config_field_is_a_train_key():
    # a field that no command can set is a constant in disguise
    settable = {f.name for f in fields(trainer.TrainConfig)} - {"seed"}
    assert set(cli._section(cli.ACT_KEYS, "train")) == settable
    assert set(cli._section(cli.SCENE_KEYS, "train")) <= settable


def test_main_without_command_exits_2():
    assert cli.main([]) == 2


def test_main_help_exits_0():
    assert cli.main(["--help"]) == 0


# ---- datasets shared across command tests ----

SCENE_SET = [
    "scenes=4", "sentences=2", "modalities=visual:6,audio:4",
    "latent_dim=8", "noise=0.1",
]
ACT_SET = [
    "scenes=4", "sentences=3", "modalities=content:10",
    "latent_dim=8", "noise=0.0",
]
SCENE_MODEL_SET = [
    "model.seq_len=5", "model.align_len=2", "model.width=8",
    "model.ffn_width=16", "model.unimodal_depth=1", "model.fusion_depth=1",
    "train.epochs=1", "train.batch_size=32",
]
ACT_MODEL_SET = [
    "shot.align_len=3", "shot.width=8", "shot.ffn_width=16", "shot.unimodal_depth=1",
    "shot.fusion_depth=0", "synopsis.ffn_width=16", "synopsis.unimodal_depth=1",
    "train.epochs=1", "train.batch_size=2", "train.sync_dim=6",
]


def _sets(pairs):
    out = []
    for p in pairs:
        out += ["--set", p]
    return out


@pytest.fixture(scope="module")
def scene_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene_data")
    code = cli.main(
        ["synth", "--movies", "4", "--shots", "30", "--seed", "5",
         "--out", str(out)] + _sets(SCENE_SET)
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def act_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("act_data")
    code = cli.main(
        ["synth", "--movies", "4", "--shots", "24", "--seed", "6",
         "--out", str(out)] + _sets(ACT_SET)
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def scene_run(scene_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("scene_run")
    code = cli.main(
        ["train-scene", "--data", str(scene_data), "--seed", "3",
         "--out", str(out)] + _sets(SCENE_MODEL_SET)
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def act_run(act_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("act_run")
    code = cli.main(
        ["train-act", "--data", str(act_data), "--seed", "4",
         "--out", str(out)] + _sets(ACT_MODEL_SET)
    )
    assert code == 0
    return out


# ---- synth ----


def test_synth_outputs(scene_data, capsys):
    movies = dataio.load_dataset(scene_data)
    assert len(movies) == 4
    assert all(m.num_shots == 30 for m in movies)
    summary = json.loads((scene_data / "summary.json").read_text())
    assert [m["movie_id"] for m in summary["movies"]] == [
        f"movie_{i:04d}" for i in range(4)
    ]
    config = json.loads((scene_data / "config.json").read_text())
    assert config["command"] == "synth" and config["seed"] == 5


def test_synth_deterministic(tmp_path):
    args = ["synth", "--movies", "2", "--shots", "20", "--seed", "9"] + _sets(SCENE_SET)
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


LAZY_SCIPY_SCRIPT = """
import json, math, sys
import numpy as np
from cineseg import cli
from cineseg import numcore as nc

assert cli.main(json.loads(sys.argv[1])) == 0
assert "scipy" not in sys.modules, "synth loaded scipy"
x = np.linspace(-8.0, 8.0, 4001)
out = nc.gelu(nc.Tensor(x)).data
assert "scipy.special" not in sys.modules, "gelu imported scipy.special"
from scipy.special import erf
expected = x * (0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0)))))
assert out.tobytes() == expected.tobytes(), "gelu differs from the eager erf path"
"""


def _run_script(script, args):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(args)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_synth_runs_without_scipy_until_the_first_gelu(tmp_path):
    _run_script(LAZY_SCIPY_SCRIPT, ["synth", "--movies", "2", "--shots", "20", "--seed", "9",
                                    "--out", str(tmp_path / "data")] + _sets(SCENE_SET))


MODEL_COMMAND_SCRIPT = """
import json, sys
from cineseg import cli
from cineseg import numcore as nc

assert cli.main(json.loads(sys.argv[1])) == 0
assert "scipy.special" not in sys.modules, "the command imported scipy.special"
assert nc._erf.cache_info().currsize == 1, "the model ran no GeLU"
import scipy.special
assert nc._erf() is scipy.special.erf, "a later scipy.special import names another erf"
"""


def test_model_command_never_imports_scipy_special(scene_run, scene_data, tmp_path):
    _run_script(MODEL_COMMAND_SCRIPT, ["eval", "--checkpoint", str(scene_run / "model.ckpt"),
                                       "--data", str(scene_data), "--out", str(tmp_path / "eval")])


COMMAND_MODULES_SCRIPT = """
import json, sys
from cineseg import cli

args, unloaded = json.loads(sys.argv[1])
assert cli.main(args) == 0
loaded = [name for name in unloaded if name in sys.modules]
assert not loaded, f"{args[0]} loaded {loaded}"
"""


def test_synth_loads_no_model_module(tmp_path):
    args = ["synth", "--movies", "2", "--shots", "20", "--seed", "9",
            "--out", str(tmp_path / "data")] + _sets(SCENE_SET)
    models = ["numcore", "alignfuse", "trainer", "sync", "distill", "metrics", "gradcheck"]
    _run_script(COMMAND_MODULES_SCRIPT, [args, [f"cineseg.{name}" for name in models]])


def test_eval_loads_neither_gradcheck_nor_signal(scene_run, scene_data, tmp_path):
    # the process pool is for the finite-difference workers only
    args = ["eval", "--checkpoint", str(scene_run / "model.ckpt"), "--data", str(scene_data),
            "--out", str(tmp_path / "eval")]
    unloaded = ["cineseg.gradcheck", "signal", "multiprocessing", "concurrent.futures"]
    _run_script(COMMAND_MODULES_SCRIPT, [args, unloaded])


@pytest.mark.parametrize("command, kind", [
    ("eval", "scene"), ("importance", "scene"), ("eval", "act"), ("importance", "act"),
    ("sync", "act"),
])
def test_checkpoint_commands_load_no_numpy_random(command, kind, request, tmp_path):
    # a loaded model's values all come from its checkpoint, so no initial
    # values are drawn; numpy.random would cost about 6 MB per process
    run, data = (request.getfixturevalue(f"{kind}_{name}") for name in ("run", "data"))
    args = [command, "--checkpoint", str(run / "model.ckpt"), "--data", str(data),
            "--out", str(tmp_path / command)]
    _run_script(COMMAND_MODULES_SCRIPT, [args, ["numpy.random"]])


def test_synth_invalid_config_exits_2(tmp_path, capsys):
    code = cli.main(
        ["synth", "--movies", "1", "--shots", "3", "--out", str(tmp_path)]
        + _sets(["scenes=50"])
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_set_key_exits_2(tmp_path, capsys):
    code = cli.main(
        ["synth", "--out", str(tmp_path), "--set", "reels=4"]
    )
    assert code == 2


# ---- train-scene ----


def run_tree(root) -> list[str]:
    """Every file and directory under root, as sorted relative paths."""
    return sorted(p.relative_to(root).as_posix() for p in Path(root).rglob("*"))


# what a training run writes, once training has returned: no per-epoch checkpoints
TRAINING_OUTPUTS = ["config.json", "model.ckpt", "reports.json", "train_log.jsonl"]


def test_train_scene_outputs(scene_run):
    assert run_tree(scene_run) == TRAINING_OUTPUTS
    reports = json.loads((scene_run / "reports.json").read_text())
    assert len(reports) == 2  # pre-training plus one epoch
    assert all(r["task"] == "scene" for r in reports)
    logs = [
        json.loads(line)
        for line in (scene_run / "train_log.jsonl").read_text().splitlines()
    ]
    assert [rec["step"] for rec in logs] == list(range(1, len(logs) + 1))


def test_eval_scene(scene_run, scene_data, tmp_path, capsys):
    out = tmp_path / "eval"
    code = cli.main(
        ["eval", "--checkpoint", str(scene_run / "model.ckpt"),
         "--data", str(scene_data), "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["task"] == "scene"
    assert 0.0 <= report["values"]["ap"] <= 1.0
    rows = (out / "scores.csv").read_text().splitlines()
    assert rows[0] == "movie_id,shot,score,label"
    assert len(rows) == 1 + 4 * 30
    printed = json.loads(capsys.readouterr().out)
    assert printed == report


def test_importance_scene(scene_run, scene_data, tmp_path):
    out = tmp_path / "imp"
    code = cli.main(
        ["importance", "--checkpoint", str(scene_run / "model.ckpt"),
         "--data", str(scene_data), "--out", str(out)]
    )
    assert code == 0
    payload = json.loads((out / "importance.json").read_text())
    assert len(payload) == 4
    for record in payload:
        assert set(record["weights"]) == {"visual", "audio"}
        assert sum(record["weights"].values()) == pytest.approx(1.0, abs=1e-9)
        assert record["shot"] == 15


@pytest.mark.parametrize("command", ["eval", "importance"])
def test_scene_commands_name_the_movie_too_short_for_the_window(
    scene_run, tmp_path, capsys, command
):
    # scene_run's windows hold 5 shots; mirror padding cannot fill them
    # from a 2-shot movie
    data = tmp_path / "short"
    argv = ["synth", "--movies", "2", "--shots", "2", "--seed", "5", "--out", str(data)]
    assert cli.main(argv + _sets(SCENE_SET + ["scenes=1", "sentences=1"])) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    code = cli.main([command, "--checkpoint", str(scene_run / "model.ckpt"),
                     "--data", str(data), "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == (
        "data error: movie movie_0000 has 2 shots, too short for a 5-shot window\n"
    )
    assert not out.exists()


# ---- train-act ----


def test_train_act_outputs(act_run):
    syncs = ["sync", "sync/movie_0000.json", "sync/movie_0001.json"]
    assert run_tree(act_run) == sorted(TRAINING_OUTPUTS + syncs)
    reports = json.loads((act_run / "reports.json").read_text())
    assert all(r["task"] == "act" for r in reports)
    assert "span_hit_rate" in reports[-1]["values"]


def test_sync_command(act_run, act_data, tmp_path):
    out = tmp_path / "sync"
    code = cli.main(
        ["sync", "--checkpoint", str(act_run / "model.ckpt"),
         "--data", str(act_data), "--out", str(out), "--pgm"]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["movies"]) == 4
    payload = json.loads((out / "movie_0000.json").read_text())
    sm = sync.sync_from_json(payload)
    assert sm.w.shape == (24, 3)
    band = sync.band_mask(24, 3, payload["xi"])
    assert not sm.w[~band].any()
    pgm = (out / "movie_0000.pgm").read_bytes()
    assert pgm.startswith(b"P5\n3 24\n255\n")


def test_sync_reproduces_train_act_syncs(act_run, act_data, tmp_path):
    # the checkpoint carries the E-step settings training used
    out = tmp_path / "sync"
    code = cli.main(
        ["sync", "--checkpoint", str(act_run / "model.ckpt"),
         "--data", str(act_data), "--out", str(out)]
    )
    assert code == 0
    trained = sorted((act_run / "sync").glob("*.json"))
    assert [p.name for p in trained] == ["movie_0000.json", "movie_0001.json"]
    for path in trained:
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def test_sync_summary_reports_gold_agreement(act_run, act_data, tmp_path, monkeypatch):
    argv = ["sync", "--checkpoint", str(act_run / "model.ckpt"), "--data", str(act_data)]
    out = tmp_path / "sync"
    assert cli.main(argv + ["--out", str(out)]) == 0
    record = json.loads((out / "summary.json").read_text())["movies"][0]
    # recompute movie_0000's record from its saved sync and its planted
    # sentences, whatever training made of them
    w = sync.sync_from_json(json.loads((out / "movie_0000.json").read_text())).w
    manifest = json.loads((act_data / "movie_0000" / "manifest.json").read_text())
    hits = sum(w[t, j] for t, j in enumerate(manifest["sentence_of"]))
    assert record["assigned"] == w.sum()
    assert record["gold_precision"] == (hits / w.sum() if w.sum() else None)
    assert record["gold_recall"] == hits / 24

    def summary_of(e_step, name):
        monkeypatch.setattr(trainer.ActPipeline, "e_step", e_step)
        assert cli.main(argv + ["--out", str(tmp_path / name)]) == 0
        return json.loads((tmp_path / name / "summary.json").read_text())["movies"]

    # every shot on its planted sentence, and the first 5 shots also on
    # the next one: 29 pairs, 24 of them on the planted sync
    movies = dataio.load_dataset(act_data)

    def known(self, inputs):
        syncs = []
        for movie in movies:
            w = np.array(movie.gold_sync)
            w[np.arange(5), (movie.sentence_of[:5] + 1) % 3] = 1.0
            syncs.append(sync.SyncMatrix(w, 0.1, np.zeros(3)))
        return syncs

    records = summary_of(known, "known")
    assert [(r["assigned"], r["gold_precision"], r["gold_recall"]) for r in records] == [
        (29, 24 / 29, 1.0)] * 4
    # with nothing assigned, precision is null and recall 0
    records = summary_of(
        lambda self, inputs: [sync.SyncMatrix(np.zeros((24, 3)), 0.1, np.zeros(3))] * len(inputs),
        "empty",
    )
    assert [(r["gold_precision"], r["gold_recall"]) for r in records] == [(None, 0.0)] * 4


def test_sync_summary_is_the_gold_agreement_of_the_saved_syncs(act_run, act_data, tmp_path):
    out = tmp_path / "sync"
    assert cli.main(["sync", "--checkpoint", str(act_run / "model.ckpt"),
                     "--data", str(act_data), "--out", str(out)]) == 0
    records = []
    for movie in sorted(p.name for p in act_data.iterdir() if p.is_dir()):
        w = sync.sync_from_json(json.loads((out / f"{movie}.json").read_text())).w
        manifest = json.loads((act_data / movie / "manifest.json").read_text())
        records.append({"movie_id": movie, "shots": 24, "sentences": 3,
                        **sync.gold_agreement(w, np.array(manifest["sentence_of"]))})
    assert json.loads((out / "summary.json").read_text()) == {"movies": records}


def test_eval_act(act_run, act_data, tmp_path):
    out = tmp_path / "eval"
    code = cli.main(
        ["eval", "--checkpoint", str(act_run / "model.ckpt"),
         "--data", str(act_data), "--out", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["task"] == "act"
    assert {"span_hit_rate", "ta", "pa", "d"} <= set(report["values"])
    rows = (out / "scores.csv").read_text().splitlines()
    assert rows[0] == "movie_id,shot,tp0,tp1,tp2,tp3,tp4"
    assert len(rows) == 1 + 4 * 24
    # each turning-point column is a distribution over shots per movie
    per_movie = np.array(
        [[float(v) for v in row.split(",")[2:]] for row in rows[1:25]]
    )
    assert per_movie.sum(axis=0) == pytest.approx(np.ones(5), abs=1e-9)


def test_importance_act(act_run, act_data, tmp_path):
    out = tmp_path / "imp"
    code = cli.main(
        ["importance", "--checkpoint", str(act_run / "model.ckpt"),
         "--data", str(act_data), "--out", str(out)]
    )
    assert code == 0
    payload = json.loads((out / "importance.json").read_text())
    assert all(record["weights"] == {"content": 1.0} for record in payload)


def test_train_scene_deterministic_bytes(scene_data, tmp_path):
    args = (
        ["train-scene", "--data", str(scene_data), "--seed", "3"]
        + _sets(SCENE_MODEL_SET)
    )
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


@pytest.mark.parametrize("task", ["scene", "act"])
@pytest.mark.parametrize("command", ["eval", "importance"])
def test_one_checkpoint_read_and_one_forward_per_movie(
    task, command, scene_run, scene_data, act_run, act_data, tmp_path, monkeypatch
):
    run, data = (scene_run, scene_data) if task == "scene" else (act_run, act_data)
    calls = {"encode": 0, "load_checkpoint": 0}

    def counted(name):
        original = getattr(af, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(af, name, counted(name))
    code = cli.main(
        [command, "--checkpoint", str(run / "model.ckpt"), "--data", str(data),
         "--out", str(tmp_path / "out")]
    )
    assert code == 0
    # 4 movies; act eval encodes its equal-length movies as one group
    forwards = 1 if (task, command) == ("act", "eval") else 4
    assert calls == {"encode": forwards, "load_checkpoint": 1}


# ---- exit codes ----


def test_missing_dataset_exits_5(tmp_path, capsys):
    code = cli.main(
        ["train-scene", "--data", str(tmp_path / "nowhere"),
         "--out", str(tmp_path / "out")]
    )
    assert code == 5
    assert "io error" in capsys.readouterr().err


def test_missing_checkpoint_exits_5(act_data, tmp_path):
    code = cli.main(
        ["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
         "--data", str(act_data), "--out", str(tmp_path / "out")]
    )
    assert code == 5


def test_wrong_checkpoint_kind_exits_3(scene_run, act_data, tmp_path, capsys):
    code = cli.main(
        ["sync", "--checkpoint", str(scene_run / "model.ckpt"),
         "--data", str(act_data), "--out", str(tmp_path / "out")]
    )
    assert code == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    ["drop em_xi", "quote em_xi=0.3", "drop sync_dim",
     "set sync_dim=0", "quote sync_dim=6", "add 8 trailing bytes", "cut 8 bytes",
     # a key that training never writes, and the removed E-step percentile
     "set seed=16", "set em_percentile=90",
     # a sync head past alignfuse.MAX_MODEL_PARAMS, rejected before any allocation
     "set sync_dim=1000000000000"],
)
def test_bad_sync_head_checkpoint_exits_3(act_run, act_data, tmp_path, capsys, edit):
    header, _, body = (act_run / "model.ckpt").read_bytes().partition(b"\n")
    header = json.loads(header)
    action, name = edit.split(maxsplit=1)
    name, _, value = name.partition("=")
    extra = header["extra"]
    if action == "drop":
        del extra[name]
    elif action == "set":
        extra[name] = json.loads(value)
    elif action == "quote":  # a number written as a JSON string
        extra[name] = value
    elif action == "add":
        body += bytes(8)
    else:
        body = body[:-8]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + body)
    out = tmp_path / "out"
    code = cli.main(
        ["eval", "--checkpoint", str(bad), "--data", str(act_data), "--out", str(out)]
    )
    err = capsys.readouterr().err
    if action == "cut":  # a file cut inside its parameters is an I/O error
        assert code == 5 and "io error" in err and "truncated" in err
    else:
        assert code == 3 and "data error" in err and name in err
    assert not out.exists()


def _without(key):
    return lambda header: {k: v for k, v in header.items() if k != key}


def _setting(path, value):
    """A header edit that replaces the entry at a key path."""

    def edit(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return header

    return edit


MALFORMED_HEADERS = {
    "header is a list": lambda header: [header],
    "configs missing": _without("configs"),
    "configs is a list": _setting(["configs"], []),
    "extra is null": _setting(["extra"], None),
    "epoch is a string": _setting(["extra", "epoch"], "x"),
    "epoch missing": _setting(["extra"], {}),
    # equal to the version as a number, but not the integer save_checkpoint writes
    "version is a float": _setting(["version"], float(af.CHECKPOINT_VERSION)),
    "unknown extra key": _setting(["extra", "seed"], 16),
    # the layout an older version wrote: parameter names and shapes
    "version 1 with a params list": lambda header: {
        **header, "version": 1, "params": [{"name": "align_pe", "shape": [2, 8]}],
    },
    "unknown config key": _setting(["configs", "model", "colour"], 1),
    "modality_dims is an int": _setting(["configs", "model", "modality_dims"], 5),
    "even scene seq_len": _setting(["configs", "model", "seq_len"], 6),
    # past alignfuse.MAX_MODEL_PARAMS, rejected before any allocation
    "model over the parameter budget": _setting(["configs", "model", "width"], 10**12),
}


@pytest.mark.parametrize("edit", sorted(MALFORMED_HEADERS))
def test_malformed_checkpoint_header_exits_3(scene_run, scene_data, tmp_path, capsys, edit):
    header, _, blobs = (scene_run / "model.ckpt").read_bytes().partition(b"\n")
    header = MALFORMED_HEADERS[edit](json.loads(header))
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + blobs)
    out = tmp_path / "out"
    code = cli.main(
        ["eval", "--checkpoint", str(bad), "--data", str(scene_data), "--out", str(out)]
    )
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.startswith("data error") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "version, removed",
    [(4, {"num_heads": 1, "dropout": 0.0}), (5, {"dropout": 0.0})],
    ids=["4-num_heads", "5-dropout"],
)
def test_old_checkpoint_version_exits_3_asking_to_retrain(
    scene_run, scene_data, tmp_path, capsys, version, removed
):
    # versions 4 and 5 wrote the same parameter bytes under a model config
    # that also held the keys removed since, so each fails on its version,
    # not on a key
    header, _, blobs = (scene_run / "model.ckpt").read_bytes().partition(b"\n")
    header = json.loads(header)
    header["version"] = version
    header["configs"]["model"].update(removed)
    old = tmp_path / "old.ckpt"
    old.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + blobs)
    out = tmp_path / "out"
    code = cli.main(
        ["eval", "--checkpoint", str(old), "--data", str(scene_data), "--out", str(out)]
    )
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("data error")
    assert f"version {version}" in err and "re-train" in err and "unknown" not in err
    assert not out.exists()


def test_score_cells_of_python_floats_keep_the_float64_text():
    # eval formats scores.csv from .tolist() floats, not numpy scalars
    rng = np.random.default_rng(0)
    scales = 10.0 ** rng.integers(-300, 300, size=(200, 5))
    values = np.concatenate([rng.uniform(-1, 1, size=(200, 5)) * scales,
                             [[-0.0, 5e-324, 1.0, 0.1, -1e-320]]])
    old = [[cli._format(p) for p in row] for row in values]
    assert [[cli._format(p) for p in row] for row in values.tolist()] == old


def test_nonfinite_blob_exits_4(scene_data, scene_run, tmp_path, capsys):
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(scene_data, broken)
    blob = broken / "movie_0000" / "visual.f64"
    data = np.frombuffer(blob.read_bytes(), dtype="<f8").copy()
    data[0] = np.nan
    blob.write_bytes(data.tobytes())
    (broken / "summary.json").unlink()
    (broken / "config.json").unlink()
    code = cli.main(
        ["eval", "--checkpoint", str(scene_run / "model.ckpt"),
         "--data", str(broken), "--out", str(tmp_path / "out")]
    )
    assert code == 4
    assert "numeric error" in capsys.readouterr().err


# ---- gradcheck wiring ----


def test_gradcheck_reporting(tmp_path, capsys, monkeypatch):
    canned = [
        {"check": "scene_weighted_ce", "parameters": 3, "compared": 12,
         "max_rel_error": 1e-7, "worst_parameter": "head.w", "passed": True},
        {"check": "combined", "parameters": 5, "compared": 20,
         "max_rel_error": 2e-8, "worst_parameter": "head.b", "passed": True},
    ]
    monkeypatch.setattr(cli, "run_gradient_checks", lambda *a, **k: canned)
    code = cli.main(["gradcheck", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert json.loads((tmp_path / "gradcheck.json").read_text()) == canned


def test_gradcheck_failure_exits_4(tmp_path, capsys, monkeypatch):
    canned = [
        {"check": "combined", "parameters": 5, "compared": 20,
         "max_rel_error": 0.5, "worst_parameter": "head.b", "passed": False},
    ]
    monkeypatch.setattr(cli, "run_gradient_checks", lambda *a, **k: canned)
    code = cli.main(["gradcheck", "--out", str(tmp_path)])
    assert code == 4
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_that_compares_no_entry_exits_4(tmp_path, capsys, monkeypatch):
    # at h=1e-300 the noise gate hides every entry, so the check compares
    # nothing; the real checker runs on a one-parameter loss to stay quick
    w = nc.Tensor([0.5, -1.0], requires_grad=True)

    def losses():
        return (nc.cross_entropy(w, np.array([1.0, 0.0]), 0),)

    [row] = gradcheck._check_losses(("ce",), {"w": w}, losses, 1e-5)
    assert (row["compared"], row["passed"]) == (2, True)

    def checks(seed):
        return gradcheck._check_losses(("ce",), {"w": w}, losses, 1e-300)

    monkeypatch.setattr(cli, "run_gradient_checks", checks)
    assert cli.main(["gradcheck", "--out", str(tmp_path)]) == 4
    [row] = json.loads((tmp_path / "gradcheck.json").read_text())
    assert (row["compared"], row["passed"]) == (0, False)
    assert "gradient check FAILED (tolerance 0.0001)" in capsys.readouterr().out


def test_gradcheck_helpers_gate_structural_zeros():
    gate = gradcheck._noise_gate(30.0, 1e-5)
    assert 1e-9 < gate < 1e-6
    noise = np.array([0.0, gate / 10])
    assert gradcheck._gated_rel_error(np.zeros(2), noise, gate) == (0.0, 0)
    real = np.array([1.0, 2.0])
    err, compared = gradcheck._gated_rel_error(real, real * 1.001, gate)
    assert err == pytest.approx(1e-3, rel=0.1) and compared == 2


def test_mismatched_modalities_exit_3(scene_data, tmp_path, capsys):
    mixed = tmp_path / "mixed"
    shutil.copytree(scene_data, mixed)
    manifest = mixed / "movie_0002" / "manifest.json"
    payload = json.loads(manifest.read_text())
    payload["modalities"][1]["name"] = "sound"
    manifest.write_text(json.dumps(payload))
    # the blob follows the name, so movie_0002 itself loads
    (mixed / "movie_0002" / "audio.f64").rename(mixed / "movie_0002" / "sound.f64")
    code = cli.main(
        ["train-scene", "--data", str(mixed), "--out", str(tmp_path / "out")]
        + _sets(SCENE_MODEL_SET)
    )
    assert code == 3
    assert "movie_0002" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [("train-scene", "scene_labels"), ("eval", "sentence_of")])
def test_manifest_without_labels_exits_3(
    scene_data, act_data, act_run, tmp_path, capsys, command, key
):
    data = tmp_path / "data"
    shutil.copytree(scene_data if command == "train-scene" else act_data, data)
    manifest = data / "movie_0001" / "manifest.json"
    payload = json.loads(manifest.read_text())
    del payload[key]
    manifest.write_text(json.dumps(payload))
    argv = [command, "--data", str(data), "--out", str(tmp_path / "out")]
    if command == "train-scene":
        argv += _sets(SCENE_MODEL_SET)
    else:
        argv += ["--checkpoint", str(act_run / "model.ckpt")]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "movie_0001" in err and repr(key) in err
    assert not (tmp_path / "out").exists()


def tower_shapes(ckpt) -> dict:
    """{tower: (seq_len, align_len)} of an act checkpoint's configs."""
    configs = json.loads(Path(ckpt).read_bytes().partition(b"\n")[0])["configs"]
    return {name: (cfg["seq_len"], cfg["align_len"]) for name, cfg in configs.items()}


def test_train_act_sizes_its_towers_from_the_data(act_run, act_data, tmp_path):
    # act_data's movies have 24 shots and 3 sentences each, and both towers
    # take the one shot.align_len
    assert tower_shapes(act_run / "model.ckpt") == {"shot": (24, 3), "synopsis": (3, 3)}
    # a training movie of 30 shots and a held-out synopsis of 4 sentences
    # set the tower lengths of a dataset that mixes them with act_data's
    for name, args in (("long", ["--shots", "30"]),
                       ("wordy", ["--shots", "24", "--set", "sentences=4"])):
        argv = ["synth", "--movies", "1", "--seed", "7", "--out", str(tmp_path / name)]
        assert cli.main(argv + _sets(ACT_SET) + args) == 0
    movies = dataio.load_dataset(act_data)
    movies[1] = replace(dataio.load_dataset(tmp_path / "long")[0], movie_id="movie_0001")
    movies[3] = replace(dataio.load_dataset(tmp_path / "wordy")[0], movie_id="movie_0003")
    dataio.save_dataset(movies, tmp_path / "mixed")
    out = tmp_path / "run"
    argv = ["train-act", "--data", str(tmp_path / "mixed"), "--out", str(out)]
    assert cli.main(argv + _sets(ACT_MODEL_SET)) == 0
    assert tower_shapes(out / "model.ckpt") == {"shot": (30, 3), "synopsis": (4, 3)}


def test_an_align_len_above_the_sentence_count_exits_2(act_data, tmp_path, capsys):
    argv = ["train-act", "--data", str(act_data), "--out", str(tmp_path / "out")]
    assert cli.main(argv + _sets(ACT_MODEL_SET + ["shot.align_len=4"])) == 2
    assert capsys.readouterr().err == (
        "config error: shot.align_len = 4 is more than the 3 sentences of the longest "
        "synopsis; the synopsis tower takes it too\n"
    )
    assert not any(tmp_path.rglob("*"))


@pytest.mark.parametrize(
    "tower, length, what", [("shot", 20, "24 shots"), ("synopsis", 2, "3 synopsis sentences")],
)
def test_train_act_names_the_movie_longer_than_a_tower(act_data, tower, length, what):
    # train-act sizes its towers to the data, so only a library caller
    # can hand train_act a tower too short for a movie
    movies = dataio.load_dataset(act_data)
    act = cli.resolve_config(cli.ACT_KEYS, None, ACT_MODEL_SET)
    towers = dict(zip(("shot", "synopsis"), trainer.act_model_configs(
        cli._section(act, "shot"), cli._section(act, "synopsis"), (10,), 24, 3)))
    towers[tower] = replace(towers[tower], seq_len=length, align_len=2)
    train_cfg = trainer.TrainConfig(**cli._section(act, "train"))
    with pytest.raises(DataError, match=f"movie movie_0000 has {what}, more than the {length} "
                                        f"the {tower} tower takes"):
        trainer.train_act(movies, towers["shot"], towers["synopsis"], train_cfg)


@pytest.fixture(scope="module")
def long_act_data(tmp_path_factory):
    """Movies one shot longer than act_run's shot tower (24), and movies
    with one sentence more than its synopsis tower (3)."""
    root = tmp_path_factory.mktemp("long_act_data")
    for name, args in (("shots", ["--shots", "25"]),
                       ("sentences", ["--shots", "24", "--set", "sentences=4"])):
        argv = ["synth", "--movies", "3", "--seed", "6", "--out", str(root / name)]
        assert cli.main(argv + _sets(ACT_SET) + args) == 0
    return root


@pytest.mark.parametrize("command", ["sync", "eval", "importance"])
def test_every_act_command_names_the_movie_longer_than_the_shot_tower(
    act_run, long_act_data, tmp_path, capsys, command
):
    out = tmp_path / "out"
    argv = [command, "--data", str(long_act_data / "shots"), "--out", str(out),
            "--checkpoint", str(act_run / "model.ckpt")]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == (
        "data error: movie movie_0000 has 25 shots, more than the 24 the shot tower takes\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command, code", [("sync", 3), ("eval", 0), ("importance", 0)])
def test_only_the_synopsis_tower_commands_check_the_synopsis_length(
    act_run, long_act_data, tmp_path, capsys, command, code
):
    # eval and importance run the shot tower alone
    out = tmp_path / "out"
    argv = [command, "--data", str(long_act_data / "sentences"), "--out", str(out),
            "--checkpoint", str(act_run / "model.ckpt")]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err == ("data error: movie movie_0000 has 4 synopsis sentences, "
                       "more than the 3 the synopsis tower takes\n")
    assert out.exists() == (code == 0)


# ---- the run directory ----


def test_train_scene_into_a_used_out_exits_2_leaving_it_alone(
    scene_run, scene_data, tmp_path, capsys
):
    out = tmp_path / "run"
    shutil.copytree(scene_run, out)
    before = tree_digest(out)
    argv = ["train-scene", "--data", str(scene_data), "--out", str(out)]
    assert cli.main(argv + _sets(SCENE_MODEL_SET + ["train.epochs=2"])) == 2
    assert f"--out {out} exists and is not an empty directory" in capsys.readouterr().err
    assert tree_digest(out) == before


def test_synth_into_a_used_out_exits_2_leaving_it_alone(scene_data, tmp_path, capsys):
    # 3 movies over the 4 of scene_data would leave movie_0003 behind
    out = tmp_path / "data"
    shutil.copytree(scene_data, out)
    before = tree_digest(out)
    argv = ["synth", "--movies", "3", "--shots", "30", "--seed", "5", "--out", str(out)]
    assert cli.main(argv + _sets(SCENE_SET)) == 2
    assert "not an empty directory" in capsys.readouterr().err
    assert tree_digest(out) == before


@pytest.mark.parametrize(
    "command", ["synth", "train-scene", "train-act", "sync", "eval", "importance", "gradcheck"]
)
def test_an_out_that_is_a_file_exits_2_before_reading_any_input(command, tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("kept\n")
    # inputs that do not exist: reading any of them would exit 5
    argv = [command, "--out", str(out)]
    if command not in ("synth", "gradcheck"):
        argv += ["--data", str(tmp_path / "no-data")]
    if command in ("sync", "eval", "importance"):
        argv += ["--checkpoint", str(tmp_path / "no.ckpt")]
    assert cli.main(argv) == 2
    assert "not an empty directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert out.read_text() == "kept\n"


def test_a_used_default_run_directory_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20260101-000000")
    used = tmp_path / "runs" / "gradcheck-20260101-000000"
    used.mkdir(parents=True)
    (used / "gradcheck.json").write_text("[]\n")
    assert cli.main(["gradcheck"]) == 2
    assert "runs/gradcheck-20260101-000000 exists" in capsys.readouterr().err
    assert [p.name for p in used.iterdir()] == ["gradcheck.json"]


@pytest.mark.parametrize("command", ["train-scene", "train-act"])
def test_a_run_that_fails_mid_training_leaves_no_run_tree(
    scene_data, act_data, tmp_path, capsys, monkeypatch, command
):
    # the held-out report of epoch 2 fails, after epoch 1 has finished
    name = {"train-scene": "scene_report", "train-act": "act_report"}[command]
    report = getattr(trainer, name)

    def failing(per_movie, movies, epoch, seed):
        if epoch == 2:
            raise NumericError("injected at epoch 2")
        return report(per_movie, movies, epoch, seed)

    data, model_set = {"train-scene": (scene_data, SCENE_MODEL_SET),
                       "train-act": (act_data, ACT_MODEL_SET)}[command]
    out = tmp_path / "out"
    argv = [command, "--data", str(data), "--out", str(out)] + _sets(model_set + ["train.epochs=2"])
    monkeypatch.setattr(trainer, name, failing)
    assert cli.main(argv) == 4
    assert capsys.readouterr().err == "numeric error: injected at epoch 2\n"
    assert not out.exists()
    # so a re-run into the same --out is not refused
    monkeypatch.setattr(trainer, name, report)
    assert cli.main(argv) == 0
    assert json.loads((out / "model.ckpt").read_bytes().partition(b"\n")[0])["extra"]["epoch"] == 2


def test_rejected_train_scene_leaves_no_run_tree(
    scene_data, scene_run, act_data, tmp_path, capsys
):
    # 31-shot windows do not fit in the 30-shot movies
    out = tmp_path / "out"
    code = cli.main(
        ["train-scene", "--data", str(scene_data), "--out", str(out)]
        + _sets(SCENE_MODEL_SET + ["model.seq_len=31"])
    )
    assert code == 3
    assert "no training windows" in capsys.readouterr().err
    assert not out.exists()
    # rejected eval, importance and sync runs leave no --out either
    ckpt = str(scene_run / "model.ckpt")
    for argv in (
        ["eval", "--checkpoint", ckpt, "--data", str(act_data)],
        ["importance", "--checkpoint", ckpt, "--data", str(act_data)],
        ["sync", "--checkpoint", ckpt, "--data", str(act_data)],
    ):
        assert cli.main(argv + ["--out", str(out)]) == 3, argv[0]
        assert "data error" in capsys.readouterr().err
        assert not out.exists(), argv[0]


# removed settings, each refused as an unknown key: dropout and the
# optimizer; the held-out split, a loss weight and the synopsis fusion
# depth; the E-step percentile and the shot-count jitter; the tower
# lengths and the synopsis alignment length, which the data and the shot
# tower fix
REMOVED_SETTINGS = [
    ["train-scene", "--data", "{scene}", "--set", "model.dropout=0.1"],
    ["train-act", "--data", "{act}", "--set", "train.optimizer=sgd"],
    ["train-scene", "--data", "{scene}", "--set", "train.holdout=3"],
    ["train-act", "--data", "{act}", "--set", "train.holdout=3"],
    ["train-act", "--data", "{act}", "--set", "train.alpha_distill=5"],
    ["train-act", "--data", "{act}", "--set", "synopsis.fusion_depth=1"],
    ["train-act", "--data", "{act}", "--set", "train.em_percentile=90"],
    ["synth", "--movies", "1", "--set", "shots_jitter=0"],
    ["train-act", "--data", "{act}", "--set", "shot.seq_len=24"],
    ["train-act", "--data", "{act}", "--set", "synopsis.seq_len=3"],
    ["train-act", "--data", "{act}", "--set", "synopsis.align_len=3"],
]


@pytest.mark.parametrize(
    "argv",
    [
        ["train-act", "--data", "{act}", "--set", "train.em_xi=0"],
        ["train-act", "--data", "{act}", "--set", "train.em_xi=inf"],
        ["train-act", "--data", "{act}", "--set", "train.lr=nan"],
        ["train-act", "--data", "{act}", "--set", "train.lr=inf"],
        ["train-scene", "--data", "{scene}", "--set", "train.lr=nan"],
        ["train-scene", "--data", "{scene}", "--set", "train.lr=inf"],
        ["synth", "--movies", "-1"],
        ["synth", "--movies", "0"],
        ["synth", "--movies", "1", "--seed", "-1"],
        ["synth", "--movies", "1", "--set", "noise=nan"],
        ["synth", "--movies", "1", "--set", "noise=inf"],
        ["synth", "--movies", "1", "--set", "tp_motif_scale=inf"],
        ["synth", "--movies", "1", "--set", "cut_jitter=inf"],
        ["synth", "--movies", "1", "--set", "tp_jitter=nan"],
        ["synth", "--movies", "1", "--set", "tp_jitter=-1"],
        # finite but past each setting's range: fractions above 1, scales
        # above the feature-scale ceiling
        ["synth", "--movies", "1", "--set", "noise=1e308"],
        ["synth", "--movies", "1", "--set", "tp_motif_scale=1e308"],
        ["synth", "--movies", "1", "--set", "cut_jitter=1e308"],
        ["synth", "--movies", "1", "--set", "tp_jitter=1e30"],
        # modality names become blob file names: a duplicate loses a stream,
        # "synopsis" clobbers the synopsis blob, a path escapes the movie dir
        ["synth", "--movies", "1", "--set", "modalities=visual:4,visual:4"],
        ["synth", "--movies", "1", "--set", "modalities=synopsis:4"],
        ["synth", "--movies", "1", "--set", "modalities=../../escaped:4"],
        # past the dataio.MAX_SYNTH_VALUES budget, rejected before any allocation
        ["synth", "--movies", "1", "--shots", "1000000000000"],
        ["synth", "--movies", "1", "--set", "latent_dim=100000000000"],
        ["synth", "--movies", "1", "--set", "modalities=a:100000000000"],
        # past the alignfuse.MAX_MODEL_PARAMS budget, rejected before any allocation
        ["train-scene", "--data", "{scene}", "--set", "model.width=1000000000000"],
        ["train-act", "--data", "{act}", "--set", "shot.ffn_width=1000000000000"],
        ["train-act", "--data", "{act}", "--set", "train.sync_dim=1000000000000"],
    ] + REMOVED_SETTINGS,
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_bad_value_exits_2_before_any_work(act_data, scene_data, tmp_path, capsys, argv):
    out = tmp_path / "out"
    argv = [a.format(act=act_data, scene=scene_data) for a in argv]
    model_set = {"train-act": ACT_MODEL_SET, "train-scene": SCENE_MODEL_SET}.get(argv[0], [])
    argv = argv[:1] + _sets(model_set) + argv[1:]  # the bad value comes last, so it wins
    assert cli.main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
    if argv[-1] in {removed[-1] for removed in REMOVED_SETTINGS}:
        assert f"unknown config key '{argv[-1].partition('=')[0]}'" in err
    assert not any(tmp_path.rglob("*"))  # no --out, nor any file beside it


# the commands that build no dataset or model, with the inputs each reads
SETTINGS_FREE = {
    "eval": ["--checkpoint", "{scene_ckpt}", "--data", "{scene}"],
    "importance": ["--checkpoint", "{scene_ckpt}", "--data", "{scene}"],
    "sync": ["--checkpoint", "{act_ckpt}", "--data", "{act}"],
    "gradcheck": [],
}


@pytest.mark.parametrize("command", sorted(SETTINGS_FREE))
def test_commands_that_build_nothing_take_no_settings(
    act_data, scene_data, scene_run, act_run, tmp_path, capsys, monkeypatch, command
):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("shot = 3\n")
    # on inputs that do not exist, so a run that read any would exit 3 or 5
    missing = dict.fromkeys(("scene_ckpt", "act_ckpt", "scene", "act"), tmp_path / "none")
    for flag in (["--config", str(cfg)], ["--set", "shot=3"]):
        out = tmp_path / "rejected"
        argv = [command] + [a.format(**missing) for a in SETTINGS_FREE[command]]
        assert cli.main(argv + flag + ["--out", str(out)]) == 2, flag
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not out.exists()
    # their config.json records the command and the seed, nothing else
    canned = [{"check": "ce", "parameters": 1, "compared": 2, "max_rel_error": 0.0,
               "worst_parameter": "w", "passed": True}]
    monkeypatch.setattr(cli, "run_gradient_checks", lambda seed: canned)
    paths = {"scene_ckpt": scene_run / "model.ckpt", "act_ckpt": act_run / "model.ckpt",
             "scene": scene_data, "act": act_data}
    argv = [command] + [a.format(**paths) for a in SETTINGS_FREE[command]]
    out = tmp_path / "out"
    assert cli.main(argv + ["--seed", "3", "--out", str(out)]) == 0
    assert json.loads((out / "config.json").read_text()) == {"command": command, "seed": 3}


def test_non_utf8_config_file_exits_2_before_any_work(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xff\xfeshots=40\n")
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", str(cfg), "--movies", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(cfg) in err
    assert not out.exists()


def test_a_key_set_twice_in_a_config_file_exits_2_naming_both_lines(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("shots = 20\n# a later value\nshots = 30\n")
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", str(cfg), "--movies", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:3: 'shots' is already set on line 1" in err
    assert not out.exists()
    # --set still overrides a key the file sets once
    cfg.write_text("shots = 20\n")
    assert cli.resolve_config(cli.SYNTH_KEYS, cfg, ["shots=30"])["shots"] == 30


def test_scene_run_with_an_eval_movie_without_boundary_exits_3_naming_it(
    scene_run, tmp_path, capsys
):
    # one scene per movie: no shot ends a scene before the last
    data = tmp_path / "data"
    assert cli.main(["synth", "--movies", "3", "--shots", "30", "--seed", "5", "--out", str(data)]
                    + _sets(SCENE_SET[2:] + ["scenes=1", "sentences=1"])) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    for argv, movie in (
        (["train-scene", "--data", str(data)] + _sets(SCENE_MODEL_SET), "movie_0001"),
        (["eval", "--checkpoint", str(scene_run / "model.ckpt"), "--data", str(data)],
         "movie_0000"),
    ):
        assert cli.main(argv + ["--out", str(out)]) == 3, argv[0]
        assert f"movie {movie} has no scene boundary" in capsys.readouterr().err, argv[0]
        assert not out.exists(), argv[0]
