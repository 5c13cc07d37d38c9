"""The benchmark's workloads, the checks on each command's outputs, and
the output-tree digest used for the determinism check.

A workload is a setup step, repeated a few times per run, plus a round of
timed commands. Every command of a run gets the workload seed, so each
round repeats the previous one and its output trees must hash the same.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# sized so that training takes about 5 s on a 2-core box, long enough to
# time against the ~0.7 s interpreter start of every command
ACT_EPOCHS = 20

IMPORT_PROBE = "import cineseg.cli; print(cineseg.cli.__file__)"


@dataclass
class Step:
    """One command of a workload, run as `python3 <argv>`.

    phase is setup, main (the workload's heaviest command: training or
    gradcheck) or infer; command is the cineseg subcommand, or "import"
    for the interpreter-start probe.
    """

    phase: str
    command: str
    argv: list
    out: Path | None = None
    data: Path | None = None

    @property
    def cli_args(self) -> list:
        """The arguments cineseg.cli.main takes for this step."""
        return self.argv[2:]


def _cli(phase, command, *args, out: Path, data: Path | None = None) -> Step:
    argv = ["-m", "cineseg.cli", command, *[str(a) for a in args], "--out", str(out)]
    return Step(phase, command, argv, out, data)


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    why: str
    setup: Callable[[int, Path], Step]  # (seed, out dir) -> step
    round: Callable[[int, Path, Path], list]  # (seed, data dir, round dir) -> steps
    quality: Callable[[list], dict]  # a round's steps -> {metric: value}


def _last_report_value(step: Step, key: str) -> float:
    reports = json.loads((step.out / "reports.json").read_text())
    return float(reports[-1]["values"][key])


def _synth(cfg: str, *extra):
    def setup(seed: int, out: Path) -> Step:
        return _cli("setup", "synth", "--config", cfg, *extra, "--seed", seed, out=out)

    return setup


def _import_probe(seed: int, out: Path) -> Step:
    return Step("setup", "import", ["-c", IMPORT_PROBE])


def _scene_round(seed: int, data: Path, rd: Path) -> list:
    ckpt = rd / "train" / "model.ckpt"
    return [
        _cli("main", "train-scene", "--config", "configs/scene_desk.cfg",
             "--data", data, "--seed", seed, out=rd / "train", data=data),
        _cli("infer", "eval", "--checkpoint", ckpt, "--data", data, "--seed", seed,
             out=rd / "eval", data=data),
        _cli("infer", "importance", "--checkpoint", ckpt, "--data", data,
             "--seed", seed, out=rd / "importance", data=data),
    ]


def _act_round(seed: int, data: Path, rd: Path) -> list:
    ckpt = rd / "train" / "model.ckpt"
    return [
        _cli("main", "train-act", "--config", "configs/act_desk.cfg",
             "--set", "shot.unimodal_depth=1", "--set", "synopsis.unimodal_depth=1",
             "--set", f"train.epochs={ACT_EPOCHS}",
             "--data", data, "--seed", seed, out=rd / "train", data=data),
        _cli("infer", "sync", "--pgm", "--checkpoint", ckpt, "--data", data,
             "--seed", seed, out=rd / "sync", data=data),
        _cli("infer", "eval", "--checkpoint", ckpt, "--data", data, "--seed", seed,
             out=rd / "eval", data=data),
        _cli("infer", "importance", "--checkpoint", ckpt, "--data", data,
             "--seed", seed, out=rd / "importance", data=data),
    ]


def _gradcheck_round(seed: int, data: Path, rd: Path) -> list:
    return [_cli("main", "gradcheck", "--seed", seed, out=rd / "gradcheck")]


def _gradcheck_quality(steps: list) -> dict:
    rows = json.loads((steps[0].out / "gradcheck.json").read_text())
    return {"gradcheck_max_rel_error": max(float(r["max_rel_error"]) for r in rows)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scene_desk", 2,
            "README scene round trip: 1,490 Adam steps of ~137 tiny tape nodes, "
            "so per-op Python overhead, backward and the optimizer loop dominate",
            _synth("configs/synth_scene.cfg"), _scene_round,
            lambda steps: {"heldout_ap": _last_report_value(steps[0], "ap")},
        ),
        Workload(
            "act_attn", 0,
            "act round trip on 16 movies with depth-1 towers: attention over 312 "
            "positions makes ops large, and the untaped E-step is a quarter of training",
            _synth("configs/synth_act.cfg", "--movies", 16), _act_round,
            lambda steps: {"span_hit_rate": _last_report_value(steps[0], "span_hit_rate")},
        ),
        Workload(
            "gradcheck", 0,
            "gradcheck: 21,789 untaped forwards (~2.6 M op calls) and no backward "
            "or optimizer, the bulk of the Tier-1 suite's wall time",
            _import_probe, _gradcheck_round, _gradcheck_quality,
        ),
    )
}


# ---- output checks ----


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(p.relative_to(root).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def _json(path: Path):
    return json.loads(path.read_text())


def dataset_shots(data: Path) -> dict:
    """movie_id -> shot count, from the synth summary of the data dir."""
    return {m["movie_id"]: int(m["shots"]) for m in _json(data / "summary.json")["movies"]}


def _check_sync_file(path: Path, shots: int, sentences: int) -> list:
    payload = _json(path)
    problems = []
    if payload["shots"] != shots or payload["sentences"] != sentences:
        problems.append(f"{path.name}: {payload['shots']}x{payload['sentences']}, "
                        f"expected {shots}x{sentences}")
    if len(payload["rows"]) != shots:
        problems.append(f"{path.name}: {len(payload['rows'])} RLE rows for {shots} shots")
    for i, runs in enumerate(payload["rows"]):
        if sum(runs) != sentences or min(runs, default=0) < 0:
            problems.append(f"{path.name}: row {i} runs {runs} do not decode to "
                            f"{sentences} sentences")
            break
    return problems


def _check_sync_dir(out: Path, data: Path, movie_ids) -> list:
    sentences = _json(data / "config.json")["sentences"]
    shots = dataset_shots(data)
    problems = []
    for movie_id in movie_ids:
        problems += _check_sync_file(out / f"{movie_id}.json", shots[movie_id], sentences)
    return problems


def _check_synth(step: Step) -> list:
    summary = _json(step.out / "summary.json")
    missing = [m["movie_id"] for m in summary["movies"]
               if not (step.out / m["movie_id"] / "manifest.json").is_file()]
    return [f"movie without manifest: {missing}"] if missing else []


def _check_train(step: Step) -> list:
    reports = _json(step.out / "reports.json")
    problems = [] if reports else ["reports.json is empty"]
    if not (step.out / "model.ckpt").is_file():
        problems.append("no model.ckpt")
    if step.command == "train-act":
        # train-act writes the final E-step of every training movie
        movie_ids = sorted(p.stem for p in (step.out / "sync").glob("*.json"))
        if not movie_ids:
            problems.append("train-act wrote no sync files")
        problems += _check_sync_dir(step.out / "sync", step.data, movie_ids)
    return problems


def _check_eval(step: Step) -> list:
    _json(step.out / "report.json")
    shots = dataset_shots(step.data)
    with open(step.out / "scores.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    per_movie = {}
    for row in rows:
        per_movie[row[0]] = per_movie.get(row[0], 0) + 1
    if per_movie != shots:
        return [f"scores.csv rows per movie {per_movie} != shots {shots}"]
    return []


def _check_importance(step: Step) -> list:
    entries = _json(step.out / "importance.json")
    movies = len(dataset_shots(step.data))
    problems = []
    if len(entries) != movies:
        problems.append(f"{len(entries)} importance entries for {movies} movies")
    for e in entries:
        if abs(sum(e["weights"].values()) - 1.0) > 1e-9:
            problems.append(f"{e['movie_id']}: weights sum to {sum(e['weights'].values())}")
    return problems


def _check_sync(step: Step) -> list:
    shots = dataset_shots(step.data)
    problems = _check_sync_dir(step.out, step.data, sorted(shots))
    problems += [f"no {m}.pgm" for m in sorted(shots)
                 if not (step.out / f"{m}.pgm").is_file()]
    return problems


def _check_gradcheck(step: Step) -> list:
    rows = _json(step.out / "gradcheck.json")
    failed = [r["check"] for r in rows if r["passed"] is not True]
    problems = [f"gradient checks not passed: {failed}"] if failed else []
    if len(rows) != 3:
        problems.append(f"{len(rows)} gradcheck rows, expected 3")
    return problems


CHECKS = {
    "synth": _check_synth,
    "train-scene": _check_train,
    "train-act": _check_train,
    "eval": _check_eval,
    "importance": _check_importance,
    "sync": _check_sync,
    "gradcheck": _check_gradcheck,
}


def check_outputs(step: Step) -> list:
    """Problems with a finished step's outputs; [] when they are valid."""
    if step.out is None:
        return []
    try:
        _json(step.out / "config.json")
        return CHECKS[step.command](step)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
