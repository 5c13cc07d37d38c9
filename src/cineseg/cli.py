"""Command-line entry point wiring synthesis, training, synchronization,
evaluation, gradient checking, and modality importance.

Configuration is a flat key=value file (# comments allowed) plus
repeatable --set key=value overrides; every key must be in the active
command's registry, which maps it to its default, and a value parses as
its default's type. Dedicated flags (--movies, --shots, --seed) win
over both. Each run writes all outputs under one directory: --out names
it exactly, otherwise a timestamped default under runs/ is created. No
output file embeds a timestamp or an absolute path, so a re-run with
the same seed and inputs is byte-identical.

Exit codes: 0 ok, 2 config, 3 data, 4 numeric, 5 I/O.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import fields
from pathlib import Path

from . import dataio
from .errors import ConfigError, ContractError, DataError, NumericError


# ---- config plumbing ----


def _parse_modalities(text: str) -> tuple:
    """'visual:16,audio:12' -> (("visual", 16), ("audio", 12))."""
    out = []
    for part in text.split(","):
        name, sep, dim = part.strip().partition(":")
        if not sep or not name:
            raise ConfigError(f"modalities entries are name:dim, got {part!r}")
        out.append((name, int(dim)))
    return tuple(out)


# the parser of a config value, by the type of its key's default
_PARSERS = {tuple: _parse_modalities, int: int, float: float, str: str}

SYNTH_KEYS = {
    "movies": 4,
    **{f.name: f.default for f in fields(dataio.SynthConfig)},
}

SCENE_KEYS = {
    "model.seq_len": 17,
    "model.align_len": 2,
    "model.width": 768,
    "model.ffn_width": 3072,
    "model.unimodal_depth": 2,
    "model.fusion_depth": 1,
    "model.dropout": 0.1,
    "train.epochs": 20,
    "train.batch_size": 1024,
    "train.optimizer": "adam",
    "train.lr": 1e-4,
    "train.holdout": 2,
}

# the order of distill.DEFAULT_LOSS_WEIGHTS and TrainConfig.loss_weights
LOSS_TERMS = ("contrastive", "synopsis", "distill")

# eval and sync take no keys; sync uses the E-step settings in the checkpoint
NO_KEYS: dict = {}

IMPORTANCE_KEYS = {
    "shot": -1,  # scene task: key shot index, -1 = movie middle; act takes only -1
}


def __getattr__(name: str) -> dict:
    """ACT_KEYS and GRADCHECK_KEYS, built when read from model modules' defaults."""
    if name == "ACT_KEYS":
        from . import distill, sync
        return {
            "shot.seq_len": 3000,
            "shot.align_len": 100,
            "shot.width": 128,
            "shot.ffn_width": 128,
            "shot.unimodal_depth": 1,
            "shot.fusion_depth": 1,
            "shot.dropout": 0.5,
            "synopsis.seq_len": 60,
            "synopsis.align_len": 20,
            "synopsis.ffn_width": 128,
            "synopsis.unimodal_depth": 1,
            "synopsis.fusion_depth": 0,
            "synopsis.dropout": 0.1,
            "train.epochs": 10,
            "train.batch_size": 4,
            "train.optimizer": "sgd",
            "train.lr": 1e-3,
            "train.holdout": 2,
            "train.em_xi": sync.DEFAULT_BAND_XI,
            "train.em_percentile": sync.DEFAULT_PERCENTILE,
            "train.sync_dim": 128,
            **{
                f"train.alpha_{term}": weight
                for term, weight in zip(LOSS_TERMS, distill.DEFAULT_LOSS_WEIGHTS)
            },
        }
    if name == "GRADCHECK_KEYS":
        from .gradcheck import GRADCHECK_TOLERANCE
        return {"h": 1e-5, "tolerance": GRADCHECK_TOLERANCE}
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_gradient_checks(*args, **kwargs) -> list:
    """gradcheck.run_gradient_checks, loaded at the first call."""
    from .gradcheck import run_gradient_checks
    return run_gradient_checks(*args, **kwargs)


def read_config_file(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    entries, lines = {}, {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
        if key in lines:
            raise ConfigError(f"{path}:{ln}: '{key}' is already set on line {lines[key]}")
        lines[key] = ln
        entries[key] = value.strip()
    return entries


def resolve_config(registry: dict, config_path, sets) -> dict:
    resolved = dict(registry)
    raw = {}
    if config_path:
        raw.update(read_config_file(config_path))
    for item in sets or ():
        key, sep, value = item.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"--set takes key=value, got {item!r}")
        raw[key.strip()] = value.strip()
    for key, text in raw.items():
        if key not in registry:
            raise ConfigError(f"unknown config key '{key}'")
        parse = _PARSERS[type(registry[key])]
        try:
            resolved[key] = parse(text)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad value for '{key}': {exc}") from exc
    return resolved


def _section(cfg_map: dict, prefix: str) -> dict:
    """The keys under 'prefix.', with the prefix stripped."""
    start = len(prefix) + 1
    return {k[start:]: v for k, v in cfg_map.items() if k.startswith(prefix + ".")}


def _out_path(args) -> Path:
    return Path(args.out or f"runs/{args.command}-{time.strftime('%Y%m%d-%H%M%S')}")


def _run_dir(args) -> Path:
    path = _out_path(args)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_text(path: Path, text: str) -> None:
    dataio.atomic_write(path, text.encode("utf-8"))


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_config(out: Path, command: str, seed: int, resolved: dict) -> None:
    # json writes the modalities tuple as nested lists
    _write_json(out / "config.json", {"command": command, "seed": seed, **resolved})


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# ---- synth ----


def cmd_synth(args) -> int:
    cfg_map = resolve_config(SYNTH_KEYS, args.config, args.set)
    if args.movies is not None:
        cfg_map["movies"] = args.movies
    if args.shots is not None:
        cfg_map["shots"] = args.shots
    synth_cfg = dataio.SynthConfig(
        **{k: v for k, v in cfg_map.items() if k != "movies"}
    )
    movies = dataio.make_dataset(synth_cfg, cfg_map["movies"], args.seed)
    out = _run_dir(args)
    dataio.save_dataset(movies, out)
    summary = {
        "movies": [
            {"movie_id": m.movie_id, "shots": m.num_shots} for m in movies
        ],
        "modalities": [[name, dim] for name, dim in synth_cfg.modalities],
        "scenes": synth_cfg.scenes,
        "sentences": synth_cfg.sentences,
        "seed": args.seed,
    }
    _write_config(out, "synth", args.seed, cfg_map)
    _write_json(out / "summary.json", summary)
    _print_json(summary)
    return 0


# ---- training ----


def _finish_training(out: Path, args, cfg_map: dict, reports, logs) -> int:
    """Write a trainer's log, reports and config beside its model.ckpt."""
    _write_text(out / "train_log.jsonl", "".join(json.dumps(r, sort_keys=True) + "\n" for r in logs))
    _write_json(out / "reports.json", [r.to_json() for r in reports])
    _write_config(out, args.command, args.seed, cfg_map)
    _print_json(reports[-1].to_json())
    return 0


def cmd_train_scene(args) -> int:
    from . import alignfuse as af, trainer
    cfg_map = resolve_config(SCENE_KEYS, args.config, args.set)
    movies = dataio.load_dataset(Path(args.data))
    model_cfg = af.ModelConfig(
        **_section(cfg_map, "model"),
        num_classes=2,
        modality_dims=tuple(dim for _, dim in movies[0].layout),
    )
    train_cfg = trainer.TrainConfig(seed=args.seed, **_section(cfg_map, "train"))
    # the trainer makes the run tree on its first checkpoint, after it
    # has checked its inputs, so a rejected run leaves no directory
    out = _out_path(args)
    model, reports, logs = trainer.train_scene(
        movies, model_cfg, train_cfg, out / "checkpoints"
    )
    trainer.save_checkpoint(out / "model.ckpt", model, train_cfg.epochs)
    return _finish_training(out, args, cfg_map, reports, logs)


def cmd_train_act(args) -> int:
    from . import alignfuse as af, sync, trainer
    cfg_map = resolve_config(__getattr__("ACT_KEYS"), args.config, args.set)
    movies = dataio.load_dataset(Path(args.data))
    dims = tuple(dim for _, dim in movies[0].layout)
    shot_cfg = af.ModelConfig(
        **_section(cfg_map, "shot"), num_classes=dataio.NUM_TURNING_POINTS, modality_dims=dims
    )
    synopsis_cfg = af.ModelConfig(
        **_section(cfg_map, "synopsis"), width=shot_cfg.fused_width,
        num_classes=dataio.NUM_TURNING_POINTS, modality_dims=(sum(dims),),
    )
    train_fields = _section(cfg_map, "train")
    loss_weights = tuple(train_fields.pop(f"alpha_{term}") for term in LOSS_TERMS)
    train_cfg = trainer.TrainConfig(seed=args.seed, loss_weights=loss_weights, **train_fields)
    out = _out_path(args)
    pipeline, syncs, reports, logs = trainer.train_act(
        movies, shot_cfg, synopsis_cfg, train_cfg, out / "checkpoints"
    )
    trainer.save_checkpoint(out / "model.ckpt", pipeline, train_cfg.epochs)
    sync_dir = out / "sync"
    sync_dir.mkdir(exist_ok=True)
    for movie_id, sm in syncs.items():
        _write_json(sync_dir / f"{movie_id}.json", sync.sync_to_json(sm))
    return _finish_training(out, args, cfg_map, reports, logs)


# ---- sync export ----


def cmd_sync(args) -> int:
    from . import sync, trainer
    cfg_map = resolve_config(NO_KEYS, args.config, args.set)
    _, pipeline, _ = trainer.load_checkpoint(args.checkpoint, "act")
    movies = dataio.load_dataset(Path(args.data))
    trainer.check_tower_lengths(movies, pipeline.shot_model.config, pipeline.synopsis_model.config)
    syncs = pipeline.e_step([trainer.movie_inputs(m) for m in movies])
    out = _run_dir(args)
    summary = []
    for movie, sm in zip(movies, syncs):
        _write_json(out / f"{movie.movie_id}.json", sync.sync_to_json(sm))
        if args.pgm:
            sync.write_pgm(sm.w, out / f"{movie.movie_id}.pgm")
        assigned = int(sm.w.sum())
        hits = int((sm.w * movie.gold_sync).sum())  # assigned pairs on the planted sync
        summary.append(
            {
                "movie_id": movie.movie_id,
                "shots": int(sm.w.shape[0]),
                "sentences": int(sm.w.shape[1]),
                "assigned": assigned,
                "gold_precision": hits / assigned if assigned else None,
                "gold_recall": hits / movie.num_shots,
            }
        )
    _write_config(out, "sync", args.seed, cfg_map)
    _write_json(out / "summary.json", {"movies": summary})
    _print_json({"movies": summary})
    return 0


# ---- evaluation ----


def _format(value: float) -> str:
    return f"{value:.17g}"


def _write_csv(path: Path, rows) -> None:
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    _write_text(path, text.getvalue())


def cmd_eval(args) -> int:
    from . import trainer
    cfg_map = resolve_config(NO_KEYS, args.config, args.set)
    kind, loaded, extra = trainer.load_checkpoint(args.checkpoint)
    movies = dataio.load_dataset(Path(args.data))
    epoch = extra.get("epoch", 0)
    # one forward per movie feeds both the report and scores.csv, whose
    # cells format Python floats: the .17g text of their float64 values
    if kind == "scene":
        scores = [trainer.scene_shot_scores(loaded, movie) for movie in movies]
        report = trainer.scene_report(scores, movies, epoch, args.seed)
        rows = [["movie_id", "shot", "score", "label"]]
        for movie, movie_scores in zip(movies, scores):
            rows += [
                [movie.movie_id, t, _format(score), label]
                for t, (score, label) in enumerate(
                    zip(movie_scores.tolist(), movie.scene_labels.tolist()))
            ]
    else:
        trainer.check_tower_lengths(movies, loaded.shot_model.config)
        probs = [trainer.act_shot_probs(loaded.shot_model, movie) for movie in movies]
        report = trainer.act_report(probs, movies, epoch, args.seed)
        rows = [["movie_id", "shot"] + [f"tp{i}" for i in range(dataio.NUM_TURNING_POINTS)]]
        for movie, movie_probs in zip(movies, probs):
            rows += [
                [movie.movie_id, t] + [_format(p) for p in row]
                for t, row in enumerate(movie_probs.tolist())
            ]
    out = _run_dir(args)
    _write_csv(out / "scores.csv", rows)
    _write_config(out, "eval", args.seed, cfg_map)
    _write_text(out / "report.json", report.dumps() + "\n")
    print(report.dumps())
    return 0


# ---- gradient checking ----


def cmd_gradcheck(args) -> int:
    cfg_map = resolve_config(__getattr__("GRADCHECK_KEYS"), args.config, args.set)
    results = run_gradient_checks(args.seed, cfg_map["h"], cfg_map["tolerance"])
    out = _run_dir(args)
    _write_config(out, "gradcheck", args.seed, cfg_map)
    _write_json(out / "gradcheck.json", results)
    header = f"{'check':<20} {'params':>6} {'max_rel_error':>14} {'worst':<24} status"
    print(header)
    for r in results:
        print(
            f"{r['check']:<20} {r['parameters']:>6} {r['max_rel_error']:>14.3e} "
            f"{r['worst_parameter']:<24} {'pass' if r['passed'] else 'FAIL'}"
        )
    if all(r["passed"] for r in results):
        print(f"all checks passed (tolerance {cfg_map['tolerance']:g})")
        return 0
    print(f"gradient check FAILED (tolerance {cfg_map['tolerance']:g})")
    return 4


# ---- modality importance ----


def cmd_importance(args) -> int:
    from . import metrics as mx, trainer
    cfg_map = resolve_config(IMPORTANCE_KEYS, args.config, args.set)
    if cfg_map["shot"] < -1:
        raise ConfigError(f"shot is a shot index or -1 (movie middle), got {cfg_map['shot']}")
    kind, loaded, _ = trainer.load_checkpoint(args.checkpoint)
    if kind == "act" and cfg_map["shot"] != -1:
        raise ConfigError(f"shot applies to scene checkpoints only, got shot={cfg_map['shot']}")
    movies = dataio.load_dataset(Path(args.data))
    if kind == "act":
        trainer.check_tower_lengths(movies, loaded.shot_model.config)
    else:
        trainer.check_scene_lengths(movies, loaded.config)
    payload = []
    for movie in movies:
        record = {"movie_id": movie.movie_id, "task": kind}
        if kind == "scene":
            t = cfg_map["shot"] if cfg_map["shot"] >= 0 else movie.num_shots // 2
            if not 0 <= t < movie.num_shots:
                raise DataError(
                    f"shot {t} outside movie {movie.movie_id} ({movie.num_shots} shots)"
                )
            idx = trainer.window_index([t], loaded.config.seq_len // 2, movie.num_shots)[0]
            weights, fallback = mx.gradcam_importance(loaded, [x[idx] for x in movie.streams])
            record["shot"] = t
        else:
            weights, fallback = mx.gradcam_importance(loaded.shot_model, movie.streams)
        record["weights"] = {name: float(w) for name, w in zip(movie.modalities, weights)}
        record["uniform_fallback"] = fallback
        payload.append(record)
    out = _run_dir(args)
    _write_config(out, "importance", args.seed, cfg_map)
    _write_json(out / "importance.json", payload)
    _print_json(payload)
    return 0


# ---- argument parsing ----


def _add_common(sub, with_data=False, with_checkpoint=False):
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    sub.add_argument("--out", help="output directory (default: runs/<command>-<time>)")
    sub.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    if with_data:
        sub.add_argument("--data", required=True, help="dataset directory of movie manifests")
    if with_checkpoint:
        sub.add_argument("--checkpoint", required=True, help="checkpoint file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cineseg",
        description="Scene and act segmentation experiments on synthetic movies.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a synthetic movie dataset")
    _add_common(p)
    p.add_argument("--movies", type=int, help="number of movies")
    p.add_argument("--shots", type=int, help="shots per movie")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("train-scene", help="train the scene boundary model")
    _add_common(p, with_data=True)
    p.set_defaults(func=cmd_train_scene)

    p = subs.add_parser("train-act", help="train the act pipeline")
    _add_common(p, with_data=True)
    p.set_defaults(func=cmd_train_act)

    p = subs.add_parser("sync", help="export shot-sentence assignments")
    _add_common(p, with_data=True, with_checkpoint=True)
    p.add_argument("--pgm", action="store_true", help="also write graymap images")
    p.set_defaults(func=cmd_sync)

    p = subs.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _add_common(p, with_data=True, with_checkpoint=True)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("gradcheck", help="finite-difference gradient verification")
    _add_common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = subs.add_parser("importance", help="per-modality importance weights")
    _add_common(p, with_data=True, with_checkpoint=True)
    p.set_defaults(func=cmd_importance)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, ContractError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
