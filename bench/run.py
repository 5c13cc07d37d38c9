"""cineseg benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload scene_desk --seed 2 --seconds 55 --trace 0

Run it from the root of a cineseg checkout; it imports the package from
src/ there. With --trace 0 every command runs as a user runs it, one
`python3 -m cineseg.cli ...` child process at a time: the setup command,
then rounds of the workload's commands, each followed by setup repeats,
until --seconds have passed. Every round repeats the first with the same
seed, so its output trees must hash the same. With --trace 1 the
workload runs once in this process through cineseg.cli.main without
wrappers and once with them (see spans.py), and both output trees must
hash the same.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the full record of the run is
written to .bench_work/results/. Exit code 0 whenever the workload ran,
2 when this is not a checkout with the cineseg sources.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from compare import summary
from spans import PER_LAYER, Tracer, layer_metrics, traced
from workloads import WORKLOADS, Step, check_outputs, dataset_shots, tree_digest

SETUP_REPEATS = 5  # at least, per untraced run
SETUPS_PER_ROUND = 2  # set-up repeats after each round
RUN_DEADLINE_S = 170.0  # children still running then are killed
WORK = Path(".bench_work")
MODULES = ("numcore", "alignfuse", "trainer", "sync", "distill", "dataio", "metrics")

# name -> (unit, better); these are the end_to_end metrics of BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "main_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# reported in the run record and on the terminal, not in the last line:
# they are zero on most runs, or depend on the seed far more than any bound
INFO = {
    "infer_s": ("s", "lower"),
    "fail_rate": ("ratio", "lower"),
    "heldout_ap": ("ratio", "higher"),
    "span_hit_rate": ("ratio", "higher"),
    "gradcheck_max_rel_error": ("ratio", "lower"),
    "warning_lines": ("count", "lower"),
}


def machine_info() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (TypeError, KeyError):
        pass
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "platform": platform.platform(),
    }


def warning_templates(stderr_text: str) -> dict:
    """Count stderr lines by message, with every number replaced by N."""
    counts: dict = {}
    for line in stderr_text.splitlines():
        if line.strip():
            key = re.sub(r"\d+", "N", line.strip())[:120]
            counts[key] = counts.get(key, 0) + 1
    return counts


def _logs(step: Step, work: Path, label: str):
    base = work / "logs" / label
    base.parent.mkdir(parents=True, exist_ok=True)
    return base.with_suffix(".stdout"), base.with_suffix(".stderr")


def _finish(step: Step, label: str, wall: float, code: int, stdout: Path, stderr: Path,
            root: Path) -> dict:
    """The record of a finished step, with every problem found in its outputs."""
    err_text = stderr.read_text(errors="replace")
    problems = []
    if code != 0:
        tail = err_text.strip().splitlines()[-1:] or [""]
        problems.append(f"exit code {code}: {tail[0]}")
    elif step.command == "import":
        where = Path(stdout.read_text().strip() or ".").resolve()
        if not where.is_relative_to((root / "src").resolve()):
            problems.append(f"imported cineseg from {where}, not from this checkout")
    else:
        problems = check_outputs(step)
    digest = tree_digest(step.out) if step.out is not None and code == 0 else None
    return {
        "label": label,
        "phase": step.phase,
        "command": step.command,
        "wall_s": wall,
        "exit": code,
        "warnings": warning_templates(err_text),
        "digest": digest,
        "problems": problems,
    }


def _kill(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def run_child(step: Step, label: str, work: Path, root: Path, env: dict, timeout: float) -> dict:
    """Run one step as a child process; its output goes to log files."""
    stdout, stderr = _logs(step, work, label)
    with open(stdout, "wb") as so, open(stderr, "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *step.argv], stdout=so, stderr=se,
                                env=env, cwd=root)
        killer = threading.Timer(max(timeout, 1.0), _kill, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = _finish(step, label, wall, proc.returncode, stdout, stderr, root)
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    return record


def _note_digest(record: dict, seen: dict) -> None:
    """Determinism: a command's output tree must hash as on its first run."""
    if record["digest"] is None:
        return
    first = seen.setdefault(record["command"], record["digest"])
    if record["digest"] != first:
        record["problems"].append(f"output tree differs from the first {record['command']} "
                                  "run with the same seed")


def fail_rate(records: list) -> float:
    """Commands that failed, or whose outputs failed a check, over commands run."""
    return sum(1 for r in records if r["problems"]) / len(records)


def run_untraced(wl, seed: int, seconds: float, root: Path, work: Path, deadline: float,
                 setup_repeats: int = SETUP_REPEATS):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH", "")) if p)
    records, seen, rounds, quality = [], {}, [], {}

    def run(step, label):
        record = run_child(step, label, work, root, env, deadline - time.monotonic())
        _note_digest(record, seen)
        records.append(record)
        return record

    setups = []

    def set_up():
        out = work / f"setup{len(setups)}"
        setups.append(run(wl.setup(seed, out), out.name))
        if len(setups) > 1 and out.exists():
            shutil.rmtree(out)  # set-up repeats only time; round0 reads setup0
        return setups[-1]

    # The set-up repeats are spread over the run, between rounds, so that
    # their median samples the whole run and not the few seconds at its
    # start: the speed of a shared box changes from second to second.
    data = work / "setup0"
    if not set_up()["problems"]:
        start = time.monotonic()
        while True:
            rd = work / f"round{len(rounds)}"
            steps = wl.round(seed, data, rd)
            done = []
            for i, step in enumerate(steps):
                done.append(run(step, f"{rd.name}-{i}-{step.command}"))
                if done[-1]["problems"]:
                    break
            rounds.append(done)
            if any(r["problems"] for r in done):
                break
            if not quality:
                try:
                    quality = wl.quality(steps)
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    done[0]["problems"].append(f"unreadable report: {exc!r}")
                    break
            if len(rounds) > 1:
                shutil.rmtree(rd)  # identical to round0, as its digests show
            between = [set_up() for _ in range(SETUPS_PER_ROUND)]
            elapsed = time.monotonic() - start
            if elapsed + sum(r["wall_s"] for r in done + between) > seconds:
                break
    while len(setups) < setup_repeats:
        set_up()

    def per_round(phase):
        return [sum(r["wall_s"] for r in done if r["phase"] == phase) for done in rounds]

    samples = {
        "setup_s": [r["wall_s"] for r in setups],
        "main_s": per_round("main"),
        "wall_s": [sum(r["wall_s"] for r in done) for done in rounds],
        "peak_rss_mb": [max(r["peak_rss_mb"] for r in records)],
    }
    if any(per_round("infer")):
        samples["infer_s"] = per_round("infer")
    if rounds:
        samples["warning_lines"] = [sum(sum(r["warnings"].values()) for r in rounds[0])]
    for name, value in quality.items():
        samples[name] = [value]
    samples["fail_rate"] = [fail_rate(records)]
    return records, samples


def _import_cineseg(root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    mods = {name: importlib.import_module(f"cineseg.{name}") for name in MODULES + ("cli",)}
    where = Path(mods["cli"].__file__).resolve()
    if not where.is_relative_to((root / "src").resolve()):
        raise RuntimeError(f"imported cineseg from {where}, not from this checkout")
    return mods


def run_in_process(cli, step: Step, label: str, work: Path, root: Path, tracer=None) -> dict:
    """Run one step through cineseg.cli.main, its output captured to log files."""
    stdout, stderr = _logs(step, work, label)
    with open(stdout, "w") as so, open(stderr, "w") as se, \
            contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        start = time.perf_counter()
        if tracer is not None:
            tracer.start_command()
            tracer.enter(tracer.name_id(f"cli.{step.command}"))
        try:
            code = cli.main(step.cli_args)
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            code = 1
        finally:
            if tracer is not None:
                tracer.exit()
        wall = time.perf_counter() - start
    return _finish(step, label, wall, code, stdout, stderr, root)


def run_traced(wl, seed: int, root: Path, work: Path):
    mods = _import_cineseg(root)
    cli = mods["cli"]

    def steps(mode):
        setup = wl.setup(seed, work / mode / "setup")
        data = work / mode / "setup"
        in_process = [setup] if setup.command != "import" else []
        return in_process + wl.round(seed, data, work / mode / "round")

    plain = [run_in_process(cli, s, f"untraced-{i}-{s.command}", work, root)
             for i, s in enumerate(steps("untraced"))]
    tracer = Tracer()
    records, eval_rates = [], []
    with traced(tracer, mods) as patches:
        for i, step in enumerate(steps("traced")):
            forwards = tracer.get("alignfuse.encode", "calls")
            records.append(run_in_process(cli, step, f"traced-{i}-{step.command}", work, root,
                                          tracer))
            if step.command == "eval":
                eval_rates.append((tracer.get("alignfuse.encode", "calls") - forwards)
                                  / len(dataset_shots(step.data)))
    left = patches.remaining()
    if left:
        records[-1]["problems"].append(f"wrappers not removed: {left}")
    for p, t in zip(plain, records):
        if p["digest"] != t["digest"]:
            t["problems"].append("traced output tree differs from the untraced one")
    skipped = sum(n for r in records for k, n in r["warnings"].items()
                  if k.startswith("contrastive loss: skipped"))
    overhead = sum(r["wall_s"] for r in records) - sum(r["wall_s"] for r in plain)
    per_layer = layer_metrics(
        tracer, statistics.fmean(eval_rates) if eval_rates else 0.0, skipped, overhead)
    return plain + records, per_layer, tracer


def _print_metric(name: str, unit: str, better: str, values: list) -> None:
    median, q1, q3 = summary(values)
    line = f"  {name:<24} {median:12.6g} {unit:<6} ({better} is better)  median of {len(values)}"
    if len(values) > 1:
        line += f", quartiles {q1:.6g} .. {q3:.6g}"
    print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cineseg benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="how long the timed rounds of an untraced run last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/cineseg/cli.py", "configs/scene_desk.cfg", "configs/act_desk.cfg")
               if not (root / p).is_file()]
    if missing:
        print(f"error: {root} is not a cineseg checkout (missing {', '.join(missing)}); "
              "run the benchmark from the repository root", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads  # before numpy is loaded here or in a child

    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    machine = machine_info()
    print(f"workload {wl.name} seed {seed} trace {args.trace}: {wl.why}")
    print("machine " + ", ".join(f"{k} {v}" for k, v in machine.items()))

    record = {"workload": wl.name, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    if args.trace:
        commands, metrics, tracer = run_traced(wl, seed, root, work)
        record["per_layer"] = {k: dict(v, better=PER_LAYER[k][1]) for k, v in metrics.items()}
        record["spans"] = tracer.stats()
        record["counts"] = dict(tracer.counts)
        tracer.save_spans(results / f"{wl.name}-seed{seed}.spans.npz")
        for name, m in metrics.items():
            print(f"  {name:<36} {m['value']:14.6g} {m['unit']}")
    else:
        commands, samples = run_untraced(wl, seed, args.seconds, root, work, deadline)
        record["metrics"] = {}
        for name, values in samples.items():
            unit, better = END_TO_END.get(name) or INFO[name]
            median = statistics.median(values) if values else 0.0  # no round ran
            record["metrics"][name] = {"value": median, "unit": unit, "better": better,
                                       "samples": values}
            _print_metric(name, unit, better, values or [0.0])
        metrics = {name: {"value": record["metrics"][name]["value"], "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
    failed = sum(1 for c in commands if c["problems"])
    for c in commands:
        for problem in c["problems"]:
            print(f"FAILED {c['label']} ({c['command']}): {problem}")
    record.update(commands=commands, attempted=len(commands), failed=failed)
    (results / f"{wl.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(commands), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
