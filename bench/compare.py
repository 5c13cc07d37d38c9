"""Compare two sets of benchmark results, workload by workload.

    python3 bench/compare.py BASE NEW

BASE and NEW are run records written by bench/run.py (files, or
directories searched for *-trace*.json), typically the parent commit's
.bench_work/results and the change's. Untraced runs of a workload are
paired by seed. For every metric it prints each side's median and
quartiles and applies the rule for claiming a gain: the change wins at
least 9 of 10 pairs (ties count for neither) and the medians differ by
more than the parent's interquartile range. An end-to-end metric whose
median got worse by more than its bound in BENCHMARK.json is a
regression; where the parent's own spread is wider than the bound the
result is unresolved unless every run of the change beats every run of
the parent. Traced runs add per-layer metrics and the self time of
every span name.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> list:
    files = sorted(path.rglob("*-trace*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def bounds() -> dict:
    if not BENCHMARK.is_file():
        return {}
    return {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}


def summary(values: list) -> tuple:
    """(median, first quartile, third quartile)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q = statistics.quantiles(values, n=4)
    return median, q[0], q[2]


def verdict(base: list, new: list, pairs: list, better: str, bound: float | None) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b_med, b_q1, b_q3 = summary(base)
    n_med = statistics.median(new)
    gap = (n_med - b_med) * sign  # > 0: the change is better
    wins = sum(1 for b, n in pairs if (n - b) * sign > 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(gap) > b_q3 - b_q1 and gap > 0:
        return f"GAIN ({wins}/{len(pairs)} pairs won)"
    if bound is None:
        return f"{wins}/{len(pairs)} pairs won"
    if b_med and (b_q3 - b_q1) / abs(b_med) > bound:
        if all((n - b) * sign > 0 for n in new for b in base):
            return "better in every run (parent spread exceeds bound)"
        return "UNRESOLVED (parent spread exceeds bound)"
    if b_med and -gap / abs(b_med) > bound:
        return f"REGRESSION (worse by more than {bound:.0%})"
    return f"within bound ({wins}/{len(pairs)} pairs won)"


def _fmt(values: list) -> str:
    med, q1, q3 = summary(values)
    return f"{med:11.5g} [{q1:.5g} .. {q3:.5g}]"


def compare_untraced(base: list, new: list, limits: dict) -> None:
    base_by_seed = {r["seed"]: r for r in base}
    pairs_of = [(base_by_seed[r["seed"]], r) for r in new if r["seed"] in base_by_seed]
    names = [n for n in base[0]["metrics"] if all(n in r["metrics"] for r in base + new)]
    print(f"  {len(base)} parent runs, {len(new)} change runs, {len(pairs_of)} seed pairs")
    print(f"  {'metric':<24} {'parent median [q1 .. q3]':>34} {'change median [q1 .. q3]':>34}"
          f" {'delta':>8}  verdict")
    for name in names:
        m = base[0]["metrics"][name]
        b = [r["metrics"][name]["value"] for r in base]
        n = [r["metrics"][name]["value"] for r in new]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs_of]
        b_med = statistics.median(b)
        delta = (statistics.median(n) - b_med) / abs(b_med) if b_med else 0.0
        print(f"  {name:<24} {_fmt(b):>34} {_fmt(n):>34} {delta:+8.1%}  "
              f"{verdict(b, n, pairs, m['better'], limits.get(name))}  ({m['unit']})")


def compare_traced(base: list, new: list, top: int) -> None:
    print(f"  per-layer metrics ({len(base)} parent, {len(new)} change traced runs), medians")
    for name, m in base[0]["per_layer"].items():
        b = statistics.median(r["per_layer"][name]["value"] for r in base)
        n = statistics.median(r["per_layer"].get(name, {"value": 0.0})["value"] for r in new)
        if b or n:
            rel = f"{(n - b) / abs(b):+8.1%}" if b else "     new"
            print(f"    {name:<36} {b:12.5g} -> {n:12.5g} {rel}  ({m['unit']}, {m['better']} is better)")
    spans = set().union(*(r["spans"] for r in base + new))

    def self_s(runs, name):
        return statistics.median(r["spans"].get(name, {"self_s": 0.0})["self_s"] for r in runs)

    rows = sorted(((self_s(new, s) - self_s(base, s), s) for s in spans),
                  key=lambda row: -abs(row[0]))
    print(f"  self time by span, largest changes first (top {top})")
    for delta, name in rows[:top]:
        print(f"    {name:<36} {self_s(base, name):10.4f} s -> {self_s(new, name):10.4f} s "
              f"{delta:+10.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="parent results: a record or a directory")
    parser.add_argument("new", type=Path, help="change results: a record or a directory")
    parser.add_argument("--top", type=int, default=20, help="span rows to print")
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    limits = bounds()
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    if not workloads:
        print("no workload has results on both sides", file=sys.stderr)
        return 2
    for wl in workloads:
        print(f"== {wl}")
        for trace, compare in ((0, compare_untraced), (1, compare_traced)):
            b = [r for r in base if r["workload"] == wl and r["trace"] == trace]
            n = [r for r in new if r["workload"] == wl and r["trace"] == trace]
            if b and n:
                compare(b, n, limits if trace == 0 else args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
