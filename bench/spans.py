"""Spans and counts for the traced benchmark run.

The traced run wraps the public functions of each cineseg module from
outside (nothing in src/ changes), runs the workload in-process, and
removes the wrappers again. A span is (name, start, end, parent); a
span's self time is its duration minus the time its direct children
cover. Self times are summed per name as spans end, so a run of
millions of numcore op calls needs no per-call storage: op calls are
only aggregated, every other span is also kept in memory and written
out at the end.
"""

from __future__ import annotations

import inspect
import math
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

# tape node names of the numcore ops (sum_all records "sum")
TAPE_KINDS = (
    "add", "sub", "mul", "div", "neg", "matmul", "transpose", "reshape", "narrow",
    "concat", "gather_rows", "expand_batch", "sum", "exp", "log", "clamp_min", "gelu",
    "softmax", "log_softmax", "layernorm", "normalize_rows", "dropout",
)
# public numcore functions that are not ops
NOT_OPS = {"backward", "zero_grads", "fd_gradient", "max_rel_error"}

# (module, attribute) -> span name, for plain function wrappers
SPANS = {
    ("numcore", "backward"): "numcore.backward",
    ("numcore", "fd_gradient"): "numcore.fd_gradient",
    ("alignfuse", "encode"): "alignfuse.encode",
    ("alignfuse", "forward_scene"): "alignfuse.forward_scene",
    ("alignfuse", "encode_sequence"): "alignfuse.encode_sequence",
    ("alignfuse", "embed_modality"): "alignfuse.embed",
    ("alignfuse", "unimodal_encode"): "alignfuse.unimodal",
    ("alignfuse", "fusion_encode"): "alignfuse.fusion",
    ("alignfuse", "save_checkpoint"): "alignfuse.checkpoint_save",
    ("alignfuse", "load_checkpoint"): "alignfuse.checkpoint_load",
    ("trainer", "train_scene"): "trainer.train_scene",
    ("trainer", "train_act"): "trainer.train_act",
    ("trainer", "weighted_scene_ce"): "trainer.weighted_scene_ce",
    ("trainer", "scene_shot_scores"): "trainer.scene_shot_scores",
    ("trainer", "scene_report"): "trainer.report",
    ("trainer", "act_report"): "trainer.report",
    ("sync", "run_e_step"): "sync.e_step",
    ("sync", "m_step_loss"): "sync.m_step_loss",
    ("distill", "attention_weights"): "distill.attention_weights",
    ("distill", "transfer_targets"): "distill.transfer_targets",
    ("distill", "shot_distribution"): "distill.shot_distribution",
    ("distill", "kd_loss"): "distill.kd_loss",
    ("distill", "synopsis_ce_loss"): "distill.synopsis_ce_loss",
    ("distill", "total_loss"): "distill.total_loss",
    ("dataio", "make_dataset"): "dataio.make_dataset",
    ("dataio", "save_dataset"): "dataio.save",
    ("dataio", "load_dataset"): "dataio.load",
    ("metrics", "average_precision"): "metrics.ranking",
    ("metrics", "f1_at"): "metrics.ranking",
    ("metrics", "best_f1"): "metrics.ranking",
    ("metrics", "tp_metrics"): "metrics.ranking",
    ("metrics", "gradcam_importance"): "metrics.gradcam",
}


class Tracer:
    """Span stack with per-name call counts, total and self time.

    A name's total time is the time its outermost spans cover, so a
    function that calls itself, or a name shared by functions that call
    each other, is not counted twice. A layer's time (the name's prefix
    before the first dot) is likewise the time of its outermost spans.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._layer: list[str] = []
        self._depth: list[int] = []
        self._recorded: list[bool] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.layer_time: Counter = Counter()
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[list] = []  # [name id, start, child time, span index]
        self.counts: Counter = Counter()
        self.step_returns: list[float] = []  # optimizer step return times, this command
        self.step_periods: list[float] = []
        self.gold: dict[int, tuple] = {}  # id(synopsis matrix) -> (movie, gold_sync)

    def name_id(self, name: str, record: bool = True) -> int:
        """Id of a span name; spans of an unrecorded name are only aggregated."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._layer.append(name.split(".", 1)[0])
            self._depth.append(0)
            self._recorded.append(record)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def enter(self, nid: int) -> None:
        self._depth[nid] += 1
        index = -1
        if self._recorded[nid]:
            parent = next((f[3] for f in reversed(self._stack) if f[3] >= 0), -1)
            index = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_end.append(0.0)
            start = self.clock()
            self.span_start.append(start)
        else:
            start = self.clock()
        self._stack.append([nid, start, 0.0, index])

    def exit(self) -> None:
        end = self.clock()
        nid, start, child, index = self._stack.pop()
        duration = end - start
        self.calls[nid] += 1
        self.self_time[nid] += duration - child
        self._depth[nid] -= 1
        if not self._depth[nid]:
            self.total[nid] += duration
        layer = self._layer[nid]
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            if self._layer[parent[0]] != layer:
                self.layer_time[layer] += duration
        else:
            self.layer_time[layer] += duration
        if index >= 0:
            self.span_end[index] = end

    def start_command(self) -> None:
        self.step_returns = []

    def optimizer_stepped(self) -> None:
        now = self.clock()
        if self.step_returns:
            self.step_periods.append(now - self.step_returns[-1])
        self.step_returns.append(now)

    def stats(self) -> dict:
        """name -> {calls, total_s, self_s} for every name seen."""
        return {
            name: {"calls": self.calls[i], "total_s": self.total[i], "self_s": self.self_time[i]}
            for i, name in enumerate(self.names)
            if self.calls[i]
        }

    def get(self, name: str, what: str = "total") -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return {"calls": self.calls, "total": self.total, "self": self.self_time}[what][nid]

    def save_spans(self, path) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )


# ---- wrappers ----


def _span(tracer: Tracer, fn, nid: int):
    enter, exit_ = tracer.enter, tracer.exit

    def wrapper(*args, **kwargs):
        enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return wrapper


@dataclass
class Patches:
    """Attributes replaced on cineseg objects, with their originals."""

    done: list = field(default_factory=list)
    originals: dict = field(default_factory=dict)  # (owner, attr) -> first original

    def set(self, owner, attr: str, value) -> None:
        original = getattr(owner, attr)
        self.done.append((owner, attr, original))
        self.originals.setdefault((owner, attr), original)
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self.done:
            owner, attr, original = self.done.pop()
            setattr(owner, attr, original)

    def remaining(self) -> list:
        """Patched attributes that do not hold their original value."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for (owner, attr), original in self.originals.items()
                if getattr(owner, attr) is not original]


def _install(tracer: Tracer, mods: dict, patches: Patches) -> None:
    nc, af, trainer, sync, dataio = (
        mods["numcore"], mods["alignfuse"], mods["trainer"], mods["sync"], mods["dataio"]
    )
    # every public numcore function is an op unless listed, so ops added
    # later are counted too
    for name, fn in list(vars(nc).items()):
        if (inspect.isfunction(fn) and fn.__module__ == nc.__name__
                and not name.startswith("_") and name not in NOT_OPS):
            patches.set(nc, name, _span(tracer, fn, tracer.name_id(f"numcore.op.{name}", False)))
    for (module, attr), name in SPANS.items():
        fn = getattr(mods[module], attr, None)
        if fn is not None:
            patches.set(mods[module], attr, _span(tracer, fn, tracer.name_id(name)))
    counts = tracer.counts

    def hook(owner, attr, before=None, after=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        patches.set(owner, attr, wrapper)

    def count_tape(tape, *_, **__):
        counts["backward_calls"] += 1
        for node in getattr(tape, "nodes", ()):
            counts["tape_nodes"] += 1
            counts["tape_nodes." + node.name] += 1

    def count_single_class(logits, labels, *_, **__):
        if len(set(int(v) for v in labels)) < 2:
            counts["single_class_batches"] += 1

    def register_movies(movies, *_, **__):
        counts["dataio.loads"] += 1
        for m in movies:
            if m.synopsis_features is not None and m.gold_sync is not None:
                tracer.gold[id(m.synopsis_features)] = (m, m.gold_sync)

    def bytes_written(paths, *_, **__):
        counts["dataio.bytes_written"] += sum(
            f.stat().st_size for p in paths for f in p.parent.iterdir() if f.is_file()
        )

    def score_e_step(syncs, *args, **kwargs):
        inputs = kwargs.get("movie_inputs", args[3] if len(args) > 3 else ())
        counts["e_steps"] += 1
        for (_, synopsis), sm in zip(inputs, syncs):
            w = sm.w > 0.5
            counts["assigned_pairs"] += int(w.sum())
            entry = tracer.gold.get(id(synopsis))
            if entry is not None and entry[1].shape == w.shape:
                gold = entry[1] > 0.5
                counts["gold_hits"] += int((w & gold).sum())
                counts["gold_assigned"] += int(w.sum())
                counts["gold_pairs"] += int(gold.sum())

    # hooks go on top of the span wrappers, so their own cost stays
    # outside the spans
    hook(nc, "backward", before=count_tape)
    hook(trainer, "weighted_scene_ce", before=count_single_class)
    hook(dataio, "load_dataset", after=register_movies)
    hook(dataio, "save_dataset", after=bytes_written)
    hook(sync, "run_e_step", after=score_e_step)

    # the head is the one linear layer not reached through a public
    # alignfuse function in the scene forward
    linear = getattr(af, "_linear_apply", None)
    if linear is not None:
        head = _span(tracer, linear, tracer.name_id("alignfuse.head"))

        def linear_apply(model, prefix, x):
            return head(model, prefix, x) if prefix == "head" else linear(model, prefix, x)

        patches.set(af, "_linear_apply", linear_apply)

    optimizer = getattr(trainer, "Optimizer", None)
    if optimizer is not None and hasattr(optimizer, "step"):
        step = _span(tracer, optimizer.step, tracer.name_id("trainer.optimizer_step"))

        def optimizer_step(self, *args, **kwargs):
            result = step(self, *args, **kwargs)
            tracer.optimizer_stepped()
            return result

        patches.set(optimizer, "step", optimizer_step)

    head_cls = getattr(sync, "SyncHead", None)
    if head_cls is not None and hasattr(head_cls, "features"):
        patches.set(head_cls, "features",
                    _span(tracer, head_cls.features, tracer.name_id("sync.features")))


@contextmanager
def traced(tracer: Tracer, mods: dict):
    """Wrap cineseg's public functions for the duration of the block."""
    patches = Patches()
    try:
        _install(tracer, mods, patches)
        yield patches
    finally:
        patches.undo()


# ---- per-layer metrics ----


def _percentile(values: list, q: float) -> float:
    """Linear-interpolation percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# name -> (unit, better); the order is the order of BENCHMARK.json
PER_LAYER = {
    "numcore.tape_nodes_per_step": ("nodes", "lower"),
    **{f"numcore.tape_nodes.{k}": ("nodes", "lower") for k in TAPE_KINDS},
    "numcore.backward_s": ("s", "lower"),
    "numcore.op_calls": ("count", "lower"),
    "numcore.op_us": ("us", "lower"),
    "alignfuse.forward_calls": ("count", "lower"),
    "alignfuse.embed_s": ("s", "lower"),
    "alignfuse.unimodal_s": ("s", "lower"),
    "alignfuse.fusion_s": ("s", "lower"),
    "alignfuse.head_s": ("s", "lower"),
    "alignfuse.checkpoint_save_s": ("s", "lower"),
    "alignfuse.checkpoint_load_s": ("s", "lower"),
    "alignfuse.checkpoint_loads": ("count", "lower"),
    "trainer.optimizer_step_s": ("s", "lower"),
    "trainer.optimizer_steps": ("count", "lower"),
    "trainer.step_ms.p50": ("ms", "lower"),
    "trainer.step_ms.p99": ("ms", "lower"),
    "trainer.report_s": ("s", "lower"),
    "trainer.eval_forwards_per_movie": ("count", "lower"),
    "trainer.single_class_batches": ("count", "lower"),
    "sync.e_step_s": ("s", "lower"),
    "sync.e_steps": ("count", "lower"),
    "sync.m_step_loss_s": ("s", "lower"),
    "sync.assigned_pairs": ("count", "higher"),
    "sync.gold_precision": ("ratio", "higher"),
    "sync.gold_recall": ("ratio", "higher"),
    "sync.skipped_query_warnings": ("count", "lower"),
    "distill.s": ("s", "lower"),
    "dataio.make_dataset_s": ("s", "lower"),
    "dataio.save_s": ("s", "lower"),
    "dataio.load_s": ("s", "lower"),
    "dataio.loads": ("count", "lower"),
    "dataio.bytes_written": ("bytes", "lower"),
    "metrics.ranking_s": ("s", "lower"),
    "metrics.gradcam_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(tracer: Tracer, eval_forwards_per_movie: float,
                  skipped_query_warnings: int, overhead_s: float) -> dict:
    """Every PER_LAYER metric from a finished traced run."""
    c = tracer.counts
    backward_calls = c["backward_calls"]
    ops = [name for name in tracer.names if name.startswith("numcore.op.")]
    op_calls = sum(tracer.get(name, "calls") for name in ops)
    op_self = sum(tracer.get(name, "self") for name in ops)
    periods_ms = [p * 1e3 for p in tracer.step_periods]
    values = {
        "numcore.tape_nodes_per_step": c["tape_nodes"] / backward_calls if backward_calls else 0.0,
        **{f"numcore.tape_nodes.{k}": c["tape_nodes." + k] / backward_calls if backward_calls else 0.0
           for k in TAPE_KINDS},
        "numcore.backward_s": tracer.get("numcore.backward"),
        "numcore.op_calls": op_calls,
        "numcore.op_us": op_self / op_calls * 1e6 if op_calls else 0.0,
        "alignfuse.forward_calls": tracer.get("alignfuse.encode", "calls"),
        "alignfuse.embed_s": tracer.get("alignfuse.embed"),
        "alignfuse.unimodal_s": tracer.get("alignfuse.unimodal"),
        "alignfuse.fusion_s": tracer.get("alignfuse.fusion"),
        "alignfuse.head_s": tracer.get("alignfuse.head"),
        "alignfuse.checkpoint_save_s": tracer.get("alignfuse.checkpoint_save"),
        "alignfuse.checkpoint_load_s": tracer.get("alignfuse.checkpoint_load"),
        "alignfuse.checkpoint_loads": tracer.get("alignfuse.checkpoint_load", "calls"),
        "trainer.optimizer_step_s": tracer.get("trainer.optimizer_step"),
        "trainer.optimizer_steps": tracer.get("trainer.optimizer_step", "calls"),
        "trainer.step_ms.p50": _percentile(periods_ms, 50),
        "trainer.step_ms.p99": _percentile(periods_ms, 99),
        "trainer.report_s": tracer.get("trainer.report"),
        "trainer.eval_forwards_per_movie": eval_forwards_per_movie,
        "trainer.single_class_batches": c["single_class_batches"],
        "sync.e_step_s": tracer.get("sync.e_step"),
        "sync.e_steps": c["e_steps"],
        "sync.m_step_loss_s": tracer.get("sync.m_step_loss"),
        "sync.assigned_pairs": c["assigned_pairs"],
        "sync.gold_precision": c["gold_hits"] / c["gold_assigned"] if c["gold_assigned"] else 0.0,
        "sync.gold_recall": c["gold_hits"] / c["gold_pairs"] if c["gold_pairs"] else 0.0,
        "sync.skipped_query_warnings": skipped_query_warnings,
        "distill.s": tracer.layer_time["distill"],
        "dataio.make_dataset_s": tracer.get("dataio.make_dataset"),
        "dataio.save_s": tracer.get("dataio.save"),
        "dataio.load_s": tracer.get("dataio.load"),
        "dataio.loads": c["dataio.loads"],
        "dataio.bytes_written": c["dataio.bytes_written"],
        "metrics.ranking_s": tracer.get("metrics.ranking"),
        "metrics.gradcam_s": tracer.get("metrics.gradcam"),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
