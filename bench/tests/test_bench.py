"""Tests of the benchmark itself: span arithmetic, wrapper removal, the
failure accounting and the output checks.

    python3 -m pytest bench/tests -q
"""

import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Step, Workload, _cli  # noqa: E402


def _scripted_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_on_hand_built_span_tree():
    # A [0,10] holds B [1,4] and C [5,9]; B holds an aggregated-only op
    # E [2,3]; C holds D [6,7]
    tracer = spans.Tracer(clock=_scripted_clock([0, 1, 2, 3, 4, 5, 6, 7, 9, 10]))
    a, b, c, d = (tracer.name_id(f"layer{n}.{n}") for n in "abcd")
    e = tracer.name_id("numcore.op.e", record=False)
    tracer.enter(a)
    tracer.enter(b)
    tracer.enter(e)
    tracer.exit()
    tracer.exit()
    tracer.enter(c)
    tracer.enter(d)
    tracer.exit()
    tracer.exit()
    tracer.exit()
    stats = tracer.stats()
    assert stats["layera.a"] == {"calls": 1, "total_s": 10, "self_s": 3}
    assert stats["layerb.b"] == {"calls": 1, "total_s": 3, "self_s": 2}
    assert stats["layerc.c"] == {"calls": 1, "total_s": 4, "self_s": 3}
    assert stats["layerd.d"] == {"calls": 1, "total_s": 1, "self_s": 1}
    assert stats["numcore.op.e"] == {"calls": 1, "total_s": 1, "self_s": 1}
    # the op is not stored as a span; D's parent is C, C's and B's is A
    names = [tracer.names[i] for i in tracer.span_name]
    assert names == ["layera.a", "layerb.b", "layerc.c", "layerd.d"]
    assert list(tracer.span_parent) == [-1, 0, 0, 2]
    assert list(tracer.span_start) == [0, 1, 5, 6]
    assert list(tracer.span_end) == [10, 4, 9, 7]


def test_nested_spans_of_one_name_count_their_time_once():
    tracer = spans.Tracer(clock=_scripted_clock([0, 1, 2, 3, 4, 7]))
    x = tracer.name_id("metrics.ranking")
    y = tracer.name_id("metrics.other")
    tracer.enter(x)
    tracer.enter(x)
    tracer.exit()  # inner x: [1, 2]
    tracer.enter(y)
    tracer.exit()  # y: [3, 4]
    tracer.exit()  # outer x: [0, 7]
    assert tracer.stats()["metrics.ranking"] == {"calls": 2, "total_s": 7, "self_s": 6}
    assert tracer.layer_time["metrics"] == 7


def _tiny_scene(round_steps):
    """A scene workload on 3 movies of 12 shots; fast enough for a test."""
    def setup(seed, out):
        return _cli("setup", "synth", "--config", "configs/synth_scene.cfg",
                    "--movies", 3, "--shots", 12, "--seed", seed, out=out)

    return Workload("tiny", 0, "test", setup, round_steps, lambda steps: {})


def _tiny_round(seed, data, rd):
    ckpt = rd / "train" / "model.ckpt"
    return [
        _cli("main", "train-scene", "--config", "configs/scene_desk.cfg",
             "--set", "train.epochs=1", "--data", data, "--seed", seed,
             out=rd / "train", data=data),
        _cli("infer", "eval", "--checkpoint", ckpt, "--data", data, "--seed", seed,
             out=rd / "eval", data=data),
        _cli("infer", "importance", "--checkpoint", ckpt, "--data", data, "--seed", seed,
             out=rd / "importance", data=data),
    ]


def _cineseg_attributes(mods):
    """Every function and class attribute the tracer may replace."""
    found = {}
    for mod in mods.values():
        for name, value in vars(mod).items():
            found[(mod.__name__, name)] = value
    for cls in (mods["trainer"].Optimizer, mods["sync"].SyncHead):
        for name, value in vars(cls).items():
            found[(cls.__qualname__, name)] = value
    return found


def test_wrappers_are_removed_after_a_traced_run(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    mods = run._import_cineseg(ROOT)
    before = _cineseg_attributes(mods)
    records, per_layer, tracer = run.run_traced(_tiny_scene(_tiny_round), 0, ROOT, tmp_path)
    assert [r["problems"] for r in records] == [[]] * len(records)
    assert _cineseg_attributes(mods) == before
    assert set(per_layer) == set(spans.PER_LAYER)
    assert per_layer["trainer.optimizer_steps"]["value"] > 0
    assert per_layer["trainer.eval_forwards_per_movie"]["value"] == 2.0
    assert per_layer["numcore.op_calls"]["value"] > 0


def test_planted_failing_command_shows_in_fail_rate(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)

    def failing_round(seed, data, rd):
        steps = _tiny_round(seed, data, rd)[:1]
        steps.append(_cli("infer", "eval", "--checkpoint", rd / "missing.ckpt",
                          "--data", data, "--seed", seed, out=rd / "eval", data=data))
        return steps

    deadline = time.monotonic() + 120
    records, samples = run.run_untraced(_tiny_scene(failing_round), 0, 1.0, ROOT, tmp_path,
                                        deadline, setup_repeats=2)
    # a setup, the training command, the planted failure that ends the
    # rounds, then the setup repeat that brings the setups to two
    assert [r["command"] for r in records] == ["synth", "train-scene", "eval", "synth"]
    assert records[2]["exit"] == 5 and records[2]["problems"]
    assert [bool(r["problems"]) for r in records] == [False, False, True, False]
    assert samples["fail_rate"] == [0.25]
    assert len(samples["setup_s"]) == 2


def test_sync_check_rejects_rows_that_do_not_decode(tmp_path):
    data = tmp_path / "data"
    (data / "movie_0000").mkdir(parents=True)
    (data / "config.json").write_text(json.dumps({"sentences": 3}))
    (data / "summary.json").write_text(
        json.dumps({"movies": [{"movie_id": "movie_0000", "shots": 2}]}))
    out = tmp_path / "sync"
    out.mkdir()
    (out / "config.json").write_text("{}")
    (out / "movie_0000.pgm").write_bytes(b"")
    payload = {"shots": 2, "sentences": 3, "xi": 0.1, "lambdas": [0, 0, 0], "rows": [[1, 2], [0, 1]]}
    (out / "movie_0000.json").write_text(json.dumps(payload))
    step = Step("infer", "sync", [], out, data)
    problems = workloads.check_outputs(step)
    assert len(problems) == 1 and "row 1" in problems[0]
    payload["rows"][1] = [0, 1, 2]
    (out / "movie_0000.json").write_text(json.dumps(payload))
    assert workloads.check_outputs(step) == []


def test_benchmark_json_matches_the_metrics_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(spans.PER_LAYER)
    for m in spec["end_to_end"]:
        assert (m["unit"], m["better"]) == run.END_TO_END[m["name"]]
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == spans.PER_LAYER[m["name"]]
    # gradcheck is defined but not timed by BENCHMARK.json (see README.md)
    timed = [n for n in workloads.WORKLOADS if n != "gradcheck"]
    assert [w["name"] for w in spec["workloads"]] == timed
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_not_a_checkout_exits_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "gradcheck"]) == 2
    assert capsys.readouterr().out == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
