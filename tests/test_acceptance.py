"""Acceptance gate: nine end-to-end criteria, each printing one verdict
line (visible with pytest -s; captured output is shown on failure).

Every criterion runs the real desk-scale pipeline, not mocks: the
training criteria use the shipped configs under configs/, and the
determinism criterion reruns every CLI command byte-for-byte.
"""

import hashlib
import time
from pathlib import Path

import numpy as np

from cineseg import alignfuse as af
from cineseg import cli
from cineseg import dataio
from cineseg import distill
from cineseg import sync
from cineseg import trainer
from cineseg.numcore import Tensor
from helpers import record_fusion_lengths

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---- shared act-task fixture (also used by the ablation criterion) ----


def _act_dataset(seed: int):
    cfg = dataio.SynthConfig(
        shots=300, scenes=13, sentences=12, modalities=(("content", 16),),
        latent_dim=16, noise=0.0, tp_jitter=0.0, cut_jitter=0.0,
        tp_motif_scale=3.0, tp_motif_halfwidth=3,
    )
    return dataio.make_dataset(cfg, 8, seed=seed)


def _act_model_cfgs(align_pe: bool):
    kw = dict(width=16, ffn_width=32, unimodal_depth=0, fusion_depth=0,
              num_classes=5, modality_dims=(16,),
              align_pe_embed=align_pe, align_pe_tokens=align_pe)
    return (af.ModelConfig(seq_len=300, align_len=12, **kw),
            af.ModelConfig(seq_len=12, align_len=12, **kw))


def _act_train_cfg(seed: int):
    return trainer.TrainConfig(
        epochs=10, batch_size=1, lr=1e-2,
        seed=seed, sync_dim=16, em_xi=0.1,
    )


def _strict_tp_hits(shot_model, movies) -> int:
    """Turning points whose predicted shot lies inside the gold span on
    every one of the given movies."""
    per_movie = list(zip(movies, trainer.act_shot_probs(shot_model, movies)))
    hits = 0
    for tp in range(dataio.NUM_TURNING_POINTS):
        ok = True
        for movie, probs in per_movie:
            span = np.flatnonzero(movie.gold_sync[:, movie.tp_labels[tp]].any(axis=1))
            ok = ok and int(np.argmax(probs[:, tp])) in set(span.tolist())
        hits += int(ok)
    return hits


# ---- criteria ----


def test_a1_gradient_fidelity():
    t0 = time.perf_counter()
    results = cli.run_gradient_checks(seed=0)
    dt = time.perf_counter() - t0
    worst = max(r["max_rel_error"] for r in results)
    ok = len(results) == 3 and all(r["passed"] for r in results) and dt < 30.0
    _verdict("A1 gradient fidelity", ok,
             f"max rel error {worst:.2e} across {len(results)} losses, {dt:.1f}s")
    assert ok


def test_a2_assignment_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    mismatches = 0
    for _ in range(200):
        num_shots = int(rng.integers(1, 7))
        num_sentences = int(rng.integers(1, 5))
        xi = float(rng.uniform(0.05, 0.4))
        values = rng.normal(size=(num_shots, num_sentences))
        lambdas = 0.5 * rng.normal(size=num_sentences)
        picked = sync.e_step(values, lambdas, xi)
        band = sync.band_mask(num_shots, num_sentences, xi)
        gains = (values - lambdas[None, :])[band]
        b = gains.size
        subsets = np.arange(1 << b, dtype=np.int64)
        bits = ((subsets[:, None] >> np.arange(b)[None, :]) & 1).astype(np.float64)
        objectives = bits @ gains
        chosen = int((picked.w[band].astype(np.int64) << np.arange(b)).sum())
        exact = (
            not picked.w[~band].any()
            and objectives[chosen] == objectives.max()
            and ((objectives == objectives.max()).sum() > 1
                 or chosen == int(np.argmax(objectives)))
        )
        mismatches += int(not exact)
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 10.0
    _verdict("A2 assignment optimality", ok,
             f"{200 - mismatches}/200 instances match exhaustive search, {dt:.1f}s")
    assert ok


def test_a3_scene_learnability():
    t0 = time.perf_counter()
    data_cfg = dataio.SynthConfig(
        shots=200, scenes=10, sentences=5,
        modalities=(("visual", 16), ("audio", 12)), latent_dim=32, noise=0.15,
    )
    movies = dataio.make_dataset(data_cfg, 8, seed=2)
    model_cfg = af.ModelConfig(
        seq_len=3, align_len=2, width=8, ffn_width=16, unimodal_depth=1,
        fusion_depth=1, num_classes=2, modality_dims=(16, 12),
    )
    train_cfg = trainer.TrainConfig(
        epochs=10, batch_size=8, lr=3e-3,
        seed=2,
    )
    _, reports, _ = trainer.train_scene(movies, model_cfg, train_cfg)
    initial = reports[0].values["ap"]
    final = reports[-1].values["ap"]
    base = reports[-1].values["positive_rate"]
    dt = time.perf_counter() - t0
    ok = final >= base + 0.20 and final > initial and dt < 300.0
    _verdict("A3 scene learnability", ok,
             f"held-out AP {final:.3f} vs bar {base + 0.20:.3f} "
             f"(positive rate {base:.3f}), initial AP {initial:.3f}, {dt:.1f}s")
    assert ok


def test_a4_act_learnability():
    t0 = time.perf_counter()
    movies = _act_dataset(0)
    shot_cfg, synopsis_cfg = _act_model_cfgs(align_pe=True)
    pipeline, _, _, logs = trainer.train_act(
        movies, shot_cfg, synopsis_cfg, _act_train_cfg(0)
    )
    hits = _strict_tp_hits(pipeline.shot_model, movies[-2:])
    col_dev = max(entry["max_p_col_dev"] for entry in logs)
    dt = time.perf_counter() - t0
    ok = hits >= 4 and col_dev <= 1e-12 and dt < 600.0
    _verdict("A4 act pipeline learnability", ok,
             f"{hits}/5 turning points hit on held-out movies, "
             f"transfer-target column deviation {col_dev:.1e}, {dt:.1f}s")
    assert ok


def test_a5_alignment_bucket_layout():
    buckets = af.align_buckets(15, 3).tolist()
    want = [0] * 5 + [1] * 5 + [2] * 5
    ok = buckets == want
    _verdict("A5 alignment bucket layout", ok, f"buckets(15, 3) = {buckets}")
    assert ok


def test_a6_fusion_sequence_structure(monkeypatch):
    cfg = af.ModelConfig(
        seq_len=17, align_len=2, width=8, ffn_width=16, unimodal_depth=1,
        fusion_depth=1, num_classes=2, modality_dims=(4, 5, 6),
    )
    model = af.FusionModel(cfg, np.random.SeedSequence(0))
    rng = np.random.default_rng(1)
    feats = [Tensor(rng.standard_normal((1, 17, d))) for d in cfg.modality_dims]
    lens = record_fusion_lengths(monkeypatch)
    fused = af.encode(model, feats)
    want_len = cfg.num_modalities * cfg.align_len + cfg.seq_len
    ok = (want_len == 23 and bool(lens) and all(n == want_len for n in lens)
          and fused.shape == (1, 17, cfg.num_modalities * cfg.width))
    _verdict("A6 fusion sequence structure", ok,
             f"fusion attention lengths {sorted(set(lens))} (want {want_len}), "
             f"fused shape {fused.shape}")
    assert ok


def test_a7_alignment_pe_ablation():
    t0 = time.perf_counter()
    cfg = af.ModelConfig(
        seq_len=17, align_len=2, width=8, ffn_width=16, unimodal_depth=1,
        fusion_depth=1, num_classes=2, modality_dims=(4, 5, 6),
    )
    model = af.FusionModel(cfg, np.random.SeedSequence(3))
    rng = np.random.default_rng(4)
    feats = Tensor(rng.standard_normal((1, 17, 4)))
    with_pe = af.embed_modality(model, feats, 0).data[:, 0]
    model.config.align_pe_embed = False
    without_pe = af.embed_modality(model, feats, 0).data[:, 0]
    model.config.align_pe_embed = True
    addend = model["align_pe"].data[af.align_buckets(17, 2)]
    exact = np.array_equal(with_pe, without_pe + addend)

    pairs = []
    for seed in range(3):
        movies = _act_dataset(seed)
        full, _, _, _ = trainer.train_act(
            movies, *_act_model_cfgs(align_pe=True), _act_train_cfg(seed)
        )
        ablated, _, _, _ = trainer.train_act(
            movies, *_act_model_cfgs(align_pe=False), _act_train_cfg(seed)
        )
        pairs.append((
            _strict_tp_hits(full.shot_model, movies[-2:]),
            _strict_tp_hits(ablated.shot_model, movies[-2:]),
        ))
    ordered = all(f >= a for f, a in pairs)
    dt = time.perf_counter() - t0
    ok = exact and ordered
    _verdict("A7 alignment PE ablation", ok,
             f"embedding addend exact: {exact}; span hits full vs ablated "
             f"{pairs} over 3 seeds, {dt:.1f}s")
    assert ok


def test_a8_distillation_identities():
    rng = np.random.default_rng(5)
    probs = distill.shot_distribution(Tensor(rng.standard_normal((9, 5))))
    self_kl = float(distill.kd_loss(probs, probs.data.copy()).data)

    head = sync.SyncHead(4, 4, np.random.SeedSequence(9))
    attn = distill.attention_weights(
        Tensor(rng.standard_normal((9, 4))),
        Tensor(rng.standard_normal((4, 4))),
        head.tau(),
    )
    q = rng.standard_normal((4, 5))
    shift = rng.standard_normal(5)
    base = distill.transfer_targets(attn, q).data
    shifted = distill.transfer_targets(attn, q + shift[None, :]).data
    invariant = bool(np.allclose(base, shifted, rtol=0.0, atol=1e-12))

    other = distill.shot_distribution(Tensor(rng.standard_normal((9, 5))))
    forward = float(distill.kd_loss(probs, other.data).data)
    reverse = float(distill.kd_loss(other, probs.data).data)
    asymmetric = forward > 0.0 and reverse > 0.0 and abs(forward - reverse) > 1e-6
    ok = self_kl == 0.0 and invariant and asymmetric
    _verdict("A8 distillation identities", ok,
             f"self KL {self_kl}, per-class shift invariance {invariant}, "
             f"KL(o,p) {forward:.4f} vs KL(p,o) {reverse:.4f}")
    assert ok


def test_a9_cli_determinism(tmp_path):
    t0 = time.perf_counter()

    def digest(root):
        h = hashlib.sha256()
        for p in sorted(Path(root).rglob("*")):
            if p.is_file():
                h.update(p.relative_to(root).as_posix().encode())
                h.update(p.read_bytes())
        return h.hexdigest()

    def twice(name, args):
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        for out in (a, b):
            code = cli.main([str(x) for x in args] + ["--out", str(out)])
            assert code == 0, f"{name} exited {code}"
        return digest(a) == digest(b), a

    results = {}
    results["synth (scene)"], scene_data = twice(
        "synth_scene",
        ["synth", "--config", CONFIG_DIR / "synth_scene.cfg", "--seed", 2])
    results["synth (act)"], act_data = twice(
        "synth_act",
        ["synth", "--config", CONFIG_DIR / "synth_act.cfg", "--seed", 0])
    results["train-scene"], scene_run = twice(
        "train_scene",
        ["train-scene", "--config", CONFIG_DIR / "scene_desk.cfg",
         "--data", scene_data, "--seed", 2])
    results["train-act"], act_run = twice(
        "train_act",
        ["train-act", "--config", CONFIG_DIR / "act_desk.cfg",
         "--data", act_data, "--seed", 0])
    results["sync"], _ = twice(
        "sync",
        ["sync", "--checkpoint", act_run / "model.ckpt", "--data", act_data,
         "--seed", 0, "--pgm"])
    results["eval"], _ = twice(
        "eval",
        ["eval", "--checkpoint", act_run / "model.ckpt", "--data", act_data,
         "--seed", 0])
    results["importance"], _ = twice(
        "importance",
        ["importance", "--checkpoint", scene_run / "model.ckpt",
         "--data", scene_data, "--seed", 2])
    results["gradcheck"], _ = twice("gradcheck", ["gradcheck", "--seed", 0])
    dt = time.perf_counter() - t0
    ok = all(results.values())
    mismatched = [k for k, v in results.items() if not v]
    _verdict("A9 CLI determinism", ok,
             f"{len(results)} commands byte-identical across reruns"
             + (f"; mismatched: {mismatched}" if mismatched else "")
             + f", {dt:.0f}s")
    assert ok
