"""Trainer tests: optimizer update rules, the class-weighted boundary
loss, window plumbing, and both training loops end to end at desk scale."""

import copy
import logging

import numpy as np
import pytest

from cineseg import alignfuse as af
from cineseg import numcore as nc
from cineseg import sync
from cineseg import trainer
from cineseg.dataio import SynthConfig, make_dataset
from cineseg.errors import ConfigError, ContractError, DataError, NumericError
from cineseg.numcore import Tensor


# ---- optimizer ----


def test_sgd_step_hand_case():
    p = Tensor(np.array(1.0), requires_grad=True)
    p.grad = np.array(1.0)
    trainer.Optimizer({"p": p}, kind="sgd", lr=0.1).step()
    assert float(p.data) == pytest.approx(0.9, abs=1e-15)


def test_adam_first_step_magnitude_is_lr():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.array([0.5, -3.0])
    trainer.Optimizer({"p": p}, kind="adam", lr=0.01).step()
    # bias-corrected first step moves by lr in the gradient sign direction
    assert p.data == pytest.approx([1.0 - 0.01, -2.0 + 0.01], abs=1e-6)


def test_zero_gradient_is_noop():
    for kind in ("sgd", "adam"):
        p = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        p.grad = np.zeros(2)
        trainer.Optimizer({"p": p}, kind=kind, lr=0.5).step()
        assert np.array_equal(p.data, [3.0, 4.0])


def test_missing_gradient_is_skipped():
    p = Tensor(np.array(2.0), requires_grad=True)
    opt = trainer.Optimizer({"p": p}, kind="adam", lr=0.1)
    opt.step()
    assert float(p.data) == 2.0


def test_nonfinite_gradient_names_parameter():
    p = Tensor(np.array(1.0), requires_grad=True)
    p.grad = np.array(np.nan)
    opt = trainer.Optimizer({"encoder.w": p}, kind="sgd", lr=0.1)
    with pytest.raises(NumericError, match="encoder.w"):
        opt.step()


def test_optimizer_config_guards():
    p = Tensor(np.array(1.0), requires_grad=True)
    with pytest.raises(ConfigError):
        trainer.Optimizer({"p": p}, kind="rmsprop", lr=0.1)
    with pytest.raises(ConfigError):
        trainer.Optimizer({"p": p}, kind="sgd", lr=0.0)


def test_adam_descends_a_quadratic():
    p = Tensor(np.array([5.0, -3.0]), requires_grad=True)
    opt = trainer.Optimizer({"p": p}, kind="adam", lr=0.2)
    for _ in range(100):
        opt.zero_grad()
        p.grad = 2.0 * p.data
        opt.step()
    assert np.abs(p.data).max() < 0.5


def test_zero_grad_clears():
    p = Tensor(np.array(1.0), requires_grad=True)
    p.grad = np.array(2.0)
    opt = trainer.Optimizer({"p": p}, kind="sgd", lr=0.1)
    opt.zero_grad()
    assert p.grad is None


def test_optimizer_parameters_are_views_of_one_vector():
    params = {
        "w": Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True),
        "s": Tensor(np.array(7.0), requires_grad=True),
        "b": Tensor(np.array([-1.0, -2.0]), requires_grad=True),
    }
    values = {name: p.data.copy() for name, p in params.items()}
    opt = trainer.Optimizer(params, kind="adam", lr=0.1)
    assert opt.flat.size == 9
    for name, p in params.items():
        assert p is opt.params[name]
        assert np.shares_memory(p.data, opt.flat)
        assert p.data.shape == values[name].shape
        assert np.array_equal(p.data, values[name])
    # in-place edits of a tensor reach the vector, as clamp_tau relies on
    np.clip(params["s"].data, 0.0, 1.0, out=params["s"].data)
    assert opt.flat[6] == 1.0


def _reference_adam(values, grads_per_step, lr):
    """Per-tensor bias-corrected Adam; a missing grad leaves the tensor alone."""
    values = {n: v.copy() for n, v in values.items()}
    m = {n: np.zeros_like(v) for n, v in values.items()}
    v2 = {n: np.zeros_like(v) for n, v in values.items()}
    for t, grads in enumerate(grads_per_step, start=1):
        for name, g in grads.items():
            if g is None:
                continue
            m[name] = trainer.ADAM_BETA1 * m[name] + (1.0 - trainer.ADAM_BETA1) * g
            v2[name] = trainer.ADAM_BETA2 * v2[name] + (1.0 - trainer.ADAM_BETA2) * g * g
            m_hat = m[name] / (1.0 - trainer.ADAM_BETA1 ** t)
            v_hat = v2[name] / (1.0 - trainer.ADAM_BETA2 ** t)
            values[name] = values[name] - lr * m_hat / (np.sqrt(v_hat) + trainer.ADAM_EPS)
    return values


def test_flat_adam_matches_per_tensor_reference_with_missing_grads():
    rng = np.random.default_rng(5)
    shapes = {"w": (3, 4), "s": (), "b": (4,)}
    values = {n: rng.standard_normal(shape) for n, shape in shapes.items()}
    grads_per_step = []
    for step in range(6):
        grads = {n: rng.standard_normal(shape) for n, shape in shapes.items()}
        if step in (1, 3):
            grads["s"] = None  # like m_step_loss's untaped zero
        if step == 4:
            grads["w"] = None
        grads_per_step.append(grads)
    params = {n: Tensor(v.copy(), requires_grad=True) for n, v in values.items()}
    opt = trainer.Optimizer(params, kind="adam", lr=0.05)
    for grads in grads_per_step:
        opt.zero_grad()
        for name, g in grads.items():
            if g is not None:
                params[name].grad = g
        opt.step()
    expected = _reference_adam(values, grads_per_step, 0.05)
    for name, p in params.items():
        assert np.array_equal(p.data, expected[name]), name


def test_optimizer_rejects_a_tensor_listed_twice():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with pytest.raises(ContractError, match="'a' and 'b'"):
        trainer.Optimizer({"a": p, "b": p}, kind="adam", lr=0.1)


# ---- weighted scene cross-entropy ----


def unweighted_ce(logits, labels):
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -logp[np.arange(len(labels)), labels].mean()


def test_weighted_ce_uniform_logits_is_log2():
    logits = Tensor(np.zeros((3, 2)))
    loss = trainer.weighted_scene_ce(logits, [0, 0, 1])
    assert float(loss.data) == pytest.approx(np.log(2.0), abs=1e-12)


def test_weighted_ce_balanced_batch_equals_unweighted():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((6, 2))
    labels = np.array([0, 1, 0, 1, 0, 1])
    loss = trainer.weighted_scene_ce(Tensor(logits), labels)
    assert float(loss.data) == pytest.approx(unweighted_ce(logits, labels), abs=1e-12)


def test_weighted_ce_imbalanced_weights():
    # 1 positive among 10: class weights 10/(2*1)=5 and 10/(2*9)=5/9, so the
    # weighted mean puts half its mass on the positive example
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((10, 2))
    labels = np.zeros(10, dtype=int)
    labels[3] = 1
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    per_example = -logp[np.arange(10), labels]
    expected = 0.5 * per_example[3] + (0.5 / 9.0) * np.delete(per_example, 3).sum()
    loss = trainer.weighted_scene_ce(Tensor(logits), labels)
    assert float(loss.data) == pytest.approx(expected, abs=1e-12)


def test_weighted_ce_single_class_warns_and_is_unweighted(caplog):
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((4, 2))
    labels = np.zeros(4, dtype=int)
    with caplog.at_level(logging.WARNING, logger="cineseg.trainer"):
        loss = trainer.weighted_scene_ce(Tensor(logits), labels)
    assert float(loss.data) == pytest.approx(unweighted_ce(logits, labels), abs=1e-12)
    assert not caplog.records  # training counts these batches instead
    # small batches make single-class batches common: each step logs a
    # flag and the run ends with one warning that counts them
    movies = make_dataset(scene_synth(), movies=4, seed=1)
    with caplog.at_level(logging.WARNING, logger="cineseg.trainer"):
        _, _, logs = trainer.train_scene(
            movies, scene_model_cfg(), scene_train_cfg(epochs=1, batch_size=2)
        )
    flags = [rec["single_class_batch"] for rec in logs]
    assert 0 < sum(flags) < len(flags)
    assert len(caplog.records) == 1
    assert f"{sum(flags)} of {len(flags)} training batches" in caplog.records[0].message


def test_weighted_ce_guards():
    with pytest.raises(DataError):
        trainer.weighted_scene_ce(Tensor(np.zeros((0, 2))), [])
    with pytest.raises(DataError):
        trainer.weighted_scene_ce(Tensor(np.zeros((2, 2))), [0, 2])
    with pytest.raises(DataError):
        trainer.weighted_scene_ce(Tensor(np.zeros((2, 3))), [0, 1])


@pytest.mark.parametrize("labels", [[0.5, 1.0], [1.9, 0.0]])
def test_weighted_ce_rejects_labels_a_cast_would_truncate(labels):
    with pytest.raises(DataError, match="binary"):
        trainer.weighted_scene_ce(Tensor(np.zeros((2, 2))), np.array(labels))


def test_weighted_ce_accepts_binary_floats_and_bools():
    logits = Tensor(np.random.default_rng(4).normal(size=(3, 2)))
    want = trainer.weighted_scene_ce(logits, [0, 1, 1]).data
    for labels in (np.array([0.0, 1.0, 1.0]), np.array([False, True, True])):
        assert trainer.weighted_scene_ce(logits, labels).data == want


def test_weighted_ce_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    logits = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
    labels = np.array([0, 1, 0, 0, 1])

    def run():
        return trainer.weighted_scene_ce(logits, labels)

    with nc.Tape() as tape:
        loss = run()
    nc.backward(tape, loss)
    fd = nc.fd_gradient(lambda: float(run().data), logits)
    assert nc.max_rel_error(logits.grad, fd) < 1e-6


# ---- windows ----


def test_reflect_indices_center():
    assert trainer.window_index([5], 2, 10).tolist() == [[3, 4, 5, 6, 7]]


def test_reflect_indices_left_edge():
    assert trainer.window_index([0], 2, 10).tolist() == [[2, 1, 0, 1, 2]]


def test_reflect_indices_right_edge():
    assert trainer.window_index([9], 2, 10).tolist() == [[7, 8, 9, 8, 7]]


def test_window_index_one_and_two_shot_movies():
    assert trainer.window_index([0], 2, 1).tolist() == [[0, 0, 0, 0, 0]]
    assert trainer.window_index([0, 1], 2, 2).tolist() == [
        [0, 1, 0, 1, 0],
        [1, 0, 1, 0, 1],
    ]
    assert trainer.window_index([], 2, 2).shape == (0, 5)


def test_training_windows_skip_movie_edges(monkeypatch):
    # 12-shot movies with 5-shot windows: keys 2..9 of each training movie
    movies = make_dataset(scene_synth(shots=12), movies=4, seed=0)
    train_movies = movies[:2]
    seen = []
    forward = af.forward_scene

    def spy(model, windows, rng=None):
        if rng is not None:  # training batches; evaluation passes no rng
            seen.append(windows[0].copy())
        return forward(model, windows, rng)

    monkeypatch.setattr(af, "forward_scene", spy)
    trainer.train_scene(
        movies, scene_model_cfg(), scene_train_cfg(epochs=1, batch_size=5)
    )
    expected = {
        (mi, t): movie.streams[0].samples[t - 2:t + 3]
        for mi, movie in enumerate(train_movies)
        for t in range(2, 10)
    }
    rows = [row for batch in seen for row in batch]
    assert len(rows) == len(expected) == 16
    hits = [
        key for row in rows for key, window in expected.items()
        if np.array_equal(row, window)
    ]
    assert sorted(hits) == sorted(expected)


def test_training_windows_need_odd_length():
    movies = make_dataset(scene_synth(), movies=4, seed=0)
    cfg = af.ModelConfig(
        seq_len=4, align_len=2, width=8, ffn_width=16,
        unimodal_depth=1, fusion_depth=1, dropout=0.0,
        num_classes=2, modality_dims=(6, 4),
    )
    with pytest.raises(ConfigError):
        trainer.train_scene(movies, cfg, scene_train_cfg())


# ---- scene training ----


def scene_synth(shots=30, noise=0.1):
    return SynthConfig(
        shots=shots,
        scenes=4,
        sentences=2,
        modalities=(("visual", 6), ("audio", 4)),
        latent_dim=8,
        noise=noise,
    )


def scene_model_cfg():
    return af.ModelConfig(
        seq_len=5, align_len=2, width=8, ffn_width=16,
        unimodal_depth=1, fusion_depth=1, dropout=0.0,
        num_classes=2, modality_dims=(6, 4),
    )


def scene_train_cfg(**overrides):
    base = dict(epochs=2, batch_size=32, optimizer="adam",
                lr=1e-3, seed=11, holdout=2)
    base.update(overrides)
    return trainer.TrainConfig(**base)


def test_train_scene_shapes_and_logs():
    movies = make_dataset(scene_synth(), movies=4, seed=1)
    model, reports, logs = trainer.train_scene(movies, scene_model_cfg(), scene_train_cfg())
    assert len(reports) == 3  # pre-training report plus one per epoch
    assert reports[0].values["epoch"] == 0.0
    for report in reports:
        assert 0.0 <= report.values["ap"] <= 1.0
        assert trainer.MIRROR_EVAL_FLAG in report.flags
        assert "ap_macro" in report.values
    # 2 train movies, 26 interior windows each, batch 32 -> 2 steps per epoch
    assert [rec["step"] for rec in logs] == [1, 2, 3, 4]
    assert all(np.isfinite(rec["losses"]["scene_ce"]) for rec in logs)
    assert all(rec["seed"] == 11 for rec in logs)


def test_train_scene_deterministic():
    movies = make_dataset(scene_synth(), movies=4, seed=2)
    runs = [
        trainer.train_scene(movies, scene_model_cfg(), scene_train_cfg())
        for _ in range(2)
    ]
    for name in runs[0][0].params:
        assert np.array_equal(runs[0][0].params[name].data, runs[1][0].params[name].data)
    assert [r.values for r in runs[0][1]] == [r.values for r in runs[1][1]]
    assert runs[0][2] == runs[1][2]


def test_train_scene_does_not_mutate_dataset():
    movies = make_dataset(scene_synth(), movies=4, seed=3)
    before = copy.deepcopy(
        [(m.streams[0].samples.copy(), m.scene_labels.copy()) for m in movies]
    )
    trainer.train_scene(movies, scene_model_cfg(), scene_train_cfg(epochs=1))
    for movie, (samples, labels) in zip(movies, before):
        assert np.array_equal(movie.streams[0].samples, samples)
        assert np.array_equal(movie.scene_labels, labels)


def _global_grad_norm(params):
    """The L2 norm over every parameter's gradient, one tensor at a time."""
    return float(np.sqrt(sum((p.grad ** 2).sum() for p in params.values() if p.grad is not None)))


def _first_scene_step(movies, model_cfg, cfg):
    """The first training step by hand: fresh model, first batch; returns
    the model, with gradients, and the taped loss."""
    shuffle_seed, dropout_seed, model_seed = np.random.SeedSequence(cfg.seed).spawn(3)
    model = af.FusionModel(model_cfg, model_seed)
    half = model_cfg.seq_len // 2
    pairs = [
        (movie, t)
        for movie in movies[:-cfg.holdout]
        for t in range(half, movie.num_shots - half)
    ]
    order = np.random.default_rng(shuffle_seed).permutation(len(pairs))
    chosen = [pairs[i] for i in order[:cfg.batch_size]]
    feats = [
        np.stack([movie.streams[m].samples[np.arange(t - half, t + half + 1)]
                  for movie, t in chosen])
        for m in range(len(model_cfg.modality_dims))
    ]
    labels = np.array([movie.scene_labels[t] for movie, t in chosen])
    with nc.Tape() as tape:
        logits = af.forward_scene(model, [Tensor(f) for f in feats])
        loss = trainer.weighted_scene_ce(logits, labels)
    nc.backward(tape, loss)
    return model, loss


def test_train_scene_logged_loss_matches_recomputation():
    movies = make_dataset(scene_synth(), movies=4, seed=4)
    cfg = scene_train_cfg(epochs=1, batch_size=16)
    model_cfg = scene_model_cfg()
    _, _, logs = trainer.train_scene(movies, model_cfg, cfg)
    _, loss = _first_scene_step(movies, model_cfg, cfg)
    assert float(loss.data) == pytest.approx(logs[0]["losses"]["scene_ce"], abs=1e-9)


def test_train_scene_logs_the_first_step_grad_norm():
    movies = make_dataset(scene_synth(), movies=4, seed=4)
    cfg = scene_train_cfg(epochs=1, batch_size=16)
    model_cfg = scene_model_cfg()
    _, _, logs = trainer.train_scene(movies, model_cfg, cfg)
    model, _ = _first_scene_step(movies, model_cfg, cfg)
    assert logs[0]["grad_norm"] > 0.0
    assert logs[0]["grad_norm"] == pytest.approx(_global_grad_norm(model.params), rel=1e-12)


def test_train_scene_needs_spare_movies():
    movies = make_dataset(scene_synth(), movies=2, seed=5)
    with pytest.raises(ConfigError):
        trainer.train_scene(movies, scene_model_cfg(), scene_train_cfg())


def test_scene_scores_cover_every_shot():
    movies = make_dataset(scene_synth(), movies=1, seed=6)
    model = af.FusionModel(scene_model_cfg(), seed=0)
    scores = trainer.scene_shot_scores(model, movies[0])
    assert scores.shape == (movies[0].num_shots,)
    assert np.isfinite(scores).all()
    assert np.array_equal(scores, trainer.scene_shot_scores(model, movies[0]))


def test_scene_scores_reject_too_short_movie():
    movies = make_dataset(scene_synth(shots=12), movies=1, seed=7)
    cfg = af.ModelConfig(
        seq_len=25, align_len=2, width=8, ffn_width=16,
        unimodal_depth=0, fusion_depth=0, dropout=0.0,
        num_classes=2, modality_dims=(6, 4),
    )
    model = af.FusionModel(cfg, seed=0)
    with pytest.raises(DataError):
        trainer.scene_shot_scores(model, movies[0])


# ---- act training ----


def act_synth(noise=0.0):
    return SynthConfig(
        shots=40,
        scenes=5,
        sentences=5,
        modalities=(("content", 12),),
        latent_dim=8,
        noise=noise,
        tp_jitter=0.0,
    )


def act_model_cfgs():
    shot = af.ModelConfig(
        seq_len=40, align_len=4, width=12, ffn_width=16,
        unimodal_depth=1, fusion_depth=0, dropout=0.0,
        num_classes=5, modality_dims=(12,),
    )
    synopsis = af.ModelConfig(
        seq_len=8, align_len=3, width=12, ffn_width=16,
        unimodal_depth=1, fusion_depth=0, dropout=0.0,
        num_classes=5, modality_dims=(12,),
    )
    return shot, synopsis


def act_train_cfg(**overrides):
    base = dict(epochs=2, batch_size=2, optimizer="sgd",
                lr=1e-3, seed=21, holdout=2, sync_dim=8,
                em_percentile=90.0)
    base.update(overrides)
    return trainer.TrainConfig(**base)


def test_build_act_pipeline_width_guard():
    shot, synopsis = act_model_cfgs()
    bad = af.ModelConfig(
        seq_len=8, align_len=3, width=10, ffn_width=16,
        unimodal_depth=1, fusion_depth=0, dropout=0.0,
        num_classes=5, modality_dims=(10,),
    )
    with pytest.raises(ConfigError):
        trainer.build_act_pipeline(shot, bad, 8, seed=0)


def test_train_act_shapes_logs_and_target_columns():
    movies = make_dataset(act_synth(), movies=5, seed=8)
    shot, synopsis = act_model_cfgs()
    pipeline, syncs, reports, logs = trainer.train_act(
        movies, shot, synopsis, act_train_cfg()
    )
    assert len(reports) == 3
    assert len(syncs) == 3  # one per training movie
    for record in logs:
        losses = record["losses"]
        assert set(losses) == {"contrastive", "synopsis_ce", "distillation", "total"}
        assert all(np.isfinite(v) for v in losses.values())
        expected = (
            losses["contrastive"] + losses["synopsis_ce"] + 10.0 * losses["distillation"]
        )
        assert losses["total"] == pytest.approx(expected, abs=1e-9)
    assert max(record["max_p_col_dev"] for record in logs) <= 1e-12
    for report in reports:
        assert {"span_hit_rate", "ta", "pa", "d"} <= set(report.values)


def _first_act_step(movies, shot, synopsis, cfg, joint=False):
    """The first training step by hand: fresh pipeline, first E-step,
    first batch; returns the pipeline, with gradients, the batch and
    act_objective's result."""
    shuffle_seed, dropout_seed, model_seed = np.random.SeedSequence(cfg.seed).spawn(3)
    pipeline = trainer.build_act_pipeline(shot, synopsis, cfg.sync_dim, model_seed)
    train_movies = movies[:-cfg.holdout]
    inputs = [trainer.movie_inputs(m) for m in train_movies]
    syncs = sync.run_e_step(
        pipeline.shot_model, pipeline.synopsis_model, pipeline.sync_head,
        inputs, cfg.em_xi, cfg.em_percentile,
    )
    order = np.random.default_rng(shuffle_seed).permutation(len(train_movies))
    items = []
    for mi in order[:cfg.batch_size]:
        w = syncs[mi].w
        band = sync.band_mask(*w.shape, cfg.em_xi)
        items.append((*inputs[mi], w, band, train_movies[mi].tp_labels))
    with nc.Tape() as tape:
        result = trainer.act_objective(
            pipeline, items, cfg.loss_weights, joint, np.random.default_rng(dropout_seed)
        )
    nc.backward(tape, result[0])
    return pipeline, items, result


def test_train_act_logged_losses_match_act_objective():
    movies = make_dataset(act_synth(), movies=5, seed=8)
    shot, synopsis = act_model_cfgs()
    cfg = act_train_cfg(epochs=1)
    _, _, _, logs = trainer.train_act(movies, shot, synopsis, cfg)
    _, items, (total, (l_c, l_ce, l_kd), col_dev) = _first_act_step(movies, shot, synopsis, cfg)
    assert logs[0]["losses"] == {
        "contrastive": float(l_c.data),
        "synopsis_ce": float(l_ce.data),
        "distillation": float(l_kd.data),
        "total": float(total.data),
    }
    assert logs[0]["max_p_col_dev"] == col_dev
    assert logs[0]["skipped_queries"] == sync.skipped_queries([it[2] for it in items])


def test_train_act_logs_the_first_step_grad_norm_and_tau():
    movies = make_dataset(act_synth(), movies=5, seed=8)
    shot, synopsis = act_model_cfgs()
    cfg = act_train_cfg(epochs=1)
    _, _, _, logs = trainer.train_act(movies, shot, synopsis, cfg)
    pipeline, _, _ = _first_act_step(movies, shot, synopsis, cfg)
    params = pipeline.named_params()
    assert logs[0]["grad_norm"] > 0.0
    assert logs[0]["grad_norm"] == pytest.approx(_global_grad_norm(params), rel=1e-12)
    # the temperature the first step's loss used: the initial one
    assert logs[0]["tau"] == float(np.exp(params["sync.log_tau"].data))
    assert all(rec["tau"] > 0.0 for rec in logs)


def test_train_act_deterministic():
    movies = make_dataset(act_synth(), movies=5, seed=9)
    shot, synopsis = act_model_cfgs()
    runs = [
        trainer.train_act(movies, shot, synopsis, act_train_cfg()) for _ in range(2)
    ]
    params_a = runs[0][0].named_params()
    params_b = runs[1][0].named_params()
    for name in params_a:
        assert np.array_equal(params_a[name].data, params_b[name].data)
    assert runs[0][3] == runs[1][3]
    assert list(runs[0][1]) == [m.movie_id for m in movies[:3]]
    for movie_id, sa in runs[0][1].items():
        assert np.array_equal(sa.w, runs[1][1][movie_id].w)


def test_train_act_detached_kd_leaves_synopsis_model_alone():
    movies = make_dataset(act_synth(), movies=5, seed=10)
    shot, synopsis = act_model_cfgs()
    cfg = act_train_cfg(epochs=1, loss_weights=(0.0, 0.0, 1.0))
    pipeline, _, _, _ = trainer.train_act(movies, shot, synopsis, cfg)
    fresh = trainer.build_act_pipeline(
        shot, synopsis, cfg.sync_dim, np.random.SeedSequence(cfg.seed).spawn(3)[2]
    )
    for name, p in pipeline.synopsis_model.params.items():
        assert np.array_equal(p.data, fresh.synopsis_model.params[name].data), name
    changed = any(
        not np.array_equal(p.data, fresh.shot_model.params[name].data)
        for name, p in pipeline.shot_model.params.items()
    )
    assert changed


def test_train_act_joint_kd_reaches_synopsis_model():
    # train_act always detaches the targets; the joint objective, which
    # gradcheck differentiates, also trains the synopsis model
    movies = make_dataset(act_synth(), movies=5, seed=10)
    shot, synopsis = act_model_cfgs()
    cfg = act_train_cfg(epochs=1, loss_weights=(0.0, 0.0, 1.0))
    for joint in (False, True):
        pipeline, _, _ = _first_act_step(movies, shot, synopsis, cfg, joint)
        grads = [p.grad for p in pipeline.synopsis_model.params.values()]
        reached = any(g is not None and np.any(g != 0.0) for g in grads)
        assert reached == joint


def test_act_checkpoint_round_trip(tmp_path):
    movies = make_dataset(act_synth(), movies=5, seed=12)
    shot, synopsis = act_model_cfgs()
    pipeline, _, _, _ = trainer.train_act(
        movies, shot, synopsis, act_train_cfg(epochs=1)
    )
    path = tmp_path / "act.ckpt"
    trainer.save_checkpoint(path, pipeline, epoch=1)
    kind, loaded, extra = trainer.load_checkpoint(path, "act")
    assert kind == "act" and extra["epoch"] == 1
    assert (loaded.em_xi, loaded.em_percentile) == (0.3, 90.0)  # act_train_cfg's
    for name, p in pipeline.named_params().items():
        assert np.array_equal(p.data, loaded.named_params()[name].data)


def test_scene_checkpoint_round_trip(tmp_path):
    model = af.FusionModel(scene_model_cfg(), seed=3)
    path = tmp_path / "scene.ckpt"
    trainer.save_checkpoint(path, model, epoch=4)
    kind, loaded, extra = trainer.load_checkpoint(path, "scene")
    assert kind == "scene" and extra == {"epoch": 4}
    for name, p in model.params.items():
        assert np.array_equal(p.data, loaded.params[name].data)
    assert trainer.load_checkpoint(path)[0] == "scene"
    with pytest.raises(DataError):
        trainer.load_checkpoint(path, "act")


def _act_events_by_loop(probs, movie):
    """act_eval's events from one max per scene and turning point, as a
    reference; the last shot ends the last scene."""
    cuts = np.flatnonzero(movie.scene_labels[:-1]) + 1
    scene_of = np.searchsorted(cuts, np.arange(movie.num_shots), side="right")
    num_scenes = len(cuts) + 1
    events = []
    for tp in range(probs.shape[1]):
        scores = np.array([probs[scene_of == s, tp].max() for s in range(num_scenes)])
        gold = trainer._gold_span_shots(movie, tp)
        events.append((int(np.argmax(scores)), set(scene_of[gold].tolist()), num_scenes))
    return events


def test_act_eval_takes_a_labeled_last_shot_as_the_end_of_the_last_scene():
    movie = make_dataset(act_synth(), movies=1, seed=15)[0]
    movie.scene_labels[-1] = 1  # accepted by MovieSample.validate
    rng = np.random.default_rng(15)
    for labels in (movie.scene_labels.copy(), rng.integers(0, 2, size=movie.num_shots)):
        movie.scene_labels[:] = labels
        movie.scene_labels[-1] = 1
        probs = rng.integers(0, 4, size=(movie.num_shots, 5)) / 4.0  # many ties
        _, total, events = trainer.act_eval([probs], [movie])
        assert total == 5
        assert events == _act_events_by_loop(probs, movie)
        assert events[0][2] == int(movie.scene_labels[:-1].sum()) + 1


def test_act_eval_structure():
    movies = make_dataset(act_synth(), movies=2, seed=14)
    shot, _ = act_model_cfgs()
    model = af.FusionModel(shot, seed=1)
    probs = [trainer.act_shot_probs(model, movie) for movie in movies]
    hits, total, events = trainer.act_eval(probs, movies)
    assert total == 10
    assert 0 <= hits <= total
    assert len(events) == 10
    for predicted, gold, num_scenes in events:
        assert 0 <= predicted < num_scenes
        assert gold and all(0 <= g < num_scenes for g in gold)
