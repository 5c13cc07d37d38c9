"""Autodiff-vs-finite-difference checks of the three training losses.

Each check builds a tiny model on the two-modality config, takes the
taped gradient of one loss, and compares it against central finite
differences over every parameter element, at the fixed step GRADCHECK_H
and tolerance GRADCHECK_TOLERANCE. Entries where both sides sit under a
rounding-noise gate are left out of the comparison. The act towers come
from trainer.act_model_configs, the builder train-act uses.

The scene check differentiates trainer.weighted_scene_ce on the scene
forward; the contrastive and combined checks differentiate
trainer.act_objective as train_act steps on it: every evaluation holds
the distillation targets at their values at the unperturbed parameters.
Each row counts the entries it compared; a check that compared none fails.
"""

from __future__ import annotations

import numpy as np

from . import alignfuse as af
from . import numcore as nc
from . import sync
from . import trainer

GRADCHECK_H = 1e-5  # the central-difference step
GRADCHECK_TOLERANCE = 1e-4  # the largest relative error a check passes with


def _tiny_scene_setup(seed: int):
    cfg = af.ModelConfig(
        seq_len=5, align_len=2, width=8, ffn_width=16,
        unimodal_depth=1, fusion_depth=1,
        num_classes=2, modality_dims=(3, 2),
    )
    root = np.random.SeedSequence(seed)
    model_seed, data_seed = root.spawn(2)
    model = af.FusionModel(cfg, model_seed)
    rng = np.random.default_rng(data_seed)
    windows = [rng.standard_normal((2, 5, d)) for d in cfg.modality_dims]
    labels = np.array([0, 1])

    def loss_fn():
        return trainer.weighted_scene_ce(af.forward_scene(model, windows), labels)

    return model.params, loss_fn


def _tiny_act_setup(seed: int):
    # train-act's towers, for 5-shot movies with a 3-sentence synopsis
    shot_cfg, synopsis_cfg = trainer.act_model_configs(
        dict(align_len=2, width=8, ffn_width=16, unimodal_depth=1, fusion_depth=1),
        dict(ffn_width=16, unimodal_depth=1), (3, 2), 5, 3,
    )
    root = np.random.SeedSequence(seed)
    model_seed, data_seed = root.spawn(2)
    pipeline = trainer.build_act_pipeline(shot_cfg, synopsis_cfg, 6, model_seed)
    rng = np.random.default_rng(data_seed)
    shots = [rng.standard_normal((5, d)) for d in shot_cfg.modality_dims]
    synopsis = rng.standard_normal((3, 5))
    # the proportional diagonal keeps every shot and sentence inside the
    # band with at least one positive, so no query is skipped
    band = sync.band_mask(5, 3)
    w = np.zeros((5, 3))
    for i in range(5):
        w[i, (i * 3) // 5] = 1.0
    tp_labels = [[0], [0], [1], [2], [2]]
    return pipeline, (shots, synopsis, w, band, tp_labels)


def _noise_gate(loss_scale: float, h: float) -> float:
    """Gradient magnitude below which central differences only measure
    the rounding noise of the loss evaluations (~eps*|f|/h), with a wide
    safety factor. Entries where both sides sit under the gate are
    structural zeros (e.g. attention key biases, which softmax cancels)
    and carry no comparable signal."""
    return 64.0 * np.finfo(np.float64).eps * max(1.0, abs(loss_scale)) / h


def _gated_rel_error(auto: np.ndarray, fd: np.ndarray, gate: float) -> tuple[float, int]:
    """(max relative error, entries compared) over the gated entries."""
    live = (np.abs(auto) >= gate) | (np.abs(fd) >= gate)
    if not live.any():
        return 0.0, 0
    return nc.max_rel_error(auto[live], fd[live]), int(live.sum())


def _autodiff_grads(params: dict, loss) -> tuple[dict, float]:
    grads = {
        name: p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
        for name, p in params.items()
    }
    nc.zero_grads(params.values())
    return grads, float(loss.data)


def _summarize(name: str, params: dict, errors: dict) -> dict:
    worst_err, worst_param, compared = 0.0, "", 0
    for pname, (err, live) in errors.items():
        compared += live
        if err > worst_err:
            worst_err, worst_param = err, pname
    return {
        "check": name,
        "parameters": len(params),
        "compared": compared,
        "max_rel_error": worst_err,
        "worst_parameter": worst_param,
        "passed": compared > 0 and worst_err < GRADCHECK_TOLERANCE,
    }


def _check_losses(names, params: dict, losses, h: float) -> list:
    """One result dict per loss; losses() returns every loss of one forward,
    so a single forward per perturbation serves all of the checks."""
    auto, gates = [], []
    for k in range(len(names)):
        with nc.Tape() as tape:
            loss = losses()[k]
        nc.backward(tape, loss)
        grads, scale = _autodiff_grads(params, loss)
        auto.append(grads)
        gates.append(_noise_gate(scale, h))
    # one finite-difference pass over every element of every parameter,
    # so its workers are forked once per check, not once per parameter
    flat, slices = trainer.flatten_params(params)
    fd = nc.fd_gradient(lambda: [float(value.data) for value in losses()], flat, h)
    errors = [{} for _ in names]
    for (pname, p), sl in zip(params.items(), slices):
        for k in range(len(names)):
            errors[k][pname] = _gated_rel_error(auto[k][pname], fd[k, sl].reshape(p.shape), gates[k])
    return [_summarize(name, params, errs) for name, errs in zip(names, errors)]


def run_gradient_checks(seed: int):
    """Autodiff-vs-finite-difference checks for the three training losses
    on the tiny two-modality config, at step GRADCHECK_H; one result dict
    per loss."""
    params, loss_fn = _tiny_scene_setup(seed)
    results = _check_losses(("scene_weighted_ce",), params, lambda: (loss_fn(),), GRADCHECK_H)

    # the combined loss reuses the contrastive term and, as a training step
    # does, the distillation targets of the unperturbed parameters
    pipeline, item = _tiny_act_setup(seed)
    _, _, targets, _ = trainer.act_objective(pipeline, [item])

    def act_losses():
        total, (l_c, _, _), _, _ = trainer.act_objective(pipeline, [item], targets)
        return l_c, total

    results += _check_losses(
        ("contrastive", "combined"), pipeline.named_params(), act_losses, GRADCHECK_H
    )
    return results
