"""Metric oracles: tie-aware AP by rank accumulation, F1 variants,
turning-point agreement hand cases, and modality importance symmetry."""

import json

import numpy as np
import pytest

from cineseg import alignfuse as af
from cineseg import metrics
from cineseg.errors import DataError


# ---- average precision ----


def test_ap_perfect_ranking():
    assert metrics.average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0


def test_ap_reversed_ranking_single_positive():
    # positive ranked last of three: one precision point, 1/3
    assert metrics.average_precision([0.0, 1.0, 1.0], [1, 0, 0]) == pytest.approx(1.0 / 3.0)


def test_ap_interleaved_hand_case():
    # ranks 1 and 3 are positive: mean(1/1, 2/3)
    ap = metrics.average_precision([0.9, 0.5, 0.4, 0.1], [1, 0, 1, 0])
    assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)


def test_ap_tied_scores_share_one_threshold():
    # every tied positive takes the precision at the end of its tie group
    assert metrics.average_precision([0.5, 0.5], [0, 1]) == 0.5
    assert metrics.average_precision([0.5, 0.5], [1, 0]) == 0.5
    assert metrics.average_precision([0.5, 0.5, 0.5], [1, 0, 0]) == pytest.approx(1.0 / 3.0)
    assert metrics.average_precision([0.5, 0.5, 0.5], [0, 0, 1]) == pytest.approx(1.0 / 3.0)
    # a tie group behind an untied positive: mean(1/1, 3/4, 3/4)
    ap = metrics.average_precision([0.9, 0.4, 0.4, 0.4, 0.1], [1, 1, 0, 1, 0])
    assert ap == pytest.approx((1.0 + 0.75 + 0.75) / 3.0, abs=1e-12)


def test_ap_invariant_under_permutations_with_ties():
    rng = np.random.default_rng(2)
    for _ in range(50):
        # few distinct values, so most items are tied with others
        scores = rng.integers(0, 4, size=12) / 4.0
        labels = (rng.random(12) < 0.4).astype(int)
        labels[rng.integers(12)] = 1
        base = metrics.average_precision(scores, labels)
        for _ in range(5):
            perm = rng.permutation(12)
            assert metrics.average_precision(scores[perm], labels[perm]) == base


def test_ap_without_ties_is_the_rank_accumulation_mean():
    rng = np.random.default_rng(3)
    for _ in range(20):
        scores = rng.standard_normal(30)
        labels = (rng.random(30) < 0.3).astype(int)
        labels[0] = 1
        order = np.argsort(-scores)
        ranked = labels[order] == 1
        ranks = np.flatnonzero(ranked) + 1
        expected = float((np.cumsum(ranked)[ranked] / ranks).mean())
        assert metrics.average_precision(scores, labels) == expected


def test_ap_invariant_under_monotone_transforms():
    rng = np.random.default_rng(0)
    for _ in range(10):
        scores = rng.standard_normal(40)
        labels = (rng.random(40) < 0.3).astype(int)
        if not labels.any():
            labels[0] = 1
        base = metrics.average_precision(scores, labels)
        assert metrics.average_precision(3.0 * scores + 7.0, labels) == pytest.approx(base)
        assert metrics.average_precision(np.exp(scores), labels) == pytest.approx(base)


def test_ap_random_scores_near_positive_rate():
    rng = np.random.default_rng(1)
    rate = 0.3
    values = []
    for _ in range(300):
        labels = (rng.random(60) < rate).astype(int)
        if not labels.any():
            continue
        values.append(metrics.average_precision(rng.random(60), labels))
    assert abs(np.mean(values) - rate) < 0.05


def test_ap_requires_a_positive():
    with pytest.raises(DataError):
        metrics.average_precision([0.1, 0.2], [0, 0])


def test_ap_shape_guard():
    with pytest.raises(DataError):
        metrics.average_precision([0.1, 0.2], [1])


# ---- F1 ----


def test_f1_perfect_predictions():
    value, degenerate = metrics.f1_at([0.9, 0.8, 0.1], [1, 1, 0], 0.5)
    assert value == 1.0 and not degenerate


def test_f1_all_predicted_positive():
    value, degenerate = metrics.f1_at([0.9, 0.8, 0.7, 0.6], [1, 0, 0, 0], 0.5)
    assert value == pytest.approx(0.4, abs=1e-12)
    assert not degenerate


def test_f1_no_predictions_above_threshold():
    value, degenerate = metrics.f1_at([0.1, 0.2], [1, 0], 0.5)
    assert value == 0.0 and degenerate


def test_f1_no_true_positives_is_zero_not_degenerate():
    value, degenerate = metrics.f1_at([0.9, 0.1], [0, 1], 0.5)
    assert value == 0.0 and not degenerate


def test_best_f1_finds_separating_threshold():
    scores = [0.8, 0.7, 0.3, 0.2]
    labels = [1, 1, 0, 0]
    fixed, _ = metrics.f1_at(scores, labels, 0.5)
    best, threshold = metrics.best_f1(scores, labels)
    assert best == 1.0
    assert threshold == pytest.approx(0.7)
    assert best >= fixed


def test_best_f1_at_least_fixed_threshold():
    rng = np.random.default_rng(2)
    for _ in range(10):
        scores = rng.random(30)
        labels = (rng.random(30) < 0.3).astype(int)
        fixed, _ = metrics.f1_at(scores, labels, 0.5)
        best, _ = metrics.best_f1(scores, labels)
        assert best >= fixed - 1e-12


def best_f1_loop(scores, labels):
    """best_f1 as one f1_at call per unique score, the reference."""
    scores = np.asarray(scores, dtype=np.float64)
    best_value, best_threshold = 0.0, float("inf")
    for t in np.unique(scores):
        value, _ = metrics.f1_at(scores, labels, float(t))
        if value > best_value:
            best_value, best_threshold = value, float(t)
    return best_value, best_threshold


@pytest.mark.parametrize("case", ["random", "heavy_ties", "no_positive_prediction", "nan"])
def test_best_f1_matches_the_per_threshold_loop_bit_for_bit(case):
    rng = np.random.default_rng(41)
    for size in list(range(0, 12)) + [50, 400, 1600]:
        scores = {
            "random": rng.random(size),
            "heavy_ties": rng.integers(0, 4, size) / 4.0,
            "no_positive_prediction": rng.random(size),
            "nan": np.where(rng.random(size) < 0.2, np.nan, rng.integers(0, 6, size) / 6.0),
        }[case]
        # no positive label leaves every threshold's F1 at zero
        rate = 0.0 if case == "no_positive_prediction" else 0.3
        labels = (rng.random(size) < rate).astype(int)
        value, threshold = metrics.best_f1(scores, labels)
        want_value, want_threshold = best_f1_loop(scores, labels)
        assert type(value) is float and type(threshold) is float
        assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
        assert np.float64(threshold).tobytes() == np.float64(want_threshold).tobytes()
    assert metrics.best_f1([0.2, 0.4], [0, 0]) == (0.0, float("inf"))


# ---- turning-point agreement ----


def test_tp_metrics_exact_everywhere():
    events = [(2, {2}, 20), (5, {5}, 20), (9, {9}, 20)]
    result = metrics.tp_metrics(events)
    assert result == {"ta": 100.0, "pa": 100.0, "d": 0.0}


def test_tp_metrics_hand_case():
    golds = [{2}, {5}, {9}, {12}, {18}]
    preds = (2, 5, 9, 12, 17)
    result = metrics.tp_metrics((p, g, 20) for p, g in zip(preds, golds))
    assert result["ta"] == pytest.approx(80.0)
    assert result["pa"] == pytest.approx(80.0)
    assert result["d"] == pytest.approx(1.0, abs=1e-12)


def test_tp_metrics_one_gold_scene():
    # S = {4}, G = {4}: TA 1/1, PA 1, D 0; S = {6}, G = {4}: TA 0, PA 0, D 2/10
    result = metrics.tp_metrics([(4, {4}, 10), (6, {4}, 10)])
    assert result == {"ta": 50.0, "pa": 50.0, "d": pytest.approx(10.0)}


@pytest.mark.parametrize(
    "event, want",
    [
        # S = {3} inside G = {3, 7}: |S & G| / |S | G| = 1/2, PA 1, D 0
        ((3, {3, 7}, 13), {"ta": 50.0, "pa": 100.0, "d": 0.0}),
        # a scene between two gold scenes is no agreement: D = 2/13
        ((5, {3, 7}, 13), {"ta": 0.0, "pa": 0.0, "d": pytest.approx(100 * 2 / 13)}),
        ((3, {2, 5}, 10), {"ta": 0.0, "pa": 0.0, "d": pytest.approx(10.0)}),
    ],
    ids=["S-in-G", "S-between-G-13", "S-between-G-10"],
)
def test_tp_metrics_two_gold_scenes(event, want):
    assert metrics.tp_metrics([event]) == want


def test_tp_metrics_constant_distance():
    # every prediction exactly 10% of the movie away from its gold scene
    events = [(g + 2, {g}, 20) for g in (4, 8, 12)]
    assert metrics.tp_metrics(events)["d"] == pytest.approx(10.0)


def test_tp_metrics_ta_never_exceeds_pa():
    rng = np.random.default_rng(3)
    for _ in range(50):
        total = int(rng.integers(5, 30))
        gold = set(rng.integers(0, total, size=rng.integers(1, 4)).tolist())
        pred = int(rng.integers(0, total))
        result = metrics.tp_metrics([(pred, gold, total)])
        assert result["ta"] <= result["pa"]


def test_tp_metrics_empty_gold_rejected():
    with pytest.raises(DataError):
        metrics.tp_metrics([(1, set(), 10)])


def test_tp_metrics_no_events_rejected():
    with pytest.raises(DataError):
        metrics.tp_metrics([])


# ---- modality importance ----


def act_model(dims, seed=0, width=6):
    return af.FusionModel(
        af.ModelConfig(
            seq_len=9, align_len=3, width=width, ffn_width=8,
            unimodal_depth=1, fusion_depth=1,
            num_classes=5, modality_dims=dims,
        ),
        seed=seed,
    )


def test_importance_single_modality_is_one():
    model = act_model((4,))
    feats = [np.random.default_rng(0).standard_normal((9, 4))]
    weights, fallback = metrics.gradcam_importance(model, feats)
    assert weights.shape == (1,)
    assert weights[0] == pytest.approx(1.0)
    assert not fallback


def test_importance_is_probability_vector():
    model = act_model((4, 3, 5), seed=1)
    rng = np.random.default_rng(1)
    feats = [rng.standard_normal((9, d)) for d in (4, 3, 5)]
    weights, _ = metrics.gradcam_importance(model, feats)
    assert weights.shape == (3,)
    assert (weights >= 0).all()
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def twin_modality_model():
    """Two modalities whose parameters, head rows included, are equal."""
    model = act_model((4, 4), seed=2)
    for name, p in model.params.items():
        if name.startswith("mod1."):
            p.data[...] = model.params["mod0." + name[len("mod1."):]].data
        elif not name.startswith(("mod0.", "align_pe", "head.")):
            p.data[1] = p.data[0]  # a stacked [M x ...] tower parameter
    head_w = model.params["head.w"].data
    head_w[6:12] = head_w[0:6]  # width 6: mod1's channel slice mirrors mod0's
    return model


def test_importance_tied_duplicate_modalities_split_evenly():
    model = twin_modality_model()
    feats = np.random.default_rng(3).standard_normal((9, 4))
    weights, fallback = metrics.gradcam_importance(model, [feats, feats.copy()])
    assert not fallback
    assert weights == pytest.approx([0.5, 0.5], abs=1e-9)


def test_importance_follows_head_weights():
    # tripling mod1's head rows triples its logit share; with equal
    # activations the selected rows stay put, so the weights go 1:3
    model = twin_modality_model()
    model.params["head.w"].data[6:12] *= 3.0
    feats = np.random.default_rng(3).standard_normal((9, 4))
    weights, fallback = metrics.gradcam_importance(model, [feats, feats.copy()])
    assert not fallback
    assert weights == pytest.approx([0.25, 0.75], abs=1e-9)


def scene_model(seed):
    return af.FusionModel(
        af.ModelConfig(
            seq_len=5, align_len=2, width=6, ffn_width=8,
            unimodal_depth=1, fusion_depth=1,
            num_classes=2, modality_dims=(3, 4),
        ),
        seed=seed,
    )


def test_importance_scene_task_runs():
    model = scene_model(4)
    rng = np.random.default_rng(4)
    weights, _ = metrics.gradcam_importance(
        model, [rng.standard_normal((5, 3)), rng.standard_normal((5, 4))]
    )
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_scene_importance_reads_the_row_the_scene_head_reads(monkeypatch):
    model = scene_model(6)
    rng = np.random.default_rng(6)
    feats = [rng.standard_normal((5, 3)), rng.standard_normal((5, 4))]
    head_inputs = []
    linear_apply = af._linear_apply

    def spy(model, prefix, x):
        if prefix == "head":
            head_inputs.append(x.data.copy())
        return linear_apply(model, prefix, x)

    monkeypatch.setattr(af, "_linear_apply", spy)
    logits = af.forward_scene(model, [f[None] for f in feats]).data
    weights, _ = metrics.gradcam_importance(model, feats)
    scene_row, gradcam_row = head_inputs
    assert scene_row.shape == (1, 12)
    assert gradcam_row.tobytes() == scene_row.tobytes()
    # the weights are that row's per-modality share of the max-class logit
    contribution = model.params["head.w"].data[:, np.argmax(logits[0])] * scene_row[0]
    raw = [contribution[c].sum() for c in metrics.modality_slices(model.config)]
    assert weights.tolist() == metrics._normalize_importance(raw)[0].tolist()


def test_importance_does_not_disturb_training_grads():
    model = act_model((4,), seed=5)
    marker = np.full_like(model.params["head.w"].data, 3.5)
    model.params["head.w"].grad = marker.copy()
    feats = [np.random.default_rng(5).standard_normal((9, 4))]
    metrics.gradcam_importance(model, feats)
    assert np.array_equal(model.params["head.w"].grad, marker)
    assert model.params["mod0.proj.w"].grad is None


def test_normalize_importance_zero_fallback():
    weights, fallback = metrics._normalize_importance(np.zeros(3))
    assert fallback
    assert np.allclose(weights, 1.0 / 3.0)


def test_normalize_importance_negative_clipped():
    weights, fallback = metrics._normalize_importance(np.array([-2.0, 1.0, 3.0]))
    assert not fallback
    assert np.allclose(weights, [0.0, 0.25, 0.75])


# ---- report schema ----


def test_report_round_trip():
    report = metrics.MetricsReport(
        task="scene",
        values={"ap": 0.5, "f1_at_0.5": 0.25},
        flags=["mirror-padded-eval"],
        threshold=0.5,
        seed=7,
    )
    payload = report.to_json()
    assert payload["schema"] == metrics.METRICS_SCHEMA
    assert payload["version"] == metrics.METRICS_VERSION
    assert json.loads(json.dumps(payload)) == payload == {
        "schema": metrics.METRICS_SCHEMA,
        "version": metrics.METRICS_VERSION,
        "task": "scene",
        "values": {"ap": 0.5, "f1_at_0.5": 0.25},
        "flags": ["mirror-padded-eval"],
        "threshold": 0.5,
        "seed": 7,
    }
