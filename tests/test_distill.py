"""Distillation tests: transfer attention, carried targets, the KL loss
direction, and the weighted total objective."""

import numpy as np
import pytest

from cineseg import distill
from cineseg import numcore as nc
from cineseg.errors import DataError, NumericError
from cineseg.numcore import Tensor
from helpers import weighted_sum


def random_unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def column_stochastic(rng, rows, cols):
    x = rng.random((rows, cols)) + 0.1
    return x / x.sum(axis=0, keepdims=True)


# ---- attention weights ----


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(0)
    attn = distill.attention_weights(
        random_unit_rows(rng, 7, 5), random_unit_rows(rng, 4, 5), 0.07
    )
    assert np.allclose(attn.data.sum(axis=1), 1.0, atol=1e-12)
    assert (attn.data > 0).all()


def test_attention_single_sentence_is_all_ones():
    rng = np.random.default_rng(1)
    attn = distill.attention_weights(
        random_unit_rows(rng, 5, 3), random_unit_rows(rng, 1, 3), 1.0
    )
    assert np.allclose(attn.data, 1.0, atol=1e-15)


def test_attention_identical_sentences_uniform():
    rng = np.random.default_rng(2)
    v = np.tile(random_unit_rows(rng, 1, 4), (3, 1))
    attn = distill.attention_weights(random_unit_rows(rng, 6, 4), v, 0.5)
    assert np.allclose(attn.data, 1.0 / 3.0, atol=1e-12)


def test_attention_frozen_two_sentence_case():
    u = np.array([[1.0, 0.0]])
    v = np.array([[1.0, 0.0], [0.0, 1.0]])  # sims (1, 0)
    attn = distill.attention_weights(u, v, 1.0)
    expected = np.exp(1.0) / (np.exp(1.0) + 1.0)
    assert attn.data[0, 0] == pytest.approx(expected, abs=1e-12)
    assert attn.data[0, 1] == pytest.approx(1.0 - expected, abs=1e-12)
    assert attn.data[0] == pytest.approx([0.7311, 0.2689], abs=1e-4)


def test_attention_sharpens_as_tau_shrinks():
    rng = np.random.default_rng(3)
    u, v = random_unit_rows(rng, 4, 6), random_unit_rows(rng, 3, 6)
    soft = distill.attention_weights(u, v, 1.0).data
    sharp = distill.attention_weights(u, v, 0.05).data
    assert (sharp.max(axis=1) > soft.max(axis=1)).all()


def test_attention_accepts_learnable_tau_tensor():
    rng = np.random.default_rng(4)
    log_tau = Tensor(np.array(0.0), requires_grad=True)
    u = Tensor(random_unit_rows(rng, 3, 4), requires_grad=True)
    with nc.Tape() as tape:
        attn = distill.attention_weights(u, random_unit_rows(rng, 2, 4), nc.exp(log_tau))
        loss = weighted_sum(nc.mul(attn, attn))
    nc.backward(tape, loss)
    assert log_tau.grad is not None and np.isfinite(log_tau.grad).all()


# ---- transfer targets ----


def test_transfer_targets_columns_sum_to_one():
    rng = np.random.default_rng(5)
    attn = distill.attention_weights(
        random_unit_rows(rng, 9, 5), random_unit_rows(rng, 4, 5), 0.07
    )
    p = distill.transfer_targets(attn, rng.standard_normal((4, 5)))
    assert np.allclose(p.data.sum(axis=0), 1.0, atol=1e-12)


def test_transfer_targets_zero_logits_uniform():
    rng = np.random.default_rng(6)
    attn = distill.attention_weights(
        random_unit_rows(rng, 8, 3), random_unit_rows(rng, 2, 3), 1.0
    )
    p = distill.transfer_targets(attn, np.zeros((2, 5)))
    assert np.allclose(p.data, 1.0 / 8.0, atol=1e-12)


def test_transfer_targets_single_shot_is_one():
    attn = Tensor(np.array([[0.3, 0.7]]))
    p = distill.transfer_targets(attn, np.array([[4.0], [-2.0]]))
    assert np.allclose(p.data, 1.0, atol=1e-15)


def test_transfer_targets_frozen_identity_attention():
    p = distill.transfer_targets(Tensor(np.eye(2)), np.array([[2.0], [0.0]]))
    top = np.exp(2.0) / (np.exp(2.0) + 1.0)
    assert p.data[:, 0] == pytest.approx([top, 1.0 - top], abs=1e-12)
    assert p.data[:, 0] == pytest.approx([0.8808, 0.1192], abs=1e-4)


def test_transfer_targets_shift_invariance():
    rng = np.random.default_rng(7)
    attn = distill.attention_weights(
        random_unit_rows(rng, 10, 4), random_unit_rows(rng, 5, 4), 0.07
    )
    q = rng.standard_normal((5, 5))
    shifts = rng.standard_normal(5)
    base = distill.transfer_targets(attn, q)
    shifted = distill.transfer_targets(attn, q + shifts[None, :])
    assert np.allclose(base.data, shifted.data, atol=1e-12)


# ---- distillation loss ----


def test_kd_loss_zero_on_equal_inputs():
    rng = np.random.default_rng(8)
    o = column_stochastic(rng, 6, 5)
    assert float(distill.kd_loss(o, o.copy()).data) == 0.0


def test_kd_loss_frozen_two_shot_case():
    o = np.array([[0.6], [0.4]])
    p = np.array([[0.5], [0.5]])
    expected = 0.6 * np.log(1.2) + 0.4 * np.log(0.8)
    assert float(distill.kd_loss(o, p).data) == pytest.approx(expected, abs=1e-15)
    assert float(distill.kd_loss(o, p).data) == pytest.approx(0.02014, abs=1e-5)


def test_kd_loss_maximal_disagreement_is_large():
    eps = 1e-12
    o = np.array([[1.0 - eps], [eps]])
    p = np.array([[eps], [1.0 - eps]])
    assert float(distill.kd_loss(o, p).data) > 20.0


def test_kd_loss_direction_matters():
    o = np.array([[0.9], [0.1]])
    p = np.array([[0.5], [0.5]])
    forward = float(distill.kd_loss(o, p).data)
    backward = float(distill.kd_loss(p, o).data)
    assert forward != pytest.approx(backward, abs=1e-6)


def test_kd_loss_nonnegative_on_random_distributions():
    rng = np.random.default_rng(9)
    for _ in range(20):
        o = column_stochastic(rng, 7, 3)
        p = column_stochastic(rng, 7, 3)
        assert float(distill.kd_loss(o, p).data) >= -1e-12


def test_kd_loss_shape_guard():
    with pytest.raises(DataError):
        distill.kd_loss(np.ones((3, 2)) / 3, np.ones((4, 2)) / 4)


def test_kd_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    logits = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
    target = column_stochastic(rng, 5, 2)

    def run():
        return distill.kd_loss(distill.shot_distribution(logits), target)

    with nc.Tape() as tape:
        loss = run()
    nc.backward(tape, loss)
    fd = nc.fd_gradient(lambda: float(run().data), logits)
    assert nc.max_rel_error(logits.grad, fd) < 1e-6


def test_shot_distribution_columns_sum_to_one():
    rng = np.random.default_rng(11)
    o = distill.shot_distribution(rng.standard_normal((9, 5)))
    assert np.allclose(o.data.sum(axis=0), 1.0, atol=1e-12)


# ---- synopsis cross-entropy ----


def test_synopsis_ce_uniform_logits_single_gold():
    q = np.zeros((4, 2))
    loss = distill.synopsis_ce_loss(q, [[1], [3]])
    assert float(loss.data) == pytest.approx(2.0 * np.log(4.0), abs=1e-12)


def test_synopsis_ce_frozen_two_gold_case():
    q = np.array([[1.0], [1.0], [0.0]])
    loss = distill.synopsis_ce_loss(q, [[0, 1]])
    assert float(loss.data) == pytest.approx(np.log(2.0 + np.exp(-1.0)), abs=1e-12)
    assert float(loss.data) == pytest.approx(0.8620, abs=1e-4)


def test_synopsis_ce_dominant_gold_logit_vanishes():
    q = np.zeros((5, 1))
    q[2, 0] = 50.0
    assert float(distill.synopsis_ce_loss(q, [[2]]).data) < 1e-12


def test_synopsis_ce_rejects_empty_gold_set():
    with pytest.raises(DataError):
        distill.synopsis_ce_loss(np.zeros((3, 1)), [[]])


def test_synopsis_ce_rejects_out_of_range_gold():
    with pytest.raises(DataError):
        distill.synopsis_ce_loss(np.zeros((3, 1)), [[3]])


def test_synopsis_ce_rejects_wrong_tp_count():
    with pytest.raises(DataError):
        distill.synopsis_ce_loss(np.zeros((3, 2)), [[0]])


def test_synopsis_ce_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    q = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    labels = [[0], [1, 2], [3]]

    def run():
        return distill.synopsis_ce_loss(q, labels)

    with nc.Tape() as tape:
        loss = run()
    nc.backward(tape, loss)
    fd = nc.fd_gradient(lambda: float(run().data), q)
    assert nc.max_rel_error(q.grad, fd) < 1e-6


# ---- total objective ----


def test_total_loss_default_weights():
    total = distill.total_loss(Tensor(1.0), Tensor(1.0), Tensor(1.0))
    assert float(total.data) == pytest.approx(12.0, abs=1e-15)


def test_total_loss_zero_components():
    assert float(distill.total_loss(Tensor(0.0), Tensor(0.0), Tensor(0.0)).data) == 0.0


def test_total_loss_names_nonfinite_component():
    with pytest.raises(NumericError, match="synopsis_ce"):
        distill.total_loss(Tensor(1.0), Tensor(np.inf), Tensor(1.0))
    with pytest.raises(NumericError, match="distillation"):
        distill.total_loss(Tensor(1.0), Tensor(1.0), Tensor(np.nan))


def test_total_loss_gradient_is_weighted_sum():
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal(4), requires_grad=True)

    def run():
        l_c = weighted_sum(nc.mul(x, x))
        l_ce = weighted_sum(x)
        l_kd = weighted_sum(nc.exp(x))
        return distill.total_loss(l_c, l_ce, l_kd)

    with nc.Tape() as tape:
        total = run()
    nc.backward(tape, total)
    analytic = 2.0 * x.data + 1.0 + 10.0 * np.exp(x.data)
    assert np.allclose(x.grad, analytic, atol=1e-12)
    fd = nc.fd_gradient(lambda: float(run().data), x)
    assert nc.max_rel_error(x.grad, fd) < 1e-6
