"""Synchronization tests: closed-form E-step against a brute-force oracle,
frozen contrastive-loss values, and the E-step on noiseless data."""

import json
import logging
import re

import numpy as np
import pytest

from cineseg import alignfuse as af
from cineseg import numcore as nc
from cineseg import sync
from cineseg.errors import ContractError, ShapeError
from cineseg.numcore import Tensor
from helpers import e_step_by_movie


def brute_force_best(values, lambdas, xi):
    """Exhaustive maximizer of sum_ij w_ij * (m_ij - lambda_j) over in-band
    binary matrices, by enumerating every subset of in-band cells."""
    band = sync.band_mask(values.shape[0], values.shape[1], xi)
    cells = np.argwhere(band)
    gains = np.array([values[i, j] - lambdas[j] for i, j in cells])
    k = len(cells)
    assert k <= 16, "fixture too large for exhaustive search"
    subsets = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    objectives = subsets @ gains
    best = int(np.argmax(objectives))
    w = np.zeros_like(values)
    for bit, (i, j) in enumerate(cells):
        if subsets[best, bit]:
            w[i, j] = 1.0
    return float(objectives[best]), w


def objective(values, lambdas, w):
    return float((w * (values - lambdas[None, :])).sum())


# ---- thresholds and band ----


def test_percentile_is_linearly_interpolated():
    # the 90th percentile of 0..99 lies 0.9 of the way from order statistic 89 to 90
    column = np.arange(100, dtype=np.float64).reshape(100, 1)
    assert sync.E_STEP_PERCENTILE == 90.0
    assert sync.lambda_per_sentence(column) == pytest.approx(89.1, abs=1e-12)


def test_percentile_per_column():
    values = np.stack([np.arange(5.0), np.arange(5.0) * 10], axis=1)
    lam = sync.lambda_per_sentence(values)
    assert np.allclose(lam, [3.6, 36.0])


@pytest.mark.parametrize("rows", [1, 2, 3, 11, 299, 300])
def test_percentile_has_the_bits_of_numpys(rows):
    rng = np.random.default_rng(rows)
    values = rng.uniform(-1.0, 1.0, size=(rows, 7))
    values[:, 0] = 0.25  # a column of ties
    values[:, 1] = -0.0  # numpy's lerp keeps a lone -0.0
    want = np.percentile(values, 90, axis=0, method="linear")
    assert sync.lambda_per_sentence(values).tobytes() == want.tobytes()


def test_band_is_built_once_per_shape_and_read_only():
    band = sync.band_mask(9, 4, 0.3)
    assert sync.band_mask(9, 4, 0.3) is band
    with pytest.raises(ValueError):
        band[0, 0] = not band[0, 0]


def test_band_2x2_is_diagonal():
    band = sync.band_mask(2, 2, 0.3)
    assert np.array_equal(band, np.eye(2, dtype=bool))


def test_band_transpose_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a, b = rng.integers(1, 12, size=2)
        assert np.array_equal(sync.band_mask(a, b, 0.3).T, sync.band_mask(b, a, 0.3))


def test_band_grows_with_xi():
    for dims in [(6, 4), (10, 3), (5, 5)]:
        narrow = sync.band_mask(*dims, xi=0.1)
        wide = sync.band_mask(*dims, xi=0.4)
        assert (wide | narrow == wide).all()
    assert not np.array_equal(sync.band_mask(6, 4, 0.1), sync.band_mask(6, 4, 0.4))


# ---- closed-form E-step ----


def test_e_step_2x2_hand_case():
    values = np.array([[0.9, 0.8], [0.2, 0.7]])
    result = sync.e_step(values, np.array([0.5, 0.5]), xi=0.3)
    assert np.array_equal(result.w, np.eye(2))


def test_e_step_all_below_threshold():
    values = np.zeros((4, 3))
    result = sync.e_step(values, np.full(3, 0.1), xi=0.3)
    assert not result.w.any()


def test_e_step_single_cell_at_threshold_included():
    result = sync.e_step(np.array([[0.4]]), np.array([0.4]), xi=0.3)
    assert result.w[0, 0] == 1.0


def test_e_step_matches_brute_force():
    rng = np.random.default_rng(2024)
    for _ in range(40):
        shots = int(rng.integers(2, 7))
        sentences = int(rng.integers(1, 5))
        values = rng.standard_normal((shots, sentences))
        lambdas = sync.lambda_per_sentence(values)
        result = sync.e_step(values, lambdas)
        best_obj, best_w = brute_force_best(values, lambdas, 0.3)
        assert objective(values, lambdas, result.w) == pytest.approx(best_obj, abs=1e-12)
        assert np.array_equal(result.w, best_w)


def test_e_step_monotone_in_lambda():
    rng = np.random.default_rng(11)
    values = rng.standard_normal((8, 4))
    lambdas = sync.lambda_per_sentence(values)
    lower = sync.e_step(values, lambdas).w
    higher = sync.e_step(values, lambdas + rng.uniform(0.0, 0.5, size=4)).w
    assert ((higher == 1) <= (lower == 1)).all()


def test_e_step_respects_band():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((9, 4))
    result = sync.e_step(values, np.full(4, -10.0))
    assert np.array_equal(result.w.astype(bool), sync.band_mask(9, 4, 0.3))


def test_e_step_threshold_shape_mismatch():
    with pytest.raises(ShapeError):
        sync.e_step(np.zeros((3, 2)), np.zeros(3))


# ---- contrastive M-step loss ----


def test_single_positive_pair_without_negatives_is_zero():
    u = Tensor(np.array([[1.0, 0.0]]))
    v = Tensor(np.array([[1.0, 0.0]]))
    term = (u, v, np.ones((1, 1)), np.ones((1, 1), dtype=bool))
    loss = sync.m_step_loss([term], Tensor(1.0))
    assert float(loss.data) == 0.0


def test_two_orthogonal_pairs_frozen_value():
    e1 = np.array([[1.0, 0.0]])
    e2 = np.array([[0.0, 1.0]])
    one = np.ones((1, 1))
    terms = [
        (Tensor(e1), Tensor(e1), one, one.astype(bool)),
        (Tensor(e2), Tensor(e2), one, one.astype(bool)),
    ]
    loss = sync.m_step_loss(terms, Tensor(1.0))
    assert float(loss.data) == pytest.approx(2.0 * np.log1p(np.exp(-1.0)), abs=1e-12)


def test_loss_invariant_under_orthogonal_rotation():
    rng = np.random.default_rng(5)
    dim = 6

    def unit_rows(n):
        x = rng.standard_normal((n, dim))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    terms_raw = []
    for shots, sentences in [(5, 3), (4, 2)]:
        u, v = unit_rows(shots), unit_rows(sentences)
        band = sync.band_mask(shots, sentences, 0.3)
        w = sync.e_step(u @ v.T, sync.lambda_per_sentence(u @ v.T)).w
        terms_raw.append((u, v, w, band))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    before = sync.m_step_loss(
        [(Tensor(u), Tensor(v), w, b) for u, v, w, b in terms_raw], Tensor(1.0)
    )
    after = sync.m_step_loss(
        [(Tensor(u @ q), Tensor(v @ q), w, b) for u, v, w, b in terms_raw], Tensor(1.0)
    )
    assert float(before.data) == pytest.approx(float(after.data), abs=1e-10)


def test_loss_decreases_as_positive_similarity_rises():
    # diagonal band: off-diagonal pairs are out-of-band negatives
    band = np.eye(2, dtype=bool)
    w = np.eye(2)
    losses = []
    for c in (0.2, 0.5, 0.9):
        u = Tensor(np.array([[c, 0.0, np.sqrt(1 - c * c)], [0.0, 1.0, 0.0]]))
        v = Tensor(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        losses.append(float(sync.m_step_loss([(u, v, w, band)], Tensor(1.0)).data))
    assert losses[0] > losses[1] > losses[2]


def test_in_band_nonpositives_are_excluded():
    # same-movie in-band w=0 pair must not act as a negative: with every
    # other cell a positive the loss stays exactly zero
    u = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    v = Tensor(np.array([[1.0, 0.0]]))
    w = np.array([[1.0], [0.0]])
    band = np.ones((2, 1), dtype=bool)
    loss = sync.m_step_loss([(u, v, w, band)], Tensor(1.0))
    assert float(loss.data) == 0.0


def test_skipped_query_warning(caplog):
    u = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    v = Tensor(np.array([[1.0, 0.0]]))
    term = (u, v, np.array([[1.0], [0.0]]), np.ones((2, 1), dtype=bool))
    with caplog.at_level(logging.WARNING, logger="cineseg.sync"):
        loss = sync.m_step_loss([term], Tensor(1.0))
    assert np.isfinite(loss.data)
    assert not caplog.records  # the trainer counts skipped queries instead
    assert sync.skipped_queries([term[2]]) == 1
    # two movies: shot 1 of the first and sentence 0 of the second lack a positive
    assert sync.skipped_queries([term[2], np.array([[0.0, 1.0]])]) == 2


def test_no_positives_anywhere_returns_zero(caplog):
    u = Tensor(np.array([[1.0, 0.0]]))
    v = Tensor(np.array([[0.0, 1.0]]))
    term = (u, v, np.zeros((1, 1)), np.ones((1, 1), dtype=bool))
    with caplog.at_level(logging.WARNING, logger="cineseg.sync"):
        loss = sync.m_step_loss([term], Tensor(1.0))
    assert float(loss.data) == 0.0
    assert not loss.requires_grad


def test_m_step_needs_movies():
    with pytest.raises(ContractError):
        sync.m_step_loss([], Tensor(1.0))


def test_m_step_shape_guard():
    u = Tensor(np.zeros((3, 2)))
    v = Tensor(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        sync.m_step_loss([(u, v, np.ones((2, 3)), np.ones((3, 2), dtype=bool))], Tensor(1.0))


def test_m_step_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    u_raw = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    v_raw = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    log_tau = Tensor(np.array(0.3), requires_grad=True)
    w = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    band = np.array([[True, True], [False, True], [True, False]])

    def run():
        term = (nc.normalize_rows(u_raw), nc.normalize_rows(v_raw), w, band)
        return sync.m_step_loss([term], nc.exp(log_tau))

    with nc.Tape() as tape:
        loss = run()
    nc.backward(tape, loss)
    for param in (u_raw, v_raw, log_tau):
        fd = nc.fd_gradient(lambda: float(run().data), param)
        assert nc.max_rel_error(param.grad, fd) < 1e-5


# ---- sync head ----


def test_sync_head_features_are_unit_norm():
    head = sync.SyncHead(6, 4, seed=0)
    rows = head.features(Tensor(np.random.default_rng(1).standard_normal((5, 6))))
    assert np.allclose(np.linalg.norm(rows.data, axis=1), 1.0, atol=1e-6)


def test_sync_head_width_guard():
    # the projection's own shape check, a DataError on the CLI (exit 3)
    head = sync.SyncHead(6, 4, seed=0)
    with pytest.raises(ShapeError, match=re.escape("linear mismatch: (5, 7) x (6, 4)")):
        head.features(Tensor(np.zeros((5, 7))))


def test_sync_head_tau_init_and_clamp():
    head = sync.SyncHead(4, 4, seed=0)
    assert float(head.tau().data) == pytest.approx(0.07, abs=1e-12)
    head.params["sync.log_tau"].data[...] = 50.0
    head.clamp_tau()
    assert float(head.tau().data) == pytest.approx(10.0, rel=1e-12)
    head.params["sync.log_tau"].data[...] = -50.0
    head.clamp_tau()
    assert float(head.tau().data) == pytest.approx(1e-3, rel=1e-12)


# ---- E-step over movies ----


def em_fixture(seed=0, noise=0.0):
    from cineseg.dataio import SynthConfig, make_dataset

    cfg = SynthConfig(
        shots=48,
        scenes=6,
        sentences=3,
        modalities=(("visual", 10), ("audio", 6)),
        latent_dim=8,
        noise=noise,
        tp_jitter=0.0,
    )
    movies = make_dataset(cfg, movies=2, seed=seed)
    shot_model = af.FusionModel(
        af.ModelConfig(
            seq_len=48, align_len=4, width=8, ffn_width=16,
            unimodal_depth=1, fusion_depth=1,
            num_classes=5, modality_dims=(10, 6),
        ),
        seed=seed + 1,
    )
    synopsis_model = af.FusionModel(
        af.ModelConfig(
            seq_len=8, align_len=3, width=16, ffn_width=16,
            unimodal_depth=1, fusion_depth=0,
            num_classes=5, modality_dims=(16,),
        ),
        seed=seed + 2,
    )
    head = sync.SyncHead(16, 8, seed=seed + 3)
    inputs = [(m.streams, m.synopsis_features) for m in movies]
    return movies, inputs, shot_model, synopsis_model, head


def test_run_e_step_assignments_stay_in_band():
    _, inputs, shot_model, synopsis_model, head = em_fixture()
    syncs = sync.run_e_step(shot_model, synopsis_model, head, inputs)
    assert len(syncs) == 2
    for sm in syncs:
        band = sync.band_mask(*sm.w.shape, xi=sm.xi)
        assert (sm.w.astype(bool) <= band).all()


def test_run_e_step_noiseless_assignments_land_in_gold_spans():
    # One scene per sentence and zero noise make every span shot a cosine-1
    # match for its sentence, so synchronization is exactly solvable. Both
    # sides go through the same encoder (the real pipeline's input features
    # are pre-aligned across modalities and text; two unrelated random
    # encoders would destroy that alignment before any training happened).
    from cineseg.dataio import SynthConfig, make_dataset

    cfg = SynthConfig(
        shots=48, scenes=3, sentences=3,
        modalities=(("content", 16),), latent_dim=8, noise=0.0, tp_jitter=0.0,
    )
    movies = make_dataset(cfg, movies=2, seed=4)
    model = af.FusionModel(
        af.ModelConfig(
            seq_len=48, align_len=4, width=16, ffn_width=32,
            unimodal_depth=1, fusion_depth=0,
            num_classes=5, modality_dims=(16,),
        ),
        seed=5,
    )
    head = sync.SyncHead(16, 8, seed=7)
    inputs = [([m.streams[0]], m.synopsis_features) for m in movies]
    syncs = sync.run_e_step(model, model, head, inputs)
    for movie, sm in zip(movies, syncs):
        for j in range(sm.w.shape[1]):
            assert sm.w[:, j].any(), f"sentence {j} received no shots"
            gold = np.flatnonzero(movie.gold_sync[:, j])
            assert int(np.argmax(sm.w[:, j])) in set(gold)


def _random_movie(rng, shots, sentences):
    return [rng.normal(size=(shots, 10)), rng.normal(size=(shots, 6))], rng.normal(size=(sentences, 16))


def test_run_e_step_has_the_bits_of_one_forward_per_movie():
    # an odd count and two lengths: the 24-shot movies run as one group,
    # the 30-shot movie alone, and the results come back in input order
    _, _, shot_model, synopsis_model, head = em_fixture()
    rng = np.random.default_rng(31)
    inputs = [_random_movie(rng, *dims) for dims in ((24, 3), (30, 4), (24, 3))]
    got = sync.run_e_step(shot_model, synopsis_model, head, inputs, 0.2)
    want = e_step_by_movie(shot_model, synopsis_model, head, inputs, 0.2)
    assert [sm.w.shape for sm in got] == [(24, 3), (30, 4), (24, 3)]
    for a, b in zip(got, want):
        assert a.w.tobytes() == b.w.tobytes()
        assert a.lambdas.tobytes() == b.lambdas.tobytes()
        assert a.xi == b.xi


def test_e_step_runs_shot_pairs_and_one_synopsis_forward(monkeypatch):
    # 14 movies of 300 shots behind 12 tokens: each shot forward holds
    # two movies' attention scores, and every synopsis fits in one
    cfg = dict(align_len=12, width=8, ffn_width=8, unimodal_depth=1, fusion_depth=0,
               num_classes=5)
    shot_model = af.FusionModel(af.ModelConfig(seq_len=300, modality_dims=(4,), **cfg), 1)
    synopsis_model = af.FusionModel(af.ModelConfig(seq_len=12, modality_dims=(4,), **cfg), 2)
    head = sync.SyncHead(8, 4, seed=3)
    rng = np.random.default_rng(5)
    inputs = [([rng.normal(size=(300, 4))], rng.normal(size=(12, 4))) for _ in range(14)]
    batches, encode = [], af.encode
    monkeypatch.setattr(af, "encode", lambda model, feats: (
        batches.append(feats[0].shape[0]), encode(model, feats))[1])
    syncs = sync.run_e_step(shot_model, synopsis_model, head, inputs)
    assert batches == [2] * 7 + [14]
    assert [sm.w.shape for sm in syncs] == [(300, 12)] * 14


def test_gold_agreement():
    w = np.zeros((4, 3))
    w[[0, 1, 1, 3], [0, 0, 1, 2]] = 1.0
    assert sync.gold_agreement(w, np.array([0, 1, 1, 2])) == {
        "assigned": 4, "gold_precision": 3 / 4, "gold_recall": 3 / 4}
    assert sync.gold_agreement(np.zeros((4, 3)), np.array([0, 1, 1, 2])) == {
        "assigned": 0, "gold_precision": None, "gold_recall": 0.0}


# ---- exports ----


def test_rle_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(25):
        row = (rng.random(int(rng.integers(1, 30))) < 0.4).astype(np.float64)
        (runs,) = sync._rle_encode(row[None])
        assert sum(runs) == len(row)
        assert np.array_equal(sync._rle_decode(runs, len(row)), row)


def test_rle_leading_one_starts_with_empty_zero_run():
    assert sync._rle_encode(np.array([[1.0, 1.0]])) == [[0, 2]]
    assert sync._rle_encode(np.array([[0.0, 0.0, 1.0, 1.0, 0.0]])) == [[2, 2, 1]]


def rle_loop(row):
    """_rle_encode as a loop over every value, the reference."""
    runs = []
    current, count = 0, 0
    for value in row:
        value = int(value)
        if value == current:
            count += 1
        else:
            runs.append(count)
            current, count = value, 1
    runs.append(count)
    return runs


def test_rle_matches_the_loop():
    rng = np.random.default_rng(29)
    rows = [(rng.random(12) < p).astype(np.float64) for p in (0.1, 0.4, 0.8) for _ in range(20)]
    rows += [np.zeros(12), np.ones(12), np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0, 1.0])]
    rows += [np.array([0.0]), np.array([1.0])]
    for row in rows:
        assert sync._rle_encode(row[None]) == [rle_loop(row)]
    for width in (1, 12):
        w = (rng.random((30, width)) < 0.3).astype(np.float64)
        w[0], w[1], w[2, 0] = 0.0, 1.0, 1.0
        runs = sync._rle_encode(w)
        assert runs == [rle_loop(row) for row in w]
        assert all(type(n) is int for row in runs for n in row)
    assert sync._rle_encode(np.zeros((0, 4))) == []


def test_rle_decode_length_guard():
    with pytest.raises(ContractError):
        sync._rle_decode([2, 2], 5)


def test_sync_json_round_trip():
    rng = np.random.default_rng(31)
    values = rng.standard_normal((12, 4))
    sm = sync.e_step(values, sync.lambda_per_sentence(values))
    payload = json.loads(json.dumps(sync.sync_to_json(sm)))
    back = sync.sync_from_json(payload)
    assert np.array_equal(back.w, sm.w)
    assert back.xi == sm.xi
    assert np.allclose(back.lambdas, sm.lambdas)


def test_pgm_output(tmp_path):
    matrix = np.array([[0.0, 0.5, 1.0], [0.25, 0.75, 1.0]])
    path = tmp_path / "sim.pgm"
    sync.write_pgm(matrix, path)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n3 2\n255\n")
    pixels = np.frombuffer(blob[len(b"P5\n3 2\n255\n"):], dtype=np.uint8)
    assert pixels.tolist() == [0, 128, 255, 64, 191, 255]


def test_pgm_constant_matrix(tmp_path):
    path = tmp_path / "flat.pgm"
    sync.write_pgm(np.full((2, 2), 3.0), path)
    pixels = np.frombuffer(path.read_bytes()[len(b"P5\n2 2\n255\n"):], dtype=np.uint8)
    assert pixels.tolist() == [0, 0, 0, 0]
