from collections import Counter
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import cineseg.alignfuse as af
import cineseg.cli as cli
import cineseg.gradcheck as gradcheck
import cineseg.numcore as nc
import cineseg.sync as sync
import cineseg.trainer as trainer
from cineseg.dataio import NUM_TURNING_POINTS
from cineseg.errors import BlobIOError, ConfigError, DataError
from helpers import weighted_sum

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def tiny_cfg(**kw):
    base = dict(
        seq_len=5,
        align_len=2,
        width=8,
        ffn_width=16,
        unimodal_depth=1,
        fusion_depth=1,
        dropout=0.0,
        num_classes=2,
        modality_dims=(3, 4),
    )
    base.update(kw)
    return af.ModelConfig(**base)


def rand_inputs(rng, cfg, batch=2, length=None):
    length = length or cfg.seq_len
    return [rng.normal(size=(batch, length, d)) for d in cfg.modality_dims]


# ---- alignment buckets ----


def test_align_buckets_17_shot_window():
    buckets = af.align_buckets(17, 2)
    assert buckets[8] == 0
    assert buckets[9] == 1


def test_align_buckets_15_into_3():
    npt.assert_array_equal(af.align_buckets(15, 3), [0] * 5 + [1] * 5 + [2] * 5)


def test_align_buckets_synopsis_scale():
    assert af.align_buckets(40, 20)[20] == 10


def test_align_buckets_balanced_and_monotone():
    rng = np.random.default_rng(0)
    for _ in range(50):
        seq_len = int(rng.integers(1, 60))
        align_len = int(rng.integers(1, seq_len + 1))
        buckets = af.align_buckets(seq_len, align_len)
        assert buckets.min() >= 0 and buckets.max() < align_len
        assert (np.diff(buckets) >= 0).all()
        counts = np.bincount(buckets, minlength=align_len)
        assert counts.max() - counts.min() <= 1


# ---- config and init ----


def test_config_validation():
    with pytest.raises(ConfigError):
        tiny_cfg(num_classes=3).validate()
    with pytest.raises(ConfigError):
        tiny_cfg(align_len=6).validate()  # more buckets than positions
    with pytest.raises(ConfigError):
        tiny_cfg(dropout=1.0).validate()
    with pytest.raises(ConfigError):
        tiny_cfg(modality_dims=()).validate()
    with pytest.raises(ConfigError, match="odd length"):
        tiny_cfg(seq_len=4).validate()  # a scene window has no central key shot
    tiny_cfg(seq_len=4, num_classes=5).validate()  # act sequences may be even


def test_init_distributions():
    model = af.FusionModel(tiny_cfg(), seed=0)
    npt.assert_array_equal(model["embed_ln.g"].data, np.ones((2, 1, 8)))
    npt.assert_array_equal(model["embed_ln.b"].data, np.zeros((2, 1, 8)))
    npt.assert_array_equal(model["head.b"].data, np.zeros(2))
    assert abs(model["align_pe"].data.std() - 0.02) < 0.02
    assert np.abs(model["mod0.proj.w"].data).max() <= np.sqrt(6.0 / (3 + 8))
    assert np.abs(model["uni0.ffn.drop.w"].data).max() <= np.sqrt(6.0 / (16 + 8))


def test_qkv_is_three_draws_in_the_order_of_q_k_and_v():
    # the values a block's separate q, k and v layers drew from the same seed
    model = af.FusionModel(tiny_cfg(), seed=0)
    rng = np.random.default_rng(0)
    rng.normal(size=(2, 8))  # align_pe
    rng.uniform(size=(3, 8))  # mod0.proj.w
    rng.normal(size=(5, 8))  # mod0.pe
    rng.normal(size=(1, 2, 8))  # mod0.tokens
    limit = np.sqrt(6.0 / (8 + 8))
    want = np.concatenate([rng.uniform(-limit, limit, size=(8, 8)) for _ in "qkv"], axis=1)
    assert model["uni0.attn.qkv.w"].data[0].tobytes() == want.tobytes()
    npt.assert_array_equal(model["uni0.attn.qkv.b"].data, np.zeros((2, 1, 24)))


def test_same_seed_same_params():
    a = af.FusionModel(tiny_cfg(), seed=5)
    b = af.FusionModel(tiny_cfg(), seed=5)
    for name in a.params:
        assert a.params[name].data.tobytes() == b.params[name].data.tobytes()


# ---- forward structure ----


def test_scene_forward_shapes():
    rng = np.random.default_rng(1)
    cfg = tiny_cfg()
    model = af.FusionModel(cfg, seed=1)
    logits = af.forward_scene(model, rand_inputs(rng, cfg, batch=4))
    assert logits.shape == (4, 2)


def test_fusion_sequence_length_and_fused_width():
    rng = np.random.default_rng(2)
    cfg = tiny_cfg(
        seq_len=17, align_len=2, modality_dims=(3, 4, 5), num_classes=5, dropout=0.0
    )
    model = af.FusionModel(cfg, seed=2)
    collect = {}
    feats = [rng.normal(size=(1, 17, d)) for d in cfg.modality_dims]
    fused = af.encode(model, feats, collect=collect)
    assert collect["fusion_seq_lens"] == [3 * 2 + 17] * 3
    assert fused.shape == (1, 17, 3 * cfg.width)


def test_single_modality_fusion_degenerates():
    rng = np.random.default_rng(3)
    cfg = tiny_cfg(modality_dims=(6,), num_classes=5)
    model = af.FusionModel(cfg, seed=3)
    collect = {}
    feats = [rng.normal(size=(1, 5, 6))]
    fused = af.encode(model, feats, collect=collect)
    assert collect["fusion_seq_lens"] == [2 + 5]
    assert fused.shape == (1, 5, cfg.width)
    assert af.forward_act(model, [feats[0][0]]).shape == (5, 5)


def test_shorter_inputs_use_leading_positions():
    rng = np.random.default_rng(4)
    cfg = tiny_cfg(seq_len=12, align_len=3, modality_dims=(6,), num_classes=5)
    model = af.FusionModel(cfg, seed=4)
    logits = af.forward_act(model, [rng.normal(size=(7, 6))])
    assert logits.shape == (7, 5)
    with pytest.raises(DataError):
        af.forward_act(model, [rng.normal(size=(13, 6))])


def test_input_length_shorter_than_align_len_still_buckets():
    # a 12-sentence synopsis under a 20-bucket alignment table
    buckets = af.align_buckets(12, 20)
    assert buckets.min() == 0 and buckets.max() < 20
    assert (np.diff(buckets) >= 0).all()


def test_embed_ablation_changes_exactly_the_alignment_addend():
    rng = np.random.default_rng(5)
    cfg = tiny_cfg()
    model_on = af.FusionModel(cfg, seed=7)
    model_off = af.FusionModel(tiny_cfg(align_pe_embed=False), seed=7)
    feats = rng.normal(size=(2, 5, 3))
    on, off = {}, {}
    af.embed_modality(model_on, feats, 0, collect=on)
    af.embed_modality(model_off, feats, 0, collect=off)
    addend = model_on["align_pe"].data[af.align_buckets(5, 2)]
    npt.assert_allclose(
        on["embed_pre_norm"][0].data - off["embed_pre_norm"][0].data,
        np.broadcast_to(addend, (2, 5, 8)),
        atol=1e-12,
    )


def test_bottleneck_tokens_with_zeroed_alignment_table():
    model = af.FusionModel(tiny_cfg(), seed=8)
    model["align_pe"].data[:] = 0.0
    prepared = af.make_bottleneck(model, 1)
    npt.assert_allclose(prepared.data, model["mod1.tokens"].data, atol=1e-15)


def test_alignment_table_is_shared():
    model = af.FusionModel(tiny_cfg(), seed=9)
    rng = np.random.default_rng(9)
    with nc.Tape() as tape:
        logits = af.forward_scene(model, rand_inputs(rng, model.config))
        loss = weighted_sum(logits)
    nc.backward(tape, loss)
    # one table feeds both modality embeddings and both token sets
    assert model["align_pe"].grad is not None
    assert np.abs(model["align_pe"].grad).max() > 0


def test_permutation_equivariance_without_positions():
    rng = np.random.default_rng(10)
    cfg = tiny_cfg(seq_len=6, modality_dims=(4, 3), num_classes=5)
    model = af.FusionModel(cfg, seed=10)
    model["align_pe"].data[:] = 0.0
    for m in range(2):
        model[f"mod{m}.pe"].data[:] = 0.0
    feats = [rng.normal(size=(6, d)) for d in cfg.modality_dims]
    perm = rng.permutation(6)
    base = af.forward_act(model, feats).data
    permuted = af.forward_act(model, [f[perm] for f in feats]).data
    npt.assert_allclose(permuted, base[perm], atol=1e-10)


def test_dropout_train_vs_eval():
    rng = np.random.default_rng(11)
    cfg = tiny_cfg(dropout=0.5)
    model = af.FusionModel(cfg, seed=11)
    feats = rand_inputs(rng, cfg)
    eval_a = af.forward_scene(model, feats).data
    eval_b = af.forward_scene(model, feats).data
    npt.assert_array_equal(eval_a, eval_b)
    train = af.forward_scene(model, feats, rng=np.random.default_rng(0)).data
    assert np.abs(train - eval_a).max() > 1e-8


def test_scene_window_length_enforced():
    rng = np.random.default_rng(12)
    cfg = tiny_cfg()
    model = af.FusionModel(cfg, seed=12)
    with pytest.raises(DataError):
        af.forward_scene(model, rand_inputs(rng, cfg, length=4))
    with pytest.raises(ConfigError):
        af.forward_scene(
            af.FusionModel(tiny_cfg(seq_len=4, align_len=2), seed=0),
            rand_inputs(rng, tiny_cfg(seq_len=4, align_len=2)),
        )


def test_gradients_flow_to_every_group():
    rng = np.random.default_rng(13)
    cfg = tiny_cfg()
    model = af.FusionModel(cfg, seed=13)
    r = rng.normal(size=(2, 2))
    with nc.Tape() as tape:
        logits = af.forward_scene(model, rand_inputs(rng, cfg))
        loss = weighted_sum(logits, r)
    nc.backward(tape, loss)
    for name, p in model.params.items():
        assert p.grad is not None, f"no gradient reached {name}"


def test_model_gradients_match_finite_differences_smoke():
    rng = np.random.default_rng(14)
    cfg = tiny_cfg()
    model = af.FusionModel(cfg, seed=14)
    feats = rand_inputs(rng, cfg)
    r = rng.normal(size=(2, 2))

    def make_loss():
        return weighted_sum(af.forward_scene(model, feats), r)

    with nc.Tape() as tape:
        loss = make_loss()
    nc.backward(tape, loss)
    for name in ("align_pe", "mod0.tokens", "mod1.proj.w", "head.w",
                 "uni0.attn.qkv.w", "fus0.ffn.lift.w", "embed_ln.g"):
        p = model[name]
        fd = nc.fd_gradient(lambda: float(make_loss().data), p)
        err = nc.max_rel_error(p.grad, fd)
        assert err < 1e-4, f"{name}: rel err {err:.2e}"


def test_single_head_encoder_block_records_one_attention_node():
    model = af.FusionModel(tiny_cfg(), seed=21)
    x = nc.Tensor(np.random.default_rng(21).normal(size=(2, 2, 5, 8)), requires_grad=True)
    with nc.Tape() as tape:
        af._encoder_block(model, "uni0.", x, None)
    names = [node.name for node in tape.nodes]
    assert names.count("attention") == 1
    assert "softmax" not in names and "narrow" not in names


def test_unimodal_depth_zero_passes_through():
    rng = np.random.default_rng(15)
    cfg = tiny_cfg(unimodal_depth=0, fusion_depth=0, modality_dims=(4,), num_classes=5)
    model = af.FusionModel(cfg, seed=15)
    logits = af.forward_act(model, [rng.normal(size=(5, 4))])
    assert logits.shape == (5, 5)


# ---- checkpoints ----


def test_checkpoint_round_trip_bit_exact(tmp_path):
    cfg = tiny_cfg()
    model = af.FusionModel(cfg, seed=16)
    path = tmp_path / "model.ckpt"
    af.save_checkpoint(path, "scene", {"model": cfg}, model.params, extra={"seed": 16})
    kind, configs, extra, body = af.load_checkpoint(path)
    assert kind == "scene" and extra == {"seed": 16}
    rebuilt = af.FusionModel(configs["model"], seed=0)
    af.load_params(rebuilt.params, body, path)
    for name in model.params:
        assert rebuilt[name].data.tobytes() == model[name].data.tobytes()
    # a second save of the loaded state reproduces the file byte for byte
    path2 = tmp_path / "again.ckpt"
    af.save_checkpoint(path2, "scene", {"model": cfg}, rebuilt.params, extra={"seed": 16})
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_errors(tmp_path):
    cfg = tiny_cfg()
    model = af.FusionModel(cfg, seed=17)
    path = tmp_path / "model.ckpt"
    af.save_checkpoint(path, "scene", {"model": cfg}, model.params)
    with pytest.raises(BlobIOError):
        af.load_checkpoint(tmp_path / "nope.ckpt")
    data = path.read_bytes()
    # a file cut inside its parameters still has a whole header; the
    # missing bytes show when they are mapped onto the model
    (tmp_path / "cut.ckpt").write_bytes(data[:-16])
    _, configs, _, body = af.load_checkpoint(tmp_path / "cut.ckpt")
    with pytest.raises(BlobIOError) as exc:
        af.load_params(af.FusionModel(configs["model"], seed=0).params, body, "cut.ckpt")
    assert "bytes" in str(exc.value)
    (tmp_path / "junk.ckpt").write_bytes(b"\x00\x01binary\n" + data)
    with pytest.raises(DataError):
        af.load_checkpoint(tmp_path / "junk.ckpt")
    (tmp_path / "old.ckpt").write_bytes(data.replace(b'"version": 5', b'"version": 4', 1))
    with pytest.raises(DataError, match="re-train"):
        af.load_checkpoint(tmp_path / "old.ckpt")


def test_load_params_rejects_mismatches():
    model = af.FusionModel(tiny_cfg(), seed=18)
    body = b"".join(p.data.tobytes() for p in model.params.values())
    with pytest.raises(BlobIOError):  # a body cut inside the parameters
        af.load_params(model.params, body[:-8], "short.ckpt")
    with pytest.raises(DataError):  # bytes to spare after the last parameter
        af.load_params(model.params, body + bytes(8), "long.ckpt")
    af.load_params(model.params, body, "exact.ckpt")


# the (name, shape) order in which the constructors create the parameters
# of gradcheck's tiny models; a checkpoint body follows it
SCENE_LAYOUT = [
    ("align_pe", (2, 8)), ("mod0.proj.w", (3, 8)), ("mod0.proj.b", (8,)), ("mod0.pe", (5, 8)),
    ("embed_ln.g", (2, 1, 8)), ("embed_ln.b", (2, 1, 8)), ("mod0.tokens", (1, 2, 8)),
    ("uni0.attn.qkv.w", (2, 8, 24)), ("uni0.attn.qkv.b", (2, 1, 24)),
    ("uni0.ln1.g", (2, 1, 8)), ("uni0.ln1.b", (2, 1, 8)), ("uni0.ffn.lift.w", (2, 8, 16)),
    ("uni0.ffn.lift.b", (2, 1, 16)), ("uni0.ffn.drop.w", (2, 16, 8)),
    ("uni0.ffn.drop.b", (2, 1, 8)), ("uni0.ln2.g", (2, 1, 8)), ("uni0.ln2.b", (2, 1, 8)),
    ("fus0.attn.qkv.w", (2, 8, 24)), ("fus0.attn.qkv.b", (2, 1, 24)),
    ("fus0.ln1.g", (2, 1, 8)), ("fus0.ln1.b", (2, 1, 8)), ("fus0.ffn.lift.w", (2, 8, 16)),
    ("fus0.ffn.lift.b", (2, 1, 16)), ("fus0.ffn.drop.w", (2, 16, 8)),
    ("fus0.ffn.drop.b", (2, 1, 8)), ("fus0.ln2.g", (2, 1, 8)), ("fus0.ln2.b", (2, 1, 8)),
    ("mod1.proj.w", (2, 8)), ("mod1.proj.b", (8,)), ("mod1.pe", (5, 8)),
    ("mod1.tokens", (1, 2, 8)), ("head.w", (16, 2)), ("head.b", (2,)),
]
ACT_LAYOUT = [
    ("shot.align_pe", (2, 8)), ("shot.mod0.proj.w", (3, 8)), ("shot.mod0.proj.b", (8,)),
    ("shot.mod0.pe", (5, 8)), ("shot.embed_ln.g", (2, 1, 8)), ("shot.embed_ln.b", (2, 1, 8)),
    ("shot.mod0.tokens", (1, 2, 8)), ("shot.uni0.attn.qkv.w", (2, 8, 24)),
    ("shot.uni0.attn.qkv.b", (2, 1, 24)), ("shot.uni0.ln1.g", (2, 1, 8)),
    ("shot.uni0.ln1.b", (2, 1, 8)), ("shot.uni0.ffn.lift.w", (2, 8, 16)),
    ("shot.uni0.ffn.lift.b", (2, 1, 16)), ("shot.uni0.ffn.drop.w", (2, 16, 8)),
    ("shot.uni0.ffn.drop.b", (2, 1, 8)), ("shot.uni0.ln2.g", (2, 1, 8)),
    ("shot.uni0.ln2.b", (2, 1, 8)), ("shot.fus0.attn.qkv.w", (2, 8, 24)),
    ("shot.fus0.attn.qkv.b", (2, 1, 24)), ("shot.fus0.ln1.g", (2, 1, 8)),
    ("shot.fus0.ln1.b", (2, 1, 8)), ("shot.fus0.ffn.lift.w", (2, 8, 16)),
    ("shot.fus0.ffn.lift.b", (2, 1, 16)), ("shot.fus0.ffn.drop.w", (2, 16, 8)),
    ("shot.fus0.ffn.drop.b", (2, 1, 8)), ("shot.fus0.ln2.g", (2, 1, 8)),
    ("shot.fus0.ln2.b", (2, 1, 8)), ("shot.mod1.proj.w", (2, 8)), ("shot.mod1.proj.b", (8,)),
    ("shot.mod1.pe", (5, 8)), ("shot.mod1.tokens", (1, 2, 8)), ("shot.head.w", (16, 5)),
    ("shot.head.b", (5,)), ("synopsis.align_pe", (2, 16)), ("synopsis.mod0.proj.w", (5, 16)),
    ("synopsis.mod0.proj.b", (16,)), ("synopsis.mod0.pe", (3, 16)),
    ("synopsis.embed_ln.g", (1, 1, 16)), ("synopsis.embed_ln.b", (1, 1, 16)),
    ("synopsis.mod0.tokens", (1, 2, 16)), ("synopsis.uni0.attn.qkv.w", (1, 16, 48)),
    ("synopsis.uni0.attn.qkv.b", (1, 1, 48)), ("synopsis.uni0.ln1.g", (1, 1, 16)),
    ("synopsis.uni0.ln1.b", (1, 1, 16)), ("synopsis.uni0.ffn.lift.w", (1, 16, 16)),
    ("synopsis.uni0.ffn.lift.b", (1, 1, 16)), ("synopsis.uni0.ffn.drop.w", (1, 16, 16)),
    ("synopsis.uni0.ffn.drop.b", (1, 1, 16)), ("synopsis.uni0.ln2.g", (1, 1, 16)),
    ("synopsis.uni0.ln2.b", (1, 1, 16)), ("synopsis.head.w", (16, 5)),
    ("synopsis.head.b", (5,)), ("sync.proj.w", (16, 6)), ("sync.proj.b", (6,)),
    ("sync.log_tau", ()),
]


def test_parameter_layout_is_pinned():
    scene_params, _ = gradcheck._tiny_scene_setup(0)
    pipeline, _ = gradcheck._tiny_act_setup(0)
    for params, layout in ((scene_params, SCENE_LAYOUT), (pipeline.named_params(), ACT_LAYOUT)):
        got = [(name, p.data.shape) for name, p in params.items()]
        assert got == layout, (
            "the parameter layout changed; checkpoints store parameters in this "
            "order, so bump alignfuse.CHECKPOINT_VERSION and update the layout here"
        )


# ---- the stacked towers against per-modality ops ----


def _unstacked(model) -> dict:
    """Fresh leaf copies of the parameters under the per-modality names
    that each tower had before the towers were stacked: mod{m}.<name> for
    slice m of a stacked one."""
    cfg = model.config
    params = {}
    for name, p in model.params.items():
        if name.startswith(("mod", "align_pe", "head.")):
            params[name] = nc.Tensor(p.data.copy(), requires_grad=True)
        else:
            for m in range(cfg.num_modalities):  # [1 x N] rows of a vector stack as [N]
                part = p.data[m].reshape(-1) if name.endswith((".g", ".b")) else p.data[m]
                params[f"mod{m}.{name}"] = nc.Tensor(part.copy(), requires_grad=True)
    return params


def _per_modality_encode(cfg, params, feats_list):
    """The encoder as one op sequence per modality: each tower embeds,
    normalizes and encodes on its own, and fusion concatenates the token
    sets for every tower and averages their updates with adds and a mul."""
    n, ln = cfg.num_modalities, cfg.align_len

    def linear(prefix, x):
        return nc.linear(x, params[prefix + ".w"], params[prefix + ".b"])

    def block(prefix, x):
        x = nc.add(x, nc.attention(linear(prefix + "attn.qkv", x)))
        x = nc.layernorm(x, params[prefix + "ln1.g"], params[prefix + "ln1.b"])
        h = linear(prefix + "ffn.drop", nc.gelu(linear(prefix + "ffn.lift", x)))
        return nc.layernorm(nc.add(x, h), params[prefix + "ln2.g"], params[prefix + "ln2.b"])

    token_sets, latents = [], []
    for m, feats in enumerate(feats_list):
        p, length = f"mod{m}.", feats.shape[1]
        x = nc.add(linear(p + "proj", feats), nc.narrow(params[p + "pe"], -2, 0, length))
        x = nc.add(x, nc.gather_rows(params["align_pe"], af.align_buckets(length, ln)))
        x = nc.layernorm(x, params[p + "embed_ln.g"], params[p + "embed_ln.b"])
        # [1 x A x C] tokens, broadcast over the batch by concat
        seq = nc.concat([nc.add(params[p + "tokens"], params["align_pe"]), x], -2)
        for d in range(cfg.unimodal_depth):
            seq = block(f"{p}uni{d}.", seq)
        token_sets.append(nc.narrow(seq, -2, 0, ln))
        latents.append(nc.narrow(seq, -2, ln, seq.shape[-2]))
    for d in range(cfg.fusion_depth):
        updates = [[] for _ in range(n)]
        # the towers run last to first, so each token set's gradient sums
        # its per-tower terms first to last, as concat's broadcast does
        outs = [block(f"mod{m}.fus{d}.", nc.concat(token_sets + [latents[m]], -2))
                for m in reversed(range(n))][::-1]
        for out in outs:
            for j in range(n):
                updates[j].append(nc.narrow(out, -2, j * ln, (j + 1) * ln))
        latents = [nc.narrow(out, -2, n * ln, out.shape[-2]) for out in outs]
        token_sets = []
        for parts in updates:
            total = parts[0]
            for u in parts[1:]:
                total = nc.add(total, u)
            token_sets.append(nc.mul(total, 1.0 / n))
    return latents[0] if n == 1 else nc.concat(latents, -1)


def _per_modality_logits(cfg, params, feats_list):
    fused = _per_modality_encode(cfg, params, feats_list)
    batch, length, width = fused.shape
    if cfg.num_classes == 2:
        rows = nc.reshape(nc.narrow(fused, -2, length // 2, length // 2 + 1), (batch, width))
    else:
        rows = nc.reshape(fused, (length, width))
    return nc.linear(rows, params["head.w"], params["head.b"])


@pytest.mark.parametrize("fusion_depth", [1, 2])
@pytest.mark.parametrize("task", ["scene", "act"])
@pytest.mark.parametrize("dims", [(6,), (3, 4), (3, 4, 5)], ids=["M1", "M2", "M3"])
def test_stacked_towers_keep_the_per_modality_bits(dims, task, fusion_depth):
    scene = task == "scene"
    cfg = tiny_cfg(modality_dims=dims, fusion_depth=fusion_depth,
                   num_classes=2 if scene else 5)
    model = af.FusionModel(cfg, seed=23)
    rng = np.random.default_rng(23)
    for p in model.params.values():  # no zero biases or unit gains to hide a slip
        p.data += rng.normal(0.0, 0.1, size=p.shape)
    params = _unstacked(model)
    feats = [rng.normal(size=(3 if scene else 1, 5, d)) for d in dims]
    weights = rng.normal(size=(3, 2) if scene else (5, 5))
    results = []
    stacked = (lambda: af.forward_scene(model, feats)) if scene else (
        lambda: af.forward_act(model, [f[0] for f in feats]))
    for forward in (stacked, lambda: _per_modality_logits(cfg, params, feats)):
        with nc.Tape() as tape:
            logits = forward()
            loss = weighted_sum(logits, weights)
        nc.backward(tape, loss)
        results.append(logits.data)
    assert results[0].tobytes() == results[1].tobytes()
    for name, p in model.params.items():
        if name.startswith(("mod", "align_pe", "head.")):
            want = params[name].grad.reshape(p.shape)
        else:
            want = np.stack([params[f"mod{m}.{name}"].grad for m in range(len(dims))])
            want = want.reshape(p.shape)
        assert p.grad.tobytes() == want.tobytes(), name


def test_stacked_towers_record_one_block_per_depth():
    cfg = tiny_cfg(modality_dims=(3, 4, 5), fusion_depth=2)
    model = af.FusionModel(cfg, seed=24)
    feats = rand_inputs(np.random.default_rng(24), cfg)
    with nc.Tape() as tape:
        af.forward_scene(model, feats)
    names = [node.name for node in tape.nodes]
    # one attention per unimodal and fusion depth, whatever M is, and no
    # token update after the last fusion block
    assert names.count("attention") == cfg.unimodal_depth + cfg.fusion_depth
    assert names.count("mean") == cfg.fusion_depth - 1
    assert "mul" not in names


# the node kinds of one desk scene training step
SCENE_STEP_NODES = {
    "linear": 9, "add": 10, "narrow": 6, "layernorm": 5, "concat": 4, "reshape": 3,
    "gather_rows": 2, "attention": 2, "gelu": 2, "merge_channels": 1, "cross_entropy": 1,
}
# and of one act step on one movie: two towers, the sync head, and one
# node per loss, with the distillation targets detached
ACT_STEP_NODES = {
    "add": 13, "linear": 12, "narrow": 6, "layernorm": 6, "reshape": 4, "cross_entropy": 3,
    "mul": 3, "gather_rows": 2, "concat": 2, "attention": 2, "gelu": 2, "merge_channels": 2,
    "normalize_rows": 2, "exp": 1, "softmax": 1, "kl_div": 1, "scaled_scores": 1,
}


def test_one_training_step_records_the_pinned_tape():
    # the desk scene step, and an act step with the depth-1 towers the act
    # benchmark trains; a node more is graph growth, to justify here
    scene, (shot, synopsis, sync_dim) = _model_configs(
        CONFIGS / "scene_desk.cfg", CONFIGS / "act_desk.cfg",
        ["shot.unimodal_depth=1", "synopsis.unimodal_depth=1"],
    )
    rng = np.random.default_rng(25)
    model = af.FusionModel(scene, seed=25)
    feats = [rng.normal(size=(8, scene.seq_len, d)) for d in scene.modality_dims]
    with nc.Tape() as tape:
        trainer.weighted_scene_ce(af.forward_scene(model, feats), np.arange(8) % 2)
    assert Counter(node.name for node in tape.nodes) == SCENE_STEP_NODES
    assert len(model.params) == 33

    pipeline = trainer.build_act_pipeline(shot, synopsis, sync_dim, 25)
    shots, sentences = 30, 6
    w = np.zeros((shots, sentences))
    w[np.arange(shots), np.arange(shots) * sentences // shots] = 1.0
    item = ([rng.normal(size=(shots, d)) for d in shot.modality_dims],
            rng.normal(size=(sentences, synopsis.modality_dims[0])), w,
            sync.band_mask(shots, sentences, 0.1), [[n] for n in range(NUM_TURNING_POINTS)])
    with nc.Tape() as tape:
        trainer.act_objective(pipeline, [item], (1.0, 1.0, 10.0))
    assert Counter(node.name for node in tape.nodes) == ACT_STEP_NODES
    assert len(pipeline.named_params()) == 41


# ---- the parameter budget ----


def _model_configs(scene_cfg=None, act_cfg=None, act_sets=()):
    """The scene model config and the act (shot, synopsis, sync_dim) that
    the CLI builds from SCENE_KEYS and ACT_KEYS under the given config
    files and act --set items, with the modality dims of the shipped
    synth configs."""
    def dims(name):
        modalities = cli.resolve_config(cli.SYNTH_KEYS, CONFIGS / name, [])["modalities"]
        return tuple(d for _, d in modalities)

    scene = cli.resolve_config(cli.SCENE_KEYS, scene_cfg, [])
    act = cli.resolve_config(cli.ACT_KEYS, act_cfg, list(act_sets))
    shot = af.ModelConfig(**cli._section(act, "shot"), num_classes=NUM_TURNING_POINTS,
                          modality_dims=dims("synth_act.cfg"))
    synopsis = af.ModelConfig(**cli._section(act, "synopsis"), width=shot.fused_width,
                              num_classes=NUM_TURNING_POINTS,
                              modality_dims=(sum(shot.modality_dims),))
    model = af.ModelConfig(**cli._section(scene, "model"), num_classes=2,
                           modality_dims=dims("synth_scene.cfg"))
    return model, (shot, synopsis, act["train.sync_dim"])


def _pipeline_size(pipeline) -> int:
    return sum(p.data.size for p in pipeline.named_params().values())


@pytest.mark.parametrize("source", ["desk configs", "gradcheck"])
def test_param_count_is_what_the_constructors_allocate(source):
    if source == "gradcheck":
        pipeline, _ = gradcheck._tiny_act_setup(0)
        configs = [pipeline.shot_model.config, pipeline.synopsis_model.config, tiny_cfg()]
    else:
        scene, act = _model_configs(CONFIGS / "scene_desk.cfg", CONFIGS / "act_desk.cfg")
        configs = [scene, act[0], act[1]]
    for cfg in configs:
        model = af.FusionModel(cfg, seed=0)
        assert cfg.num_params == sum(p.data.size for p in model.params.values())


def test_default_settings_fit_the_budget():
    # the paper-scale defaults, counted and not allocated
    scene, (shot, synopsis, _) = _model_configs()
    for cfg in (scene, shot, synopsis):
        cfg.validate()
    assert scene.num_params > 10**7


def test_param_budget_is_inclusive(monkeypatch):
    cfg = tiny_cfg()
    monkeypatch.setattr(af, "MAX_MODEL_PARAMS", cfg.num_params)
    af.FusionModel(cfg, seed=0)
    monkeypatch.setattr(af, "MAX_MODEL_PARAMS", cfg.num_params - 1)
    with pytest.raises(ConfigError, match="the model {'seq_len': 5, 'align_len': 2, 'width': 8"):
        af.FusionModel(cfg, seed=0)


def test_act_pipeline_budget_counts_the_sync_head(monkeypatch):
    _, (shot, synopsis, sync_dim) = _model_configs(
        CONFIGS / "scene_desk.cfg", CONFIGS / "act_desk.cfg"
    )
    total = _pipeline_size(trainer.build_act_pipeline(shot, synopsis, sync_dim, 0))
    monkeypatch.setattr(af, "MAX_MODEL_PARAMS", total)
    assert _pipeline_size(trainer.build_act_pipeline(shot, synopsis, sync_dim, 0)) == total
    # each tower fits, the pipeline does not
    monkeypatch.setattr(af, "MAX_MODEL_PARAMS", total - 1)
    with pytest.raises(ConfigError, match=f"act pipeline with its sync_dim {sync_dim} head"):
        trainer.build_act_pipeline(shot, synopsis, sync_dim, 0)
