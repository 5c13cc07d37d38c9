import math
import os
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import cineseg.numcore as nc
from cineseg.errors import ContractError, NumericError, ShapeError
from helpers import weighted_sum


def matmul_oracle(a, b):
    # independent triple-loop product
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


def fd_check(make_loss, params, h=1e-5, tol=1e-4):
    """Compare taped gradients of make_loss() against central differences."""
    nc.zero_grads(params.values())
    with nc.Tape() as tape:
        loss = make_loss()
    nc.backward(tape, loss)
    for name, p in params.items():
        auto = p.grad if p.grad is not None else np.zeros_like(p.data)
        fd = nc.fd_gradient(lambda: float(make_loss().data), p, h=h)
        err = nc.max_rel_error(auto, fd)
        assert err < tol, f"{name}: max rel error {err:.3e}"


def leaf(rng, *shape):
    return nc.Tensor(rng.uniform(-2.0, 2.0, size=shape), requires_grad=True)


# ---- frozen forward values ----


def test_softmax_frozen_pair():
    out = nc.softmax(nc.Tensor([1.0, 2.0]), axis=0)
    npt.assert_allclose(out.data, [0.2689414213699951, 0.7310585786300049], rtol=0, atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(7, 11)) * 10
    out = nc.softmax(nc.Tensor(x), axis=1)
    npt.assert_allclose(out.data.sum(axis=1), np.ones(7), rtol=0, atol=1e-12)


def test_layernorm_frozen_pair():
    out = nc.layernorm(nc.Tensor([1.0, 3.0]), nc.Tensor([1.0, 1.0]), nc.Tensor([0.0, 0.0]))
    expected = 1.0 / np.sqrt(1.0 + 1e-5)
    npt.assert_allclose(out.data, [-expected, expected], rtol=0, atol=1e-15)
    npt.assert_allclose(out.data, [-1.0, 1.0], atol=1e-5)


def test_gelu_frozen_values():
    out = nc.gelu(nc.Tensor([-1.0, 0.0, 1.0]))
    npt.assert_allclose(
        out.data, [-0.15865525393145707, 0.0, 0.8413447460685429], rtol=0, atol=1e-15
    )


def test_erf_is_scipys_own_ufunc():
    import scipy.special

    assert nc._erf() is scipy.special.erf


ERF_IMPORT_ORDER_SCRIPT = """
import sys
import numpy as np
import cineseg.numcore as nc
if sys.argv[1] == "scipy-first":
    import scipy.special
    own = sys.modules["scipy.special._special_ufuncs"]
nc.gelu(np.ones(3))
import scipy.special
assert nc._erf() is scipy.special.erf
assert scipy.special._special_ufuncs is sys.modules["scipy.special._special_ufuncs"]
if sys.argv[1] == "scipy-first":
    assert scipy.special._special_ufuncs is own, "gelu replaced SciPy's own module"
"""


@pytest.mark.parametrize("order", ["gelu-first", "scipy-first"])
def test_erf_leaves_scipy_special_whole_in_either_import_order(order):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nc.__file__)))
    done = subprocess.run([sys.executable, "-c", ERF_IMPORT_ORDER_SCRIPT, order],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("module", ["_no_such_module", "_gufuncs"], ids=["missing file", "no erf in it"])
def test_erf_falls_back_to_the_scipy_special_import(monkeypatch, module):
    x = np.linspace(-8.0, 8.0, 4001)
    expected = nc.gelu(nc.Tensor(x)).data
    monkeypatch.setattr(nc, "_ERF_MODULE", module)
    nc._erf.cache_clear()
    try:
        import scipy.special

        assert nc._erf() is scipy.special.erf
        assert nc.gelu(nc.Tensor(x)).data.tobytes() == expected.tobytes()
    finally:
        nc._erf.cache_clear()


def _product(a, b):
    """a @ b by the one product op, linear with a zero bias."""
    return nc.linear(a, b, np.zeros(b.shape[-1]))


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = rng.uniform(-2, 2, size=(4, 6))
        b = rng.uniform(-2, 2, size=(6, 3))
        got = _product(a, b).data
        npt.assert_allclose(got, matmul_oracle(a, b), rtol=1e-13, atol=1e-13)


def test_matmul_associativity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = nc.Tensor(rng.uniform(-1, 1, size=(5, 4)))
        b = nc.Tensor(rng.uniform(-1, 1, size=(4, 6)))
        c = nc.Tensor(rng.uniform(-1, 1, size=(6, 3)))
        left = _product(_product(a, b), c).data
        right = _product(a, _product(b, c)).data
        npt.assert_allclose(left, right, rtol=0, atol=1e-9)


def test_batched_matmul_matches_per_item():
    # a batch of inputs through one shared weight
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, size=(4, 3, 5))
    w = rng.uniform(-1, 1, size=(5, 2))
    bias = rng.uniform(-1, 1, size=2)
    shared = nc.linear(nc.Tensor(a), nc.Tensor(w), nc.Tensor(bias)).data
    for i in range(4):
        npt.assert_allclose(shared[i], a[i] @ w + bias, atol=1e-13)


def test_normalize_rows_unit_norm():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(9, 5)) * 3
    out = nc.normalize_rows(nc.Tensor(x)).data
    npt.assert_allclose(np.linalg.norm(out, axis=1), np.ones(9), atol=1e-9)


# ---- gradients against central differences ----


def test_grad_elementwise_and_broadcast():
    rng = np.random.default_rng(10)
    a = leaf(rng, 4, 5)
    b = leaf(rng, 4, 5)
    row = leaf(rng, 5)
    scalar = nc.Tensor(np.asarray(1.7), requires_grad=True)
    r1 = rng.uniform(-1, 1, size=(4, 5))

    fd_check(lambda: weighted_sum(nc.add(a, b), r1), {"a": a, "b": b})
    fd_check(lambda: weighted_sum(nc.mul(a, b), r1), {"a": a, "b": b})
    fd_check(lambda: weighted_sum(nc.add(a, row), r1), {"a": a, "row": row})
    fd_check(lambda: weighted_sum(nc.mul(a, scalar), r1), {"a": a, "s": scalar})


def test_grad_matmul_all_ranks():
    rng = np.random.default_rng(12)
    a = leaf(rng, 4, 6)
    b = leaf(rng, 6, 3)
    r = rng.uniform(-1, 1, size=(4, 3))
    fd_check(lambda: weighted_sum(_product(a, b), r), {"a": a, "b": b})

    a3 = leaf(rng, 2, 3, 4)
    r3 = rng.uniform(-1, 1, size=(2, 3, 5))
    w = leaf(rng, 4, 5)
    bias = leaf(rng, 5)
    fd_check(
        lambda: weighted_sum(nc.linear(a3, w, bias), r3),
        {"a": a3, "w": w, "bias": bias},
    )


def _linear_case(rng, x_shape):
    x = leaf(rng, *x_shape)
    w = leaf(rng, x_shape[-1], 3)
    b = leaf(rng, 3)
    r = rng.uniform(-1, 1, size=x_shape[:-1] + (3,))
    return x, w, b, r


def _matmul_back(g, inputs, out, saved):
    a, b = inputs
    if a.requires_grad:
        a.accumulate(g @ np.swapaxes(b.data, -1, -2))
    if b.requires_grad:
        b.accumulate(np.swapaxes(a.data, -1, -2) @ g)


def _matmul(a, b):
    """The matrix product node, as a reference for linear and in the
    chains that attention and scaled_scores replaced: 2-D x 2-D or
    batched."""
    a, b = nc._as_tensor(a), nc._as_tensor(b)
    return nc._emit("matmul", _matmul_back, (a, b), a.data @ b.data)


def _shared_matmul_back(g, inputs, out, saved):
    a, w = inputs
    if a.requires_grad:
        a.accumulate(g @ w.data.T)
    if w.requires_grad:
        w.accumulate(np.tensordot(a.data, g, axes=([0, 1], [0, 1])))


def _shared_matmul(a, w):
    """The 3-D x shared 2-D matmul node linear replaced, as a reference."""
    return nc._emit("matmul", _shared_matmul_back, (a, w), a.data @ w.data)


@pytest.mark.parametrize("x_shape", [(4, 5), (2, 4, 5)])
def test_linear_is_bit_identical_to_matmul_plus_add(x_shape):
    rng = np.random.default_rng(14)
    x, w, b, r = _linear_case(rng, x_shape)
    matmul = _matmul if len(x_shape) == 2 else _shared_matmul
    results = []
    for make in (lambda: nc.linear(x, w, b), lambda: nc.add(matmul(x, w), b)):
        nc.zero_grads((x, w, b))
        with nc.Tape() as tape:
            out = make()
            loss = weighted_sum(out, r)
        nc.backward(tape, loss)
        results.append((out.data, x.grad, w.grad, b.grad))
    for fused, composite in zip(*results):
        assert np.array_equal(fused, composite)


def test_zero_bias_linear_is_bit_identical_to_matmul():
    # distill.transfer_targets takes its product this way
    rng = np.random.default_rng(17)
    a, b = leaf(rng, 6, 4), leaf(rng, 4, 5)
    r = rng.uniform(-1, 1, size=(6, 5))
    results = []
    for make in (lambda: _product(a, b), lambda: _matmul(a, b)):
        nc.zero_grads((a, b))
        with nc.Tape() as tape:
            out = make()
            loss = weighted_sum(out, r)
        nc.backward(tape, loss)
        results.append((out.data, a.grad, b.grad))
    for fused, reference in zip(*results):
        assert fused.tobytes() == reference.tobytes()


@pytest.mark.parametrize(
    "x_shape, n", [((1, 324, 16), 16), ((1, 5, 3), 7), ((3, 4, 5), 2), ((2, 1, 6), 1)],
    ids=["1x324x16-16", "1x5x3-7", "3x4x5-2", "2x1x6-1"],
)
def test_linear_3d_weight_gradient_is_tensordots(x_shape, n):
    rng = np.random.default_rng(16)
    x = nc.Tensor(rng.normal(size=x_shape))
    w = leaf(rng, x_shape[-1], n)
    b = nc.Tensor(rng.normal(size=n))
    g = rng.normal(size=x_shape[:-1] + (n,))
    with nc.Tape() as tape:
        loss = weighted_sum(nc.linear(x, w, b), g)
    nc.backward(tape, loss)
    expected = np.tensordot(x.data, g, axes=([0, 1], [0, 1]))
    assert w.grad.tobytes() == expected.tobytes()
    assert w.grad.strides == expected.strides


def test_grad_linear_matches_finite_differences():
    # the 3-D case is in test_grad_matmul_all_ranks
    rng = np.random.default_rng(15)
    x, w, b, r = _linear_case(rng, (4, 5))
    fd_check(lambda: weighted_sum(nc.linear(x, w, b), r), {"x": x, "w": w, "b": b})


def test_linear_shape_errors():
    x = nc.Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        nc.linear(x, nc.Tensor(np.zeros((4, 5))), nc.Tensor(np.zeros(5)))
    with pytest.raises(ShapeError):
        nc.linear(x, nc.Tensor(np.zeros((3, 5))), nc.Tensor(np.zeros(4)))
    with pytest.raises(ShapeError):
        nc.linear(nc.Tensor(np.zeros(3)), nc.Tensor(np.zeros((3, 5))), nc.Tensor(np.zeros(5)))
    with pytest.raises(ShapeError):
        nc.linear(x, nc.Tensor(np.zeros((2, 3, 5))), nc.Tensor(np.zeros(5)))


# ---- nodes of the chains that fused ops replaced, as references ----


def _transpose_back(g, inputs, out, saved):
    inputs[0].accumulate(np.swapaxes(g, -1, -2))


def _transpose(a):
    return nc._emit("transpose", _transpose_back, (a,), np.swapaxes(a.data, -1, -2).copy())


def _div_back(g, inputs, out, saved):
    a, b = inputs
    if a.requires_grad:
        a.accumulate(nc._reduce_to(g / b.data, a.shape))
    if b.requires_grad:
        b.accumulate(nc._reduce_to(-g * a.data / (b.data * b.data), b.shape))


def _div(a, b):
    a, b = nc._as_tensor(a), nc._as_tensor(b)
    return nc._emit("div", _div_back, (a, b), a.data / b.data)


def _sub_back(g, inputs, out, saved):
    a, b = inputs
    if a.requires_grad:
        a.accumulate(nc._reduce_to(g, a.shape))
    if b.requires_grad:
        b.accumulate(nc._reduce_to(-g, b.shape))


def _clamp_min_back(g, inputs, out, floor):
    inputs[0].accumulate(g * (inputs[0].data > floor))


def _log_back(g, inputs, out, saved):
    inputs[0].accumulate(g / inputs[0].data)


def _sum_back(g, inputs, out, saved):
    inputs[0].accumulate(np.broadcast_to(g, inputs[0].shape).copy())


def _floored_log(a, floor):
    a = nc._as_tensor(a)
    floored = nc._emit("clamp_min", _clamp_min_back, (a,), np.maximum(a.data, floor), floor)
    return nc._emit("log", _log_back, (floored,), np.log(floored.data))


def _kl_chain(o, p, floor):
    """The clamp_min / log / sub / mul / sum chain that kl_div replaced."""
    log_o, log_p = _floored_log(o, floor), _floored_log(p, floor)
    diff = nc._emit("sub", _sub_back, (log_o, log_p), log_o.data - log_p.data)
    terms = nc.mul(o, diff)
    return nc._emit("sum", _sum_back, (terms,), np.asarray(terms.data.sum()))


def _scores_chain(u, v, tau, offset=None):
    """The transpose / matmul / div / add chain that scaled_scores replaced."""
    scores = _div(_matmul(u, _transpose(v)), tau)
    return scores if offset is None else nc.add(scores, offset)


def _same_bits(a, b):
    # the layout too: BLAS may round differently over other strides
    return (a.tobytes(), a.strides) == (b.tobytes(), b.strides)


# ---- fused attention ----


def _attention_chain(qkv):
    """The narrow / transpose / matmul / mul / softmax / matmul chain
    that attention replaced, as a reference."""
    width = qkv.shape[-1] // 3
    q, k, v = (nc.narrow(qkv, -1, lo, lo + width) for lo in range(0, 3 * width, width))
    scores = nc.mul(_matmul(q, _transpose(k)), 1.0 / math.sqrt(width))
    return _matmul(nc.softmax(scores, axis=-1), v)


def _attention_case(rng, lead=(2,), length=7, width=6, qk_scale=1.0):
    """q, k and v side by side behind the leading axes lead, q and k
    scaled by qk_scale, and a weight per output entry."""
    qkv = leaf(rng, *lead, length, 3 * width)
    qkv.data[..., :2 * width] *= qk_scale
    return qkv, rng.uniform(-1, 1, size=(*lead, length, width))


def _attention_loss(qkv, r):
    return weighted_sum(nc.attention(qkv), r)


# (lead, qk_scale): one leading axis, as a [B x L x 3C] input, or two, as
# the towers' [B x M x L x 3C] stack; q and k at 1x keep every scaled
# score within attention's unshifted gate; at 20x the scores reach about
# 1e3, where an unshifted exp overflows
_ATTENTION_CASES = pytest.mark.parametrize(
    "lead, qk_scale", [((2,), 1.0), ((2, 2), 1.0), ((2,), 20.0), ((2, 2), 20.0)],
    ids=["1", "2", "1-shifted", "2-shifted"])


@pytest.mark.filterwarnings("error")
@_ATTENTION_CASES
def test_attention_matches_the_chain(lead, qk_scale):
    rng = np.random.default_rng(40)
    qkv, r = _attention_case(rng, lead=lead, qk_scale=qk_scale)
    width = r.shape[-1]
    q, k = qkv.data[..., :width], qkv.data[..., width:2 * width]
    scale = 1.0 / math.sqrt(width)
    # attention's Cauchy-Schwarz bound
    bound = np.linalg.norm(q, axis=-1).max() * np.linalg.norm(k, axis=-1).max() * scale
    scores = q @ np.swapaxes(k, -1, -2) * scale
    if qk_scale == 1.0:
        assert bound <= nc._UNSHIFTED_MAX
    else:
        assert bound > nc._UNSHIFTED_MAX and np.abs(scores).max() > 710  # exp overflows
    results = []
    for op in (nc.attention, _attention_chain):
        nc.zero_grads((qkv,))
        with nc.Tape() as tape:
            out = op(qkv)
            loss = weighted_sum(out, r)
        nc.backward(tape, loss)
        results.append((out.data, qkv.grad))
    # the same values up to rounding: q is scaled before the product, the
    # row max shift runs only past the bound, and the row sums divide the
    # output, not the weights
    for fused, chain in zip(*results):
        assert np.abs(fused - chain).max() <= 1e-12 * np.abs(chain).max()


@_ATTENTION_CASES
def test_grad_attention_matches_finite_differences(lead, qk_scale):
    rng = np.random.default_rng(41)
    qkv, r = _attention_case(rng, lead=lead, length=4, width=4, qk_scale=qk_scale)
    fd_check(lambda: _attention_loss(qkv, r), {"qkv": qkv})


def test_attention_backward_twice_doubles_the_gradients():
    rng = np.random.default_rng(42)
    qkv, r = _attention_case(rng)
    with nc.Tape() as tape:
        loss = _attention_loss(qkv, r)
    nc.backward(tape, loss)
    first = qkv.grad.copy()
    # an unrecorded call of another shape in between reuses the workspaces
    nc.attention(rng.normal(size=(1, 9, 18)))
    nc.zero_grads(node.output for node in tape.nodes)  # keep the input's grad
    nc.backward(tape, loss)
    assert np.array_equal(qkv.grad, 2.0 * first)


def _shares_a_workspace(a):
    return any(np.shares_memory(a, buf) for buf in nc._WORKSPACES.values())


def test_attention_results_never_alias_a_workspace():
    rng = np.random.default_rng(43)
    qkv, _ = _attention_case(rng)
    first = nc.attention(qkv.data).data
    kept = first.copy()
    second = nc.attention(qkv.data[..., ::-1]).data
    assert first.tobytes() == kept.tobytes()
    assert not np.shares_memory(first, second)
    with nc.Tape() as tape:
        recorded = nc.attention(qkv)
    (node,) = tape.nodes
    _, *saved = node.saved
    assert nc._WORKSPACES  # the unrecorded calls used them
    for a in [first, second, recorded.data] + saved:
        assert not _shares_a_workspace(a)


@pytest.mark.filterwarnings("error")
def test_attention_overflowing_norm_takes_the_shifted_arm_quietly():
    rng = np.random.default_rng(49)
    qkv, _ = _attention_case(rng)
    width = qkv.shape[-1] // 3
    # |q|^2 overflows and |k|^2 is subnormal, but every score is about 1
    qkv.data[..., :width] *= 1e160
    qkv.data[..., width:2 * width] *= 1e-160
    fused = nc.attention(qkv.data).data
    chain = _attention_chain(qkv).data
    assert np.abs(fused - chain).max() <= 1e-12 * np.abs(chain).max()


def test_attention_non_finite_scores_raise():
    rng = np.random.default_rng(44)
    qkv, r = _attention_case(rng)
    width = r.shape[-1]
    # huge q and k, finite v
    huge = nc.Tensor(np.where(np.arange(3 * width) < 2 * width, 1e200, qkv.data),
                     requires_grad=True)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="'attention'"):
            nc.attention(huge.data)
        with nc.Tape():
            with pytest.raises(NumericError, match="'attention'"):
                nc.attention(huge)
        nan_v = np.where(np.arange(3 * width) == 2 * width, np.nan, qkv.data)
        with pytest.raises(NumericError, match="'attention'"):
            nc.attention(nan_v)
        # inside finite differences only the returned loss is checked
        with pytest.raises(NumericError, match="finite-difference loss"):
            nc.fd_gradient(lambda: float(_attention_loss(huge, r).data),
                           huge.data[0, 0, 2 * width:])


def test_attention_shape_errors():
    x = np.zeros((2, 3, 6))
    with pytest.raises(ShapeError):
        nc.attention(x[0])  # not 3-D
    with pytest.raises(ShapeError):
        nc.attention(x[..., :5])  # not 3C columns


def test_attention_allocates_less_than_one_score_matrix():
    # numpy reports its buffers to tracemalloc; L x L float64 scores at
    # the act model's 312 positions are 780 KB
    length = 312
    limit = length * length * 8
    rng = np.random.default_rng(45)
    qkv, r = _attention_case(rng, lead=(1,), length=length, width=16)

    def recorded():
        with nc.Tape() as tape:
            loss = _attention_loss(qkv, r)
        return tape, loss

    nc.backward(*recorded())
    nc.attention(qkv.data)  # warm-up: the workspaces grow
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        nc.attention(qkv.data)
        unrecorded_peak = tracemalloc.get_traced_memory()[1]
        tape, loss = recorded()
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        nc.backward(tape, loss)
        backward_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert unrecorded_peak < limit
    assert backward_peak < limit


@pytest.mark.parametrize("batch", [1, 2])
def test_recorded_attention_keeps_one_score_matrix_per_sequence(batch):
    length = 312
    limit = length * length * 8
    rng = np.random.default_rng(45)
    qkv, _ = _attention_case(rng, lead=(batch,), length=length, width=16)
    nc.attention(qkv.data)  # warm-up: the workspaces grow
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with nc.Tape() as tape:
            nc.attention(qkv)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    # the unnormalized weights of each sequence; the rest saved is [L x C]
    assert held // limit == batch
    assert len(tape) == 1


# ---- the act losses' fused ops ----


@pytest.mark.parametrize("taped_target", [False, True], ids=["constant target", "taped target"])
def test_kl_div_is_bit_identical_to_the_chain(taped_target):
    rng = np.random.default_rng(46)
    o = nc.Tensor(rng.uniform(0.0, 1.0, size=(6, 5)), requires_grad=True)
    p = nc.Tensor(rng.uniform(0.0, 1.0, size=(6, 5)), requires_grad=taped_target)
    # zeros, entries below the floor and at it, in one or both
    o.data[0, :3] = [0.0, 1e-13, 1e-12]
    p.data[1, 2:] = [0.0, 1e-14, 1e-12]
    o.data[2, 0] = p.data[2, 0] = 1e-15
    results = []
    for op in (nc.kl_div, _kl_chain):
        nc.zero_grads((o, p))
        with nc.Tape() as tape:
            out = op(o, p, 1e-12)
            loss = nc.mul(out, 0.7)
        nc.backward(tape, loss)
        results.append([out.data, o.grad] + ([p.grad] if taped_target else []))
    for fused, chain in zip(*results):
        assert _same_bits(fused, chain)


def test_grad_kl_div_matches_finite_differences():
    rng = np.random.default_rng(47)
    o = nc.Tensor(rng.uniform(0.1, 1.0, size=(5, 4)), requires_grad=True)
    p = nc.Tensor(rng.uniform(0.1, 1.0, size=(5, 4)), requires_grad=True)
    # below the floor by more than the finite-difference step
    o.data[0, 0] = p.data[1, 1] = p.data[2, 3] = 0.01
    fd_check(lambda: nc.kl_div(o, p, 0.05), {"o": o, "p": p})
    with nc.Tape() as tape:
        nc.kl_div(o, p, 0.05)
    assert [node.name for node in tape.nodes] == ["kl_div"]


@pytest.mark.parametrize("with_offset", [False, True], ids=["no offset", "offset"])
@pytest.mark.parametrize("learned", [False, True], ids=["float tau", "Tensor tau"])
def test_scaled_scores_is_bit_identical_to_the_chain(learned, with_offset):
    rng = np.random.default_rng(48)
    # at these shapes BLAS rounds u @ v.T differently from u @ v.T.copy()
    u, v = leaf(rng, 16, 20), leaf(rng, 28, 20)
    log_tau = nc.Tensor(np.log(0.07), requires_grad=True)
    offset = np.where(rng.random((16, 28)) < 0.3, -1e9, 0.0) if with_offset else None
    r = rng.uniform(-1, 1, size=(16, 28))
    results = []
    for op in (nc.scaled_scores, _scores_chain):
        nc.zero_grads((u, v, log_tau))
        with nc.Tape() as tape:
            out = op(u, v, nc.exp(log_tau) if learned else 0.07, offset)
            loss = weighted_sum(out, r)
        nc.backward(tape, loss)
        results.append([out.data, u.grad, v.grad] + ([log_tau.grad] if learned else []))
    for fused, chain in zip(*results):
        assert _same_bits(fused, chain)


@pytest.mark.parametrize("with_offset", [False, True], ids=["no offset", "offset"])
def test_grad_scaled_scores_matches_finite_differences(with_offset):
    rng = np.random.default_rng(49)
    u, v = leaf(rng, 4, 3), leaf(rng, 5, 3)
    log_tau = nc.Tensor(np.log(0.5), requires_grad=True)
    offset = rng.uniform(-1, 1, size=(4, 5)) if with_offset else None
    r = rng.uniform(-1, 1, size=(4, 5))
    fd_check(lambda: weighted_sum(nc.scaled_scores(u, v, nc.exp(log_tau), offset), r),
             {"u": u, "v": v, "log_tau": log_tau})
    fd_check(lambda: weighted_sum(nc.scaled_scores(u, v, 0.5, offset), r), {"u": u, "v": v})


def test_grad_shape_ops():
    rng = np.random.default_rng(13)
    a = leaf(rng, 3, 4, 5)
    r_r = rng.uniform(-1, 1, size=(12, 5))
    fd_check(lambda: weighted_sum(nc.reshape(a, (12, 5)), r_r), {"a": a})

    r_n = rng.uniform(-1, 1, size=(3, 2, 5))
    fd_check(lambda: weighted_sum(nc.narrow(a, -2, 1, 3), r_n), {"a": a})

    b = leaf(rng, 3, 2, 5)
    r_c = rng.uniform(-1, 1, size=(3, 6, 5))
    fd_check(lambda: weighted_sum(nc.concat([a, b], -2), r_c), {"a": a, "b": b})

    tokens = leaf(rng, 1, 3, 2, 5)  # broadcast over a batch of 6
    x = leaf(rng, 6, 3, 4, 5)
    r_b = rng.uniform(-1, 1, size=(6, 3, 6, 5))
    fd_check(lambda: weighted_sum(nc.concat([tokens, x], -2), r_b),
             {"tokens": tokens, "x": x})


def test_reshape_is_a_view():
    rng = np.random.default_rng(18)
    a = leaf(rng, 3, 4, 5)
    assert np.shares_memory(nc.reshape(a, (12, 5)).data, a.data)
    r = rng.uniform(-1, 1, size=(2, 30))
    fd_check(lambda: weighted_sum(nc.reshape(a, (2, 30)), r), {"a": a})


def test_grad_modality_stacked_ops():
    # the ops of the stacked towers, on [B x M x L x C] inputs
    rng = np.random.default_rng(16)
    x = leaf(rng, 3, 2, 4, 5)
    w, b = leaf(rng, 2, 5, 3), leaf(rng, 2, 1, 3)
    r = rng.uniform(-1, 1, size=(3, 2, 4, 3))
    fd_check(lambda: weighted_sum(nc.linear(x, w, b), r), {"x": x, "w": w, "b": b})
    gain, bias = leaf(rng, 2, 1, 5), leaf(rng, 2, 1, 5)
    r = rng.uniform(-1, 1, size=(3, 2, 4, 5))
    fd_check(lambda: weighted_sum(nc.layernorm(x, gain, bias), r),
             {"x": x, "gain": gain, "bias": bias})
    shared = leaf(rng, 3, 1, 6, 5)  # broadcast over the modality axis
    r = rng.uniform(-1, 1, size=(3, 2, 10, 5))
    fd_check(lambda: weighted_sum(nc.concat([shared, x], -2), r), {"shared": shared, "x": x})
    r = rng.uniform(-1, 1, size=(3, 1, 4, 5))
    fd_check(lambda: weighted_sum(nc.mean(x, -3), r), {"x": x})
    r = rng.uniform(-1, 1, size=(3, 4, 10))
    fd_check(lambda: weighted_sum(nc.merge_channels(x), r), {"x": x})
    npt.assert_array_equal(nc.merge_channels(x).data, np.concatenate([x.data[:, 0], x.data[:, 1]], -1))


def test_one_part_concat_and_same_shape_reshape_record_no_node():
    a = leaf(np.random.default_rng(17), 2, 3)
    with nc.Tape() as tape:
        assert nc.concat([a], -1) is a and nc.reshape(a, (2, 3)) is a
    assert len(tape) == 0


def test_grad_gather_rows_accumulates_repeats():
    rng = np.random.default_rng(14)
    table = leaf(rng, 6, 4)
    idx = np.array([0, 2, 2, 5, 0, 0])
    r = rng.uniform(-1, 1, size=(6, 4))
    fd_check(lambda: weighted_sum(nc.gather_rows(table, idx), r), {"table": table})


def test_grad_nonlinearities():
    rng = np.random.default_rng(15)
    a = leaf(rng, 4, 6)
    r = rng.uniform(-1, 1, size=(4, 6))
    fd_check(lambda: weighted_sum(nc.gelu(a), r), {"a": a})
    fd_check(lambda: weighted_sum(nc.exp(a), r), {"a": a})


def test_grad_softmax_and_cross_entropy():
    rng = np.random.default_rng(16)
    a = leaf(rng, 5, 7)
    r = rng.uniform(-1, 1, size=(5, 7))
    for axis in (0, 1):
        target = r * r / (r * r).sum(axis=axis, keepdims=True)
        fd_check(lambda: weighted_sum(nc.softmax(a, axis), r), {"a": a})
        fd_check(lambda: nc.cross_entropy(a, target, axis), {"a": a})


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_cross_entropy_is_minus_the_target_weighted_log_softmax(axis):
    rng = np.random.default_rng(19)
    a = leaf(rng, 4, 6)
    target = rng.uniform(0, 1, size=(4, 6))
    target[1] = 0.0  # rows or columns that no query uses
    with nc.Tape() as tape:
        loss = nc.cross_entropy(a, target, axis)
    assert [node.name for node in tape.nodes] == ["cross_entropy"]
    nc.backward(tape, loss)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    assert float(loss.data) == -(logp * target).sum()
    npt.assert_allclose(a.grad, np.exp(logp) * target.sum(axis=axis, keepdims=True) - target,
                        rtol=1e-12, atol=1e-15)
    with pytest.raises(ShapeError):
        nc.cross_entropy(a, target[:, :5], axis)


def test_grad_layernorm():
    rng = np.random.default_rng(17)
    a = leaf(rng, 3, 4, 6)
    gain = nc.Tensor(rng.uniform(0.5, 1.5, size=6), requires_grad=True)
    bias = leaf(rng, 6)
    r = rng.uniform(-1, 1, size=(3, 4, 6))
    fd_check(
        lambda: weighted_sum(nc.layernorm(a, gain, bias), r),
        {"a": a, "gain": gain, "bias": bias},
    )


def test_grad_normalize_rows():
    rng = np.random.default_rng(18)
    a = leaf(rng, 5, 4)
    r = rng.uniform(-1, 1, size=(5, 4))
    fd_check(lambda: weighted_sum(nc.normalize_rows(a), r), {"a": a})


def test_grad_dropout_fixed_mask():
    rng = np.random.default_rng(19)
    a = leaf(rng, 6, 6)
    r = rng.uniform(-1, 1, size=(6, 6))

    def make_loss():
        # regenerate the identical mask on every evaluation
        mask_rng = np.random.default_rng(99)
        return weighted_sum(nc.dropout(a, 0.4, mask_rng), r)

    fd_check(make_loss, {"a": a})


def test_dropout_eval_is_identity():
    x = nc.Tensor(np.arange(6.0).reshape(2, 3))
    assert nc.dropout(x, 0.5, None) is x
    rng = np.random.default_rng(0)
    assert nc.dropout(x, 0.0, rng) is x


def test_dropout_inverted_scaling_mean():
    rng = np.random.default_rng(20)
    x = nc.Tensor(np.ones((200, 200)))
    out = nc.dropout(x, 0.3, rng).data
    kept = out != 0.0
    npt.assert_allclose(out[kept], 1.0 / 0.7, rtol=1e-12)
    assert abs(out.mean() - 1.0) < 0.02


# ---- tape mechanics ----


def test_tape_topological_order_and_single_visit():
    rng = np.random.default_rng(21)
    a = leaf(rng, 3, 3)
    b = leaf(rng, 3, 3)
    with nc.Tape() as tape:
        c = _product(a, b)
        d = nc.add(c, b)
        loss = weighted_sum(nc.mul(c, d))
    produced = {}
    for pos, node in enumerate(tape.nodes):
        for inp in node.inputs:
            if id(inp) in produced:
                assert produced[id(inp)] < pos
        produced[id(node.output)] = pos

    visits = []
    for node in tape.nodes:
        original = node.rule
        node.rule = (lambda f, n: lambda *args: (visits.append(n), f(*args)))(
            original, node.name
        )
    nc.backward(tape, loss)
    assert len(visits) == len(tape.nodes)


def test_backward_accumulates_across_calls():
    a = nc.Tensor([1.0, 2.0], requires_grad=True)
    with nc.Tape() as tape:
        loss = weighted_sum(nc.mul(a, a))
    nc.backward(tape, loss)
    first = a.grad.copy()
    with nc.Tape() as tape2:
        loss2 = weighted_sum(nc.mul(a, a))
    nc.backward(tape2, loss2)
    npt.assert_allclose(a.grad, 2 * first, atol=1e-15)


def test_backward_twice_over_one_tape_doubles_the_gradients():
    a = nc.Tensor([3.0], requires_grad=True)
    with nc.Tape() as tape:
        loss = weighted_sum(nc.mul(a, 2.0), 1.0)
    nc.backward(tape, loss)
    assert a.grad.tolist() == [2.0]
    nc.backward(tape, loss)  # no reset in between
    assert a.grad.tolist() == [4.0]
    assert all(node.output.grad is None for node in tape.nodes)


def test_no_tape_records_nothing():
    a = nc.Tensor([1.0, 2.0], requires_grad=True)
    out = nc.mul(a, a)
    assert not out.requires_grad
    with nc.Tape() as tape:
        nc.mul(a.detach(), a.detach())
    assert len(tape) == 0


def test_backward_rejects_non_scalar_loss():
    a = nc.Tensor([1.0, 2.0], requires_grad=True)
    with nc.Tape() as tape:
        out = nc.mul(a, a)
    with pytest.raises(ContractError):
        nc.backward(tape, out)


def test_shape_errors_name_both_shapes():
    a = nc.Tensor(np.zeros((2, 3)))
    b = nc.Tensor(np.zeros((4, 5)))
    with pytest.raises(ShapeError) as exc:
        _product(a, b)
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)
    with pytest.raises(ShapeError):
        nc.add(a, b)
    # parts of different rank, along an axis where parts broadcast
    with pytest.raises(ShapeError) as exc:
        nc.concat([np.ones((2, 3)), np.zeros((2, 2, 3))], -2)
    assert "(2, 3)" in str(exc.value) and "(2, 2, 3)" in str(exc.value)
    u, v = np.zeros((3, 2)), np.zeros((4, 2))
    bad = [(nc.scaled_scores, u, v.T, 1.0), (nc.scaled_scores, u[None], v, 1.0),
           (nc.scaled_scores, u, v, np.ones(4)), (nc.scaled_scores, u, v, 1.0, np.zeros((3, 1))),
           (nc.kl_div, u, v, 1e-12)]
    for op, *args in bad:
        with pytest.raises(ShapeError):
            op(*args)


def test_non_finite_raises():
    with np.errstate(divide="ignore", over="ignore"):
        with pytest.raises(NumericError, match="'scaled_scores'"):
            nc.scaled_scores(nc.Tensor([[1.0]]), nc.Tensor([[1.0]]), 0.0)
        with pytest.raises(NumericError, match="'kl_div'"):
            nc.kl_div(np.full((2, 1), 1e308), np.full((2, 1), 0.5), 1e-12)
        with pytest.raises(NumericError):
            nc.exp(nc.Tensor([1000.0]))


def test_output_check_looks_past_an_overflowing_sum():
    # every entry is finite, but their sum is not: the full test decides
    with np.errstate(over="ignore"):
        big = nc.add(nc.Tensor([1e308, 1e308]), nc.Tensor(0.0))
    assert big.data.tolist() == [1e308, 1e308]
    with np.errstate(over="ignore"):
        big = nc.scaled_scores(np.full((2, 1), 1e308), np.ones((1, 1)), 1.0)
    assert big.data.tolist() == [[1e308], [1e308]]
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="'scaled_scores'"):
            nc.scaled_scores(np.array([[0.0], [1.0]]), np.ones((1, 1)), 0.0)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="'add'"):
        nc.add(nc.Tensor([np.inf, -np.inf]), nc.Tensor(0.0))


def test_detach_blocks_gradient():
    a = nc.Tensor([3.0], requires_grad=True)
    with nc.Tape() as tape:
        loss = weighted_sum(nc.mul(a.detach(), a))
    nc.backward(tape, loss)
    npt.assert_allclose(a.grad, [3.0])


# ---- finite differences over forked workers ----


@pytest.fixture
def time_limit():
    """Fail a test that waits on a worker for more than 60 s instead of
    hanging the suite; forked workers do not inherit the alarm."""

    def expire(signum, frame):
        raise TimeoutError("finite differences waited on a worker for 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _counting_forks(monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def _fd_case():
    rng = np.random.default_rng(30)
    x = leaf(rng, 3, 4)
    w = leaf(rng, 4, 2)

    def losses():
        y = nc.gelu(_product(x, w))
        return [float(weighted_sum(y).data), float(weighted_sum(nc.mul(y, y)).data)]

    return x, losses


def _serial_fd(losses, x, h=1e-5):
    """Central differences by one loop in this process, as a reference."""
    flat, columns = x.data.reshape(-1), []
    for i in range(flat.size):
        kept = flat[i]
        flat[i] = kept + h
        hi = np.asarray(losses())
        flat[i] = kept - h
        lo = np.asarray(losses())
        flat[i] = kept
        columns.append((hi - lo) / (2.0 * h))
    grad = np.stack(columns, axis=-1)
    return grad.reshape(grad.shape[:-1] + x.shape)


def test_fd_gradient_is_the_serial_loop_on_any_cpu_count(monkeypatch, time_limit):
    x, losses = _fd_case()
    before = x.data.copy()
    serial = _serial_fd(losses, x)
    forks = _counting_forks(monkeypatch)
    for cpus in (1, 2, 3):
        forks.clear()
        _cpus(monkeypatch, cpus)
        split = nc.fd_gradient(losses, x)
        assert len(forks) == cpus  # every chunk runs in a worker, 12 elements
        assert split.shape == serial.shape == (2, 3, 4)
        assert split.tobytes() == serial.tobytes()
        assert x.data.tobytes() == before.tobytes()


def test_fd_gradient_perturbs_a_non_contiguous_parameter(monkeypatch, time_limit):
    _cpus(monkeypatch, 2)
    x = nc.Tensor(np.arange(1.0, 7.0).reshape(2, 3).T, requires_grad=True)
    assert not x.data.flags.c_contiguous
    fd = nc.fd_gradient(lambda: float(weighted_sum(nc.mul(x, x)).data), x)
    npt.assert_allclose(fd, 2.0 * x.data, rtol=1e-8)


def test_fd_gradient_starts_no_more_workers_than_cpus_or_elements(monkeypatch, time_limit):
    x, losses = _fd_case()
    forks = _counting_forks(monkeypatch)
    _cpus(monkeypatch, 3)
    nc.fd_gradient(losses, x)
    assert len(forks) == 3
    for size in (2, 1):
        forks.clear()
        y = nc.Tensor([0.5, -0.5][:size], requires_grad=True)
        nc.fd_gradient(lambda: float(weighted_sum(nc.gelu(y)).data), y)
        assert len(forks) == size  # one chunk, and one worker, per element


def test_fd_gradient_worker_errors_reach_the_parent(monkeypatch, time_limit):
    _cpus(monkeypatch, 2)
    # the last element sits within h of zero, so only the worker's chunk
    # takes the log of a non-positive value
    x = nc.Tensor([1.0, 2.0, 3.0, 1e-6], requires_grad=True)
    before = x.data.copy()

    def log_loss():
        if (x.data <= 0.0).any():
            raise NumericError("log of a non-positive value")
        return float(np.log(x.data).sum())

    with pytest.raises(NumericError, match="non-positive"):
        nc.fd_gradient(log_loss, x)
    assert x.data.tobytes() == before.tobytes()
    # a non-finite loss is caught in the worker that evaluated it
    y = nc.Tensor([1.0, 2.0, 3.0, 4.0], requires_grad=True)
    with pytest.raises(NumericError, match="element 3"):
        nc.fd_gradient(lambda: np.inf if y.data[3] > 4.0 else float(y.data.sum()), y)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every worker was reaped


def test_fd_gradient_worker_without_a_result_is_a_contract_error(monkeypatch, time_limit):
    _cpus(monkeypatch, 2)
    x = nc.Tensor([1.0, 2.0, 3.0, 4.0], requires_grad=True)
    parent = os.getpid()

    def dying_loss():
        # the worker of the second chunk exits before it sends a result
        if os.getpid() != parent and x.data[3] > 4.0:
            os._exit(3)
        return float(x.data.sum())

    with pytest.raises(ContractError, match="without a result"):
        nc.fd_gradient(dying_loss, x)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every worker was reaped


def test_fd_gradient_checks_losses_not_ops(monkeypatch):
    _cpus(monkeypatch, 1)
    y = nc.Tensor([1.0, 700.0], requires_grad=True)
    # exp overflows inside the loss, which the loss check catches
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError, match="finite-difference loss"):
            nc.fd_gradient(lambda: float(weighted_sum(nc.exp(nc.add(y, y))).data), y)
        # outside fd_gradient the op itself still raises
        with pytest.raises(NumericError, match="operation 'exp'"):
            nc.exp(nc.add(y, y))
