"""MLP backbone, heads, exact gradients, SGD step, checkpoint round-trip."""

import json
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (checkpoint_obj, default_widths, param_order, per_head_logits,
                      relu_pattern, softmax, traced_peak)
from imbalanced_ssl import network
from imbalanced_ssl.config import TrainSection
from imbalanced_ssl.diagnostics import evaluate
from imbalanced_ssl.network import (
    HEAD_NAMES,
    Model,
    backward,
    forward_features,
    forward_features_cached,
    head_logits,
    init_model,
    model_from_checkpoint_obj,
    sgd_step,
    write_checkpoint,
)


def _tiny(seed=0):
    return init_model(k=3, d=4, hidden=(6, 5), feature=4, seed=seed)


def test_head_names():
    assert HEAD_NAMES == ("original", "output", "expansive")


def test_init_deterministic_and_biases_zero():
    a, b, c = _tiny(0), _tiny(0), _tiny(1)
    for name in HEAD_NAMES:
        assert np.array_equal(a.heads[name].w, b.heads[name].w)
        assert np.all(a.heads[name].b == 0.0)
    assert np.all(np.concatenate(a.biases) == 0.0)
    assert not np.array_equal(a.weights[0], c.weights[0])
    # the three heads start distinct from each other
    assert not np.array_equal(a.heads["original"].w, a.heads["output"].w)


def test_init_weight_scale_follows_fan_in():
    m = init_model(k=5, d=100, hidden=(64,), feature=32, seed=2)
    w0 = m.weights[0]
    bound = np.sqrt(6.0 / 100)
    assert np.abs(w0).max() <= bound + 1e-12
    assert np.abs(w0).max() > 0.5 * bound


def test_forward_shapes_and_nonnegativity():
    m = _tiny()
    x = np.random.default_rng(0).normal(size=(7, 4))
    f = forward_features(m, x)
    assert f.shape == (7, 4)
    assert np.all(f >= 0.0)  # post-activation features
    z = head_logits(m, f)
    assert z.shape == (7, len(HEAD_NAMES), 3)


@pytest.mark.parametrize("rows", [1, 10_000], ids=lambda rows: f"relu-{rows}")
def test_inference_forward_equals_the_cached_forward(rows):
    m = default_widths()
    x = np.random.default_rng(rows).normal(scale=3.0, size=(rows, 16))
    before = x.copy()
    feats = forward_features(m, x)
    assert np.array_equal(feats, forward_features_cached(m, x)[0])
    assert np.array_equal(x, before)


def _forward_peak(forward):
    """tracemalloc's peak while ``forward`` runs at 10,000 rows and the default
    widths."""
    m = default_widths()
    x = np.random.default_rng(0).normal(size=(10_000, 16))
    return traced_peak(lambda: forward(m, x))[1]


def test_inference_forward_keeps_no_cache():
    # at most two layers' activations are alive at once
    assert _forward_peak(forward_features) < 12 * 2**20


def test_training_forward_keeps_each_activation_once():
    # the cache holds each layer's activation and nothing more: (64 + 64 + 32)
    # float64 a row, 12.2 MiB at 10,000 rows (a pre-activation kept as well
    # would double it)
    assert _forward_peak(forward_features_cached) < 14 * 2**20


def test_evaluate_streams_row_blocks():
    # every view's predictions come from equal row blocks of at most 240 rows
    # at the default widths (42 blocks of 238 or 239 rows here), so no array
    # of a block reaches glibc's 128 KiB mmap threshold, and a split block
    # keeps at least 64 rows, above the 48 from which a block's features
    # matched one forward over all rows bit for bit; that one forward over all
    # 10,000 rows would hold two 64-wide layers, 9.8 MiB
    y = np.arange(10_000) % 10
    assert _forward_peak(lambda m, x: evaluate(m, [(x, y)])) < 2**20


def test_inference_block_arrays_stay_below_the_mmap_threshold(monkeypatch):
    # each block's widest arrays, a 64-wide layer's activations and the
    # (rows, 3, 10) head logits, stay below 128 KiB at the default widths
    m = default_widths()
    x = np.random.default_rng(0).normal(size=(10_000, 16))
    rows, logit_bytes = [], []
    forward, logits = network.forward_features, network.head_logits

    def recorded_logits(model, feats):
        z = logits(model, feats)
        logit_bytes.append(z.nbytes)
        return z

    monkeypatch.setattr(network, "forward_features",
                        lambda model, xb: rows.append(len(xb)) or forward(model, xb))
    monkeypatch.setattr(network, "head_logits", recorded_logits)
    evaluate(m, [(x, np.arange(10_000) % 10)])
    assert sum(rows) == 10_000 and len(logit_bytes) == len(rows)
    assert 64 <= min(rows) and max(rows) * 8 * max(m.dims[1:]) < 2**17
    assert max(logit_bytes) < 2**17


_SUBNORMALS = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308,
                        allow_subnormal=True)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.floats(-745.0, 745.0), _SUBNORMALS,
                          st.sampled_from([-0.0, 0.0, -745.0, 745.0])),
                min_size=1, max_size=64))
def test_activation_derivative_read_off_the_output(values):
    """backward reads the ReLU's derivative off its output a = relu(z): [a > 0]
    is [z > 0] everywhere, the signed zeros included.  z is each row's
    pre-activation in a one-layer identity model."""
    z = np.array(values)
    m = Model((1, 1), 2)
    m.weights[0][...] = 1.0
    a = forward_features(m, z[:, None])[:, 0]
    assert np.array_equal(a, np.maximum(z, 0.0))
    assert np.array_equal(a > 0.0, z > 0.0)


def test_head_logits_affine():
    # every head's slab of the one stacked matmul is that head's f @ w.T + b:
    # bit for bit at 256 rows, and within the last bits at 5, where OpenBLAS
    # takes its small-matrix path
    m = default_widths()
    for rows in (5, 256):
        f = np.abs(np.random.default_rng(rows).normal(size=(rows, m.dims[-1])))
        z = head_logits(m, f)
        assert z.shape == (rows, len(HEAD_NAMES), m.k)
        for i, name in enumerate(HEAD_NAMES):
            want = per_head_logits(m, name, f)
            if rows >= 128:
                assert np.array_equal(z[:, i], want), name
            else:
                assert np.allclose(z[:, i], want, rtol=1e-14, atol=1e-14), name


def test_softmax_rows_and_shift_invariance():
    z = np.random.default_rng(2).normal(size=(6, 3)) * 5
    p = softmax(z)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(p > 0)
    assert np.allclose(softmax(z + 123.0), p)
    assert np.isfinite(softmax(np.array([[1e4, 0.0, -1e4]]))).all()


def test_predict_tie_breaks_low():
    # the confusion matrix's column sums count the predicted classes
    m = _tiny()
    m.heads["output"].w[:] = 0.0
    m.heads["output"].b[:] = 0.0
    x, y = np.ones((3, 4)), np.arange(3)
    assert evaluate(m, [(x, y)])["output"].confusion.sum(axis=0).tolist() == [3, 0, 0]
    m.heads["output"].b[:] = [0.0, 2.0, 2.0]
    assert evaluate(m, [(x, y)])["output"].confusion.sum(axis=0).tolist() == [0, 3, 0]


def test_backward_matches_finite_differences():
    # a difference whose step switches a ReLU unit on or off crosses a kink
    # and is skipped; the rest compare the gradient the network trains with
    rng = np.random.default_rng(3)
    m = _tiny(seed=4)
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, size=6)

    def loss_value(model):
        f = forward_features(model, x)
        z = per_head_logits(model, "output", f)
        zs = z - z.max(axis=1, keepdims=True)
        logp = zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
        return -logp[np.arange(6), y].mean()

    f, cache = forward_features_cached(m, x)
    z = per_head_logits(m, "output", f)
    p = softmax(z)
    g = p.copy()
    g[np.arange(6), y] -= 1.0
    g /= 6.0
    bundle = np.zeros((6, len(HEAD_NAMES), 3))
    bundle[:, HEAD_NAMES.index("output")] = g
    grads = dict(m.parameters(backward(m, cache, bundle)))

    order = param_order(m)
    assert set(grads) == set(order)
    h = 1e-6
    worst = 0.0
    on = relu_pattern(m, x)
    compared = skipped = 0
    for name in order:
        arr = _param_array(m, name)
        flat = arr.reshape(-1)
        idx = rng.choice(flat.size, size=min(6, flat.size), replace=False)
        for i in idx:
            old = flat[i]
            flat[i] = old + h
            up, up_on = loss_value(m), relu_pattern(m, x)
            flat[i] = old - h
            down, down_on = loss_value(m), relu_pattern(m, x)
            flat[i] = old
            if not (np.array_equal(up_on, on) and np.array_equal(down_on, on)):
                skipped += 1
                continue
            compared += 1
            fd = (up - down) / (2 * h)
            an = grads[name].reshape(-1)[i]
            denom = max(abs(fd), abs(an), 1e-8)
            worst = max(worst, abs(fd - an) / denom)
    # the skips stay few, so the comparison is not vacuous (56 of 60 compared)
    assert compared >= 4 * skipped, (compared, skipped)
    assert worst <= 1e-4


def _param_array(model: Model, name: str) -> np.ndarray:
    kind, leaf = name.split(".", 1)
    if kind == "backbone":
        store = model.weights if leaf[0] == "w" else model.biases
        return store[int(leaf[1:])]
    head = model.heads[kind.removeprefix("head_")]
    return head.w if leaf == "w" else head.b


def test_param_order_covers_model():
    m = _tiny()
    names = param_order(m)
    assert len(names) == len(set(names))
    total = sum(_param_array(m, n).size for n in names)
    by_hand = (6 * 4 + 6) + (5 * 6 + 5) + (4 * 5 + 4) + 3 * (3 * 4 + 3)
    assert total == by_hand


def test_sgd_step_hand_example():
    m = _tiny(seed=5)
    name = "head_output.b"
    m.heads["output"].b[:] = np.array([1.0, -1.0, 0.5])
    t = replace(TrainSection(), learning_rate=0.1, momentum=0.9, weight_decay=0.01)
    zero = np.zeros_like(m.flat)

    g = zero.copy()
    dict(m.parameters(g))[name][:] = [1.0, 0.0, 0.0]
    assert m.velocity is None
    sgd_step(m, g, t)
    # v = g + wd*p = [1.01, -0.01, 0.005]; p -= 0.1*v
    assert np.allclose(m.heads["output"].b, [1.0 - 0.101, -1.0 + 0.001, 0.5 - 0.0005])
    # the momentum buffer is the model's training state, in the flat layout
    assert m.velocity.shape == m.flat.shape and not np.shares_memory(m.velocity, m.flat)
    assert np.allclose(dict(m.parameters(m.velocity))[name], [1.01, -0.01, 0.005])
    back = model_from_checkpoint_obj(json.loads(json.dumps(checkpoint_obj(m))))
    assert back.velocity is None and back.grad is None

    before = m.heads["output"].b.copy()
    v_prev = np.array([1.01, -0.01, 0.005])
    sgd_step(m, zero, t)
    v_next = 0.9 * v_prev + 0.01 * before
    assert np.allclose(m.heads["output"].b, before - 0.1 * v_next)


def _per_parameter_sgd_step(model, grads, velocities, t):
    """The update one parameter at a time, with one velocity array per
    parameter name: the reference the flat update must match bit for bit."""
    for name, param in model.parameters():
        v = velocities.setdefault(name, np.zeros_like(param))
        v *= t.momentum
        v += grads[name] + t.weight_decay * param
        param -= t.learning_rate * v


def test_flat_sgd_step_matches_per_parameter_update_bitwise():
    rng = np.random.default_rng(8)
    flat_model = init_model(5, 7, hidden=(9, 6), feature=4, seed=3)
    ref_model = init_model(5, 7, hidden=(9, 6), feature=4, seed=3)
    start = flat_model.flat.copy()
    t = replace(TrainSection(), learning_rate=0.05, momentum=0.9, weight_decay=0.001)
    velocities = {}
    for _ in range(25):
        x = rng.normal(size=(11, 7))
        head_grads = rng.normal(size=(11, len(HEAD_NAMES), 5)) / 11
        _, cache = forward_features_cached(flat_model, x)
        sgd_step(flat_model, backward(flat_model, cache, head_grads), t)
        _, ref_cache = forward_features_cached(ref_model, x)
        ref_grads = dict(ref_model.parameters(backward(ref_model, ref_cache, head_grads)))
        _per_parameter_sgd_step(ref_model, ref_grads, velocities, t)
        for (name, p), (_, q) in zip(flat_model.parameters(), ref_model.parameters()):
            assert np.array_equal(p, q), name
    assert not np.array_equal(flat_model.flat, start)


def _assert_flat_backed(model):
    names = param_order(model)
    for name, p in model.parameters():
        assert np.shares_memory(p, model.flat), name
        assert np.shares_memory(_param_array(model, name), model.flat), name
        assert np.array_equal(_param_array(model, name), p), name
    assert np.shares_memory(model.head_w, model.flat)
    assert np.shares_memory(model.head_b, model.flat)
    assert sum(p.size for _, p in model.parameters()) == model.flat.size
    assert len(names) == len(set(names))


def test_every_parameter_is_a_view_into_the_flat_vector():
    m = _tiny(seed=7)
    _assert_flat_backed(m)
    back = model_from_checkpoint_obj(json.loads(json.dumps(checkpoint_obj(m))))
    _assert_flat_backed(back)
    assert np.array_equal(back.flat, m.flat)
    # the gradient vector is training state: the first backward allocates it
    assert m.grad is None and back.grad is None
    _, cache = forward_features_cached(m, np.ones((2, 4)))
    grad = backward(m, cache, np.ones((2, len(HEAD_NAMES), m.k)))
    assert grad is m.grad and grad.shape == m.flat.shape
    assert not np.shares_memory(m.grad, m.flat)
    assert backward(m, cache, np.zeros((2, len(HEAD_NAMES), m.k))) is grad
    assert not grad.any()
    # writing through a head view writes the stacked heads and the flat vector
    m.heads["expansive"].b[:] = 4.0
    assert np.all(m.head_b[2 * m.k:] == 4.0)


def test_checkpoint_roundtrip_exact():
    m = _tiny(seed=6)
    obj = checkpoint_obj(m, config_hash="abc123")
    text = json.dumps(obj)  # must be valid JSON payload
    back = model_from_checkpoint_obj(json.loads(text))
    for n in param_order(m):
        assert np.array_equal(_param_array(m, n), _param_array(back, n))
    assert obj["config_hash"] == "abc123"
    assert obj["format"]


# finite values at the edges of float64: signed zeros, subnormals, extremes
_EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308]


@st.composite
def _random_model(draw):
    k = draw(st.integers(2, 5))
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=2, max_size=4)))
    model = Model(dims, k)
    values = st.one_of(st.sampled_from(_EDGE_VALUES),
                       st.floats(allow_nan=False, allow_infinity=False))
    model.flat[:] = draw(st.lists(values, min_size=model.flat.size,
                                  max_size=model.flat.size))
    return model


def _written(model, config_hash=""):
    """The text ``write_checkpoint`` writes for ``model``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "checkpoint.json")
        write_checkpoint(path, model, config_hash)
        with open(path) as fh:
            return fh.read()


def _dumped(model, config_hash=""):
    """The checkpoint object dumped whole, as the streamed file must read."""
    return json.dumps(checkpoint_obj(model, config_hash), indent=2, sort_keys=True) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_random_model())
def test_checkpoint_round_trip_is_bitwise(model):
    """The written file out and back gives the same layout and the same bits
    in flat, every parameter a view into it, and no gradient vector; the
    file is the checkpoint object dumped whole, byte for byte."""
    text = _written(model)
    assert text == _dumped(model)
    back = model_from_checkpoint_obj(json.loads(text))
    assert back.flat.tobytes() == model.flat.tobytes()
    assert (back.dims, back.k) == (model.dims, model.k)
    _assert_flat_backed(back)
    assert back.grad is None


def _non_finite():
    """A model at the default widths holding +inf, -inf and NaN, as an
    aborted run's checkpoint may."""
    model = default_widths()
    model.flat[[0, 4095, model.flat.size - 1]] = (np.inf, -np.inf, np.nan)
    return model


@pytest.mark.parametrize("make_model", [
    pytest.param(default_widths, id="default-widths"),
    pytest.param(lambda: default_widths(k=2), id="k2"),
    # 455- and 2,145-value weights: chunks that do not divide a parameter
    pytest.param(lambda: init_model(k=3, d=7, hidden=(65,), feature=33, seed=1),
                 id="uneven-chunks"),
    pytest.param(_non_finite, id="non-finite")])
def test_streamed_checkpoint_is_the_json_dump_of_its_object(make_model):
    model = make_model()
    text = _written(model, config_hash="abc123")
    assert text == _dumped(model, config_hash="abc123")
    assert json.loads(text)["config_hash"] == "abc123"


def test_checkpoint_write_peak_does_not_grow_with_the_parameters(tmp_path):
    # the values become Python objects a chunk at a time: the checkpoint of a
    # 262,144-value weight costs the write no more than that of a 4,096-value
    # one (the whole object would add about 9 MB)
    def writing_peak(hidden):
        model = init_model(k=10, d=16, hidden=hidden, feature=32, seed=0)
        path = str(tmp_path / "checkpoint.json")
        return traced_peak(lambda: write_checkpoint(path, model))[1]

    writing_peak((64, 64))  # first-call allocations
    small, large = writing_peak((64, 64)), writing_peak((512, 512))
    assert abs(large - small) < 16 * 1024, (small, large)


def test_checkpoint_rejects_garbage():
    with pytest.raises((KeyError, ValueError)):
        model_from_checkpoint_obj({"format": "bogus"})


def test_unknown_activation_rejected():
    # the network runs ReLU only, so a checkpoint of any other activation,
    # or of none, is refused by a message naming the key
    obj = checkpoint_obj(_tiny())
    missing = {key: v for key, v in obj.items() if key != "activation"}
    for bad in ({**obj, "activation": "softplus"}, {**obj, "activation": ["relu"]}, missing):
        with pytest.raises(ValueError, match="activation"):
            model_from_checkpoint_obj(bad)
