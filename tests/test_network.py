"""MLP backbone, heads, exact gradients, SGD step, checkpoint round-trip."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import param_order
from imbalanced_ssl.config import TrainSection
from imbalanced_ssl.diagnostics import evaluate
from imbalanced_ssl.network import (
    _ACTIVATIONS,
    HEAD_NAMES,
    Model,
    OptimizerState,
    backward,
    forward_features,
    forward_features_cached,
    head_logits,
    init_model,
    model_from_checkpoint_obj,
    model_to_checkpoint_obj,
    sgd_step,
    softmax,
)


def _tiny(seed=0, activation="relu"):
    return init_model(k=3, d=4, hidden=(6, 5), feature=4, seed=seed,
                      activation=activation)


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
    z = head_logits(m.heads["output"], f)
    assert z.shape == (7, 3)


def _default_widths(activation):
    """A model at the default widths (16 -> 64 -> 64 -> 32, 10 classes) with
    every parameter, the biases included, away from its initial value."""
    t = TrainSection()
    m = init_model(k=10, d=16, hidden=t.hidden, feature=t.feature, seed=3,
                   activation=activation)
    m.flat += np.random.default_rng(4).normal(scale=0.2, size=m.flat.size)
    return m


@pytest.mark.parametrize("rows", [1, 10_000])
@pytest.mark.parametrize("activation", ["relu", "softplus"])
def test_inference_forward_equals_the_cached_forward(activation, rows):
    m = _default_widths(activation)
    x = np.random.default_rng(rows).normal(scale=3.0, size=(rows, 16))
    before = x.copy()
    feats = forward_features(m, x)
    assert np.array_equal(feats, forward_features_cached(m, x)[0])
    assert np.array_equal(x, before)


def _forward_peak(forward):
    """tracemalloc's peak while ``forward`` runs at 10,000 rows and the default
    widths; numpy reports its buffers to tracemalloc."""
    m = _default_widths("relu")
    x = np.random.default_rng(0).normal(size=(10_000, 16))
    tracemalloc.start()
    try:
        forward(m, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_inference_forward_keeps_no_cache():
    # at most two layers' activations are alive at once
    assert _forward_peak(forward_features) < 12 * 2**20


def test_training_forward_keeps_each_activation_once():
    # the cache holds each layer's activation and nothing more: (64 + 64 + 32)
    # float64 a row, 12.2 MiB at 10,000 rows (a pre-activation kept as well
    # would double it)
    assert _forward_peak(forward_features_cached) < 14 * 2**20


def _stable_sigmoid(z):
    """The reference sigmoid: 1 / (1 + exp(-z)) for z >= 0, exp(z) / (1 + exp(z))
    below, so neither branch overflows."""
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_SUBNORMALS = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308,
                        allow_subnormal=True)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.floats(-745.0, 745.0), _SUBNORMALS,
                          st.sampled_from([-0.0, 0.0, -745.0, 745.0])),
                min_size=1, max_size=64))
def test_activation_derivative_read_off_the_output(values):
    """backward reads each activation's derivative off its output a = act(z):
    relu's [a > 0] is [z > 0] everywhere, the signed zeros included, and
    softplus's 1 - exp(-a) is sigmoid(z) to within 4 ulp."""
    z = np.array(values)
    relu, relu_grad = _ACTIVATIONS["relu"]
    assert np.array_equal(relu_grad(relu(z)), z > 0.0)
    softplus, softplus_grad = _ACTIVATIONS["softplus"]
    want = _stable_sigmoid(z)
    assert np.all(np.abs(softplus_grad(softplus(z)) - want) <= 4 * np.spacing(want))


def test_head_logits_affine():
    m = _tiny()
    h = m.heads["expansive"]
    f = np.random.default_rng(1).normal(size=(5, 4))
    assert np.allclose(head_logits(h, f), f @ h.w.T + h.b)


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
    assert evaluate(m, x, y)["output"].confusion.sum(axis=0).tolist() == [3, 0, 0]
    m.heads["output"].b[:] = [0.0, 2.0, 2.0]
    assert evaluate(m, x, y)["output"].confusion.sum(axis=0).tolist() == [0, 3, 0]


def test_backward_matches_finite_differences():
    # smooth activation keeps the central-difference comparison clean
    rng = np.random.default_rng(3)
    m = _tiny(seed=4, activation="softplus")
    x = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, size=6)

    def loss_value(model):
        f = forward_features(model, x)
        z = head_logits(model.heads["output"], f)
        zs = z - z.max(axis=1, keepdims=True)
        logp = zs - np.log(np.exp(zs).sum(axis=1, keepdims=True))
        return -logp[np.arange(6), y].mean()

    f, cache = forward_features_cached(m, x)
    z = head_logits(m.heads["output"], f)
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
    for name in order:
        arr = _param_array(m, name)
        flat = arr.reshape(-1)
        idx = rng.choice(flat.size, size=min(6, flat.size), replace=False)
        for i in idx:
            old = flat[i]
            flat[i] = old + h
            up = loss_value(m)
            flat[i] = old - h
            down = loss_value(m)
            flat[i] = old
            fd = (up - down) / (2 * h)
            an = grads[name].reshape(-1)[i]
            denom = max(abs(fd), abs(an), 1e-8)
            worst = max(worst, abs(fd - an) / denom)
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
    st = OptimizerState(learning_rate=0.1, momentum=0.9, weight_decay=0.01)
    zero = np.zeros_like(m.flat)

    g = zero.copy()
    dict(m.parameters(g))[name][:] = [1.0, 0.0, 0.0]
    sgd_step(m, g, st)
    # v = g + wd*p = [1.01, -0.01, 0.005]; p -= 0.1*v
    assert np.allclose(m.heads["output"].b, [1.0 - 0.101, -1.0 + 0.001, 0.5 - 0.0005])

    before = m.heads["output"].b.copy()
    v_prev = np.array([1.01, -0.01, 0.005])
    sgd_step(m, zero, st)
    v_next = 0.9 * v_prev + 0.01 * before
    assert np.allclose(m.heads["output"].b, before - 0.1 * v_next)


def _per_parameter_sgd_step(model, grads, velocities, state):
    """The update one parameter at a time, with one velocity array per
    parameter name: the reference the flat update must match bit for bit."""
    for name, param in model.parameters():
        v = velocities.setdefault(name, np.zeros_like(param))
        v *= state.momentum
        v += grads[name] + state.weight_decay * param
        param -= state.learning_rate * v


def test_flat_sgd_step_matches_per_parameter_update_bitwise():
    rng = np.random.default_rng(8)
    flat_model = init_model(5, 7, hidden=(9, 6), feature=4, seed=3)
    ref_model = init_model(5, 7, hidden=(9, 6), feature=4, seed=3)
    start = flat_model.flat.copy()
    st = OptimizerState(learning_rate=0.05, momentum=0.9, weight_decay=0.001)
    ref_st = OptimizerState(learning_rate=0.05, momentum=0.9, weight_decay=0.001)
    velocities = {}
    for _ in range(25):
        x = rng.normal(size=(11, 7))
        head_grads = rng.normal(size=(11, len(HEAD_NAMES), 5)) / 11
        _, cache = forward_features_cached(flat_model, x)
        sgd_step(flat_model, backward(flat_model, cache, head_grads), st)
        _, ref_cache = forward_features_cached(ref_model, x)
        ref_grads = dict(ref_model.parameters(backward(ref_model, ref_cache, head_grads)))
        _per_parameter_sgd_step(ref_model, ref_grads, velocities, ref_st)
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
    back = model_from_checkpoint_obj(json.loads(json.dumps(model_to_checkpoint_obj(m))))
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
    obj = model_to_checkpoint_obj(m, config_hash="abc123")
    text = json.dumps(obj)  # must be valid JSON payload
    back = model_from_checkpoint_obj(json.loads(text))
    for n in param_order(m):
        assert np.array_equal(_param_array(m, n), _param_array(back, n))
    assert back.activation == m.activation
    assert obj["config_hash"] == "abc123"
    assert obj["format"]


# finite values at the edges of float64: signed zeros, subnormals, extremes
_EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308]


@st.composite
def _random_model(draw):
    k = draw(st.integers(2, 5))
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=2, max_size=4)))
    model = Model(dims, k, draw(st.sampled_from(["relu", "softplus"])))
    values = st.one_of(st.sampled_from(_EDGE_VALUES),
                       st.floats(allow_nan=False, allow_infinity=False))
    model.flat[:] = draw(st.lists(values, min_size=model.flat.size,
                                  max_size=model.flat.size))
    return model


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_random_model())
def test_checkpoint_round_trip_is_bitwise(model):
    """JSON out and back gives the same layout and the same bits in flat,
    every parameter a view into it, and no gradient vector."""
    back = model_from_checkpoint_obj(json.loads(json.dumps(model_to_checkpoint_obj(model))))
    assert back.flat.tobytes() == model.flat.tobytes()
    assert (back.dims, back.k, back.activation) == (model.dims, model.k, model.activation)
    _assert_flat_backed(back)
    assert back.grad is None


def test_checkpoint_rejects_garbage():
    with pytest.raises((KeyError, ValueError)):
        model_from_checkpoint_obj({"format": "bogus"})


def test_unknown_activation_rejected():
    with pytest.raises(ValueError):
        init_model(k=3, d=4, hidden=(5,), feature=3, seed=0, activation="gelu")
