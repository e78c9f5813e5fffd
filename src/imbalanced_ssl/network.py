"""From-scratch MLP backbone with three affine classification heads.

The backbone maps D -> hidden... -> Q with the activation applied after every
layer (features are post-activation).  Three heads share it: "original"
(plain self-training), "output" (balanced, calibrated at inference), and
"expansive" (aggressively sampled).  Gradients are exact reverse-mode; the
backbone gradient accumulates every head's contribution.

Storage: every parameter is a view into one contiguous float64 vector,
``Model.flat``, laid out as the backbone layers (weight then bias) followed by
the heads stacked in HEAD_NAMES order, all weights ``(H*K, Q)`` then all
biases ``(H*K,)``; ``_carve`` is the one place that cuts it.  ``Model.grad``
has the same layout; the first ``backward`` allocates it and every call
writes into it, and ``sgd_step`` updates ``flat`` with three vector
operations.

Both forwards run the same statements: each layer's matmul result takes the
bias and the activation in place.  Inference (``forward_features``) keeps no
cache, so only the current layer's activations and the previous layer's are
alive.  Training (``forward_features_cached``) keeps every layer's activation,
and ``backward`` reads each activation's derivative off it (``a > 0`` for
relu, ``1 - exp(-a)`` for softplus), so no pre-activation is stored.

Checkpoint format (normative field order): a JSON object with keys
``format``, ``config_hash``, ``k``, ``dims``, ``activation``, and ``params``;
``params`` maps each name in PARAM_ORDER to its array flattened row-major
(C order).  JSON floats round-trip exactly (shortest-repr encoding).  A
non-finite value, which only the checkpoint of an aborted run holds, is
written as null, so the file stays strict JSON and the reader rejects it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _json_numbers

__all__ = [
    "Head",
    "Model",
    "OptimizerState",
    "HEAD_NAMES",
    "CHECKPOINT_FORMAT",
    "init_model",
    "forward_features",
    "forward_features_cached",
    "head_logits",
    "stacked_head_logits",
    "softmax",
    "backward",
    "sgd_step",
    "model_to_checkpoint_obj",
    "model_from_checkpoint_obj",
]

HEAD_NAMES = ("original", "output", "expansive")
CHECKPOINT_FORMAT = "imbalanced-ssl-checkpoint-v1"

_MODEL_INIT_STREAM = 10


def _relu(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(z, 0.0, out=out)


def _softplus(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.logaddexp(0.0, z, out=out)


# each activation with its derivative written from its output a = act(z):
# relu'(z) = [a > 0], softplus'(z) = sigmoid(z) = 1 - exp(-a)
_ACTIVATIONS = {
    "relu": (_relu, lambda a: a > 0.0),
    # smooth variant: reserved for finite-difference gradient checks, where
    # the ReLU kink would contaminate the comparison
    "softplus": (_softplus, lambda a: -np.expm1(-a)),
}


@dataclass
class Head:
    w: np.ndarray  # (K, Q)
    b: np.ndarray  # (K,)


def _shapes(dims: tuple[int, ...], k: int):
    """The parameter shapes in the order of the flat layout: each backbone
    layer's weight and bias, then the stacked head weights and biases."""
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        yield (fan_out, fan_in)
        yield (fan_out,)
    yield (len(HEAD_NAMES) * k, dims[-1])
    yield (len(HEAD_NAMES) * k,)


def _carve(buf: np.ndarray, dims: tuple[int, ...], k: int):
    """``buf`` cut into the parameter shapes, as views: (weights, biases,
    head_w, head_b), one weight (dims[i+1], dims[i]) and one bias per backbone
    layer, then the stacked heads (H * K, Q) and (H * K,) in HEAD_NAMES order."""
    views, at = [], 0
    for shape in _shapes(dims, k):
        n = math.prod(shape)
        views.append(buf[at:at + n].reshape(shape))
        at += n
    return views[:-2:2], views[1:-2:2], views[-2], views[-1]


def _split_heads(head_w: np.ndarray, head_b: np.ndarray, k: int):
    """(name, (K, Q) weights, (K,) biases) of each head, as views of the
    stacked blocks."""
    h = len(HEAD_NAMES)
    return zip(HEAD_NAMES, head_w.reshape(h, k, -1), head_b.reshape(h, k))


class Model:
    """The backbone and the three heads over one flat float64 vector.

    ``flat`` holds every parameter.  The backbone's ``weights``/``biases``,
    the stacked heads ``head_w`` (H * K, Q) and ``head_b`` (H * K,), and each
    ``heads[name].w``/``.b`` are views into it, so writing through any of
    them in place writes ``flat``.  ``grad``, the gradient vector of the same
    layout, is training state: None until the first backward() allocates it.
    """

    def __init__(self, dims: tuple[int, ...], k: int, activation: str = "relu"):
        dims = tuple(int(v) for v in dims)
        if not isinstance(activation, str) or activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if k < 2:
            raise ValueError("k must be >= 2")
        if len(dims) < 2 or min(dims) < 1:
            raise ValueError(f"need at least one layer and every width >= 1, got dims {dims}")
        self.dims, self.k, self.activation = dims, k, activation
        self.flat = np.zeros(sum(math.prod(shape) for shape in _shapes(dims, k)))
        self.weights, self.biases, self.head_w, self.head_b = _carve(self.flat, dims, k)
        self.heads = {name: Head(w, b) for name, w, b in _split_heads(self.head_w, self.head_b, k)}
        self.grad: np.ndarray | None = None
        self._grad = None  # the carve of grad, made with it

    def parameters(self, buf: np.ndarray | None = None) -> list[tuple[str, np.ndarray]]:
        """All parameters in the normative order (backbone layers first,
        then heads in HEAD_NAMES order, weight before bias) as views into
        ``flat``; given ``buf``, a vector of the same layout such as
        ``grad``, the same names over views into ``buf``."""
        if buf is None:
            buf = self.flat
        if buf.shape != self.flat.shape:
            raise ValueError(f"vector of shape {buf.shape}, expected {self.flat.shape}")
        weights, biases, head_w, head_b = _carve(buf, self.dims, self.k)
        out = []
        for i, (w, b) in enumerate(zip(weights, biases)):
            out.append((f"backbone.w{i}", w))
            out.append((f"backbone.b{i}", b))
        for name, w, b in _split_heads(head_w, head_b, self.k):
            out.append((f"head_{name}.w", w))
            out.append((f"head_{name}.b", b))
        return out


def init_model(k: int, d: int, hidden: tuple[int, ...], feature: int, seed: int,
               activation: str = "relu") -> Model:
    """He-style uniform fan-in init for all weights; every bias starts at
    zero so later bias drift is attributable to optimization pressure alone.
    The weights are drawn layer by layer, then the heads in HEAD_NAMES order."""
    model = Model((d, *hidden, feature), k, activation)
    rng = np.random.default_rng([seed, _MODEL_INIT_STREAM])
    for w in (*model.weights, model.head_w):
        limit = np.sqrt(6.0 / w.shape[1])
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return model


@dataclass
class ForwardCache:
    x: np.ndarray           # (N, D)
    acts: list[np.ndarray]  # each layer's activation, (N, dims[i+1]); acts[-1] = features;
                            # backward reads the activation's derivative off it

    def tail(self, start: int) -> "ForwardCache":
        """The cache of rows ``start:`` of the batch, as views."""
        return ForwardCache(x=self.x[start:], acts=[a[start:] for a in self.acts])


def _input(model: Model, x: np.ndarray) -> np.ndarray:
    """``x`` as a float64 (N, D) array for the model's input width D."""
    xb = np.asarray(x, dtype=np.float64)
    if xb.ndim != 2 or xb.shape[1] != model.dims[0]:
        raise ValueError(f"input shape {xb.shape} incompatible with feature dim {model.dims[0]}")
    return xb


def forward_features_cached(model: Model, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """The features of ``x`` and the cache that ``backward`` reads: the
    statements of ``forward_features``, each layer's activation kept."""
    xb = _input(model, x)
    act, _ = _ACTIVATIONS[model.activation]
    acts = []
    a = xb
    for w, b in zip(model.weights, model.biases):
        a = a @ w.T
        a += b
        a = act(a, out=a)
        acts.append(a)
    return a, ForwardCache(x=xb, acts=acts)


def forward_features(model: Model, x: np.ndarray) -> np.ndarray:
    """The features of ``x``, equal to ``forward_features_cached(model, x)[0]``
    with no cache kept: each layer's matmul result takes its bias and its
    activation in place.  ``x`` itself is never written."""
    act, _ = _ACTIVATIONS[model.activation]
    a = _input(model, x)
    for w, b in zip(model.weights, model.biases):
        a = a @ w.T
        a += b
        a = act(a, out=a)
    return a


def head_logits(head: Head, features: np.ndarray) -> np.ndarray:
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[1] != head.w.shape[1]:
        raise ValueError(f"features shape {f.shape} vs head expects width {head.w.shape[1]}")
    return f @ head.w.T + head.b


def stacked_head_logits(model: Model, features: np.ndarray) -> np.ndarray:
    """Every head's logits from one matmul: (N, H, K), heads in HEAD_NAMES
    order."""
    return ((features @ model.head_w.T + model.head_b)
            .reshape(features.shape[0], len(HEAD_NAMES), model.k))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax.  Non-finite logits are not rejected (a row holding
    NaN or +inf comes out NaN); the training step checks its logits once."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def backward(model: Model, cache: ForwardCache, head_grads: np.ndarray) -> np.ndarray:
    """Exact gradients given dL/dlogits of every head as one (N, H, K) array,
    heads in HEAD_NAMES order, already carrying any 1/N averaging; a head
    whose slab is zero contributes nothing.  The heads' parameter gradients
    and dL/dfeatures each come from one matmul over the stacked heads.  Each
    backbone layer's activation derivative is read off its cached activation.

    The gradients are written into ``model.grad``, which the first call
    allocates, and that vector is returned; the next call overwrites it.
    ``model.parameters(grad)`` names its slices."""
    _, act_grad = _ACTIVATIONS[model.activation]
    feats = cache.acts[-1]
    n = feats.shape[0]
    g = np.asarray(head_grads, dtype=np.float64)
    if g.shape != (n, len(HEAD_NAMES), model.k):
        raise ValueError(f"head gradient shape {g.shape}, "
                         f"expected {(n, len(HEAD_NAMES), model.k)}")
    g = g.reshape(n, -1)
    if model.grad is None:
        model.grad = np.zeros_like(model.flat)
        model._grad = _carve(model.grad, model.dims, model.k)
    weights, biases, head_w, head_b = model._grad
    np.matmul(g.T, feats, out=head_w)
    np.sum(g, axis=0, out=head_b)
    da = g @ model.head_w
    for i in range(len(model.weights) - 1, -1, -1):
        da *= act_grad(cache.acts[i])  # now dL/dz of layer i
        a_prev = cache.x if i == 0 else cache.acts[i - 1]
        np.matmul(da.T, a_prev, out=weights[i])
        np.sum(da, axis=0, out=biases[i])
        if i > 0:
            da = da @ model.weights[i]
    return model.grad


@dataclass
class OptimizerState:
    """SGD with classic momentum and decoupled-from-nothing weight decay:
    v <- m*v + g + wd*p; p <- p - lr*v.  Decay applies to weights and biases
    alike so the bias term stays free to drift under data pressure only.
    ``velocity`` is one vector in the layout of ``Model.flat``.  The constants
    are a ``TrainSection``'s, range-checked there."""

    learning_rate: float
    momentum: float
    weight_decay: float
    velocity: np.ndarray | None = None


def sgd_step(model: Model, grad: np.ndarray, state: OptimizerState) -> None:
    """One update of ``model.flat`` from ``grad``, a vector of the same
    layout (backward's result)."""
    if state.velocity is None:
        state.velocity = np.zeros_like(model.flat)
    v = state.velocity
    v *= state.momentum
    v += grad + state.weight_decay * model.flat
    model.flat -= state.learning_rate * v


def model_to_checkpoint_obj(model: Model, config_hash: str = "") -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "config_hash": config_hash,
        "k": model.k,
        "dims": list(model.dims),
        "activation": model.activation,
        "params": {name: [v if math.isfinite(v) else None for v in p.ravel().tolist()]
                   for name, p in model.parameters()},
    }


def model_from_checkpoint_obj(obj: dict) -> Model:
    """The model a checkpoint object holds; anything else is a ValueError.
    ``k`` and ``dims`` take integers and ``params`` finite JSON numbers, as
    many as the layout needs: that is checked before the model is allocated.
    The error names the parameter at fault."""
    if not isinstance(obj, dict) or obj.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a JSON object of the checkpoint format {CHECKPOINT_FORMAT!r}")
    k, dims, activation, params = (obj.get(key) for key in ("k", "dims", "activation", "params"))
    if not (isinstance(dims, list) and dims and all(type(v) is int for v in (k, *dims))):
        raise ValueError(f"checkpoint k and dims must be integers, got k={k!r}, dims={dims!r}")
    if not isinstance(params, dict):
        raise ValueError("checkpoint params must be an object of arrays")
    values = {name: _json_numbers(v, f"checkpoint parameter {name!r}")
              for name, v in params.items()}
    expected = sum(math.prod(shape) for shape in _shapes(tuple(dims), k))
    if sum(v.size for v in values.values()) != expected:
        raise ValueError(f"checkpoint params do not hold the {expected} values of k={k}, "
                         f"dims={dims}")
    model = Model(tuple(dims), k, activation)
    for name, p in model.parameters():
        if name not in values or values[name].size != p.size:
            raise ValueError(f"checkpoint parameter {name!r} is missing or does not hold "
                             f"{p.size} values")
        if not np.isfinite(values[name]).all():
            raise ValueError(f"checkpoint parameter {name!r} holds a non-finite value")
        p[...] = values[name].reshape(p.shape)
    return model
