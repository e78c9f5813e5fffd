"""From-scratch MLP backbone with three affine classification heads.

The backbone maps D -> hidden... -> Q with a ReLU after every layer (features
are post-activation).  Three heads share it: "original" (plain
self-training), "output" (balanced, calibrated at inference), and
"expansive" (aggressively sampled).  Gradients are exact reverse-mode; the
backbone gradient accumulates every head's contribution.

Storage: every parameter is a view into one contiguous float64 vector,
``Model.flat``, laid out as the backbone layers (weight then bias) followed by
the heads stacked in HEAD_NAMES order, all weights ``(H*K, Q)`` then all
biases ``(H*K,)``; ``_carve`` is the one place that cuts it, and
``head_logits``, the one logits function of training and inference, reads
every head off the stacked blocks in one matmul.  ``Model.grad``
and ``Model.velocity`` have the same layout; the first ``backward`` allocates
the gradient and the first ``sgd_step`` the momentum buffer, and
``sgd_step`` updates ``flat`` with three vector operations, its constants
read off the run's ``TrainSection``.

Both forwards run one layer loop, ``_layers``, whose matmul result takes
the bias and the ReLU in place.  Inference (``forward_features``) keeps
only the current and previous layers' activations alive; training
(``forward_features_cached``) keeps every layer's, and ``backward`` reads
the ReLU's derivative off it (``a > 0``), so no pre-activation is stored.

Checkpoint format: a JSON object with keys ``format``, ``config_hash``,
``k``, ``dims``, ``activation`` (always ``"relu"``), and ``params``;
``params`` maps each name of ``Model.parameters`` to its array flattened
row-major (C order).
``write_checkpoint`` writes it indented by two, keys sorted at every level,
streaming the values.  JSON floats round-trip exactly (shortest-repr
encoding).  A non-finite value, which only the checkpoint of an aborted run
holds, is written as null, so the file stays strict JSON and the reader
rejects it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .distributions import _json_numbers

if TYPE_CHECKING:
    from .config import TrainSection

__all__ = [
    "Head",
    "Model",
    "HEAD_NAMES",
    "CHECKPOINT_FORMAT",
    "init_model",
    "forward_features",
    "forward_features_cached",
    "head_logits",
    "backward",
    "sgd_step",
    "write_checkpoint",
    "model_from_checkpoint_obj",
]

HEAD_NAMES = ("original", "output", "expansive")
CHECKPOINT_FORMAT = "imbalanced-ssl-checkpoint-v1"

_MODEL_INIT_STREAM = 10


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
    layout, and ``velocity``, the momentum buffer, are training state: None
    until the first backward() or sgd_step() allocates them, and a model read
    from a checkpoint holds neither.  ``dims`` (the input width, then at
    least one layer width, each >= 1) and ``k`` >= 2 are a valid layout, as
    the config's sections and ``model_from_checkpoint_obj`` check them.
    """

    def __init__(self, dims: tuple[int, ...], k: int):
        dims = tuple(int(v) for v in dims)
        self.dims, self.k = dims, k
        self.flat = np.zeros(sum(math.prod(shape) for shape in _shapes(dims, k)))
        self.weights, self.biases, self.head_w, self.head_b = _carve(self.flat, dims, k)
        self.heads = {name: Head(w, b) for name, w, b in _split_heads(self.head_w, self.head_b, k)}
        self.grad: np.ndarray | None = None
        self._grad = None  # the carve of grad, made with it
        self.velocity: np.ndarray | None = None

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


def init_model(k: int, d: int, hidden: tuple[int, ...], feature: int, seed: int) -> Model:
    """He-style uniform fan-in init for all weights; every bias starts at
    zero so later bias drift is attributable to optimization pressure alone.
    The weights are drawn layer by layer, then the heads in HEAD_NAMES order."""
    model = Model((d, *hidden, feature), k)
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


def _layers(model: Model, a: np.ndarray):
    """Each backbone layer's activation of ``a`` in turn: the matmul result
    takes its bias and the ReLU in place; ``a`` is never written."""
    for w, b in zip(model.weights, model.biases):
        a = a @ w.T
        a += b
        yield np.maximum(a, 0.0, out=a)


def forward_features_cached(model: Model, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """The features of ``x`` and the cache that ``backward`` reads: every
    layer's activation of ``_layers``, kept."""
    xb = _input(model, x)
    acts = list(_layers(model, xb))
    return acts[-1], ForwardCache(x=xb, acts=acts)


def forward_features(model: Model, x: np.ndarray) -> np.ndarray:
    """The features of ``x``, equal to ``forward_features_cached(model, x)[0]``
    with no cache kept: only the last activation of ``_layers`` is held."""
    for a in _layers(model, _input(model, x)):
        pass
    return a


def head_logits(model: Model, features: np.ndarray) -> np.ndarray:
    """Every head's logits of the (N, Q) ``features`` from one matmul over
    the stacked heads: (N, H, K), heads in HEAD_NAMES order.  The training
    step and inference both read their logits here."""
    z = features @ model.head_w.T
    z += model.head_b
    return z.reshape(features.shape[0], len(HEAD_NAMES), model.k)


def backward(model: Model, cache: ForwardCache, head_grads: np.ndarray) -> np.ndarray:
    """Exact gradients given dL/dlogits of every head as one (N, H, K) float64
    array over the cache's N rows, heads in HEAD_NAMES order, already
    carrying any 1/N averaging, as ``StepLosses.head_grads`` holds it (its
    shape is not checked again here); a head whose slab is zero contributes
    nothing.  The heads' parameter gradients and dL/dfeatures each come from
    one matmul over the stacked heads.  Each backbone layer's ReLU
    derivative, ``a > 0``, is read off its cached activation.

    The gradients are written into ``model.grad``, which the first call
    allocates, and that vector is returned; the next call overwrites it.
    ``model.parameters(grad)`` names its slices."""
    feats = cache.acts[-1]
    n = feats.shape[0]
    g = head_grads.reshape(n, -1)
    if model.grad is None:
        model.grad = np.zeros_like(model.flat)
        model._grad = _carve(model.grad, model.dims, model.k)
    weights, biases, head_w, head_b = model._grad
    np.matmul(g.T, feats, out=head_w)
    np.sum(g, axis=0, out=head_b)
    da = g @ model.head_w
    for i in range(len(model.weights) - 1, -1, -1):
        da *= cache.acts[i] > 0.0  # now dL/dz of layer i
        a_prev = cache.x if i == 0 else cache.acts[i - 1]
        np.matmul(da.T, a_prev, out=weights[i])
        np.sum(da, axis=0, out=biases[i])
        if i > 0:
            da = da @ model.weights[i]
    return model.grad


def sgd_step(model: Model, grad: np.ndarray, t: TrainSection) -> None:
    """One update of ``model.flat`` from ``grad``, a vector of the same
    layout (backward's result): SGD with classic momentum and weight decay,
    v <- m*v + g + wd*p; p <- p - lr*v, with lr, m and wd read off ``t``.
    Decay applies to weights and biases alike so the bias term stays free to
    drift under data pressure only.  The first call allocates
    ``model.velocity``."""
    if model.velocity is None:
        model.velocity = np.zeros_like(model.flat)
    v = model.velocity
    v *= t.momentum
    v += grad + t.weight_decay * model.flat
    model.flat -= t.learning_rate * v


# the checkpoint writer turns this many values into text at a time, so the
# memory it holds does not grow with the widest parameter
_CHECKPOINT_CHUNK = 64


def write_checkpoint(path: str, model: Model, config_hash: str = "") -> None:
    """Write ``model``'s checkpoint to ``path``: the bytes of
    ``json.dump(obj, indent=2, sort_keys=True)`` and a newline for the
    checkpoint object ``obj`` of the format above, a non-finite value as
    null.  The parameters are converted _CHECKPOINT_CHUNK values at a time,
    so no more than one chunk of them exists as Python objects at once."""
    header = {"activation": "relu", "config_hash": config_hash,
              "dims": list(model.dims), "format": CHECKPOINT_FORMAT, "k": model.k}
    params = sorted(model.parameters(), key=lambda item: item[0])
    with open(path, "w") as fh:
        fh.write("{\n")
        # "params" sorts after every header key; the lines of a nested value
        # are indented once more
        for key, value in sorted(header.items()):
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
            fh.write(f"  {json.dumps(key)}: {text},\n")
        fh.write('  "params": {\n')
        for i, (name, p) in enumerate(params):
            fh.write(f"    {json.dumps(name)}: [\n")
            values = p.ravel()
            for start in range(0, values.size, _CHECKPOINT_CHUNK):
                chunk = values[start:start + _CHECKPOINT_CHUNK].tolist()
                fh.write(",\n".join(f"      {v!r}" if math.isfinite(v) else "      null"
                                    for v in chunk))
                fh.write(",\n" if start + _CHECKPOINT_CHUNK < values.size else "\n")
            fh.write("    ],\n" if i + 1 < len(params) else "    ]\n")
        fh.write("  }\n}\n")


def model_from_checkpoint_obj(obj: dict) -> Model:
    """The model a checkpoint object holds; anything else is a ValueError.
    ``activation`` must be ``"relu"``, the one the network runs.  ``k`` and
    ``dims`` take integers of a valid layout (k >= 2, every width >= 1) and
    ``params`` finite JSON numbers, as many as the layout needs: that is
    checked before the model is allocated.
    The error names the parameter at fault."""
    if not isinstance(obj, dict) or obj.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a JSON object of the checkpoint format {CHECKPOINT_FORMAT!r}")
    k, dims, activation, params = (obj.get(key) for key in ("k", "dims", "activation", "params"))
    if activation != "relu":
        raise ValueError(f"checkpoint activation must be 'relu', got {activation!r}")
    if not (isinstance(dims, list) and dims and all(type(v) is int for v in (k, *dims))):
        raise ValueError(f"checkpoint k and dims must be integers, got k={k!r}, dims={dims!r}")
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(dims) < 2 or min(dims) < 1:
        raise ValueError(f"need at least one layer and every width >= 1, got dims {dims}")
    if not isinstance(params, dict):
        raise ValueError("checkpoint params must be an object of arrays")
    values = {name: _json_numbers(v, f"checkpoint parameter {name!r}")
              for name, v in params.items()}
    expected = sum(math.prod(shape) for shape in _shapes(tuple(dims), k))
    if sum(v.size for v in values.values()) != expected:
        raise ValueError(f"checkpoint params do not hold the {expected} values of k={k}, "
                         f"dims={dims}")
    model = Model(tuple(dims), k)
    for name, p in model.parameters():
        if name not in values or values[name].size != p.size:
            raise ValueError(f"checkpoint parameter {name!r} is missing or does not hold "
                             f"{p.size} values")
        if not np.isfinite(values[name]).all():
            raise ValueError(f"checkpoint parameter {name!r} holds a non-finite value")
        p[...] = values[name].reshape(p.shape)
    return model
