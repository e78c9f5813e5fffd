"""From-scratch MLP backbone with three affine classification heads.

The backbone maps D -> hidden... -> Q with the activation applied after every
layer (features are post-activation).  Three heads share it: "original"
(plain self-training), "output" (balanced, calibrated at inference), and
"expansive" (aggressively sampled).  Gradients are exact reverse-mode; the
backbone gradient accumulates every head's contribution.

Checkpoint format (normative field order): a JSON object with keys
``format``, ``config_hash``, ``k``, ``dims``, ``activation``, and ``params``;
``params`` maps each name in PARAM_ORDER to its array flattened row-major
(C order).  JSON floats round-trip exactly (shortest-repr encoding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Backbone",
    "Head",
    "Model",
    "OptimizerState",
    "HEAD_NAMES",
    "CHECKPOINT_FORMAT",
    "init_model",
    "forward_features",
    "forward_features_cached",
    "head_logits",
    "softmax",
    "backward",
    "sgd_step",
    "param_order",
    "model_to_checkpoint_obj",
    "model_from_checkpoint_obj",
]

HEAD_NAMES = ("original", "output", "expansive")
CHECKPOINT_FORMAT = "imbalanced-ssl-checkpoint-v1"

_MODEL_INIT_STREAM = 10


def _relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def _relu_grad(z: np.ndarray) -> np.ndarray:
    return (z > 0.0).astype(np.float64)


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_ACTIVATIONS = {
    "relu": (_relu, _relu_grad),
    # smooth variant: reserved for finite-difference gradient checks, where
    # the ReLU kink would contaminate the comparison
    "softplus": (_softplus, _sigmoid),
}


@dataclass
class Backbone:
    weights: list[np.ndarray]  # layer i: (dims[i+1], dims[i])
    biases: list[np.ndarray]
    activation: str = "relu"

    def __post_init__(self) -> None:
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights and biases must pair up, at least one layer")

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)


@dataclass
class Head:
    w: np.ndarray  # (K, Q)
    b: np.ndarray  # (K,)


@dataclass
class Model:
    backbone: Backbone
    heads: dict[str, Head]

    @property
    def k(self) -> int:
        return int(self.heads["output"].w.shape[0])

    @property
    def d(self) -> int:
        return self.backbone.dims[0]

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """All parameters in the normative order (backbone layers first,
        then heads in HEAD_NAMES order, weight before bias)."""
        out = []
        for i, (w, b) in enumerate(zip(self.backbone.weights, self.backbone.biases)):
            out.append((f"backbone.w{i}", w))
            out.append((f"backbone.b{i}", b))
        for name in HEAD_NAMES:
            out.append((f"head_{name}.w", self.heads[name].w))
            out.append((f"head_{name}.b", self.heads[name].b))
        return out


def param_order(model: Model) -> list[str]:
    return [name for name, _ in model.parameters()]


def init_model(k: int, d: int, hidden: tuple[int, ...] = (64, 64), feature: int = 32,
               seed: int = 0, activation: str = "relu") -> Model:
    """He-style uniform fan-in init for all weights; every bias starts at
    zero so later bias drift is attributable to optimization pressure alone."""
    if k < 2:
        raise ValueError("k must be >= 2")
    dims = (d, *hidden, feature)
    rng = np.random.default_rng([seed, _MODEL_INIT_STREAM])
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    heads = {}
    for name in HEAD_NAMES:
        limit = np.sqrt(6.0 / feature)
        heads[name] = Head(w=rng.uniform(-limit, limit, size=(k, feature)),
                           b=np.zeros(k, dtype=np.float64))
    return Model(backbone=Backbone(weights=weights, biases=biases, activation=activation),
                 heads=heads)


@dataclass
class ForwardCache:
    x: np.ndarray                 # (N, D)
    pre_acts: list[np.ndarray]    # z per layer, (N, dims[i+1])
    acts: list[np.ndarray]        # activation(z) per layer; acts[-1] = features


def forward_features_cached(model: Model, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    xb = np.asarray(x, dtype=np.float64)
    if xb.ndim != 2 or xb.shape[1] != model.d:
        raise ValueError(f"input shape {xb.shape} incompatible with feature dim {model.d}")
    act, _ = _ACTIVATIONS[model.backbone.activation]
    pre_acts = []
    acts = []
    a = xb
    for w, b in zip(model.backbone.weights, model.backbone.biases):
        z = a @ w.T + b
        a = act(z)
        pre_acts.append(z)
        acts.append(a)
    return a, ForwardCache(x=xb, pre_acts=pre_acts, acts=acts)


def forward_features(model: Model, x: np.ndarray) -> np.ndarray:
    feats, _ = forward_features_cached(model, x)
    return feats


def head_logits(head: Head, features: np.ndarray) -> np.ndarray:
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[1] != head.w.shape[1]:
        raise ValueError(f"features shape {f.shape} vs head expects width {head.w.shape[1]}")
    return f @ head.w.T + head.b


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax.  Non-finite logits are not rejected (a row holding
    NaN or +inf comes out NaN); the training step checks its logits once."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def backward(model: Model, cache: ForwardCache,
             head_grads: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Exact gradients for dL/dlogits given per head (already carrying any
    1/N averaging).  Heads absent from head_grads contribute nothing."""
    _, act_grad = _ACTIVATIONS[model.backbone.activation]
    feats = cache.acts[-1]
    n, q = feats.shape
    grads: dict[str, np.ndarray] = {}
    dfeat = np.zeros((n, q), dtype=np.float64)
    for name, g in head_grads.items():
        head = model.heads[name]
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (n, head.w.shape[0]):
            raise ValueError(f"head {name!r} gradient shape {g.shape}, expected {(n, head.w.shape[0])}")
        grads[f"head_{name}.w"] = g.T @ feats
        grads[f"head_{name}.b"] = g.sum(axis=0)
        dfeat += g @ head.w
    da = dfeat
    for i in range(len(model.backbone.weights) - 1, -1, -1):
        dz = da * act_grad(cache.pre_acts[i])
        a_prev = cache.x if i == 0 else cache.acts[i - 1]
        grads[f"backbone.w{i}"] = dz.T @ a_prev
        grads[f"backbone.b{i}"] = dz.sum(axis=0)
        if i > 0:
            da = dz @ model.backbone.weights[i]
    for name in HEAD_NAMES:
        grads.setdefault(f"head_{name}.w", np.zeros_like(model.heads[name].w))
        grads.setdefault(f"head_{name}.b", np.zeros_like(model.heads[name].b))
    return grads


@dataclass
class OptimizerState:
    """SGD with classic momentum and decoupled-from-nothing weight decay:
    v <- m*v + g + wd*p; p <- p - lr*v.  Decay applies to weights and biases
    alike so the bias term stays free to drift under data pressure only."""

    learning_rate: float = 0.03
    momentum: float = 0.9
    weight_decay: float = 0.0005
    velocities: dict[str, np.ndarray] | None = None

    def __post_init__(self) -> None:
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be >= 0")


def sgd_step(model: Model, grads: dict[str, np.ndarray], state: OptimizerState) -> None:
    if state.velocities is None:
        state.velocities = {name: np.zeros_like(p) for name, p in model.parameters()}
    for name, param in model.parameters():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(param)
        v = state.velocities[name]
        v *= state.momentum
        v += g + state.weight_decay * param
        param -= state.learning_rate * v


def model_to_checkpoint_obj(model: Model, config_hash: str = "") -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "config_hash": config_hash,
        "k": model.k,
        "dims": list(model.backbone.dims),
        "activation": model.backbone.activation,
        "params": {name: np.asarray(p).ravel(order="C").tolist()
                   for name, p in model.parameters()},
    }


def model_from_checkpoint_obj(obj: dict) -> Model:
    if obj.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a recognized checkpoint (format={obj.get('format')!r})")
    dims = tuple(int(v) for v in obj["dims"])
    k = int(obj["k"])
    model = init_model(k=k, d=dims[0], hidden=dims[1:-1], feature=dims[-1],
                       seed=0, activation=obj["activation"])
    params = obj["params"]
    for name, p in model.parameters():
        flat = np.asarray(params[name], dtype=np.float64)
        if flat.size != p.size:
            raise ValueError(f"checkpoint parameter {name!r} has {flat.size} values, expected {p.size}")
        p[...] = flat.reshape(p.shape)
    return model
