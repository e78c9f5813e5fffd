"""Shared test plumbing.

The acceptance tests register one summary line each; the terminal hook prints
the block after the run so the pass/fail ledger is visible without -s.
"""

import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def softmax(logits):
    """Row-wise softmax over the last axis of row-major logits, the
    reference the class-major losses are checked against.  Non-finite logits
    are not rejected (a row holding NaN or +inf comes out NaN)."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def log_prior(counts):
    """log(n_c / n): the per-class shift that a step plan scales by tau."""
    c = np.asarray(counts, dtype=np.float64)
    return np.log(c / c.sum())


def balanced_softmax_loss(logits, y, tau, delta_p):
    """CE on row-major (N, K) logits shifted by tau * delta_p, the log-prior
    vector, through the class-major cross_entropy_with_grad; tau=0 reduces
    to plain CE.  Returns the value and the (N, K) gradient."""
    from imbalanced_ssl.losses import cross_entropy_with_grad
    value, grad = cross_entropy_with_grad(np.asarray(logits).T, y,
                                          adjustment=(tau * delta_p)[:, None])
    return value, grad.T


def per_head_logits(model, head, features):
    """One head's logits, ``f @ w.T + b``: the per-head reference that
    ``network.head_logits``, one matmul over the stacked heads, is checked
    against."""
    h = model.heads[head]
    return features @ h.w.T + h.b


def param_order(model) -> list[str]:
    """The model's parameter names in the checkpoint's normative order."""
    return [name for name, _ in model.parameters()]


def default_widths(k=10):
    """A model at the default widths (16 -> 64 -> 64 -> 32, 10 classes
    unless ``k`` says otherwise) with every parameter, the biases included,
    away from its initial value."""
    from imbalanced_ssl.config import TrainSection
    from imbalanced_ssl.network import init_model
    t = TrainSection()
    m = init_model(k=k, d=16, hidden=t.hidden, feature=t.feature, seed=3)
    m.flat += np.random.default_rng(4).normal(scale=0.2, size=m.flat.size)
    return m


def checkpoint_obj(model, config_hash=""):
    """The checkpoint object of ``model``, whose ``json.dump(indent=2,
    sort_keys=True)`` and a newline ``network.write_checkpoint`` writes, a
    non-finite value as None."""
    from imbalanced_ssl.network import CHECKPOINT_FORMAT
    return {
        "format": CHECKPOINT_FORMAT,
        "config_hash": config_hash,
        "k": model.k,
        "dims": list(model.dims),
        "activation": "relu",
        "params": {name: [v if math.isfinite(v) else None for v in p.ravel().tolist()]
                   for name, p in model.parameters()},
    }


def relu_pattern(model, *xs):
    """Which ReLU units are on, every layer over the rows of each of ``xs``.
    The loss is smooth in the parameters while this stays the same, so a
    finite difference whose step changes it crosses a kink and is not a
    check of the gradient."""
    from imbalanced_ssl.network import forward_features_cached
    return np.concatenate([(a > 0.0).ravel() for x in xs
                           for a in forward_features_cached(model, x)[1].acts])


def traced_peak(fn):
    """``fn()``'s result and the peak of the bytes tracemalloc traced while
    it ran.  NumPy reports its buffers to tracemalloc, so the peak is a
    count of bytes, not a timing."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def src_env(**extra):
    """The environment for a subprocess that imports the package from this
    source tree, installed or not, plus ``extra``."""
    import imbalanced_ssl
    src = os.path.dirname(os.path.dirname(imbalanced_ssl.__file__))
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_estimation_phase(config, dataset=None):
    """Train through the estimation epochs only, then match: the config's run
    cut short to end with the estimation phase (at least one epoch of it).
    Returns (model, match, estimated_counts)."""
    from imbalanced_ssl.trainer import train
    n = config.train.resolved_estimation_epochs()
    short = replace(config, train=replace(config.train, epochs=n, estimation_epochs=n))
    result = train(short, dataset=dataset)
    return result.model, result.match, result.estimated_counts
