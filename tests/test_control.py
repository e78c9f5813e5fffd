"""Threshold initialization and decay, bias extraction, calibration, blocked
inference."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import default_widths, per_head_logits
from imbalanced_ssl import network
from imbalanced_ssl.config import TrainSection
from imbalanced_ssl.control import (
    VIEWS,
    ThresholdState,
    _block_rows,
    _blocks,
    calibrate_logits,
    estimate_unlabeled_distribution,
    extract_bias_vector,
    init_thresholds,
    predict,
    update_thresholds,
)
from imbalanced_ssl.diagnostics import evaluate, separation_violation_rate
from imbalanced_ssl.network import forward_features, init_model

HEAD5 = np.array([True] * 5 + [False] * 5)
T = TrainSection()


def test_init_known_values_large_factor():
    st = init_thresholds(c=6.0, gamma_u=100.0, head_classes=HEAD5, t=T)
    assert st.rho_b[0] == pytest.approx(0.95, abs=1e-12)
    assert st.rho_e[0] == pytest.approx(0.95, abs=1e-12)
    # saturated scaling: rho_b = 0.95 - (2/10), rho_e = 0.95 - (3/5)
    assert st.rho_b[7] == pytest.approx(0.75, abs=1e-12)
    assert st.rho_e[7] == pytest.approx(0.35, abs=1e-12)
    assert np.allclose(st.rho_b[:5], 0.95)
    assert np.allclose(st.rho_e[:5], 0.95)
    assert np.allclose(st.rho_b[5:], 0.75)
    assert np.allclose(st.rho_e[5:], 0.35)


def test_init_known_values_small_factor():
    st = init_thresholds(c=4.0, gamma_u=100.0, head_classes=HEAD5, t=T)
    assert st.rho_b[9] == pytest.approx(0.95, abs=1e-12)
    assert st.rho_e[9] == pytest.approx(0.75, abs=1e-12)


def test_init_ratio_scaling_unsaturated():
    # gamma_u 25: min(25/50, 1) = 0.5 for rho_b, min(25/20, 1) = 1 for rho_e
    st = init_thresholds(c=6.0, gamma_u=25.0, head_classes=HEAD5, t=T)
    assert st.rho_b[9] == pytest.approx(0.95 - 0.2 * 0.5, abs=1e-12)
    assert st.rho_e[9] == pytest.approx(0.35, abs=1e-12)


def test_init_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        init_thresholds(c=9.0, gamma_u=1000.0, head_classes=HEAD5, t=T)


def test_update_decays_only_flagged_classes():
    st = init_thresholds(c=4.0, gamma_u=100.0, head_classes=HEAD5, t=T)
    new = update_thresholds(st, np.array([2.0] + [0.0] * 9), T)
    assert new.rho_b[0] == pytest.approx(st.rho_b[0] - 0.005, abs=1e-15)
    assert new.rho_e[0] == pytest.approx(st.rho_e[0] - 0.005, abs=1e-15)
    assert np.array_equal(new.rho_b[1:], st.rho_b[1:])
    assert np.array_equal(new.rho_e[1:], st.rho_e[1:])
    # strictly-above-nu semantics
    same = update_thresholds(st, np.full(10, 1.0), T)
    assert np.array_equal(same.rho_b, st.rho_b)


def test_update_clamps_at_floor():
    t = replace(T, alpha=0.2, rho_floor=0.5)
    st = init_thresholds(c=4.0, gamma_u=100.0, head_classes=HEAD5, t=t)
    bias = np.full(10, 5.0)
    for _ in range(5):
        st = update_thresholds(st, bias, t)
    assert np.all(st.rho_b >= 0.5 - 1e-15)
    assert np.all(st.rho_e >= 0.5 - 1e-15)
    assert st.rho_b[9] == pytest.approx(0.5)


def test_entries_born_below_floor_are_frozen():
    st = init_thresholds(c=6.0, gamma_u=100.0, head_classes=HEAD5, t=T)
    assert st.rho_e[9] == pytest.approx(0.35)  # below the 0.5 floor by design
    bias = np.full(10, 5.0)
    for _ in range(60):
        st = update_thresholds(st, bias, T)
    # frozen in place: never decays further, never gets pulled up
    assert st.rho_e[9] == pytest.approx(0.35, abs=1e-12)
    assert st.rho_b[9] == pytest.approx(0.5, abs=1e-12)


def test_trajectories_nonincreasing_under_any_bias():
    rng = np.random.default_rng(0)
    st = init_thresholds(c=6.0, gamma_u=100.0, head_classes=HEAD5, t=T)
    prev_b, prev_e = st.rho_b.copy(), st.rho_e.copy()
    for _ in range(200):
        st = update_thresholds(st, rng.normal(0, 2, size=10), T)
        assert np.all(st.rho_b <= prev_b + 1e-15)
        assert np.all(st.rho_e <= prev_e + 1e-15)
        prev_b, prev_e = st.rho_b.copy(), st.rho_e.copy()


def _with_entry(value):
    rho = np.full((3, 4), 0.9)
    rho[2, 3] = value
    return rho


@pytest.mark.parametrize("thresholds", [
    pytest.param([[0.9] * 4] * 3, id="list"),
    pytest.param(np.ones((3, 4), dtype=np.int64), id="int-dtype"),
    pytest.param(np.full(4, 0.9), id="1-d"),
    pytest.param(np.full((3, 4, 1), 0.9), id="3-d"),
    pytest.param(np.full((2, 4), 0.9), id="two-rows"),
    pytest.param(np.full((3, 1), 0.9), id="one-class"),
    pytest.param(_with_entry(np.nan), id="nan"),
    pytest.param(_with_entry(np.inf), id="inf"),
    pytest.param(_with_entry(-np.inf), id="-inf"),
    pytest.param(_with_entry(0.0), id="zero"),
    pytest.param(_with_entry(-0.1), id="negative"),
    pytest.param(_with_entry(1.0 + 1e-12), id="above-one"),
])
def test_threshold_state_rejects_a_bad_matrix(thresholds):
    with pytest.raises(ValueError, match="thresholds"):
        ThresholdState(thresholds)


def test_threshold_state_accepts_entries_below_the_floor():
    # init_thresholds starts the expansive head at 0.35 < rho_floor here
    state = init_thresholds(c=6.0, gamma_u=100.0, head_classes=HEAD5, t=T)
    assert state.rho_e.min() < T.rho_floor
    rho = _with_entry(1e-300)
    assert ThresholdState(rho).thresholds is rho
    assert not rho.flags.writeable


@st.composite
def _controller_runs(draw):
    """A threshold state, a sequence of arbitrary finite output-head bias
    vectors to tick it with, and controller constants that pass
    TrainSection's check."""
    k = draw(st.integers(2, 12))
    rho_max = draw(st.floats(0.01, 1.0))
    t = replace(T, rho_max=rho_max, alpha=draw(st.floats(1e-6, 1.0)),
                nu=draw(st.floats(-5.0, 5.0)),
                rho_floor=draw(st.floats(0.0, rho_max, exclude_min=True, exclude_max=True)))
    entries = st.lists(st.floats(0.0, rho_max, exclude_min=True), min_size=k, max_size=k)
    thresholds = np.array([np.full(k, rho_max), draw(entries), draw(entries)])
    state = ThresholdState(thresholds)
    bias = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=k, max_size=k)
    return state, draw(st.lists(bias, max_size=40)), t


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_controller_runs())
def test_update_never_raises_nor_sinks_below_the_floor(run):
    # every tick leaves each entry where it was or lowers it, and never below
    # min(its initial value, rho_floor)
    state, biases, t = run
    lowest = {name: np.minimum(getattr(state, name), t.rho_floor)
              for name in ("rho_b", "rho_e")}
    for b in biases:
        new = update_thresholds(state, np.array(b), t)
        for name, bound in lowest.items():
            assert np.all(getattr(new, name) <= getattr(state, name))
            assert np.all(getattr(new, name) >= bound)
        state = new


def test_tick_leaves_the_thresholds_read_only():
    st = init_thresholds(c=6.0, gamma_u=100.0, head_classes=HEAD5, t=T)
    new = update_thresholds(st, np.array([2.0] * 5 + [0.0] * 5), T)
    assert new is not st
    assert np.all(new.rho_b[:5] < st.rho_b[:5])
    for state in (st, new):
        for rho in (state.rho_b, state.rho_e):
            with pytest.raises(ValueError):
                rho[0] = 0.1
    # a tick with no hot class hands the same state back
    assert update_thresholds(new, np.zeros(10), T) is new


def test_state_carries_the_threshold_matrix_across_ticks():
    st = init_thresholds(c=6.0, gamma_u=100.0, head_classes=HEAD5, t=T)
    new = update_thresholds(st, np.array([2.0] * 5 + [0.0] * 5), T)
    for state in (st, new):
        # one row per head: original at rho_max, then rho_b and rho_e as views
        assert state.thresholds.shape == (3, 10)
        assert np.all(state.thresholds[0] == T.rho_max)
        assert state.rho_b.base is state.thresholds and state.rho_e.base is state.thresholds
        assert np.array_equal(state.thresholds[1:], np.stack([state.rho_b, state.rho_e]))
        with pytest.raises(ValueError):
            state.thresholds[0, 0] = 0.1
    assert not np.shares_memory(new.thresholds, st.thresholds)


def test_tick_reads_the_live_output_bias_without_copying_it():
    m = _model()
    st = init_thresholds(c=4.0, gamma_u=100.0, head_classes=np.array([True, True, False, False]),
                         t=T)
    m.heads["output"].b[:] = [0.0, 0.0, 3.0, 0.0]
    new = update_thresholds(st, m.heads["output"].b, T)
    assert new.rho_b[2] == pytest.approx(st.rho_b[2] - T.alpha)
    assert not np.shares_memory(new.rho_b, m.flat)


def _model(seed=0):
    return init_model(k=4, d=5, hidden=(6,), feature=4, seed=seed)


def test_bias_vector_is_a_copy_of_output_bias():
    m = _model()
    assert np.array_equal(extract_bias_vector(m), np.zeros(4))
    m.heads["output"].b[:] = [0.5, -1.0, 2.0, 0.0]
    m.heads["original"].b[:] = [9.0] * 4
    m.heads["expansive"].b[:] = [-9.0] * 4
    vec = extract_bias_vector(m)
    assert vec.tolist() == [0.5, -1.0, 2.0, 0.0]
    with pytest.raises(ValueError):
        vec[0] = 123.0  # snapshot is read-only
    m.heads["output"].b[0] = 77.0
    assert vec[0] == 0.5  # and detached from the live model


def test_calibration_strips_exactly_the_bias():
    m = _model(seed=1)
    m.heads["output"].b[:] = [1.0, -2.0, 0.5, 3.0]
    x = np.random.default_rng(2).normal(size=(50, 5))
    f = forward_features(m, x)
    cal = calibrate_logits(m, f)
    raw = per_head_logits(m, "output", f)
    assert np.max(np.abs(cal + m.heads["output"].b - raw)) <= 1e-12
    assert np.allclose(cal, f @ m.heads["output"].w.T, atol=1e-12)


def test_calibration_can_flip_the_argmax():
    # one-hot features with an identity-style head: the bias alone decides
    # sample 0, and stripping it flips the winner
    m = init_model(k=2, d=2, hidden=(2,), feature=2, seed=0)
    # in place: the parameters are views into the model's flat vector
    m.weights[0][...] = np.eye(2)
    m.biases[0][...] = 0.0
    m.heads["output"].w[:] = np.eye(2)
    m.heads["output"].b[:] = [1.0, 0.0]
    x = np.array([[0.4, 0.8]])
    f = forward_features(m, x)
    assert int(per_head_logits(m, "output", f).argmax()) == 0
    assert int(calibrate_logits(m, f).argmax()) == 1


def test_predict_calibrated_ties_break_low():
    m = _model(seed=3)
    m.heads["output"].w[:] = 0.0
    m.heads["output"].b[:] = [5.0, 1.0, 1.0, 1.0]
    x = np.ones((4, 5))
    # the confusion matrix's column sums count the predicted classes
    cal = evaluate(m, [(x, np.arange(4))])["calibrated"]
    assert cal.confusion.sum(axis=0).tolist() == [4, 0, 0, 0]
    assert estimate_unlabeled_distribution(m, x).tolist() == [4, 0, 0, 0]


def test_estimated_distribution_is_a_histogram():
    m = _model(seed=4)
    x = np.random.default_rng(5).normal(size=(300, 5))
    est = estimate_unlabeled_distribution(m, x)
    assert est.shape == (4,)
    assert est.dtype.kind == "i"
    assert est.sum() == 300
    preds = np.argmax(calibrate_logits(m, forward_features(m, x)), axis=1)
    assert np.array_equal(est, np.bincount(preds, minlength=4))


@pytest.mark.parametrize("n", [1, 127, 128, 129, 239, 240, 241, 481, 1023, 1024, 1025, 2047,
                               2048, 2049, 3073, 10_000])
def test_blocks_tile_the_rows(n):
    for rows in (128, 240, 1024):
        bounds = _blocks(n, rows)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(stop == start for (_, stop), (start, _) in zip(bounds, bounds[1:]))
        sizes = [stop - start for start, stop in bounds]
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= rows
        if n <= rows:
            assert sizes == [n]
        else:
            assert min(sizes) >= rows // 2


def _view_logits(m, x, view):
    """One forward over every row of ``x``, and the view's logits, a head's
    from its own matmul (the per-head reference)."""
    f = forward_features(m, x)
    return calibrate_logits(m, f) if view == "calibrated" else per_head_logits(m, view, f)


def _monolithic(m, x, view):
    """One forward over every row of ``x``, and the view's argmax."""
    return np.argmax(_view_logits(m, x, view), axis=1)


@pytest.mark.parametrize("n", [241, 256, 1000, 1025, 10_000])
def test_predict_equals_one_forward(n):
    # the rows go in equal blocks of at most 240 at the default widths (241
    # rows as 120 + 121); every head view of a block comes from one stacked
    # matmul, whose logits equal each head's own matmul bit for bit from 128
    # rows on, and whose argmax matched it on these 120-row blocks too
    m = default_widths()
    x = np.random.default_rng(n).normal(scale=2.0, size=(n, 16))
    preds = predict(m, x, VIEWS)
    assert preds.shape == (len(VIEWS), n)
    for view, got in zip(VIEWS, preds):
        assert np.array_equal(got, _monolithic(m, x, view)), view


def test_calibrated_logits_of_a_row_prefix_equal_those_of_all_rows():
    # the calibrated logits are the output slab of the stacked (rows, 3K)
    # product, which leaves OpenBLAS's small-matrix path from 41 rows at
    # K = 10, while a (rows, K) product of its own leaves it from 121: so a
    # block of any size a split input gets at the default widths (64 to 240
    # rows) reads the bits of one product over all rows
    m = default_widths()
    f = forward_features(m, np.random.default_rng(7).normal(scale=2.0, size=(240, 16)))
    whole = calibrate_logits(m, f)
    for r in range(64, 241):
        assert np.array_equal(calibrate_logits(m, f[:r]), whole[:r]), r


@pytest.mark.parametrize("k", [2, 3])
def test_logits_of_every_split_block_size_equal_those_of_all_rows_at_few_classes(k):
    # at K <= 3 the stacked (rows, 3K) product keeps OpenBLAS's small-matrix
    # path up to 1,200 / 3K rows (200 at K = 2, 133 at K = 3), so the block
    # rule keeps every split block, half a full one or more, above that: the
    # head logits and the calibrated slab of any such block read the bits of
    # one product over all rows
    m = default_widths(k=k)
    rows = _block_rows(m.dims[1:], m.k)
    assert rows == {2: 402, 3: 268}[k]
    f = forward_features(m, np.random.default_rng(k).normal(scale=2.0, size=(1200, 16)))
    heads, calibrated = network.head_logits(m, f), calibrate_logits(m, f)
    for r in range((rows + 1) // 2, rows + 1):
        assert np.array_equal(network.head_logits(m, f[:r]), heads[:r]), r
        assert np.array_equal(calibrate_logits(m, f[:r]), calibrated[:r]), r


@pytest.mark.parametrize("n", [256, 3073])
def test_predict_calibrated_alone_makes_no_head_matmul(monkeypatch, n):
    # the calibrated view never reads the stacked head logits, so a call that
    # asks for it alone skips their matmul and predicts the same row
    m = default_widths()
    x = np.random.default_rng(n).normal(scale=2.0, size=(n, 16))
    calls = []
    head_logits = network.head_logits
    monkeypatch.setattr(network, "head_logits",
                        lambda *args: calls.append(args) or head_logits(*args))
    four = predict(m, x, VIEWS)
    assert len(calls) == len(_blocks(n, _block_rows(m.dims[1:], m.k)))
    calls.clear()
    alone = predict(m, x, ("calibrated",))
    assert calls == []
    assert np.array_equal(alone[0], four[VIEWS.index("calibrated")])


@pytest.mark.parametrize("n", [1, 7, 50, 99])
def test_a_small_block_flips_only_a_tie(n):
    # below about 120 rows OpenBLAS takes its small-matrix path, and the
    # stacked matmul can differ from a head's own in the last bit: a view's
    # prediction may then differ from the per-head reference only on a row
    # whose top two reference logits tie to within a few ulps
    m = default_widths()
    x = np.random.default_rng(n).normal(scale=2.0, size=(n, 16))
    for view, got in zip(VIEWS, predict(m, x, VIEWS)):
        z = _view_logits(m, x, view)
        top2 = np.sort(z, axis=1)[:, -2:]
        tie = top2[:, 1] - top2[:, 0] <= 4 * np.spacing(np.abs(top2[:, 1]))
        assert np.all((got == np.argmax(z, axis=1)) | tie), view


def test_estimated_distribution_over_blocks_equals_one_forward():
    m = default_widths()
    x = np.random.default_rng(6).normal(scale=2.0, size=(3_000, 16))
    want = np.bincount(_monolithic(m, x, "calibrated"), minlength=10)
    assert np.array_equal(estimate_unlabeled_distribution(m, x), want)


@pytest.mark.parametrize("x", [np.zeros((0, 5)), np.zeros(5), np.zeros(0), np.zeros((2, 5, 1))],
                         ids=["no-rows", "one-row-1d", "empty-1d", "3d"])
def test_inference_refuses_anything_but_a_nonempty_row_array(x):
    # predict holds the one row check of inference; each caller reaches it
    m = _model(seed=2)
    calls = {
        "predict": lambda: predict(m, x, ("output",)),
        "estimate_unlabeled_distribution": lambda: estimate_unlabeled_distribution(m, x),
        "evaluate": lambda: evaluate(m, [(x, np.zeros(len(x), dtype=np.intp))]),
        "separation_violation_rate": lambda: separation_violation_rate(
            m, x, 2, 1.0, strength=1.0, dropout=0.2, seed=0),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=r"nonempty \(N, D\) array"):
            call()


_THREADED_FORWARD = """
import sys
import numpy as np
from conftest import default_widths
from imbalanced_ssl.control import VIEWS, predict
from imbalanced_ssl.network import forward_features
m = default_widths()
x = np.random.default_rng(7).normal(scale=2.0, size=(10_000, 16))
sys.stdout.buffer.write(forward_features(m, x).tobytes())
sys.stdout.buffer.write(predict(m, x, VIEWS).tobytes())
"""


def test_inference_is_identical_across_blas_thread_counts():
    # OpenBLAS reads its thread count when it loads, so each count gets its
    # own process
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    out = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, tests])}
        run = subprocess.run([sys.executable, "-c", _THREADED_FORWARD], env=env,
                             capture_output=True, timeout=120, check=True)
        out.append(run.stdout)
    assert len(out[0]) == 10_000 * 32 * 8 + 4 * 10_000 * np.dtype(np.intp).itemsize
    assert out[0] == out[1]
