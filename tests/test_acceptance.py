"""Acceptance gates: the eleven behavior contracts this package ships under.

Every gate records one summary line before asserting, so the pass/fail
ledger printed after the run is complete even when a gate fails.  Gate 8
is a known honest failure at this scale and is asserted at its stated
margins rather than weakened; the mechanism is documented at the assert.
"""

import itertools
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (balanced_softmax_loss, log_prior, param_order, per_head_logits,
                      record_acceptance, relu_pattern, run_estimation_phase, softmax)
from imbalanced_ssl.cli import main as cli_main
from imbalanced_ssl.config import RunConfig, TaskSection, TrainSection
from imbalanced_ssl.control import ThresholdState, calibrate_logits, init_thresholds
from imbalanced_ssl.data import generate
from imbalanced_ssl.diagnostics import bias_pattern_report, evaluate
from imbalanced_ssl.distributions import (default_anchor_set, head_mask,
                                          make_distribution, match_anchor)
from imbalanced_ssl.losses import (cross_entropy_with_grad, masked_consistency_from_logits,
                                   step_plan, total_loss)
from imbalanced_ssl.mixture import (BinaryMixtureSpec,
                                    monte_carlo_pseudo_label_probabilities,
                                    pseudo_label_probabilities)
from imbalanced_ssl.network import (HEAD_NAMES, backward, forward_features,
                                    forward_features_cached, init_model)
from imbalanced_ssl.trainer import train

SEEDS = (0, 1, 2, 3, 4)
ANCHOR_KINDS = ("consist", "uniform", "inverse", "gaussian", "gaussian-inverse")


def _mark(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _protocol_config(seed, unlabeled_kind="inverse", labeled_gamma=100.0):
    """The reference protocol: 10 classes in 16 dimensions, long-tail labeled
    split (100 max), 500-max unlabeled split of the requested shape."""
    cfg = RunConfig()
    data = replace(cfg.data, unlabeled_kind=unlabeled_kind,
                   labeled_gamma=labeled_gamma)
    return RunConfig(task=cfg.task, data=data,
                     train=replace(cfg.train, seed=seed), anchors=cfg.anchors)


@pytest.fixture(scope="session")
def inverse_runs():
    """Five full runs against an inversely imbalanced unlabeled pool,
    timed as a block (shared by the trajectory and improvement gates)."""
    t0 = time.perf_counter()
    runs = [train(_protocol_config(seed)) for seed in SEEDS]
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="session")
def consist_runs():
    """Five full runs where the unlabeled pool mirrors the labeled tail."""
    return [train(_protocol_config(seed, unlabeled_kind="consist"))
            for seed in SEEDS]


# ---------------------------------------------------------------------------
# gate 1: the closed-form pseudo-label law agrees with brute-force sampling


def test_analytic_law_matches_monte_carlo():
    t0 = time.perf_counter()
    worst = 0.0
    n = 0
    grid = itertools.product((0.55, 0.7, 0.9), (-0.5, 0.0, 0.5),
                             (0.75, 0.95), (1.0, 4.0))
    for i, (gamma, delta_p, rho, beta) in enumerate(grid):
        spec = BinaryMixtureSpec(gamma=gamma, mu1=-1.0, mu2=1.0, sigma1=1.0,
                                 sigma2=1.0, beta=beta, rho=rho, delta_p=delta_p)
        ana = pseudo_label_probabilities(spec)
        mc = monte_carlo_pseudo_label_probabilities(spec, 1_000_000, 100 + i)
        worst = max(worst, float(np.max(np.abs(ana.as_array() - mc.as_array()))))
        n += 1
    elapsed = time.perf_counter() - t0
    ok = n >= 20 and worst <= 0.005 and elapsed <= 60.0
    record_acceptance(f"gate 01 analytic law vs monte carlo: {n} specs, "
                      f"worst component gap {worst:.5f} (limit 0.005), "
                      f"{elapsed:.1f}s (limit 60s) -> {_mark(ok)}")
    assert n >= 20
    assert worst <= 0.005
    assert elapsed <= 60.0


# ---------------------------------------------------------------------------
# gate 2: ordering properties of the analytic law


def test_monotonicity_properties():
    rng = np.random.default_rng(202)
    tol = 1e-12
    pairs = 120
    violations = {"gamma": 0, "delta_p": 0, "rho": 0}

    def draw(equal_sigma):
        mu1 = float(rng.uniform(-2.0, 0.0))
        s1 = float(rng.uniform(0.4, 2.0))
        s2 = s1 if equal_sigma else float(rng.uniform(0.4, 2.0))
        return dict(gamma=float(rng.uniform(0.55, 0.95)), mu1=mu1,
                    mu2=mu1 + float(rng.uniform(0.8, 3.0)),
                    sigma1=s1, sigma2=s2, beta=float(rng.uniform(0.5, 4.0)),
                    rho=float(rng.uniform(0.55, 0.95)),
                    delta_p=float(rng.uniform(-1.0, 1.0)))

    def probs(kw, **override):
        return pseudo_label_probabilities(BinaryMixtureSpec(**{**kw, **override}))

    for _ in range(pairs):
        # the class-prior ordering is only clean when component widths match
        kw = draw(equal_sigma=True)
        g_lo, g_hi = np.sort(rng.uniform(0.51, 0.99, size=2))
        g_hi = max(g_hi, min(0.99, g_lo + 1e-4))
        if probs(kw, gamma=g_hi).p_pos < probs(kw, gamma=g_lo).p_pos - tol:
            violations["gamma"] += 1

        kw = draw(equal_sigma=False)
        d_lo, d_hi = np.sort(rng.uniform(-1.5, 1.5, size=2))
        if probs(kw, delta_p=d_hi).p_pos > probs(kw, delta_p=d_lo).p_pos + tol:
            violations["delta_p"] += 1

        kw = draw(equal_sigma=False)
        r_lo, r_hi = np.sort(rng.uniform(0.51, 0.99, size=2))
        if probs(kw, rho=r_hi).p_mask < probs(kw, rho=r_lo).p_mask - tol:
            violations["rho"] += 1

    ok = not any(violations.values())
    record_acceptance(f"gate 02 monotonicity: {pairs} ordered pairs per "
                      f"property, violations {violations} -> {_mark(ok)}")
    assert violations == {"gamma": 0, "delta_p": 0, "rho": 0}


# ---------------------------------------------------------------------------
# gate 3: analytic gradients of every loss component vs central differences,
# on the ReLU network that training runs; a difference whose step switches a
# ReLU unit on or off over the case's rows crosses a kink and is skipped


def _param(model, name):
    kind, leaf = name.split(".", 1)
    if kind == "backbone":
        store = model.weights if leaf[0] == "w" else model.biases
        return store[int(leaf[1:])]
    head = model.heads[kind.removeprefix("head_")]
    return head.w if leaf == "w" else head.b


SUP_COMPONENTS = {"ce_original": ("original", None),
                  "sup_balanced": ("output", 2.0),
                  "sup_expansive": ("expansive", 4.0)}
CON_COMPONENTS = {"con_original": "original",
                  "con_balanced": "output",
                  "con_expansive": "expansive"}
ALL_COMPONENTS = (*SUP_COMPONENTS, *CON_COMPONENTS, "total")


def _safe_threshold(model, head, x_w, rng):
    """A confidence cut with a clear margin to every weak-view confidence and
    at least two accepted samples, so finite differencing never crosses a
    mask boundary.  None when this draw of data cannot provide one."""
    z = per_head_logits(model, head, forward_features(model, x_w))
    srt = np.sort(z, axis=1)
    if float(np.min(srt[:, -1] - srt[:, -2])) < 1e-3:
        return None
    conf = softmax(z).max(axis=1)
    hi = float(np.sort(conf)[-2]) - 2e-3
    if hi <= 0.21:
        return None
    for _ in range(50):
        t = float(rng.uniform(0.21, hi))
        if float(np.min(np.abs(conf - t))) > 1e-3:
            return t
    return None


def _grad_case(rng, component):
    """A small model plus batch data, with margin-safe thresholds for
    whichever consistency terms the component needs."""
    if component in CON_COMPONENTS:
        need = (CON_COMPONENTS[component],)
    elif component == "total":
        need = ("original", "output", "expansive")
    else:
        need = ()
    for _ in range(30):
        k = int(rng.integers(3, 6))
        d = int(rng.integers(4, 7))
        model = init_model(k, d, hidden=(8, 7), feature=6,
                           seed=int(rng.integers(100_000)))
        for name in param_order(model):
            arr = _param(model, name)
            arr += rng.normal(scale=0.05, size=arr.shape)
        x_w = rng.normal(size=(9, d))
        case = {
            "k": k,
            "x_l": rng.normal(size=(8, d)),
            "y": rng.integers(0, k, size=8),
            "x_w": x_w,
            "x_s": x_w + rng.normal(scale=0.4, size=(9, d)),
            "counts": rng.integers(1, 60, size=k),
            "t": {},
        }
        case["delta_p"] = log_prior(case["counts"])
        for head in need:
            t = _safe_threshold(model, head, x_w, rng)
            if t is None:
                break
            case["t"][head] = t
        else:
            return model, case
    raise AssertionError("could not build a margin-safe gradient-check case")


def _only_head(head, g):
    """One head's (N, K) logit gradients as backward()'s (N, H, K) bundle."""
    bundle = np.zeros((g.shape[0], len(HEAD_NAMES), g.shape[1]))
    bundle[:, HEAD_NAMES.index(head)] = g
    return bundle


def _case_thresholds(case):
    """The case's per-head thresholds as the ThresholdState total_loss takes."""
    return ThresholdState(np.stack([np.full(case["k"], case["t"][head])
                                    for head in HEAD_NAMES]))


def _case_total_loss(model, case):
    """The whole objective on the case, assembled exactly the way the
    training step does, under the default training section's step plan at
    the case's batch sizes."""
    t = replace(TrainSection(), labeled_batch=case["x_l"].shape[0],
                unlabeled_batch=case["x_s"].shape[0])
    return total_loss(model, case["x_l"], case["y"], case["x_w"], case["x_s"],
                      _case_thresholds(case),
                      step_plan(t, case["counts"]))


def _named_grads(model, cache, head_grads):
    """backward()'s gradient vector, copied and split by parameter name."""
    return dict(model.parameters(backward(model, cache, head_grads).copy()))


def _component_loss(model, component, case, want_grads):
    if component in SUP_COMPONENTS:
        head, tau = SUP_COMPONENTS[component]
        feats, cache = forward_features_cached(model, case["x_l"])
        z = per_head_logits(model, head, feats)
        if tau is None:
            value, g = cross_entropy_with_grad(z.T, case["y"], 0.0)
            g = g.T
        else:
            value, g = balanced_softmax_loss(z, case["y"], tau, case["delta_p"])
        if not want_grads:
            return value, None
        return value, _named_grads(model, cache, _only_head(head, g))
    if component in CON_COMPONENTS:
        head = CON_COMPONENTS[component]
        z_w = per_head_logits(model, head, forward_features(model, case["x_w"]))
        feats_s, cache = forward_features_cached(model, case["x_s"])
        z_s = per_head_logits(model, head, feats_s)
        rep = masked_consistency_from_logits(
            z_w.T, z_s.T, np.full(case["k"], case["t"][head]), np.ones(case["k"]))
        if not want_grads:
            return rep.value, None
        return rep.value, _named_grads(model, cache, _only_head(head, rep.logit_gradients.T))
    st = _case_total_loss(model, case)
    if not want_grads:
        return st.total, None
    return st.total, _named_grads(model, st.cache, st.head_grads)


def test_gradient_check_all_losses():
    rng = np.random.default_rng(33)
    t0 = time.perf_counter()
    h = 5e-6
    worst = 0.0
    trials = skipped = 0
    for component in ALL_COMPONENTS:
        done = 0
        while done < (6 if component == "total" else 20):
            model, case = _grad_case(rng, component)
            _, grads = _component_loss(model, component, case, want_grads=True)
            candidates = [(name, int(i)) for name in param_order(model)
                          for i in np.flatnonzero(
                              np.abs(grads[name].reshape(-1)) >= 2e-5)]
            if len(candidates) < 4:
                continue
            picks = rng.choice(len(candidates),
                               size=min(10, len(candidates)), replace=False)
            rows = (case["x_l"], case["x_w"], case["x_s"])
            on = relu_pattern(model, *rows)
            for j in picks:
                name, flat_i = candidates[int(j)]
                arr = _param(model, name).reshape(-1)
                old = float(arr[flat_i])
                arr[flat_i] = old + h
                up, _ = _component_loss(model, component, case, want_grads=False)
                up_on = relu_pattern(model, *rows)
                arr[flat_i] = old - h
                down, _ = _component_loss(model, component, case, want_grads=False)
                down_on = relu_pattern(model, *rows)
                arr[flat_i] = old
                if not (np.array_equal(up_on, on) and np.array_equal(down_on, on)):
                    skipped += 1
                    continue
                fd = (up - down) / (2.0 * h)
                an = float(grads[name].reshape(-1)[flat_i])
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
            done += 1
            trials += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and trials >= 20 and elapsed <= 30.0
    record_acceptance(f"gate 03 gradient check: {trials} trials over "
                      f"{len(ALL_COMPONENTS)} components, worst relative error "
                      f"{worst:.2e} (limit 1e-4), {skipped} kink-crossing differences "
                      f"skipped, {elapsed:.1f}s (limit 30s) "
                      f"-> {_mark(ok)}")
    assert trials >= 20
    assert worst <= 1e-4
    assert elapsed <= 30.0


# ---------------------------------------------------------------------------
# gate 4: algebraic identities of the loss family


def test_loss_identities():
    rng = np.random.default_rng(404)
    worst_tau0 = 0.0
    worst_uniform = 0.0
    for _ in range(40):
        k = int(rng.integers(3, 9))
        logits = rng.normal(scale=3.0, size=(12, k))
        y = rng.integers(0, k, size=12)
        delta_p = log_prior(rng.integers(1, 100, size=k))
        ce, g_ce = cross_entropy_with_grad(logits.T, y, 0.0)
        b0, g_b0 = balanced_softmax_loss(logits, y, 0.0, delta_p)
        worst_tau0 = max(worst_tau0, abs(b0 - ce),
                         float(np.max(np.abs(g_b0 - g_ce.T))))
        uniform = log_prior(np.full(k, int(rng.integers(1, 50))))
        bu, _ = balanced_softmax_loss(logits, y, float(rng.uniform(0.0, 4.0)),
                                      uniform)
        worst_uniform = max(worst_uniform, abs(bu - ce))

    worst_sum = 0.0
    for _ in range(10):
        model, case = _grad_case(rng, "total")
        st = _case_total_loss(model, case)
        resum = (st.l_basic + st.l_sup_b + 2.0 * st.l_con_b
                 + st.l_sup_e + 2.0 * st.l_con_e)
        worst_sum = max(worst_sum, abs(st.total - resum))

    ok = worst_tau0 <= 1e-12 and worst_uniform <= 1e-12 and worst_sum <= 1e-9
    record_acceptance(f"gate 04 loss identities: tau=0 gap {worst_tau0:.1e} "
                      f"(limit 1e-12), uniform-count gap {worst_uniform:.1e} "
                      f"(limit 1e-12), component-sum gap {worst_sum:.1e} "
                      f"(limit 1e-9) -> {_mark(ok)}")
    assert worst_tau0 <= 1e-12
    assert worst_uniform <= 1e-12
    assert worst_sum <= 1e-9


# ---------------------------------------------------------------------------
# gate 5: threshold controller initialization and full-run trajectories


@pytest.mark.slow
def test_threshold_init_and_trajectories(inverse_runs):
    runs, _ = inverse_runs
    hm = head_mask(runs[0].dataset.labeled_counts())
    st6 = init_thresholds(6.0, 100.0, hm, TrainSection())
    st4 = init_thresholds(4.0, 100.0, hm, TrainSection())
    init_ok = (np.all(st6.rho_b[~hm] == 0.75) and np.all(st6.rho_e[~hm] == 0.35)
               and np.all(st4.rho_b[~hm] == 0.95)
               and np.all(st4.rho_e[~hm] == 0.75)
               and np.all(st6.rho_b[hm] == 0.95)
               and np.all(st6.rho_e[hm] == 0.95))

    tol = 1e-12
    floor = 0.5
    traj_ok = True
    for res in runs:
        # each class's rho_b series over the epochs, then its rho_e series
        for series in (*res.thresholds[:, :, 0].T, *res.thresholds[:, :, 1].T):
            if np.any(np.diff(series) > tol):
                traj_ok = False
            below = series < floor - tol
            if np.any(below):
                # sub-floor values only arise as a frozen initialization:
                # constant from the moment they appear
                start = int(np.argmax(below))
                frozen = series[start:]
                if not (np.all(below[start:])
                        and np.all(frozen == frozen[0])):
                    traj_ok = False

    ok = bool(init_ok and traj_ok)
    record_acceptance("gate 05 threshold controller: exact initializations "
                      f"{'ok' if init_ok else 'WRONG'}, trajectories "
                      f"nonincreasing+clamped over {len(runs)} full runs "
                      f"{'ok' if traj_ok else 'VIOLATED'} -> {_mark(ok)}")
    assert init_ok
    assert traj_ok


# ---------------------------------------------------------------------------
# gate 6: bias-stripped logits are exactly the linear response


def test_calibration_identity():
    rng = np.random.default_rng(606)
    model = init_model(10, 16, hidden=(32, 32), feature=16, seed=9)
    for name in param_order(model):
        arr = _param(model, name)
        arr += rng.normal(scale=0.1, size=arr.shape)
    model.heads["output"].b[:] = rng.normal(scale=2.0, size=10)

    x = rng.normal(size=(1000, 16))
    feats = forward_features(model, x)
    cal = calibrate_logits(model, feats)
    raw = per_head_logits(model, "output", feats)
    gap = float(np.max(np.abs(cal + model.heads["output"].b - raw)))
    same_argmax = bool(np.all(
        np.argmax(cal, axis=1)
        == np.argmax(feats @ model.heads["output"].w.T, axis=1)))
    ok = gap <= 1e-12 and same_argmax
    record_acceptance(f"gate 06 calibration identity: worst |calibrated + b - "
                      f"raw| = {gap:.1e} over 1000 inputs (limit 1e-12), "
                      f"argmax match {same_argmax} -> {_mark(ok)}")
    assert gap <= 1e-12
    assert same_argmax


# ---------------------------------------------------------------------------
# gate 7: anchor matching recovers the generator when fed the truth


def test_anchor_recovery_with_true_labels():
    task = TaskSection(k=10, d=16, spread=4.0, noise=1.0, seed=123)
    labeled = make_distribution("consist", 10, 100, gamma=100.0, as_variance=False)
    anchors = default_anchor_set(10, gamma=100.0, as_variance=False)
    recovered = []
    worst_kl = 0.0
    min_total = None
    for kind in ANCHOR_KINDS:
        unlabeled = make_distribution(kind, 10, 500, gamma=100.0, as_variance=False)
        ds = generate(task, labeled, unlabeled, 10)
        counts = np.bincount(ds.unlabeled_true_labels(), minlength=10)
        total = int(counts.sum())
        min_total = total if min_total is None else min(min_total, total)
        match = match_anchor(counts, anchors)
        recovered.append(match.kind == kind)
        worst_kl = max(worst_kl, float(match.kl_values[match.index]))
    ok = all(recovered) and worst_kl <= 1e-4 and min_total >= 1000
    record_acceptance(f"gate 07 anchor recovery from true labels: "
                      f"{sum(recovered)}/5 generators recovered, worst "
                      f"divergence at generator {worst_kl:.1e} (limit 1e-4, "
                      f"integer-count rounding only), smallest pool "
                      f"{min_total} (need 1000) -> {_mark(ok)}")
    assert all(recovered)
    assert worst_kl <= 1e-4
    assert min_total >= 1000


# ---------------------------------------------------------------------------
# gate 8: end-to-end margins of the calibrated head over the plain head


@pytest.mark.slow
def test_end_to_end_calibrated_gains(inverse_runs):
    runs, elapsed = inverse_runs
    bacc_gaps = []
    nh_gaps = []
    details = []
    for seed, res in zip(SEEDS, runs):
        ds = res.dataset
        nonhead = ~head_mask(ds.labeled_counts())
        reports = evaluate(res.model, [ds.test_split()])
        orig, cal = reports["original"], reports["calibrated"]
        bacc_gaps.append(cal.balanced_accuracy - orig.balanced_accuracy)
        nh_gaps.append(cal.recall_over(nonhead) - orig.recall_over(nonhead))
        anchor = res.match.kind if res.match is not None else "none"
        details.append(f"seed {seed} {bacc_gaps[-1]:+.3f}/{nh_gaps[-1]:+.3f} {anchor}")
    mean_bacc = float(np.mean(bacc_gaps))
    mean_nh = float(np.mean(nh_gaps))
    ok = mean_bacc >= 0.05 and mean_nh >= 0.10 and elapsed <= 600.0
    record_acceptance(f"gate 08 calibrated-over-plain margins: balanced "
                      f"accuracy {mean_bacc:+.3f} (need +0.050), non-head "
                      f"recall {mean_nh:+.3f} (need +0.100), {len(runs)} seeds "
                      f"[{', '.join(details)}] "
                      f"in {elapsed:.0f}s (limit 600s) -> {_mark(ok)}")
    assert elapsed <= 600.0
    # Known honest failure at this scale: all three heads feed the shared
    # backbone, so the plain head free-rides on the balanced heads' feature
    # repairs (zeroing their backbone gradients drops it ~17 points to the
    # expected standalone level), and bias subtraction cannot remove a logit
    # tilt that the tau-weighted equilibrium stores in the weight matrix
    # rather than in the bias.  Margins measured around -0.18 and -0.16.
    assert mean_bacc >= 0.05
    assert mean_nh >= 0.10


# ---------------------------------------------------------------------------
# gate 9: sign pattern of the learned biases under a mirrored unlabeled pool


@pytest.mark.slow
def test_bias_sign_patterns(consist_runs):
    hits = 0
    details = []
    for res in consist_runs:
        rep = bias_pattern_report(res.model, res.dataset.labeled_counts())
        good = rep["original"] > 0.0 and rep["expansive"] < 0.0
        hits += int(good)
        details.append(f"{rep['original']:+.2f}/{rep['expansive']:+.2f}")
    ok = hits >= 4
    record_acceptance(f"gate 09 bias sign pattern (plain +, expansive -): "
                      f"{hits}/5 seeds [{', '.join(details)}] (need 4) "
                      f"-> {_mark(ok)}")
    assert hits >= 4


# ---------------------------------------------------------------------------
# gate 10: the trained estimator picks the right anchor


@pytest.mark.slow
def test_estimator_anchor_matching():
    results = {}
    for kind in ANCHOR_KINDS:
        correct = 0
        for seed in range(10):
            cfg = _protocol_config(seed, unlabeled_kind=kind,
                                   labeled_gamma=20.0)
            _, match, _ = run_estimation_phase(cfg)
            correct += int(match is not None and match.kind == kind)
        results[kind] = correct
    ok = all(v >= 8 for v in results.values())
    summary = ", ".join(f"{kind} {results[kind]}/10" for kind in ANCHOR_KINDS)
    record_acceptance(f"gate 10 estimator anchor matching: {summary} "
                      f"(need 8/10 each) -> {_mark(ok)}")
    for kind in ANCHOR_KINDS:
        assert results[kind] >= 8, kind


# ---------------------------------------------------------------------------
# gate 11: reruns are byte-identical


def test_rerun_reproduces_metrics_csv(tmp_path, monkeypatch):
    cfg_obj = {
        "task": {"k": 6, "d": 8},
        "data": {"labeled_max": 40, "unlabeled_max": 80, "test_per_class": 30},
        "train": {"seed": 11, "epochs": 5, "steps_per_epoch": 15,
                  "estimation_epochs": 1, "labeled_batch": 24,
                  "unlabeled_batch": 48},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg_obj))
    # each run writes to the relative directory "run" from its own working
    # directory, so config.json records the same output_dir and every file
    # a run writes is compared byte for byte
    runs = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert cli_main(["train", str(cfg_path), "--out", "run"]) == 0
        runs.append({f.name: f.read_bytes() for f in (tmp_path / name / "run").iterdir()})
    first, second = runs
    same = sorted(name for name, data in first.items() if data and second.get(name) == data)
    ok = len(first) == len(second) == len(same) == 7
    record_acceptance(f"gate 11 rerun determinism: {len(same)} of {len(first)}/{len(second)} "
                      f"files nonempty and byte-identical ({', '.join(same)}) -> {_mark(ok)}")
    assert ok
