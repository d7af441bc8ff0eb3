"""Acceptance gate: one test per shipping criterion.

Each test prints a single `criterion NN: PASS/FAIL` line with the measured
numbers (visible even under capture), then asserts.  Budgeted criteria also
assert their single-threaded runtime limits.
"""

import math
import time

import numpy as np
import pytest

from paireffect import losses, theory
from paireffect.datagen import GPToyConfig
from paireffect.experiments import gp_correlation_toy, mmd_shift_toy, run_experiment
from paireffect.losses import (
    LossConfig,
    make_objective,
    pair_loss,
    pair_loss_decomposition,
)
from paireffect.metrics import paired_t_test_one_sided, t_cdf
from paireffect.models import TwoHeadedNetwork, predict_outcomes, three_way_logits
from paireffect.nets import LayerSpec, ParamStore, RegConfig, finite_diff_check, init_chain

from conftest import random_pair_batch

# df, quantile, CDF value (standard t tables)
T_TABLE = [
    (1, 6.3138, 0.95), (1, 12.7062, 0.975),
    (2, 2.9200, 0.95), (2, 4.3027, 0.975),
    (5, 2.0150, 0.95), (5, 2.5706, 0.975),
    (10, 1.8125, 0.95), (10, 2.2281, 0.975),
    (30, 1.6973, 0.95), (30, 2.0423, 0.975),
    (100, 1.6602, 0.95), (100, 1.9840, 0.975),
]


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}",
              flush=True)
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_candidate_loss_risk_correlation(capsys):
    start = time.perf_counter()
    out = gp_correlation_toy(GPToyConfig(), n_draws=300, seed=0)
    elapsed = time.perf_counter() - start
    gap = out["corr_pair"] - out["corr_factual"]
    between = out["corr_factual"] < out["corr_no_alignment"] < out["corr_pair"]
    ok = gap >= 0.15 and between and elapsed <= 120.0
    _verdict(capsys, 1, ok,
             f"corr pair={out['corr_pair']:.3f} "
             f"no-alignment={out['corr_no_alignment']:.3f} "
             f"factual={out['corr_factual']:.3f} gap={gap:.3f} (need >=0.15, "
             f"middle strictly between), {elapsed:.1f}s (limit 120s)")


def test_criterion_02_neighbor_shift_smaller_than_arm_shift(capsys):
    start = time.perf_counter()
    small = mmd_shift_toy(n_per_side=2000, u=-1.0, s=2.0, seed=0)
    big = mmd_shift_toy(n_per_side=8000, u=-1.0, s=2.0, seed=0)
    elapsed = time.perf_counter() - start
    arm_change = abs(big["mmd_p0_p1"] - small["mmd_p0_p1"]) / small["mmd_p0_p1"]
    ok = (small["ratio"] >= 3.0
          and big["mmd_p_q"] < small["mmd_p_q"]
          and arm_change < 0.10
          and elapsed <= 60.0)
    _verdict(capsys, 2, ok,
             f"ratio@2000={small['ratio']:.2f} (need >=3), "
             f"mmd_p_q 2000->8000: {small['mmd_p_q']:.4f}->{big['mmd_p_q']:.4f} "
             f"(must decrease), arm-MMD change={100 * arm_change:.2f}% "
             f"(need <10%), {elapsed:.1f}s (limit 60s)")


def test_criterion_03_risk_identity_on_finite_scenes(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    gaps = [theory.verify_lemma_identity(theory.random_scene(rng))["gap"]
            for _ in range(50)]
    elapsed = time.perf_counter() - start
    ok = max(gaps) <= 1e-10 and elapsed <= 10.0
    _verdict(capsys, 3, ok,
             f"max identity gap={max(gaps):.2e} over 50 scenes "
             f"(need <=1e-10), {elapsed:.1f}s (limit 10s)")


def test_criterion_04_risk_bound_and_tighter_ipm_term(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    results = [theory.verify_ite_bound(theory.random_scene(rng, max_degree=1))
               for _ in range(20)]
    holds = sum(r["holds"] for r in results)
    min_margin = min(r["bound"] - r["eps_ite"] for r in results)
    rng = np.random.default_rng(2)
    confounded = []
    for _ in range(10):
        res = theory.verify_ite_bound(theory.confounded_scene(rng))
        confounded.append(res["ipm_term"] < res["w1_p0_p1"])
    elapsed = time.perf_counter() - start
    ok = (holds == 20 and all(confounded) and elapsed <= 30.0)
    _verdict(capsys, 4, ok,
             f"bound held {holds}/20 linear scenes (min margin "
             f"{min_margin:.3f}), pair IPM term tighter on "
             f"{sum(confounded)}/10 confounded scenes, "
             f"{elapsed:.1f}s (limit 30s)")


@pytest.mark.slow
def test_criterion_05_neighbor_distance_consistency(capsys):
    start = time.perf_counter()
    strict_ratios, violated_ratios = [], []
    for seed in range(10):
        rows = theory.consistency_sweep(seed=seed)
        strict_ratios.append(rows[-1]["delta_hat"] / rows[0]["delta_hat"])
        rows = theory.consistency_sweep(overlap=theory.VIOLATED, seed=seed)
        violated_ratios.append(rows[-1]["delta_hat"] / rows[0]["delta_hat"])
    elapsed = time.perf_counter() - start
    halved = sum(r < 0.5 for r in strict_ratios)
    violated_mean = float(np.mean(violated_ratios))
    ok = halved >= 9 and violated_mean > 0.9 and elapsed <= 120.0
    _verdict(capsys, 5, ok,
             f"delta_hat(6400)/delta_hat(100) < 0.5 in {halved}/10 seeds "
             f"(median ratio {np.median(strict_ratios):.3f}); "
             f"no-overlap control mean ratio {violated_mean:.3f} (need >0.9), "
             f"{elapsed:.1f}s (limit 120s)")


def _random_small_network(rng):
    input_dim = int(rng.integers(2, 6))
    h1 = int(rng.integers(4, 11))
    h2 = int(rng.integers(3, 9))
    phi_specs = [LayerSpec(input_dim, h1, "elu")]
    head_specs = [LayerSpec(h1, h2, "elu"), LayerSpec(h2, 1, "identity")]
    blocks = {"phi": init_chain(phi_specs, rng)}
    for k in range(2):
        blocks[f"head_{k}"] = init_chain(head_specs, rng)
    return TwoHeadedNetwork(
        input_dim=input_dim, mode="binary", arch="shallow",
        phi_specs=phi_specs, head_specs=head_specs, params=ParamStore(blocks),
    ), input_dim


def test_criterion_06_gradients_match_finite_differences(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    reg = RegConfig(l2_phi=0.5, l2_head=0.1)
    for _ in range(20):
        model, dim = _random_small_network(rng)
        for kind in losses.KINDS:
            batch = random_pair_batch(
                rng, n=10, dim=dim, binary_outcomes=(kind == losses.PAIR_BINARY)
            )
            obj = make_objective(LossConfig(kind=kind, alpha=1.3))
            worst = max(worst, finite_diff_check(model, batch, obj, reg))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed <= 60.0
    _verdict(capsys, 6, ok,
             f"max analytic-vs-numeric gradient error {worst:.2e} over "
             f"20 networks x {len(losses.KINDS)} loss kinds (need <=1e-4), "
             f"{elapsed:.1f}s (limit 60s)")


def test_criterion_07_pair_loss_algebra(capsys):
    from conftest import tiny_network

    rng = np.random.default_rng(7)
    model = tiny_network(seed=7)
    batch = random_pair_batch(rng, n=10_000, dim=3)
    value = pair_loss(model, batch, alpha=2.0)
    yhat = predict_outcomes(model, batch.x, batch.t)
    yhatp = predict_outcomes(model, batch.xp, batch.tp)
    diff_sq = ((batch.y - batch.yp) - (yhat - yhatp)) ** 2
    a, b, c = pair_loss_decomposition(batch.y, batch.yp, yhat, yhatp)
    gap_direct = abs(value - float(np.mean(diff_sq)))
    gap_decomp = abs(value - float(np.mean(a + b + c)))
    per_record = float(np.max(np.abs((a + b + c) - diff_sq)))
    ok = gap_direct <= 1e-12 and gap_decomp <= 1e-12 and per_record <= 1e-12
    _verdict(capsys, 7, ok,
             f"|pair loss - mean(delta-diff^2)|={gap_direct:.1e}, "
             f"|pair loss - decomposition|={gap_decomp:.1e}, max per-record "
             f"gap={per_record:.1e} over 10^4 records (need <=1e-12)")


def test_criterion_08_three_way_distribution(capsys):
    rng = np.random.default_rng(8)
    worst_sum = 0.0
    min_prob = 1.0
    for _ in range(10_000):
        p0, p1, p0p, p1p = rng.uniform(size=4)
        probs = np.asarray(three_way_logits(p0, p1, p0p, p1p, int(rng.integers(2))))
        worst_sum = max(worst_sum, abs(float(np.sum(probs)) - 1.0))
        min_prob = min(min_prob, float(np.min(probs)))
    batch = random_pair_batch(rng, n=64, binary_outcomes=True)
    batch.y[:] = batch.yp[:]  # same-label pairs
    outputs = np.zeros(2 * len(batch))  # sigmoid 0.5 on every head output
    value, _ = losses.PairBinaryObjective().value_and_output_grads(outputs, batch)
    ce_gap = abs(value - (-math.log(0.5)))
    ok = worst_sum <= 1e-12 and min_prob >= 0.0 and ce_gap <= 1e-12
    _verdict(capsys, 8, ok,
             f"max |sum-1|={worst_sum:.1e}, min prob={min_prob:.1e} over "
             f"10^4 inputs; symmetric-point cross-entropy off by "
             f"{ce_gap:.1e} (need <=1e-12)")


@pytest.mark.slow
def test_criterion_09_end_to_end_ordering(capsys, tmp_path):
    start = time.perf_counter()
    generator = {"kind": "polynomial", "n": 750, "n_test": 750,
                 "propensity_strength": 0.8}
    train = {"arch": "shallow", "max_epochs": 300,
             "pairing": {"num_neighbors": 3}}
    head = run_experiment({
        "name": "poly-head",
        "generator": generator,
        "methods": ["pair", "factual"],
        "seeds": list(range(10)),
        "seed": 99,
        "train": {**train, "pairing": {"temperature": 5.0, "num_neighbors": 3}},
    }, str(tmp_path / "head"))
    sweep = run_experiment({
        "name": "poly-sweep",
        "generator": generator,
        "methods": ["matching", "pair"],
        "seeds": list(range(10)),
        "seed": 99,
        "grid": {"temperature": [0.0, 5.0]},
        "train": train,
    }, str(tmp_path / "sweep"))
    elapsed = time.perf_counter() - start

    comp = head["comparisons"]["pair_vs_factual"]
    import csv as _csv

    with open(tmp_path / "sweep" / "results.csv") as fh:
        rows = list(_csv.DictReader(fh))
    mean_out = {}
    for method in ("matching", "pair"):
        for temp in ("0.0", "5.0"):
            vals = [float(r["pehe_out"]) for r in rows
                    if r["method"] == method and r["temperature"] == temp]
            mean_out[(method, temp)] = float(np.mean(vals))
    pair_lo = min(mean_out["pair", "0.0"], mean_out["pair", "5.0"])
    pair_hi = max(mean_out["pair", "0.0"], mean_out["pair", "5.0"])
    pair_variation = (pair_hi - pair_lo) / pair_lo
    ok = (comp["p"] < 0.05 and comp["mean_a"] < comp["mean_b"]
          and mean_out["matching", "0.0"] > mean_out["matching", "5.0"]
          and pair_variation <= 0.10
          and not head["failures"] and not sweep["failures"]
          and elapsed <= 900.0)
    _verdict(capsys, 9, ok,
             f"pair {comp['mean_a']:.3f} vs factual {comp['mean_b']:.3f} "
             f"(one-sided paired-t p={comp['p']:.1e}, need <0.05); matching "
             f"PEHE lambda=0 {mean_out['matching', '0.0']:.3f} > lambda=5 "
             f"{mean_out['matching', '5.0']:.3f}; pair variation across "
             f"lambda {100 * pair_variation:.1f}% (need <=10%), "
             f"{elapsed:.0f}s (limit 900s)")


def test_criterion_10_statistics_engine(capsys):
    worst = max(abs(t_cdf(q, df) - p) for df, q, p in T_TABLE)
    rng = np.random.default_rng(10)
    n_reps = 2000
    pvals = np.array([
        paired_t_test_one_sided(rng.normal(size=10), rng.normal(size=10))["p"]
        for _ in range(n_reps)
    ])
    ecdf_dev = np.abs(np.sort(pvals) - (np.arange(1, n_reps + 1) / n_reps))
    ecdf_dev_lo = np.abs(np.sort(pvals) - (np.arange(0, n_reps) / n_reps))
    ks = float(max(ecdf_dev.max(), ecdf_dev_lo.max()))
    critical = 1.628 / math.sqrt(n_reps)  # 1% two-sided KS critical value
    ok = worst < 5e-5 and ks < critical
    _verdict(capsys, 10, ok,
             f"max t-CDF error vs tables {worst:.2e} (need <5e-5); "
             f"null p-value KS stat {ks:.4f} < {critical:.4f} (1% level)")
