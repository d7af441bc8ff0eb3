"""Experiment orchestration and the two small illustrative studies.

run_experiment executes a (method x seed x grid) descriptor, scoring each
trained model against the oracle and writing results.csv / summary.json
atomically.  gp_correlation_toy measures how well candidate-function losses
track the true effect-estimation risk; mmd_shift_toy measures how much
closer the sampled-neighbor distribution sits to the anchors than the two
treatment arms sit to each other.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import os

import numpy as np

from .datagen import (
    BINARY,
    FAMILIES,
    GPToyConfig,
    gen_continuous_response,
    gen_gaussian_confounded,
    gen_gp_toy,
    gen_polynomial_synth,
    ite_risk_quadrature,
    load_csv,
)
from .losses import FACTUAL, KINDS, PAIR_BINARY
from .metrics import median_heuristic, mmd_rbf, pearson_corr
from .pairing import IdentityEmbedding, PairingConfig, create_pair_ds, derive_seed
from .training import TrainConfig, compare_methods, evaluate_pehe, train

_PAIRING_GRID_KEYS = ("temperature", "delta_pair", "num_neighbors")
_GRID_KEYS = (*_PAIRING_GRID_KEYS, "alpha", "psi")
_READ_KEYS = {
    "descriptor": {"name", "generator", "csv", "methods", "seeds", "seed",
                   "train", "grid"},
    "polynomial generator": {"kind", "n", "n_test", "propensity_strength"},
    "continuous generator": {"kind", "n", "n_test", "family", "dim",
                             "dosage_bias", "noise_scale"},
    "csv": {"path", "mode", "n_test"},
    "grid": set(_GRID_KEYS),
}


# ---------------------------------------------------------------------------
# Toy studies


def gp_correlation_toy(config=None, n_draws=200, seed=0) -> dict:
    """Correlation of empirical losses with true effect-estimation risk.

    Draws candidate (base outcome, effect) function pairs and, for each,
    evaluates the factual loss, the pair loss, its no-alignment variant
    (alpha = 0), and the true risk by quadrature.  Pairs are built once
    from the toy's observational sample with an identity embedding.  The
    pairing runs a sharp softmax (temperature 5, inside the usual
    sweep range): raw 1-D covariate distances are O(1) here, where
    temperature 1 leaves substantial probability on far candidates and the
    base-function increments those pairs pick up drown the effect-error
    signal this study is after.
    """
    config = config or GPToyConfig()
    toy = gen_gp_toy(config)
    ds = toy.dataset
    pairs = create_pair_ds(ds, ds, PairingConfig(temperature=5.0),
                           IdentityEmbedding(1), derive_seed(seed, "corr-pairs"))
    # each pair column read is a gather, so read them once
    x, t, y = pairs.x[:, 0], pairs.t, pairs.y
    xp, tp, yp = pairs.xp[:, 0], pairs.tp, pairs.yp
    rng = np.random.default_rng(derive_seed(seed, "corr-draws"))
    risks = np.empty(n_draws)
    fact = np.empty(n_draws)
    pair_full = np.empty(n_draws)
    pair_zero = np.empty(n_draws)
    for i in range(n_draws):
        mu0_hat, tau_hat = toy.draw_candidate(rng)
        risks[i] = ite_risk_quadrature(toy.grid, toy.weights, toy.tau, tau_hat)
        pred = toy.mu_values(ds.x[:, 0], ds.t, mu0_hat, tau_hat)
        fact[i] = np.mean((ds.y - pred) ** 2)
        r = y - toy.mu_values(x, t, mu0_hat, tau_hat)
        rp = yp - toy.mu_values(xp, tp, mu0_hat, tau_hat)
        pair_full[i] = np.mean((r - rp) ** 2)
        pair_zero[i] = np.mean(r**2 + rp**2)
    return {
        "corr_pair": pearson_corr(pair_full, risks),
        "corr_factual": pearson_corr(fact, risks),
        "corr_no_alignment": pearson_corr(pair_zero, risks),
        "n_draws": int(n_draws),
        "n_pairs": len(pairs),
    }


def mmd_shift_toy(n_per_side=2000, u=-1.0, s=2.0, num_neighbors=1,
                  seed=0) -> dict:
    """Arm-vs-arm MMD against anchor-vs-neighbor MMD on shifted Gaussians.

    mmd_p_q is the arm-share-weighted mean of MMD(p_t, q_t), where q_t is
    the covariate distribution of the neighbors sampled for arm-t anchors.
    One shared median-heuristic bandwidth (pooled covariates) keeps the two
    divergences comparable.  The selection sharpness (temperature 20) sits
    between uniform sampling (neighbors smeared over the whole opposite arm)
    and hard nearest-neighbor (which stops improving with more data because
    it never diversifies); in between, extra samples keep shrinking the
    anchor-to-neighbor gap.
    """
    rng = np.random.default_rng(derive_seed(seed, "mmd-data"))
    ds = gen_gaussian_confounded(u, s, n_per_side, n_per_side, rng)
    cfg = PairingConfig(num_neighbors=num_neighbors, temperature=20.0)
    sigma = median_heuristic(ds.x)
    weighted, per_arm, n_pairs = _pair_shift_mmd(
        ds, cfg, derive_seed(seed, "mmd-pairs"), sigma
    )
    out = {
        "mmd_p0_p1": mmd_rbf(ds.x[ds.t == 0], ds.x[ds.t == 1], bandwidth=sigma),
        "bandwidth": sigma,
        "n_pairs": n_pairs,
        "n_per_side": int(n_per_side),
        "mmd_p0_q0": per_arm[0],
        "mmd_p1_q1": per_arm[1],
        "mmd_p_q": weighted,
    }
    out["ratio"] = out["mmd_p0_p1"] / weighted if weighted > 0 else float("inf")
    return out


# ---------------------------------------------------------------------------
# Descriptor-driven experiments


def _is_integral(value) -> bool:
    """An int, or a float with no fractional part; not a bool."""
    return type(value) is not bool and isinstance(
        value, (int, float, np.integer)) and float(value).is_integer()


def _check_descriptor(descriptor) -> None:
    """Reject, before any cell runs, every fault that all cells share: in
    methods, seeds, keys, counts, the continuous family or the `train`
    block.  A bad grid value fails only its own cells."""
    methods = descriptor.get("methods")
    if not methods:
        raise ValueError("descriptor lists no methods")
    for m in methods:
        if m not in KINDS:
            raise ValueError(f"unknown method {m!r}")
    if not descriptor.get("seeds"):
        raise ValueError("descriptor lists no seeds")
    gen, spec = descriptor.get("generator"), descriptor.get("csv")
    if (gen is None) == (not spec):
        raise ValueError("descriptor needs exactly one of 'generator' and 'csv'")
    if spec and "path" not in spec:
        raise ValueError("csv block needs key 'path'")
    source = "csv" if gen is None else f"{gen.get('kind')} generator"
    if source not in _READ_KEYS:
        raise ValueError(f"unknown generator kind {gen.get('kind')!r}")
    if source == "continuous generator" and gen.get("family") not in FAMILIES:
        raise ValueError(f"unknown continuous family {gen.get('family')!r}")
    train = descriptor.get("train", {})
    if {"loss", "seed"} & set(train):
        raise ValueError("train keys loss and seed are set per cell, from "
                         "methods, alpha, seed and seeds")
    grid = descriptor.get("grid", {})
    for part, keys in (("descriptor", descriptor), (source, gen or spec),
                       ("grid", grid)):
        unknown = sorted(set(keys) - _READ_KEYS[part])
        if unknown:
            raise ValueError(f"unknown {part} keys {unknown}")
    shadowed = [f"pairing.{key}" for key in _PAIRING_GRID_KEYS
                if key in grid and key in train.get("pairing", {})]
    shadowed += [key for key in ("alpha", "psi") if key in grid and key in train]
    if shadowed:
        raise ValueError(f"train keys {shadowed} are set per cell by the grid")
    counts = [(f"{source} key {key!r}", (gen or spec)[key])
              for key in ("n", "n_test", "dim") if key in (gen or spec)]
    counts += [("descriptor key 'seed'", descriptor.get("seed", 0))]
    counts += [("descriptor key 'seeds' entry", seed)
               for seed in descriptor["seeds"]]
    for name, value in counts:
        if not _is_integral(value):
            raise ValueError(f"{name} must be an integer, not {value!r}")
    _cell_config(methods[0], {}, train, 0)


def _dataset_from_descriptor(descriptor, data_seed):
    """Build (train, test) datasets sharing one oracle for a given seed."""
    gen = descriptor.get("generator")
    if gen is not None:
        rng = np.random.default_rng(data_seed)
        n = int(gen.get("n", 500))
        n_test = int(gen.get("n_test", n))
        if gen["kind"] == "polynomial":
            full = gen_polynomial_synth(
                n + n_test, rng,
                propensity_strength=float(gen.get("propensity_strength", 1.0)),
            )
        else:
            x = rng.standard_normal((n + n_test, int(gen.get("dim", 25))))
            full = gen_continuous_response(
                x, gen["family"],
                dosage_bias=float(gen.get("dosage_bias", 2.0)),
                noise_scale=float(gen.get("noise_scale", 1.0)),
                rng=rng,
            )
        return full.subset(np.arange(n)), full.subset(np.arange(n, n + n_test))
    spec = descriptor["csv"]
    full = load_csv(spec["path"], spec.get("mode", BINARY))
    n_test = int(spec.get("n_test", 0))
    if not 0 < n_test < len(full):
        raise ValueError("csv datasets need 0 < n_test < n rows for held-out "
                         "evaluation")
    n = len(full) - n_test
    return full.subset(np.arange(n)), full.subset(np.arange(n, len(full)))


def _cell_config(method, cell, overrides, cell_seed) -> TrainConfig:
    doc = dict(overrides)
    default_alpha = doc.pop("alpha", 2.0)
    doc["pairing"] = {
        **doc.get("pairing", {}),
        **{key: cell[key] for key in _PAIRING_GRID_KEYS if key in cell},
    }
    doc.update(loss={"kind": method,
                     "alpha": float(cell.get("alpha", default_alpha))},
               seed=cell_seed)
    if "psi" in cell:
        doc["psi"] = cell["psi"]
    return TrainConfig.from_dict(doc)


def _write_atomic(path, text) -> None:
    """Write through a uniquely named temporary in the target directory, so
    concurrent writers never share a half-written file."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _pair_shift_mmd(ds, pairing: PairingConfig, seed, sigma):
    """Arm-share-weighted mean of MMD(p_t, q_t), q_t the covariates of the
    neighbors drawn for arm-t anchors under `pairing` with the raw-covariate
    embedding (a data diagnostic, not the learned one), and bandwidth sigma.
    Returns (weighted, [MMD(p_0, q_0), MMD(p_1, q_1)], number of pairs)."""
    pairs = create_pair_ds(ds, ds, pairing, IdentityEmbedding(ds.dim), seed)
    per_arm = [
        mmd_rbf(ds.x[ds.t == g], pairs.xp[pairs.t == g], bandwidth=sigma)
        for g in (0, 1)
    ]
    weighted = 0.0
    for g in (0, 1):
        weighted += float(np.mean(ds.t == g)) * per_arm[g]
    return weighted, per_arm, len(pairs)


def _run_cell(method, cell, cell_seed, overrides, train_ds, test_ds,
              pair_shift) -> dict:
    """Train one cell and score it: the row's values past its method, seed
    and grid values.  pair_shift maps a PairingConfig to the seed's
    pair-shift MMD, or is None where that is not measured."""
    config = _cell_config(method, cell, overrides, cell_seed)
    model, record = train(train_ds, config)
    row = {name: evaluate_pehe(model, ds, seed=cell_seed,
                               probability_outputs=method == PAIR_BINARY)
           for name, ds in (("pehe_in", train_ds), ("pehe_out", test_ds))}
    row.update(val_loss=record.best_val, epochs=record.stop_epoch)
    if method != FACTUAL and pair_shift is not None:
        row["mmd_p_q"] = pair_shift(config.pairing)
    return row


def run_experiment(descriptor, out_dir) -> dict:
    """Execute every (method x seed x grid) cell of a descriptor.

    Each seed gets one dataset shared by all methods (paired comparisons);
    each cell trains with an independent derived seed.  Failures are
    recorded per cell and do not stop the rest.  Writes results.csv and
    summary.json into out_dir and returns the summary.
    """
    _check_descriptor(descriptor)
    methods = descriptor["methods"]
    # cells derive their streams from the integers results.csv reports
    seeds = [int(seed) for seed in descriptor["seeds"]]
    global_seed = int(descriptor.get("seed", 0))
    overrides = descriptor.get("train", {})
    grid = descriptor.get("grid", {})
    axes = [k for k in _GRID_KEYS if k in grid]
    combos = list(itertools.product(*(grid[k] for k in axes)))

    rows, failures = [], []
    data_diags = {}
    for seed in seeds:
        train_ds, test_ds = _dataset_from_descriptor(
            descriptor, derive_seed(global_seed, "data", seed)
        )
        data_diags[seed], pair_shift = {}, None
        if train_ds.mode == BINARY:
            sigma = median_heuristic(train_ds.x)
            data_diags[seed]["mmd_p0_p1"] = mmd_rbf(
                train_ds.x[train_ds.t == 0], train_ds.x[train_ds.t == 1],
                bandwidth=sigma,
            )
            diag_seed = derive_seed(derive_seed(global_seed, "diag", seed),
                                    "diag-pairs")
            pair_shift = functools.cache(lambda pairing: _pair_shift_mmd(
                train_ds, pairing, diag_seed, sigma)[0])
        for method in methods:
            for combo_idx, combo in enumerate(combos):
                cell = dict(zip(axes, combo))
                key = {"method": method, "seed": seed, **cell}
                try:
                    rows.append({**key, **_run_cell(
                        method, cell,
                        derive_seed(global_seed, method, seed, combo_idx),
                        overrides, train_ds, test_ds, pair_shift)})
                except Exception as exc:  # noqa: BLE001 - cell isolation
                    failures.append({**key, "error": type(exc).__name__,
                                     "message": str(exc)})

    columns = ["method", "seed", *axes, "pehe_in", "pehe_out", "val_loss",
               "epochs", "mmd_p_q"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    # made only now, so a dataset that cannot be built leaves no directory
    os.makedirs(out_dir, exist_ok=True)
    _write_atomic(os.path.join(out_dir, "results.csv"), buf.getvalue())

    summary = {
        "name": descriptor.get("name", "experiment"),
        "seed": global_seed,
        "seeds": seeds,
        "methods": {},
        "comparisons": {},
        "data_diagnostics": data_diags,
        "failures": failures,
        "descriptor": descriptor,
    }
    for method in methods:
        mine = [r for r in rows if r["method"] == method]
        if not mine:
            continue
        outs = np.array([r["pehe_out"] for r in mine])
        entry = {
            "mean_pehe_out": float(np.mean(outs)),
            "sd_pehe_out": float(np.std(outs, ddof=1)) if len(outs) > 1 else 0.0,
            "mean_pehe_in": float(np.mean([r["pehe_in"] for r in mine])),
            "cells": len(mine),
        }
        vals = np.array([r["val_loss"] for r in mine])
        if len(mine) > 2 and np.std(vals) > 0 and np.std(outs) > 0:
            entry["corr_val_loss_pehe_out"] = pearson_corr(vals, outs)
        summary["methods"][method] = entry
    if not axes and len(seeds) > 1:
        per_method = {
            m: {r["seed"]: r["pehe_out"] for r in rows if r["method"] == m}
            for m in methods
        }
        ref = methods[0]
        for other in methods[1:]:
            if set(per_method[ref]) == set(per_method[other]) and per_method[ref]:
                summary["comparisons"][f"{ref}_vs_{other}"] = compare_methods(
                    per_method[ref], per_method[other]
                )
    _write_atomic(
        os.path.join(out_dir, "summary.json"), json.dumps(summary, indent=2)
    )
    return summary
