"""Exact fingerprints of short training runs, recorded before parameters
became views into one flat vector; any change to the network arithmetic,
the Adam update or the random streams moves them.  The same subprocess
pins the `verify` suites' output and the two toy studies.

Runs in a subprocess with one BLAS thread, because the thread count
changes how BLAS rounds these products (the values were recorded with
OpenBLAS 0.3 on x86-64; another BLAS build may round differently).
Run this file directly to print the current values.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

GOLDEN = {
    "factual_shallow_binary": {
        "model_hash": "b45dd7ec4708661c",
        "pair_hashes": [],
        "val_losses": ["1.2826877247491508", "0.9777560986879625",
                       "0.7504904017288946"],
    },
    "pair_deep_binary": {
        "model_hash": "6a4778d47743938e",
        "pair_hashes": ["9117d80e37c3a0fb", "4bd161af2996e561",
                        "8b2700a377d0d5aa"],
        "val_losses": ["1.5998054339737524", "1.2855904359347545",
                       "1.007490610192864"],
    },
    "pair_shallow_continuous": {
        "model_hash": "cdfd7b7a2f873844",
        "pair_hashes": ["275e5b87318e3caf", "05c3b544eeebdaac",
                        "8cf956dff38223f4"],
        "val_losses": ["0.20171963802043907", "0.3049320957475796",
                       "0.20181448432736365"],
    },
    "factual_deep_continuous": {
        "model_hash": "8bcafa6c820113df",
        "pair_hashes": [],
        "val_losses": ["0.9980302502086366", "0.7279107481657678",
                       "0.3719316940024735"],
    },
}


# outputs of the analysis paths whose tuning values became constants,
# recorded while those values were still parameters
ANALYSIS = {
    "verify_all_scenes5_seed0_sha256":
        "f6a064e98749f79813691c462190dc6d0e471da2ec18d4d0ca8b245f36a7f6f4",
    "gp_correlation_toy": {
        "corr_factual": "0.2123859115214796",
        "corr_no_alignment": "0.15420926026284038",
        "corr_pair": "0.7852290308537814",
        "n_draws": "20",
        "n_pairs": "243",
    },
    "mmd_shift_toy": {
        "bandwidth": "1.3860375910520677",
        "mmd_p0_p1": "0.7190666628373386",
        "mmd_p0_q0": "0.1575691159459233",
        "mmd_p1_q1": "0.06153971821055477",
        "mmd_p_q": "0.10955441707823903",
        "n_pairs": "540",
        "n_per_side": "300",
        "ratio": "6.563557015905732",
    },
}


def _continuous_dataset():
    from paireffect.datagen import CONTINUOUS, Dataset

    rng = np.random.default_rng(10)
    x = rng.normal(size=(120, 4))
    t = rng.uniform(size=120)
    y = x[:, 0] + np.sin(3.0 * t) + 0.05 * rng.normal(size=120)
    return Dataset(x=x, t=t, y=y, mode=CONTINUOUS)


def records():
    """Three epochs per case; batches of 16 leave some of the five
    continuous heads without rows in a batch, and pair_deep_binary trains
    a factual psi model first."""
    from paireffect.losses import LossConfig
    from paireffect.pairing import PairingConfig
    from paireffect.training import TrainConfig, train

    from conftest import binary_dataset

    cases = {
        "factual_shallow_binary": (binary_dataset(n=120, seed=1),
                                   dict(loss="factual", arch="shallow")),
        "pair_deep_binary": (binary_dataset(n=120, seed=1),
                             dict(loss="pair", arch="deep", psi="factual")),
        "pair_shallow_continuous": (_continuous_dataset(),
                                    dict(loss="pair", arch="shallow",
                                         batch_size=16)),
        "factual_deep_continuous": (_continuous_dataset(),
                                    dict(loss="factual", arch="deep",
                                         batch_size=16)),
    }
    out = {}
    for name, (ds, kw) in cases.items():
        kw = {"psi": "identity", **kw}
        cfg = TrainConfig(loss=LossConfig(kind=kw.pop("loss")),
                          pairing=PairingConfig(num_neighbors=2), lr=1e-3,
                          max_epochs=3, patience=3, seed=5, **kw)
        _, rec = train(ds, cfg)
        out[name] = {"model_hash": rec.model_hash,
                     "pair_hashes": rec.pair_hashes,
                     "val_losses": [repr(v) for v in rec.val_losses]}
    return out


def analysis():
    """The verify suites' JSON (as its sha256) and the two toy studies."""
    from paireffect import cli
    from paireffect.datagen import GPToyConfig
    from paireffect.experiments import gp_correlation_toy, mmd_shift_toy

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["verify", "--suite", "all", "--scenes", "5", "--seed", "0"])
    corr = gp_correlation_toy(GPToyConfig(n0=60, n1=30, grid_points=64),
                              n_draws=20, seed=3)
    mmd = mmd_shift_toy(n_per_side=300, seed=3)
    return {
        "verify_all_scenes5_seed0_sha256":
            hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "gp_correlation_toy": {k: repr(v) for k, v in corr.items()},
        "mmd_shift_toy": {k: repr(v) for k, v in mmd.items()},
    }


@functools.lru_cache(maxsize=None)
def _one_blas_thread_run():
    import paireffect

    src = str(Path(paireffect.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, __file__], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_training_runs_match_recorded_fingerprints():
    got = _one_blas_thread_run()["records"]
    for name, expect in GOLDEN.items():
        assert got[name] == expect, name


def test_analysis_outputs_match_recorded_values():
    got = _one_blas_thread_run()["analysis"]
    for name, expect in ANALYSIS.items():
        assert got[name] == expect, name


if __name__ == "__main__":
    print(json.dumps({"records": records(), "analysis": analysis()}, indent=1))


# config_hash of configs built from CLI flags, a --config file and descriptor
# cells, recorded when each caller built TrainConfig field by field.  The
# hash serializes the values as given, so a grid's 5 and 5.0 differ.
CONFIG_HASHES = {
    "cli_defaults": "0d233d9ec9f1e3c7",
    "cli_config_file": "6ca16f971c07f7f9",
    "cell_int_grid": "e9eee9cb09ff3994",
    "cell_float_grid": "1d083947be2809d9",
}

_TRAIN_BLOCK = {"lr": 0.001, "max_epochs": 5, "arch": "shallow", "alpha": 1,
                "pairing": {"temperature": 1, "continuous_halfwidth": 0.2},
                "reg": {"l2_head": 0}}


def config_hashes(tmp_dir):
    from paireffect import cli, experiments

    parser = cli._build_parser()
    cfg = Path(tmp_dir) / "train.json"
    cfg.write_text(json.dumps({
        "lr": 1, "batch_size": 50.0, "max_epochs": 7, "patience": 3,
        "val_fraction": 0.25, "reg": {"l2_phi": 1},
        "pairing": {"continuous_halfwidth": 0.1},
    }))
    flags = ["train", "--data", "d.csv"]
    configs = {
        "cli_defaults": cli._train_config_from_args(parser.parse_args(flags)),
        "cli_config_file": cli._train_config_from_args(parser.parse_args(
            flags + ["--config", str(cfg), "--loss", "pair_alpha",
                     "--alpha", "1", "--lambda", "5", "--num-neighbors", "2",
                     "--psi", "identity", "--arch", "shallow", "--seed", "9"])),
        "cell_int_grid": experiments._cell_config(
            "pair_alpha", {"temperature": 5, "delta_pair": 0,
                           "num_neighbors": 2, "psi": "identity"},
            _TRAIN_BLOCK, 123),
        "cell_float_grid": experiments._cell_config(
            "pair_alpha", {"temperature": 5.0, "delta_pair": 0.0,
                           "num_neighbors": 2, "psi": "identity"},
            _TRAIN_BLOCK, 123),
    }
    return {name: c.config_hash() for name, c in configs.items()}


def test_config_hashes_match_recorded_values(tmp_path):
    assert config_hashes(tmp_path) == CONFIG_HASHES
