import csv
import json

import numpy as np
import pytest

from paireffect.datagen import GPToyConfig, gen_polynomial_synth, save_csv
from paireffect.experiments import (
    _write_atomic,
    gp_correlation_toy,
    mmd_shift_toy,
    run_experiment,
)

BASE_TRAIN = {
    "arch": "shallow",
    "max_epochs": 2,
    "patience": 2,
    "psi": "identity",
    "lr": 1e-3,
    "pairing": {"num_neighbors": 2},
}


def tiny_descriptor(**kw):
    desc = {
        "name": "tiny",
        "generator": {"kind": "polynomial", "n": 80, "n_test": 40,
                      "propensity_strength": 0.8},
        "methods": ["pair", "factual"],
        "seeds": [0, 1, 2],
        "seed": 7,
        "train": dict(BASE_TRAIN),
    }
    desc.update(kw)
    return desc


def test_gp_correlation_toy_contract():
    cfg = GPToyConfig(n0=40, n1=20, grid_points=64)
    out = gp_correlation_toy(cfg, n_draws=12, seed=0)
    for key in ("corr_pair", "corr_factual", "corr_no_alignment"):
        assert -1.0 <= out[key] <= 1.0
    assert out["n_draws"] == 12
    assert out["n_pairs"] > 0


def test_gp_correlation_toy_deterministic():
    cfg = GPToyConfig(n0=30, n1=15, grid_points=64)
    a = gp_correlation_toy(cfg, n_draws=8, seed=3)
    b = gp_correlation_toy(cfg, n_draws=8, seed=3)
    assert a == b


def test_mmd_shift_toy_contract():
    out = mmd_shift_toy(n_per_side=150, seed=1)
    assert out["n_per_side"] == 150
    assert out["mmd_p0_p1"] >= 0.0 and out["mmd_p_q"] >= 0.0
    # equal arm sizes, so the weighted per-arm mean is a plain average
    mix = 0.5 * out["mmd_p0_q0"] + 0.5 * out["mmd_p1_q1"]
    assert out["mmd_p_q"] == pytest.approx(mix)
    assert out["ratio"] == pytest.approx(out["mmd_p0_p1"] / out["mmd_p_q"])
    assert out["bandwidth"] > 0.0
    assert out["n_pairs"] > 0


def test_run_experiment_files_and_summary(tmp_path):
    out = run_experiment(tiny_descriptor(), str(tmp_path))
    with open(tmp_path / "results.csv") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["method", "seed", "pehe_in", "pehe_out",
                                     "val_loss", "epochs", "mmd_p_q"]
        rows = list(reader)
    assert len(rows) == 6  # 2 methods x 3 seeds
    fact = [r for r in rows if r["method"] == "factual"]
    pair = [r for r in rows if r["method"] == "pair"]
    assert all(r["mmd_p_q"] == "" for r in fact)  # diagnostic is pair-only
    assert all(float(r["mmd_p_q"]) > 0.0 for r in pair)
    assert all(float(r["pehe_out"]) >= 0.0 for r in rows)
    assert out["methods"]["pair"]["cells"] == 3
    assert out["failures"] == []
    comp = out["comparisons"]["pair_vs_factual"]
    assert comp["n"] == 3 and 0.0 <= comp["p"] <= 1.0
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk["name"] == "tiny"
    assert on_disk["comparisons"]["pair_vs_factual"]["n"] == 3
    assert on_disk["descriptor"]["seeds"] == [0, 1, 2]


def test_run_experiment_shares_data_within_seed(tmp_path):
    # paired comparisons need both methods to see the same draw per seed,
    # which shows up as identical arm-imbalance diagnostics per seed
    out = run_experiment(tiny_descriptor(seeds=[0, 1]), str(tmp_path))
    assert set(out["data_diagnostics"]) == {0, 1}
    for diag in out["data_diagnostics"].values():
        assert diag["mmd_p0_p1"] >= 0.0
    assert (out["data_diagnostics"][0]["mmd_p0_p1"]
            != out["data_diagnostics"][1]["mmd_p0_p1"])


def test_run_experiment_grid_axes(tmp_path):
    desc = tiny_descriptor(methods=["pair"], seeds=[0, 1],
                           grid={"temperature": [0.0, 5.0]})
    out = run_experiment(desc, str(tmp_path))
    with open(tmp_path / "results.csv") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames[:3] == ["method", "seed", "temperature"]
        rows = list(reader)
    assert len(rows) == 4  # 1 method x 2 seeds x 2 temperatures
    assert sorted({r["temperature"] for r in rows}) == ["0.0", "5.0"]
    assert out["comparisons"] == {}  # grids skip the head-to-head stats
    assert out["methods"]["pair"]["cells"] == 4


def test_run_experiment_isolates_cell_failures(tmp_path):
    desc = tiny_descriptor(methods=["pair_alpha"], seeds=[0],
                           grid={"alpha": [0.0, 3.0]})
    out = run_experiment(desc, str(tmp_path))
    assert len(out["failures"]) == 1
    fail = out["failures"][0]
    assert fail["error"] == "ValueError"
    assert fail["alpha"] == 3.0
    assert out["methods"]["pair_alpha"]["cells"] == 1  # the valid cell ran


def test_run_experiment_rejects_bad_descriptors(tmp_path):
    with pytest.raises(ValueError):
        run_experiment(tiny_descriptor(methods=[]), str(tmp_path))
    with pytest.raises(ValueError):
        run_experiment(tiny_descriptor(methods=["ridge"]), str(tmp_path))
    with pytest.raises(ValueError):
        run_experiment(tiny_descriptor(seeds=[]), str(tmp_path))
    with pytest.raises(ValueError):
        run_experiment(tiny_descriptor(grid={"width": [1]}), str(tmp_path))
    bad_gen = tiny_descriptor()
    bad_gen["generator"] = {"kind": "cauchy"}
    with pytest.raises(ValueError):
        run_experiment(bad_gen, str(tmp_path))
    no_source = tiny_descriptor()
    del no_source["generator"]
    with pytest.raises(ValueError):
        run_experiment(no_source, str(tmp_path))


def test_run_experiment_rejects_unknown_train_keys_before_any_cell(tmp_path):
    desc = tiny_descriptor(train={**BASE_TRAIN, "max_epoch": 5})
    with pytest.raises(ValueError, match="max_epoch"):
        run_experiment(desc, str(tmp_path))
    assert not (tmp_path / "results.csv").exists()


def test_run_experiment_rejects_unread_keys_before_any_cell(tmp_path):
    rows = tmp_path / "rows.csv"
    save_csv(gen_polynomial_synth(60, np.random.default_rng(0)), str(rows))
    def no_generator(**kw):
        desc = tiny_descriptor(**kw)
        del desc["generator"]
        return desc

    csv_only = no_generator(csv={"path": str(rows), "n_tests": 20})
    no_path = no_generator(csv={"mode": "binary", "n_test": 20})
    cases = {
        "seed": tiny_descriptor(train={**BASE_TRAIN, "seed": 5}),
        "loss": tiny_descriptor(train={**BASE_TRAIN,
                                       "loss": {"kind": "factual"}}),
        "grids": tiny_descriptor(grids={"temperature": [1.0]}),
        "ntest": tiny_descriptor(generator={"kind": "polynomial", "n": 60,
                                            "ntest": 30}),
        "family": tiny_descriptor(generator={"kind": "polynomial",
                                             "family": "news"}),
        "n_tests": csv_only,
        "'path'": no_path,
        "exactly one": tiny_descriptor(csv={"path": str(rows), "n_test": 20}),
        # counts and seeds that a cell would truncate
        "generator key 'n' ": tiny_descriptor(generator={"kind": "polynomial",
                                                         "n": 60.9}),
        "'n_test'": tiny_descriptor(generator={"kind": "polynomial",
                                               "n_test": True}),
        "'dim'": tiny_descriptor(generator={"kind": "continuous",
                                            "family": "tcga0", "dim": 5.5}),
        "csv key 'n_test'": no_generator(csv={"path": str(rows),
                                              "n_test": 20.5}),
        "'seeds'": tiny_descriptor(seeds=[0, 1.5]),
        "'seed'": tiny_descriptor(seed=2.7),
        # train keys the grid sets per cell
        r"\['pairing.temperature'\]": tiny_descriptor(
            train={**BASE_TRAIN, "pairing": {"temperature": 7.0}},
            grid={"temperature": [5.0]}),
        r"\['pairing.num_neighbors', 'psi'\]": tiny_descriptor(
            grid={"num_neighbors": [1], "psi": ["factual"]}),
        r"\['alpha'\]": tiny_descriptor(train={**BASE_TRAIN, "alpha": 1.0},
                                        grid={"alpha": [0.5]}),
        # train values, read by the config every cell builds
        "pairing.temprature": tiny_descriptor(
            train={**BASE_TRAIN, "pairing": {"temprature": 5.0}}),
        "reg.l2": tiny_descriptor(train={**BASE_TRAIN, "reg": {"l2": 0.1}}),
        "max_epochs": tiny_descriptor(train={**BASE_TRAIN, "max_epochs": 2.5}),
        "lr": tiny_descriptor(train={**BASE_TRAIN, "lr": -1}),
        "alpha": tiny_descriptor(train={**BASE_TRAIN, "alpha": 5}),
    }
    for i, (named, desc) in enumerate(cases.items()):
        with pytest.raises(ValueError, match=named):
            run_experiment(desc, str(tmp_path / str(i)))
        assert not (tmp_path / str(i)).exists()


def test_run_experiment_takes_integral_floats_as_integers(tmp_path):
    generator = {"kind": "polynomial", "n": 60, "n_test": 30}
    ints = run_experiment(tiny_descriptor(methods=["factual"], seeds=[1],
                                          generator=generator),
                          str(tmp_path / "ints"))
    floats = run_experiment(
        tiny_descriptor(methods=["factual"], seeds=[1.0], seed=7.0,
                        generator={**generator, "n": 60.0, "n_test": 30.0}),
        str(tmp_path / "floats"))
    assert floats["seeds"] == [1]
    assert ((tmp_path / "floats" / "results.csv").read_text()
            == (tmp_path / "ints" / "results.csv").read_text())
    assert floats["methods"] == ints["methods"]


def test_run_experiment_csv_source(tmp_path):
    rng = np.random.default_rng(0)
    ds = gen_polynomial_synth(60, rng)
    path = tmp_path / "rows.csv"
    save_csv(ds, str(path))
    desc = {
        "name": "csv-run",
        "csv": {"path": str(path), "mode": "binary", "n_test": 20},
        "methods": ["factual"],
        "seeds": [0],
        "train": dict(BASE_TRAIN),
    }
    out = run_experiment(desc, str(tmp_path / "out"))
    assert out["methods"]["factual"]["cells"] == 1
    bad = dict(desc, csv={"path": str(path), "mode": "binary", "n_test": 0})
    with pytest.raises(ValueError):
        run_experiment(bad, str(tmp_path / "out2"))


def test_run_experiment_continuous_generator(tmp_path):
    desc = {
        "name": "cont",
        "generator": {"kind": "continuous", "family": "ihdp_cont",
                      "n": 50, "n_test": 25},
        "methods": ["factual"],
        "seeds": [0],
        "train": {"arch": "shallow", "max_epochs": 1, "patience": 1,
                  "psi": "identity"},
    }
    out = run_experiment(desc, str(tmp_path))
    with open(tmp_path / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["mmd_p_q"] == ""  # arm diagnostic is binary-only
    assert float(rows[0]["pehe_out"]) >= 0.0
    assert out["data_diagnostics"][0] == {}
    bad = dict(desc, generator={"kind": "continuous", "family": "mystery"})
    with pytest.raises(ValueError):
        run_experiment(bad, str(tmp_path / "bad"))


def test_run_experiment_leaves_no_directory_without_a_dataset(tmp_path):
    # nothing is written before results.csv, so a dataset that cannot be
    # built must not leave an empty output directory behind
    missing_csv = tiny_descriptor(csv={"path": str(tmp_path / "absent.csv"),
                                       "n_test": 10})
    del missing_csv["generator"]
    cases = [
        (ValueError, tiny_descriptor(generator={"kind": "continuous",
                                                "family": "mystery"})),
        (ValueError, tiny_descriptor(generator={"kind": "continuous"})),
        (ValueError, tiny_descriptor(generator={"kind": "polynomial",
                                                "n": 60, "n_test": 0})),
        (FileNotFoundError, missing_csv),
    ]
    for i, (error, desc) in enumerate(cases):
        with pytest.raises(error):
            run_experiment(desc, str(tmp_path / str(i)))
        assert not (tmp_path / str(i)).exists()


def test_write_atomic_uses_its_own_temporary(tmp_path):
    target = tmp_path / "results.csv"
    # another writer's temporary under the old fixed name stays untouched
    other = tmp_path / "results.csv.tmp"
    other.write_text("someone else's half-written file", encoding="utf-8")
    _write_atomic(str(target), "a,b\n1,2\n")
    _write_atomic(str(target), "a,b\n3,4\n")
    assert target.read_text(encoding="utf-8") == "a,b\n3,4\n"
    assert other.read_text(encoding="utf-8") == "someone else's half-written file"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv",
                                                          "results.csv.tmp"]
