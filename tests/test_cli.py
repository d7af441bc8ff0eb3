import csv
import json
import os

import numpy as np
import pytest

from paireffect.cli import main
from paireffect.datagen import load_csv


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    stream = captured.out if rc == 0 else captured.err
    return rc, json.loads(stream)


def write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def test_gen_polynomial_round_trip(tmp_path, capsys):
    out = tmp_path / "data.csv"
    rc, doc = run_cli(capsys, "gen", "polynomial", "--n", "60",
                      "--seed", "4", "--out", str(out))
    assert rc == 0
    assert doc["rows"] == 60 and doc["mode"] == "binary"
    ds = load_csv(str(out), "binary")
    assert len(ds) == 60
    assert np.all(np.isfinite(ds.true_ite(1.0, 0.0)))  # oracle survived


def test_gen_continuous_requires_family(tmp_path, capsys):
    rc, doc = run_cli(capsys, "gen", "continuous", "--n", "30",
                      "--out", str(tmp_path / "c.csv"))
    assert rc == 2
    assert doc["error"] == "UsageError"
    assert "--family" in doc["message"]


def test_gen_unknown_kind_is_usage_error(tmp_path, capsys):
    rc, doc = run_cli(capsys, "gen", "spline", "--out", str(tmp_path / "x.csv"))
    assert rc == 2
    assert doc["error"] == "UsageError"


def test_out_dir_env_resolves_relative_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PAIREFFECT_OUT_DIR", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    rc, doc = run_cli(capsys, "gen", "polynomial", "--n", "20",
                      "--out", "nested/run/data.csv")
    assert rc == 0
    assert (tmp_path / "nested" / "run" / "data.csv").exists()
    assert doc["written"] == str(tmp_path / "nested" / "run" / "data.csv")


def test_pairs_command_reports_diagnostics(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert main(["gen", "polynomial", "--n", "80", "--out", str(data)]) == 0
    capsys.readouterr()
    out = tmp_path / "pairs.csv"
    rc, doc = run_cli(capsys, "pairs", "--data", str(data), "--out", str(out),
                      "--num-neighbors", "2", "--lambda", "3.0")
    assert rc == 0
    assert out.exists()
    assert doc["n_pairs"] > 0
    assert doc["delta_hat"] >= doc["mean_distance"] > 0.0


def test_pairs_random_projection_matches_training_embedding(tmp_path, capsys):
    from paireffect.pairing import PairingConfig, create_pair_ds, save_pairs_csv
    from paireffect.training import PSI_RANDOM, TrainConfig, _embedding_provider

    data = tmp_path / "data.csv"
    assert main(["gen", "polynomial", "--n", "80", "--out", str(data)]) == 0
    capsys.readouterr()
    out = tmp_path / "pairs.csv"
    rc, _ = run_cli(capsys, "pairs", "--data", str(data), "--out", str(out),
                    "--psi", "random_projection", "--seed", "3")
    assert rc == 0
    ds = load_csv(data)
    provider = _embedding_provider(TrainConfig(psi=PSI_RANDOM, seed=3), ds, {})
    expected = tmp_path / "expected.csv"
    save_pairs_csv(create_pair_ds(ds, ds, PairingConfig(), provider, 3),
                   expected)
    assert out.read_bytes() == expected.read_bytes()


def test_train_eval_round_trip(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert main(["gen", "polynomial", "--n", "80", "--seed", "2",
                 "--out", str(data)]) == 0
    overrides = tmp_path / "overrides.json"
    overrides.write_text(json.dumps(
        {"max_epochs": 2, "patience": 2, "lr": 1e-3, "batch_size": 50}
    ))
    model_path = tmp_path / "model.json"
    record_path = tmp_path / "record.json"
    capsys.readouterr()
    rc, doc = run_cli(capsys, "train", "--data", str(data),
                      "--loss", "pair", "--psi", "identity",
                      "--arch", "shallow", "--num-neighbors", "2",
                      "--config", str(overrides),
                      "--model-out", str(model_path),
                      "--record-out", str(record_path))
    assert rc == 0
    assert doc["stop_epoch"] == 2 and len(doc["model_hash"]) > 0
    record = json.loads(record_path.read_text())
    assert record["config_hash"] == doc["config_hash"]

    report_path = tmp_path / "report.json"
    rc, doc = run_cli(capsys, "eval", "--model", str(model_path),
                      "--data", str(data), "--out", str(report_path))
    assert rc == 0
    assert doc["pehe"] >= 0.0 and doc["rows"] == 80
    assert json.loads(report_path.read_text())["pehe"] == doc["pehe"]


def test_train_with_malformed_config_file(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert main(["gen", "polynomial", "--n", "40", "--out", str(data)]) == 0
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    capsys.readouterr()
    rc, doc = run_cli(capsys, "train", "--data", str(data),
                      "--config", str(broken))
    assert rc == 1
    assert doc["error"] == "JSONDecodeError"


def test_train_rejects_unknown_config_keys(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert main(["gen", "polynomial", "--n", "40", "--out", str(data)]) == 0
    config = tmp_path / "train.json"
    for key, body in (("max_epoch", {"max_epoch": 5}),
                      ("reg.l2", {"reg": {"l2": 0.1}})):
        config.write_text(json.dumps(body))
        capsys.readouterr()
        rc, doc = run_cli(capsys, "train", "--data", str(data),
                          "--config", str(config))
        assert rc == 1
        assert doc["error"] == "ValueError" and key in doc["message"]


@pytest.mark.parametrize("name, value", [
    ("batch_size", 2.5), ("max_epochs", 3.7), ("patience", 1.9),
])
def test_train_rejects_non_integral_config_counts(tmp_path, capsys, name,
                                                  value):
    data = tmp_path / "data.csv"
    assert main(["gen", "polynomial", "--n", "40", "--out", str(data)]) == 0
    config = tmp_path / "train.json"
    config.write_text(json.dumps({name: value}))
    capsys.readouterr()
    rc, doc = run_cli(capsys, "train", "--data", str(data),
                      "--config", str(config))
    assert rc == 1
    assert doc["error"] == "ValueError" and name in doc["message"]


def test_train_rejects_config_keys_a_flag_owns(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert main(["gen", "polynomial", "--n", "40", "--out", str(data)]) == 0
    config = tmp_path / "train.json"
    config.write_text(json.dumps({
        "max_epochs": 1, "seed": 5, "arch": "shallow",
        "loss": {"kind": "factual"},
        "pairing": {"temperature": 7.0, "num_neighbors": 9,
                    "continuous_halfwidth": 0.1},
    }))
    capsys.readouterr()
    rc, doc = run_cli(capsys, "train", "--data", str(data),
                      "--config", str(config))
    assert rc == 2 and doc["error"] == "UsageError"
    for named in ("seed (--seed)", "loss (--loss/--alpha)", "arch (--arch)",
                  "pairing.temperature (--lambda)",
                  "pairing.num_neighbors (--num-neighbors)"):
        assert named in doc["message"]
    assert "max_epochs" not in doc["message"]
    assert "continuous_halfwidth" not in doc["message"]


def test_missing_data_file_is_runtime_error(tmp_path, capsys):
    rc, doc = run_cli(capsys, "train", "--data", str(tmp_path / "nope.csv"))
    assert rc == 1
    assert doc["error"] == "FileNotFoundError"


def test_experiment_command(tmp_path, capsys):
    spec = {
        "name": "cli-tiny",
        "generator": {"kind": "polynomial", "n": 60, "n_test": 30},
        "methods": ["factual"],
        "seeds": [0],
        "train": {"arch": "shallow", "max_epochs": 1, "patience": 1,
                  "psi": "identity"},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = tmp_path / "runs"
    rc, doc = run_cli(capsys, "experiment", str(spec_path),
                      "--out-dir", str(out_dir))
    assert rc == 0
    assert doc["failures"] == 0
    assert doc["methods"]["factual"]["cells"] == 1
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "summary.json").exists()


def test_verify_lemma_suite(capsys):
    rc, doc = run_cli(capsys, "verify", "--suite", "lemma", "--scenes", "5")
    assert rc == 0
    assert doc["lemma"]["ok"] is True
    assert doc["lemma"]["max_gap"] <= 1e-10


@pytest.mark.parametrize("suite", ["bound", "sweep"])
def test_verify_single_suite_reports_only_itself(suite, capsys):
    rc, doc = run_cli(capsys, "verify", "--suite", suite, "--scenes", "5")
    assert rc == 0
    assert list(doc) == [suite]
    assert doc[suite]["ok"] is True


@pytest.mark.parametrize("suite, scenes", [("lemma", "0"), ("bound", "-3")])
def test_verify_rejects_non_positive_scenes_at_the_flag(suite, scenes, capsys):
    rc, doc = run_cli(capsys, "verify", "--suite", suite, "--scenes", scenes)
    assert rc == 2
    assert doc["error"] == "UsageError"
    assert doc["message"] == f"argument --scenes: must be >= 1, not {scenes}"


def test_failing_verify_suite_prints_report_then_exits_1(capsys, monkeypatch):
    from paireffect import theory

    monkeypatch.setattr(theory, "verify_lemma_identity",
                        lambda scene: {"gap": 1.0})
    rc = main(["verify", "--suite", "lemma", "--scenes", "3"])
    captured = capsys.readouterr()
    assert rc == 1
    assert json.loads(captured.out) == {
        "lemma": {"scenes": 3, "max_gap": 1.0, "ok": False}}
    assert json.loads(captured.err)["error"] == "RuntimeError"


def test_toy_mmd_small(capsys):
    rc, doc = run_cli(capsys, "toy-mmd", "--n", "120")
    assert rc == 0
    assert doc["ratio"] > 0.0 and doc["n_per_side"] == 120


def test_ttest_command(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_rows(a, ["seed", "pehe_out"], [[s, 1.0 + 0.01 * s] for s in range(6)])
    write_rows(b, ["seed", "pehe_out"], [[s, 1.3 + 0.01 * s] for s in range(6)])
    rc, doc = run_cli(capsys, "ttest", str(a), str(b))
    assert rc == 0
    assert doc["n"] == 6
    assert doc["p"] < 0.05  # b is uniformly worse
    assert doc["mean_a"] == pytest.approx(1.025)


def test_ttest_rejects_missing_value_column(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_rows(a, ["seed", "loss"], [[0, 1.0], [1, 1.1]])
    write_rows(b, ["seed", "pehe_out"], [[0, 1.0], [1, 1.1]])
    rc, doc = run_cli(capsys, "ttest", str(a), str(b))
    assert rc == 2
    assert doc["error"] == "UsageError"


def test_ttest_rejects_duplicate_seeds(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_rows(a, ["seed", "pehe_out"], [[0, 1.0], [0, 1.1]])
    write_rows(b, ["seed", "pehe_out"], [[0, 1.0], [1, 1.1]])
    rc, doc = run_cli(capsys, "ttest", str(a), str(b))
    assert rc == 2
    assert "duplicate seed" in doc["message"]


def test_unknown_subcommand(capsys):
    rc, doc = run_cli(capsys, "frobnicate")
    assert rc == 2
    assert doc["error"] == "UsageError"


def test_module_entry_point():
    # `python -m paireffect` routes through the same parser
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "paireffect", "definitely-not-a-command"],
        capture_output=True, text=True,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "UsageError"
