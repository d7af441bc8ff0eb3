"""Smoke check of the benchmark itself, at a tiny size.

Run from the repository root (about a minute, most of it verify_all,
whose consistency sweep has fixed sizes):

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json it runs perfbench/run.py untraced and
traced with --size tiny, and asserts that the last stdout line is a correct
result that carries exactly the metrics BENCHMARK.json names, each with its
unit.  It also asserts that cell_factual never reaches the pair sampler and
that the benchmark fails, printing no result, when the library sources are
absent.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(root, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def check_result(spec, workload, trace) -> dict:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS, f"{where}: keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0, \
        f"{where}: incorrect\n{proc.stderr}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    assert set(metrics) == set(wanted), \
        f"{where}: metric names differ by {sorted(set(metrics) ^ set(wanted))}"
    values = {}
    for name, entry in metrics.items():
        assert entry["unit"] == wanted[name], f"{where}: unit of {name}"
        value = entry["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert math.isfinite(value), f"{where}: {name} = {value}"
        if not trace:
            assert value > 0, f"{where}: end-to-end {name} = {value}"
        values[name] = value
    return values


def check_bare_directory() -> None:
    """Only BENCHMARK.json and perfbench/: the run must fail, silently."""
    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, "cell_pair", 0)
        assert proc.returncode != 0, "ran without the library sources"
        assert '"correct"' not in proc.stdout, "printed a result"
    finally:
        shutil.rmtree(bare.parent, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        check_result(spec, workload, 0)
        layers = check_result(spec, workload, 1)
        pair_calls = layers["pairing.create_pair_ds.calls"]
        if workload == "cell_factual":
            assert pair_calls == 0, "cell_factual reached the pair sampler"
        else:
            assert pair_calls > 0, f"{workload} never built pairs"
        print(f"ok {workload}", flush=True)
    check_bare_directory()
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())
