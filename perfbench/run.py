"""paireffect benchmark: one workload per process, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload cell_pair --seed 0 --seconds 40 --trace 0

The workload repeats its main call (`experiments.run_experiment` for the
cell workloads, `cli.main(["verify", "--suite", "all"])` for verify_all)
after one untimed warm-up call until --seconds have passed, checking every
output.  --trace 0 reports the end-to-end metrics of BENCHMARK.json;
--trace 1 alternates untraced and traced calls and reports the per-layer
metrics.  Earlier stdout lines carry the machine facts and per-seed
results; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  perfbench/README.md explains the workloads
and what each metric should move.
"""

import os

# Pinned before numpy loads: with the default two BLAS threads single
# cell_factual calls spread from 2.7 to 3.6 s; one thread narrows that.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, fields  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import LayerStats, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Set-up is measured in fresh interpreters, since imports are cached
# within one.  The host's speed wanders over seconds, so one probe runs
# before every call, spreading them over the run, and the median of at
# least SETUP_PROBES of them is reported.
SETUP_PROBES = 7
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import paireffect.cli, paireffect.experiments")

POLY = {"kind": "polynomial", "n": 750, "n_test": 750,
        "propensity_strength": 0.8}
TINY_N = 100
TINY_EPOCHS = 2


@dataclass
class Outcome:
    wall_s: float
    work: float         # training epochs (psi included), or anchors paired
    failed: int         # operations of this call that failed their checks
    error: float        # pehe_out, or the sweep's anchor-to-neighbor W1
    fingerprint: str    # full output text, compared across repeats of a seed


@dataclass(frozen=True)
class Cell:
    """One (method x data seed) cell of the criterion-09 setup.

    patience = max_epochs fixes the epochs trained, so wall time does not
    follow where early stopping lands (it moves with the random streams).
    Each call draws one of `seeds` data seeds; result_error averages
    pehe_out over all of them, which keeps it steady across --seed
    (pehe_out varies by about 10 % from one data seed to the next).
    """

    generator: dict
    method: str
    epochs: int
    trainings: int      # training runs per cell: 2 when psi trains first
    seeds = 12
    ops = 1

    def tiny(self) -> "Cell":
        generator = {**self.generator, "n": TINY_N, "n_test": TINY_N}
        return Cell(generator, self.method, TINY_EPOCHS, self.trainings)

    def call(self, index, seed, out_dir) -> Outcome:
        from paireffect import experiments

        descriptor = {
            "name": "perfbench",
            "generator": self.generator,
            "methods": [self.method],
            "seeds": [index],
            "seed": seed,
            "train": {
                "arch": "shallow",
                "psi": "factual",
                "max_epochs": self.epochs,
                "patience": self.epochs,
                "pairing": {"temperature": 5.0, "num_neighbors": 3},
            },
        }
        start = time.perf_counter()
        summary = experiments.run_experiment(descriptor, str(out_dir))
        wall = time.perf_counter() - start
        text = (out_dir / "results.csv").read_text(encoding="utf-8")
        rows = list(csv.DictReader(io.StringIO(text)))
        error = float(rows[0]["pehe_out"]) if len(rows) == 1 else math.nan
        ok = (not summary["failures"] and len(rows) == 1
              and int(rows[0]["epochs"]) == self.epochs
              and math.isfinite(error) and error > 0.0)
        for failure in summary["failures"]:
            print(f"perfbench: failed cell {failure}", file=sys.stderr)
        return Outcome(wall, self.epochs * self.trainings, 0 if ok else 1,
                       error, text)


@dataclass(frozen=True)
class Verify:
    """`paireffect verify --suite all`; each of its three suites is one
    operation.  Its W1 shift moves about 5 % across seeds, so one data
    seed suffices."""

    scenes: int = 50
    seeds = 1
    ops = 3
    suites = ("lemma", "bound", "sweep")

    def tiny(self) -> "Verify":
        return Verify(scenes=3)

    def call(self, index, seed, out_dir) -> Outcome:
        from paireffect import cli

        argv = ["verify", "--suite", "all", "--scenes", str(self.scenes),
                "--seed", str(seed)]
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        wall = time.perf_counter() - start
        text = buf.getvalue()
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            report = {}
        failed = sum(not report.get(s, {}).get("ok", False)
                     for s in self.suites)
        if code != 0:
            failed = max(failed, 1)
        rows = report.get("sweep", {}).get("rows", [])
        # the strict sweep and its overlap-violated control pair the same sizes
        anchors = 2 * sum(row["n"] for row in rows)
        # the anchor-to-neighbor shift at the largest n: delta_hat is a max
        # over anchors and swings by half across seeds, W1 by about 5 %
        shift = rows[-1]["w1_0"] + rows[-1]["w1_1"] if rows else math.nan
        return Outcome(wall, anchors, failed, shift, text)


WORKLOADS = {
    "cell_pair": Cell(POLY, "pair", epochs=10, trainings=2),
    "cell_factual": Cell(POLY, "factual", epochs=150, trainings=1),
    "verify_all": Verify(),
}


# ---------------------------------------------------------------------------
# Tracing


def _count_pairs(counts, span, args, pairs):
    counts["pairing.pairs"] += len(pairs)
    counts["pairing.pre_trim"] += pairs.provenance["pre_trim_size"]
    counts["pairing.skipped_anchors"] += pairs.provenance["skipped_anchors"]


def _count_rows(counts, span, args, result):
    counts["nets.rows"] += len(args[1])


def _count_epochs(counts, span, args, result):
    # a train nested in train is the frozen psi embedding model
    key = "training.psi_epochs" if span.nested else "training.epochs"
    counts[key] += result[1].stop_epoch


def install_tracing(tracer) -> None:
    from paireffect import (cli, datagen, experiments, losses, metrics, nets,
                            pairing, theory, training)

    trace = tracer.trace_function
    trace("pairing.create_pair_ds", pairing, "create_pair_ds", _count_pairs)
    for cls in (pairing.IdentityEmbedding, pairing.RandomProjectionEmbedding,
                pairing.PhiEmbedding):
        tracer.trace_method("pairing.embed", cls, "embed")
    trace("pairing.neighbor_diagnostics", pairing, "neighbor_diagnostics")
    trace("nets.loss_and_gradient", nets, "loss_and_gradient", _count_rows)
    trace("nets.adam_step", nets, "adam_step")
    trace("losses.objective_value", losses, "objective_value")
    trace("training.train", training, "train", _count_epochs)
    trace("training.evaluate_pehe", training, "evaluate_pehe")
    for attr in ("mmd_rbf", "median_heuristic", "wasserstein1_1d"):
        trace(f"metrics.{attr}", metrics, attr)
    for attr in ("consistency_sweep", "verify_ite_bound",
                 "verify_lemma_identity"):
        trace(f"theory.{attr}", theory, attr)
    for attr in ("gen_polynomial_synth", "gen_continuous_response",
                 "gen_gaussian_confounded", "gen_gp_toy"):
        trace("datagen.generate", datagen, attr)
    trace("datagen.split_stratified", datagen, "split_stratified")
    trace("experiments.run_experiment", experiments, "run_experiment")
    trace("cli.main", cli, "main")


NOT_CALLED = LayerStats(calls=0, busy_s=0.0, self_s=0.0, ms_p50=0.0)
SPAN_STATS = {f.name for f in fields(LayerStats)}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_values(names, tracer, wall_s) -> dict:
    """Per-layer values of one traced call.  A name `<span>.<stat>` reads
    that LayerStats field of the span; the rest are derived below."""
    stats = tracer.layer_stats()
    counts = tracer.counts
    pairing = stats.get("pairing.create_pair_ds", NOT_CALLED)
    grads = stats.get("nets.loss_and_gradient", NOT_CALLED)
    derived = {
        "pairing.pairs": counts["pairing.pairs"],
        "pairing.pairs_per_s": _ratio(counts["pairing.pairs"], pairing.busy_s),
        "pairing.keep_ratio": _ratio(counts["pairing.pairs"],
                                     counts["pairing.pre_trim"]),
        "pairing.skipped_anchors": counts["pairing.skipped_anchors"],
        "nets.rows_per_s": _ratio(counts["nets.rows"], grads.busy_s),
        "training.epochs": counts["training.epochs"],
        "training.psi_epochs": counts["training.psi_epochs"],
        "trace.wall_s": wall_s,
    }
    values = {}
    for name in names:
        if name in derived:
            values[name] = derived[name]
            continue
        span, _, stat = name.rpartition(".")
        if stat in SPAN_STATS:
            values[name] = getattr(stats.get(span, NOT_CALLED), stat)
    return values


# ---------------------------------------------------------------------------
# Measurement


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup_probe() -> float:
    """Wall time from process start to the library being imported."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)],
                   check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure(workload, seed, seconds, trace, layer_names, out_dir) -> dict:
    """Repeat the workload's call for `seconds`, checking every output.

    Call 0 is an untimed warm-up on data seed 0: it pays the lazy imports
    and first-touch costs that would otherwise inflate one timed call.
    Untraced, call i uses data seed i mod seeds and at least seeds + 1
    calls run, so every seed is timed once and seed 0 repeats the warm-up.
    Traced, the timed calls alternate untraced/traced on the same data
    seed, so each pair gives the tracing overhead and checks that tracing
    leaves results unchanged.  A repeated seed must reproduce its output
    exactly.
    """
    min_calls = 3 if trace else workload.seeds + 1
    setups = []
    walls = {False: [], True: []}
    rates, layer_runs = [], []
    first_output, errors = {}, {}
    attempted = failed = 0
    start = time.perf_counter()
    last = 0.0
    i = 0
    while i < min_calls or time.perf_counter() - start + last <= seconds:
        call_start = time.perf_counter()
        setups.append(setup_probe())
        gc.collect()
        warmup = i == 0
        traced = trace and not warmup and i % 2 == 0
        index = (max(i - 1, 0) // 2 if trace else i) % workload.seeds
        i += 1
        attempted += workload.ops
        tracer = Tracer()
        if traced:
            install_tracing(tracer)
        try:
            out = workload.call(index, seed, out_dir)
        except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
            traceback.print_exc()
            failed += workload.ops
            last = time.perf_counter() - call_start
            continue
        finally:
            tracer.uninstall()
        failed_now = out.failed
        reference = first_output.setdefault(index, out.fingerprint)
        if out.fingerprint != reference:
            print(f"perfbench: data seed {index} did not reproduce its output",
                  file=sys.stderr)
            failed_now = workload.ops
        if traced and isinstance(workload, Cell):
            want = (workload.epochs, workload.epochs * (workload.trainings - 1))
            got = (tracer.counts["training.epochs"],
                   tracer.counts["training.psi_epochs"])
            if got != want:
                print(f"perfbench: trained {got} epochs, expected {want}",
                      file=sys.stderr)
                failed_now = workload.ops
        failed += failed_now
        errors.setdefault(index, out.error)
        last = time.perf_counter() - call_start
        if warmup:
            continue
        walls[traced].append(out.wall_s)
        if traced:
            layer_runs.append(layer_values(layer_names, tracer, out.wall_s))
        else:
            rates.append(out.work / out.wall_s)
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe())
    return {"calls": i, "attempted": attempted, "failed": failed,
            "setup_s": statistics.median(setups),
            "walls": walls, "rates": rates, "errors": errors,
            "layer_runs": layer_runs}


def _median_or_nan(values) -> float:
    return statistics.median(values) if values else math.nan


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every call for the smoke check")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "paireffect" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"perfbench: no paireffect sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    workload = WORKLOADS[args.workload]
    if args.size == "tiny":
        workload = workload.tiny()

    sys.path.insert(0, str(SRC))
    tmp_root = ROOT / ".perfbench_tmp"
    out_dir = tmp_root / str(os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        run = measure(workload, args.seed, args.seconds, bool(args.trace),
                      list(units), out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()

    untraced_wall = _median_or_nan(run["walls"][False])
    if args.trace:
        values = {name: _median_or_nan([r[name] for r in run["layer_runs"]])
                  for name in units if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (_median_or_nan(run["walls"][True])
                                      - untraced_wall)
    else:
        values = {
            "wall_s": untraced_wall,
            "setup_s": run["setup_s"],
            "work_per_s": _median_or_nan(run["rates"]),
            "result_error": (statistics.fmean(run["errors"].values())
                             if run["errors"] else math.nan),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do "
                           "not match BENCHMARK.json")

    print(json.dumps({
        "machine": machine_facts(),
        "workload": args.workload,
        "size": args.size,
        "calls": run["calls"],
        "walls_s": run["walls"],
        "per_seed_error": run["errors"],
        "failed_share": run["failed"] / run["attempted"],
    }))
    for name, value in values.items():
        print(f"# {name} = {value} {units[name]}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
