"""Command-line interface.

Every subcommand exits 0 on success.  Any failure prints a single JSON
object {"error": <exception class>, "message": <text>} to stderr and exits
nonzero.  Relative output paths resolve against $PAIREFFECT_OUT_DIR when it
is set; every science parameter arrives via flags or config files, never
the environment.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import theory
from .datagen import (
    BINARY,
    CONTINUOUS,
    FAMILIES,
    GPToyConfig,
    gen_continuous_response,
    gen_gaussian_confounded,
    gen_gp_toy,
    gen_polynomial_synth,
    load_csv,
    save_csv,
)
from .experiments import gp_correlation_toy, mmd_shift_toy, run_experiment
from .losses import KINDS
from .models import load_model, save_model
from .pairing import (
    PairingConfig,
    PhiEmbedding,
    create_pair_ds,
    neighbor_diagnostics,
    save_pairs_csv,
)
from .training import (TrainConfig, compare_methods, evaluate_pehe,
                       fixed_embedding, train)

OUT_DIR_ENV = "PAIREFFECT_OUT_DIR"


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {value}")
    return value


def _out_path(path):
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.kind == "polynomial":
        ds = gen_polynomial_synth(
            args.n, rng, propensity_strength=args.propensity_strength
        )
    elif args.kind == "continuous":
        if args.family is None:
            raise CliError("--family is required for kind=continuous")
        x = rng.standard_normal((args.n, args.dim))
        ds = gen_continuous_response(
            x, args.family, dosage_bias=args.dosage_bias,
            noise_scale=args.noise_scale, rng=rng,
        )
    elif args.kind == "gp-toy":
        ds = gen_gp_toy(GPToyConfig(seed=args.seed)).dataset
    else:
        ds = gen_gaussian_confounded(args.u, args.s, args.n, args.n, rng)
    out = _out_path(args.out)
    save_csv(ds, out)
    _emit({"written": out, "rows": len(ds), "mode": ds.mode})
    return 0


def _provider_from_args(args, ds):
    if args.psi_model:
        return PhiEmbedding(load_model(args.psi_model))
    return fixed_embedding(args.psi, ds.dim, args.seed)


def _cmd_pairs(args) -> int:
    ds = load_csv(args.data, args.mode)
    config = PairingConfig(
        delta_pair=args.delta_pair,
        num_neighbors=args.num_neighbors,
        temperature=getattr(args, "lambda"),
        continuous_halfwidth=args.halfwidth,
    )
    pairs = create_pair_ds(ds, ds, config, _provider_from_args(args, ds),
                           args.seed)
    out = _out_path(args.out)
    save_pairs_csv(pairs, out)
    _emit({"written": out, **neighbor_diagnostics(pairs)})
    return 0


def _train_config_from_args(args) -> TrainConfig:
    doc = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
    flag_of = {"seed": "--seed", "loss": "--loss/--alpha", "arch": "--arch",
               "psi": "--psi", "pairing.temperature": "--lambda",
               "pairing.delta_pair": "--delta-pair",
               "pairing.num_neighbors": "--num-neighbors"}
    given = {*doc, *(f"pairing.{key}" for key in doc.get("pairing", {}))}
    owned = [f"{key} ({flag_of[key]})" for key in flag_of if key in given]
    if owned:
        raise CliError(f"--config sets keys a flag owns: {', '.join(owned)}")
    doc["pairing"] = {
        **doc.get("pairing", {}),
        "temperature": getattr(args, "lambda"),
        "delta_pair": args.delta_pair,
        "num_neighbors": args.num_neighbors,
    }
    doc.update(loss={"kind": args.loss, "alpha": args.alpha}, arch=args.arch,
               psi=args.psi, seed=args.seed)
    return TrainConfig.from_dict(doc)


def _cmd_train(args) -> int:
    config = _train_config_from_args(args)
    ds = load_csv(args.data, args.mode)
    model, record = train(ds, config)
    out = {
        "config_hash": record.config_hash,
        "stop_epoch": record.stop_epoch,
        "best_epoch": record.best_epoch,
        "best_val": record.best_val,
        "model_hash": record.model_hash,
    }
    if args.model_out:
        path = _out_path(args.model_out)
        save_model(model, path)
        out["model"] = path
    if args.record_out:
        path = _out_path(args.record_out)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(record.to_json())
        out["record"] = path
    _emit(out)
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    ds = load_csv(args.data, args.mode)
    value = evaluate_pehe(model, ds, seed=args.seed,
                          probability_outputs=args.probability_outputs)
    report = {"pehe": value, "rows": len(ds), "data": args.data}
    if args.out:
        path = _out_path(args.out)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        report["written"] = path
    _emit(report)
    return 0


def _cmd_experiment(args) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        descriptor = json.load(fh)
    out_dir = _out_path(args.out_dir or descriptor.get("name", "experiment"))
    summary = run_experiment(descriptor, out_dir)
    _emit({
        "out_dir": out_dir,
        "methods": summary["methods"],
        "comparisons": summary["comparisons"],
        "failures": len(summary["failures"]),
    })
    return 0


def _cmd_verify(args) -> int:
    report = theory.verify(args.suite, args.scenes, args.seed)
    _emit(report)
    if not all(suite["ok"] for suite in report.values()):
        raise RuntimeError("one or more verification suites failed")
    return 0


def _cmd_toy_corr(args) -> int:
    config = GPToyConfig(shift=args.shift, noise_sd=args.noise, seed=args.seed)
    _emit(gp_correlation_toy(config, n_draws=args.draws, seed=args.seed))
    return 0


def _cmd_toy_mmd(args) -> int:
    _emit(mmd_shift_toy(
        n_per_side=args.n, u=args.u, s=args.s,
        num_neighbors=args.num_neighbors, seed=args.seed,
    ))
    return 0


def _read_per_seed(path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "seed" not in reader.fieldnames:
            raise CliError(f"{path}: need a 'seed' column")
        value_col = next(
            (c for c in ("pehe_out", "pehe", "value")
             if c in reader.fieldnames),
            None,
        )
        if value_col is None:
            raise CliError(f"{path}: need a value column "
                           "(pehe_out, pehe, or value)")
        out = {}
        for row in reader:
            seed = int(row["seed"])
            if seed in out:
                raise CliError(f"{path}: duplicate seed {seed}")
            out[seed] = float(row[value_col])
    return out


def _cmd_ttest(args) -> int:
    a = _read_per_seed(args.a)
    b = _read_per_seed(args.b)
    _emit(compare_methods(a, b))
    return 0


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="paireffect")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("gen", help="write a synthetic dataset CSV")
    p.add_argument("kind",
                   choices=["polynomial", "continuous", "gp-toy", "confounded"])
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--propensity-strength", type=float, default=1.0)
    p.add_argument("--family", choices=list(FAMILIES))
    p.add_argument("--dim", type=int, default=25)
    p.add_argument("--dosage-bias", type=float, default=2.0)
    p.add_argument("--noise-scale", type=float, default=1.0)
    p.add_argument("--u", type=float, default=-1.0)
    p.add_argument("--s", type=float, default=2.0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("pairs", help="dump a sampled pair dataset CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=[BINARY, CONTINUOUS], default=BINARY)
    p.add_argument("--out", required=True)
    p.add_argument("--lambda", type=float, default=1.0)
    p.add_argument("--delta-pair", type=float, default=0.1)
    p.add_argument("--num-neighbors", type=int, default=3)
    p.add_argument("--halfwidth", type=float, default=0.05)
    p.add_argument("--psi", choices=["identity", "random_projection"],
                   default="identity")
    p.add_argument("--psi-model", help="use a saved model's representation "
                   "for pair distances")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_pairs)

    p = sub.add_parser("train", help="train a single model")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=[BINARY, CONTINUOUS], default=BINARY)
    p.add_argument("--loss", choices=list(KINDS), default="pair")
    p.add_argument("--lambda", type=float, default=1.0)
    p.add_argument("--delta-pair", type=float, default=0.1)
    p.add_argument("--num-neighbors", type=int, default=3)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--psi", choices=["identity", "random_projection",
                                     "factual"], default="factual")
    p.add_argument("--arch", choices=["deep", "shallow"], default="deep")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="JSON file with lr/batch_size/max_epochs/"
                   "patience/val_fraction/reg/pairing.continuous_halfwidth")
    p.add_argument("--model-out")
    p.add_argument("--record-out")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a saved model against an oracle")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=[BINARY, CONTINUOUS], default=BINARY)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probability-outputs", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("experiment", help="run a descriptor of "
                       "(method x seed x grid) cells")
    p.add_argument("spec")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("verify", help="run the analytical check suites")
    p.add_argument("--suite", choices=["all", "lemma", "bound", "sweep"],
                   default="all")
    p.add_argument("--scenes", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("toy-corr", help="loss-vs-risk correlation study")
    p.add_argument("--draws", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shift", type=float, default=GPToyConfig.shift)
    p.add_argument("--noise", type=float, default=GPToyConfig.noise_sd)
    p.set_defaults(func=_cmd_toy_corr)

    p = sub.add_parser("toy-mmd", help="arm-shift vs neighbor-shift MMD study")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--u", type=float, default=-1.0)
    p.add_argument("--s", type=float, default=2.0)
    p.add_argument("--num-neighbors", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_toy_mmd)

    p = sub.add_parser("ttest", help="paired one-sided t-test of two "
                       "per-seed result CSVs")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_ttest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args) or 0
    except SystemExit:
        raise
    except CliError as exc:
        print(json.dumps({"error": "UsageError", "message": str(exc)}),
              file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - single error funnel
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
