"""Training loop with early stopping, plus method comparison helpers.

Every run follows one recipe: stratified train/validation split, minibatch
Adam on the configured objective, early stopping once the validation signal
has not improved for `patience` consecutive epochs, and restoration of the
best-validation parameter snapshot.  Pair-based objectives rebuild their
training pairs from the train split at the start of every epoch, while the
validation pair set (validation anchors, candidates drawn from the full
dataset) is built once and kept fixed so epochs stay comparable.  The pair
embedding is fixed for the run, so the train split's distance table is
computed once and every epoch only redraws its neighbors from it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import losses, nets
from .datagen import BINARY, Dataset, split_stratified
from .losses import LossConfig
from .metrics import paired_t_test_one_sided, pehe
from .models import DEEP, SHALLOW, build_model, predict_outcomes, predict_ites
from .nets import RegConfig
from .pairing import (
    IdentityEmbedding,
    PairingConfig,
    PhiEmbedding,
    RandomProjectionEmbedding,
    create_pair_ds,
    derive_seed,
    pair_distances,
)

PSI_IDENTITY = "identity"
PSI_RANDOM = "random_projection"
PSI_FACTUAL = "factual"
_PSI_KINDS = (PSI_IDENTITY, PSI_RANDOM, PSI_FACTUAL)


_COERCE = {"lr": float, "val_fraction": float}


@dataclass
class TrainConfig:
    """One run's knobs.  Defaults: minibatches of 100, up to 1000 epochs,
    patience 10, 30% validation."""

    loss: LossConfig = field(default_factory=LossConfig)
    pairing: PairingConfig = field(default_factory=PairingConfig)
    reg: RegConfig = field(default_factory=RegConfig)
    lr: float = 1e-4
    batch_size: int = 100
    max_epochs: int = 1000
    patience: int = 10
    val_fraction: float = 0.3
    arch: str = DEEP
    psi: str = PSI_FACTUAL
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be finite and positive, not {self.lr!r}")
        for name, least in (("batch_size", 1), ("max_epochs", 0),
                            ("patience", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be an int >= {least}, not "
                                 f"{value!r}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in (0, 1)")
        if self.psi not in _PSI_KINDS:
            raise ValueError(f"unknown psi kind {self.psi!r}")
        if self.arch not in (DEEP, SHALLOW):
            raise ValueError(f"unknown arch {self.arch!r}")

    @classmethod
    def from_dict(cls, doc) -> "TrainConfig":
        """Build a config from JSON-style values: `loss`, `pairing` and `reg`
        are dicts of their configs' fields, lr and val_fraction become
        floats, an integral float count (batch_size 50.0) its int, and every
        other value passes through as given, so a count of 2.5 or true
        raises ValueError and config_hash still tells a temperature of 5
        from 5.0.  Unknown keys raise ValueError."""
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown train config keys {sorted(unknown)}")
        kwargs = {key: _COERCE[key](value) if key in _COERCE else value
                  for key, value in doc.items()}
        for key in ("batch_size", "max_epochs", "patience"):
            if type(kwargs.get(key)) is float and kwargs[key].is_integer():
                kwargs[key] = int(kwargs[key])
        for key, sub in (("loss", LossConfig), ("pairing", PairingConfig),
                         ("reg", RegConfig)):
            if key in kwargs:
                kwargs[key] = sub(**kwargs[key])
        return cls(**kwargs)

    def config_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    """What happened during one training run.

    train_losses are regularized minibatch means per epoch; val_losses are
    raw objective values on the fixed validation data (the early-stopping
    signal).  pair_hashes fingerprint each epoch's regenerated training
    pairs; model_hash fingerprints the returned (best-epoch) parameters.
    """

    config_hash: str
    train_losses: list
    val_losses: list
    stop_epoch: int
    best_epoch: int
    best_val: float
    pair_hashes: list = field(default_factory=list)
    model_hash: str = ""
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.stop_epoch < 0:
            raise ValueError("stop_epoch must be >= 0")
        if len(self.train_losses) != len(self.val_losses):
            raise ValueError("per-epoch loss lists disagree in length")

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _params_hash(model) -> str:
    return hashlib.sha256(model.params.to_json().encode()).hexdigest()[:16]


def fixed_embedding(psi, dim, seed):
    """The untrained pair embedding of `dim` columns: the seeded random
    projection for psi="random_projection", else the identity."""
    if psi == PSI_RANDOM:
        return RandomProjectionEmbedding(dim, dim,
                                         seed=derive_seed(seed, "proj"))
    return IdentityEmbedding(dim)


def _embedding_provider(config: TrainConfig, ds: Dataset, notes: dict):
    """The pair-distance embedding; psi="factual" trains a factual-loss
    model first (same early-stopping rule), freezes its representation and
    writes its epochs to notes["psi_epochs"]."""
    if config.psi != PSI_FACTUAL:
        return fixed_embedding(config.psi, ds.dim, config.seed)
    inner = replace(config, loss=LossConfig(kind=losses.FACTUAL),
                    psi=PSI_IDENTITY, seed=derive_seed(config.seed, "psi"))
    psi_model, psi_record = train(ds, inner)
    notes["psi_epochs"] = psi_record.stop_epoch
    return PhiEmbedding(psi_model)


def train(ds: Dataset, config: TrainConfig):
    """Run the full pipeline on one dataset; returns (model, RunRecord).

    Raises NonFiniteValue, naming the epoch, when the validation loss is
    NaN or infinite, which early stopping could not compare."""
    if config.loss.kind == losses.PAIR_BINARY:
        if ds.mode != BINARY:
            raise ValueError("binary-outcome pair loss needs binary treatments")
        if not np.all((ds.y == 0.0) | (ds.y == 1.0)):
            raise ValueError("binary-outcome pair loss needs 0/1 outcomes")
    objective = losses.make_objective(config.loss)
    pair_based = config.loss.kind != losses.FACTUAL
    model = build_model(
        config.arch, ds.mode, ds.dim, rng_seed=derive_seed(config.seed, "init")
    )
    record = RunRecord(config.config_hash(), [], [], 0, 0, float("inf"))
    if config.max_epochs == 0:
        record.model_hash = _params_hash(model)
        return model, record

    train_ds, val_ds = split_stratified(
        ds, config.val_fraction,
        np.random.default_rng(derive_seed(config.seed, "split")),
    )
    if pair_based:
        provider = _embedding_provider(config, ds, record.notes)
        val_batch = create_pair_ds(
            val_ds, ds, config.pairing, provider,
            derive_seed(config.seed, "val-pairs"),
        )
        record.notes.update(
            n_val_pairs=len(val_batch),
            val_skipped_anchors=val_batch.provenance["skipped_anchors"])
        train_distances = pair_distances(train_ds, train_ds, provider)
    else:
        val_batch = val_ds

    state = nets.adam_init(model.params, lr=config.lr)
    best_params = model.params.copy()
    for epoch in range(1, config.max_epochs + 1):
        record.stop_epoch = epoch
        if pair_based:
            data = create_pair_ds(
                train_ds, train_ds, config.pairing, provider,
                derive_seed(config.seed, "train-pairs", epoch),
                distances=train_distances,
            )
            record.pair_hashes.append(data.content_hash())
        else:
            data = train_ds
        # one shuffle per epoch; minibatches are slices (views) of it
        rng = np.random.default_rng(derive_seed(config.seed, "shuffle", epoch))
        data = data.subset(rng.permutation(len(data)))
        total = 0.0
        for lo in range(0, len(data), config.batch_size):
            batch = data.subset(slice(lo, lo + config.batch_size))
            value, grads = nets.loss_and_gradient(
                model, batch, objective, config.reg
            )
            model.params, state = nets.adam_step(model.params, grads, state)
            total += value * len(batch)
        record.train_losses.append(total / len(data))
        val = losses.objective_value(model, val_batch, objective)
        if not np.isfinite(val):
            raise nets.NonFiniteValue(f"validation loss {val} at epoch {epoch}")
        record.val_losses.append(val)
        if val < record.best_val:
            record.best_val, record.best_epoch = val, epoch
            best_params = model.params.copy()
        elif epoch - record.best_epoch >= config.patience:
            break

    model.params = best_params
    if config.loss.kind == losses.PAIR_BINARY:
        record.notes["clamped_targets"] = objective.clamped_targets
    record.model_hash = _params_hash(model)
    return model, record


def _prob_outcome_one(model, x, t):
    # raw head outputs are logits of P(outcome = 0) in the binary-outcome
    # pair pipeline, so P(outcome = 1) = 1 - sigmoid(output)
    return 1.0 - losses._sigmoid(predict_outcomes(model, x, t))


def evaluate_pehe(model, ds: Dataset, seed=0, probability_outputs=False) -> float:
    """Root-mean-squared effect-estimation error against the oracle.

    Binary mode scores the treat-vs-control effect on every row; continuous
    mode draws one uniform alternative dose per row (seeded) and scores the
    effect of switching from the observed dose.  probability_outputs scores
    effects on P(outcome = 1) instead of raw head outputs.
    """
    if ds.mode == BINARY:
        t_hi = np.ones(len(ds))
        t_lo = np.zeros(len(ds))
    else:
        rng = np.random.default_rng(derive_seed(seed, "pehe-alt"))
        t_hi = ds.t
        t_lo = rng.uniform(size=len(ds))
    tau_true = ds.true_ite(t_hi, t_lo)
    if probability_outputs:
        tau_hat = _prob_outcome_one(model, ds.x, t_hi) - _prob_outcome_one(
            model, ds.x, t_lo
        )
    else:
        tau_hat = predict_ites(model, ds.x, t_hi, t_lo)
    return pehe(tau_true, tau_hat)


def compare_methods(results_a, results_b) -> dict:
    """One-sided paired t-test that method A's per-seed values are lower.

    results_*: mapping seed -> value (e.g. PEHE).  Seed sets must match.
    """
    if set(results_a) != set(results_b):
        raise ValueError("methods were run on different seed sets")
    seeds = sorted(results_a)
    a = np.array([results_a[s] for s in seeds], dtype=float)
    b = np.array([results_b[s] for s in seeds], dtype=float)
    out = paired_t_test_one_sided(a, b)
    out["mean_a"] = float(np.mean(a))
    out["mean_b"] = float(np.mean(b))
    out["seeds"] = [int(s) for s in seeds]
    return out
