import json

import numpy as np
import pytest

from paireffect.datagen import CONTINUOUS, Dataset, gen_polynomial_synth
from paireffect.losses import LossConfig
from paireffect.models import predict_outcomes
from paireffect.nets import RegConfig
from paireffect.pairing import PairingConfig, derive_seed
from paireffect.training import (
    PSI_FACTUAL,
    PSI_IDENTITY,
    PSI_RANDOM,
    TrainConfig,
    compare_methods,
    evaluate_pehe,
    train,
)

from conftest import binary_dataset


def fast_config(**kw):
    base = dict(
        loss=LossConfig(kind="pair"),
        pairing=PairingConfig(num_neighbors=2),
        arch="shallow",
        max_epochs=8,
        patience=3,
        seed=5,
        psi=PSI_IDENTITY,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="max_epoch"):
        TrainConfig.from_dict({"max_epoch": 5, "lr": 1e-3})


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(val_fraction=0.0)
    with pytest.raises(ValueError):
        TrainConfig(psi="learned")
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError, match="arch"):
        TrainConfig(arch="wide")
    for k in (2.5, 3.0):
        with pytest.raises(ValueError, match="num_neighbors"):
            TrainConfig.from_dict({"pairing": {"num_neighbors": k}})


@pytest.mark.parametrize("name, value", [
    ("lr", float("nan")), ("lr", float("inf")), ("batch_size", 2.5),
    ("batch_size", True), ("max_epochs", 3.0), ("patience", 2.5),
])
def test_config_rejects_non_finite_and_non_int_values(name, value):
    with pytest.raises(ValueError, match=name):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("name", ["batch_size", "max_epochs", "patience"])
@pytest.mark.parametrize("value", [2.5, True])
def test_from_dict_rejects_non_integral_counts(name, value):
    with pytest.raises(ValueError, match=name):
        TrainConfig.from_dict({name: value})


def test_from_dict_takes_integral_floats_as_ints():
    config = TrainConfig.from_dict(
        {"batch_size": 50.0, "max_epochs": 7.0, "patience": 3.0})
    assert (config.batch_size, config.max_epochs, config.patience) == (50, 7, 3)
    assert config.config_hash() == TrainConfig(
        batch_size=50, max_epochs=7, patience=3).config_hash()


def test_training_does_not_revalidate_rows(monkeypatch):
    ds = binary_dataset(n=120)
    calls = []
    check = Dataset.__post_init__

    def counted(self):
        calls.append(1)
        check(self)

    monkeypatch.setattr(Dataset, "__post_init__", counted)
    counts = []
    for batch_size in (10, 100):
        calls.clear()
        train(ds, fast_config(loss=LossConfig(kind="factual"),
                              batch_size=batch_size))
        counts.append(len(calls))
    assert counts == [0, 0]


def test_config_hash_tracks_content():
    a = fast_config()
    b = fast_config()
    c = fast_config(lr=2e-4)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_training_is_deterministic():
    ds = binary_dataset(n=120, seed=1)
    cfg = fast_config()
    model_a, rec_a = train(ds, cfg)
    model_b, rec_b = train(ds, cfg)
    assert rec_a.model_hash == rec_b.model_hash
    assert rec_a.to_json() == rec_b.to_json()
    x = ds.x[:5]
    assert np.array_equal(
        predict_outcomes(model_a, x, np.ones(5)),
        predict_outcomes(model_b, x, np.ones(5)),
    )


def test_different_seeds_give_different_models():
    ds = binary_dataset(n=120, seed=1)
    _, rec_a = train(ds, fast_config(seed=5))
    _, rec_b = train(ds, fast_config(seed=6))
    assert rec_a.model_hash != rec_b.model_hash


def test_run_record_shape():
    ds = binary_dataset(n=120, seed=2)
    cfg = fast_config(max_epochs=6)
    _, rec = train(ds, cfg)
    assert rec.stop_epoch <= 6
    assert len(rec.train_losses) == rec.stop_epoch
    assert len(rec.val_losses) == rec.stop_epoch
    assert rec.best_val == pytest.approx(min(rec.val_losses))
    assert rec.best_epoch == int(np.argmin(rec.val_losses)) + 1
    assert rec.config_hash == cfg.config_hash()
    doc = json.loads(rec.to_json())
    assert doc["best_epoch"] == rec.best_epoch


def test_fresh_pairs_each_epoch_fixed_val_pairs():
    ds = binary_dataset(n=150, seed=3)
    _, rec = train(ds, fast_config(max_epochs=5, patience=5))
    assert len(rec.pair_hashes) == rec.stop_epoch
    assert len(set(rec.pair_hashes)) == len(rec.pair_hashes)  # resampled per epoch
    assert rec.notes["n_val_pairs"] > 0                       # built once, up front


def test_factual_training_ignores_pairing():
    ds = binary_dataset(n=120, seed=4)
    _, rec_a = train(ds, fast_config(loss=LossConfig(kind="factual"),
                                     pairing=PairingConfig(temperature=0.5)))
    _, rec_b = train(ds, fast_config(loss=LossConfig(kind="factual"),
                                     pairing=PairingConfig(temperature=5.0)))
    assert rec_a.model_hash == rec_b.model_hash
    assert rec_a.pair_hashes == []
    assert rec_a.notes == {}


def test_max_epochs_zero_returns_initial_model():
    ds = binary_dataset(n=80, seed=5)
    model, rec = train(ds, fast_config(max_epochs=0))
    assert rec.stop_epoch == 0
    assert rec.train_losses == [] and rec.val_losses == []
    assert np.all(np.isfinite(predict_outcomes(model, ds.x[:3], np.zeros(3))))


def test_early_stopping_restores_best_snapshot():
    ds = binary_dataset(n=150, seed=6)
    # tiny patience forces a stop well before max_epochs on a noisy objective
    _, rec = train(ds, fast_config(max_epochs=60, patience=2, lr=5e-3))
    assert rec.stop_epoch < 60
    assert rec.best_epoch <= rec.stop_epoch
    assert rec.best_val <= min(rec.val_losses) + 1e-15


def test_nan_validation_loss_raises_naming_the_epoch(monkeypatch):
    from paireffect import losses
    from paireffect.nets import NonFiniteValue

    real = losses.objective_value
    calls = []

    def nan_from_epoch_3(model, batch, objective):
        calls.append(1)
        return real(model, batch, objective) if len(calls) < 3 else float("nan")

    monkeypatch.setattr(losses, "objective_value", nan_from_epoch_3)
    ds = binary_dataset(n=120, seed=6)
    with pytest.raises(NonFiniteValue, match="epoch 3"):
        train(ds, fast_config(max_epochs=20, patience=5))


def test_pair_binary_requires_binary_outcomes():
    ds = binary_dataset(n=60, seed=7)  # real-valued y
    with pytest.raises(ValueError):
        train(ds, fast_config(loss=LossConfig(kind="pair_binary")))


def test_pair_binary_rejects_real_valued_outcomes_before_psi_training(
        monkeypatch):
    from paireffect import nets

    steps = []
    step = nets.loss_and_gradient
    monkeypatch.setattr(nets, "loss_and_gradient",
                        lambda *args: steps.append(1) or step(*args))
    ds = binary_dataset(n=60, seed=7)  # real-valued y
    with pytest.raises(ValueError, match="0/1 outcomes"):
        train(ds, fast_config(loss=LossConfig(kind="pair_binary"),
                              psi=PSI_FACTUAL))
    assert steps == []  # not one step, the psi model's included


def _binary_outcome_dataset():
    from paireffect.datagen import Oracle

    rng = np.random.default_rng(8)
    n = 100
    x = rng.normal(size=(n, 3))
    t = rng.integers(0, 2, size=n).astype(float)

    def prob_one(ids, xs, tv):
        return 1.0 / (1.0 + np.exp(-(xs[:, 0] + tv)))

    y = (rng.uniform(size=n) < prob_one(None, x, t)).astype(float)
    return Dataset(x=x, t=t, y=y, mode="binary",
                   oracle=Oracle(fn=prob_one, noise_sd=0.0))


def test_pair_binary_trains_on_binary_outcomes():
    ds = _binary_outcome_dataset()
    model, rec = train(ds, fast_config(loss=LossConfig(kind="pair_binary"),
                                       max_epochs=4))
    assert rec.stop_epoch >= 1
    # PEHE on probability outputs stays within the probability scale
    assert evaluate_pehe(model, ds, probability_outputs=True) <= 1.0


def test_pair_binary_runs_count_their_own_clamped_targets(monkeypatch):
    from paireffect import losses

    ds = _binary_outcome_dataset()
    # a clamp at 0.3 catches many targets, so a shared count would add up
    monkeypatch.setattr(losses, "PROB_CLAMP", 0.3)
    config = fast_config(loss=LossConfig(kind="pair_binary"), max_epochs=2)
    _, first = train(ds, config)
    _, other = train(ds, fast_config(loss=LossConfig(kind="pair_binary"),
                                     max_epochs=1, seed=6))
    _, again = train(ds, config)
    assert first.notes["clamped_targets"] > 0
    assert again.notes["clamped_targets"] == first.notes["clamped_targets"]
    assert other.notes["clamped_targets"] > 0


def test_psi_variants_change_pairing_not_contract():
    ds = binary_dataset(n=120, seed=9)
    records = {}
    for psi in (PSI_IDENTITY, PSI_RANDOM, PSI_FACTUAL):
        _, rec = train(ds, fast_config(psi=psi, max_epochs=3, patience=3))
        records[psi] = rec
    first = {k: r.pair_hashes[0] for k, r in records.items()}
    assert first[PSI_IDENTITY] != first[PSI_RANDOM]
    assert first[PSI_IDENTITY] != first[PSI_FACTUAL]
    # only the learned embedding trains an inner model
    assert "psi_epochs" in records[PSI_FACTUAL].notes
    assert "psi_epochs" not in records[PSI_IDENTITY].notes


def test_continuous_mode_trains_and_evaluates():
    rng = np.random.default_rng(10)
    n = 120
    x = rng.normal(size=(n, 4))
    t = rng.uniform(size=n)

    def fn(ids, xs, tv):
        return xs[:, 0] + np.sin(3.0 * tv)

    from paireffect.datagen import Oracle

    y = fn(None, x, t) + 0.05 * rng.normal(size=n)
    ds = Dataset(x=x, t=t, y=y, mode=CONTINUOUS, oracle=Oracle(fn=fn, noise_sd=0.05))
    model, rec = train(ds, fast_config(max_epochs=4))
    val = evaluate_pehe(model, ds, seed=3)
    assert np.isfinite(val) and val >= 0.0
    # alternative dosages are seed-deterministic
    assert val == evaluate_pehe(model, ds, seed=3)
    assert val != evaluate_pehe(model, ds, seed=4)


def test_evaluate_pehe_requires_oracle():
    rng = np.random.default_rng(11)
    ds = Dataset(x=rng.normal(size=(20, 2)),
                 t=rng.integers(0, 2, size=20).astype(float),
                 y=rng.normal(size=20))
    model, _ = train(binary_dataset(n=60, seed=12),
                     fast_config(max_epochs=1, loss=LossConfig(kind="factual")))
    from paireffect.datagen import MissingGroundTruth

    with pytest.raises(MissingGroundTruth):
        evaluate_pehe(model, ds)


def test_l2_regularization_shrinks_weights():
    ds = binary_dataset(n=120, seed=13)
    loose_cfg = fast_config(loss=LossConfig(kind="factual"), max_epochs=10,
                            reg=RegConfig(l2_phi=0.0, l2_head=0.0))
    tight_cfg = fast_config(loss=LossConfig(kind="factual"), max_epochs=10,
                            reg=RegConfig(l2_phi=50.0, l2_head=50.0))
    loose, _ = train(ds, loose_cfg)
    tight, _ = train(ds, tight_cfg)
    norm = lambda m: float(np.sum(m.params.flat**2))
    assert norm(tight) < norm(loose)


def test_compare_methods_contract():
    a = {0: 1.0, 1: 1.2, 2: 0.9}
    b = {0: 1.3, 1: 1.4, 2: 1.1}
    out = compare_methods(a, b)
    assert out["n"] == 3
    assert out["p"] < 0.05  # b consistently worse
    assert out["mean_a"] == pytest.approx(np.mean(list(a.values())))
    with pytest.raises(ValueError):
        compare_methods(a, {0: 1.0, 1: 1.2, 5: 0.7})
