import numpy as np
import pytest

from conftest import tiny_network
from paireffect.models import (
    TreatmentDomainError,
    bin_index,
    build_model,
    load_model,
    predict_ites,
    predict_outcomes,
    save_model,
    three_way_logits,
)


def test_binary_model_has_two_heads():
    model = build_model(arch="deep", mode="binary", input_dim=4)
    assert model.n_heads == 2
    assert set(model.params.blocks) == {"phi", "head_0", "head_1"}


def test_continuous_model_has_five_bins():
    model = build_model(arch="shallow", mode="continuous", input_dim=4)
    assert model.n_heads == 5
    assert set(model.params.blocks) == {"phi"} | {f"head_{k}" for k in range(5)}


def test_build_model_rejects_bad_args():
    with pytest.raises(ValueError):
        build_model(mode="ordinal")
    with pytest.raises(ValueError):
        build_model(arch="wide")
    with pytest.raises(ValueError):
        build_model(input_dim=0)


def test_bin_index_edges():
    k, local = bin_index(np.array([0.0, 0.19, 0.2, 0.999, 1.0]))
    assert list(k) == [0, 0, 1, 4, 4]
    # t = 1.0 still belongs to the last bin, its local coordinate maxing out
    assert local[-1] == pytest.approx(1.0 - 4 / 5)


def test_head_routing_domain_errors():
    bm = build_model(mode="binary", input_dim=2)
    cm = build_model(mode="continuous", input_dim=2)
    with pytest.raises(TreatmentDomainError):
        bm.route(np.array([0.0, 0.5]))
    with pytest.raises(TreatmentDomainError):
        cm.route(np.array([0.2, 1.3]))


def test_predictions_deterministic_and_head_dependent(rng):
    model = build_model(arch="shallow", mode="binary", input_dim=3, rng_seed=1)
    x = rng.normal(size=(8, 3))
    p1 = predict_outcomes(model, x, np.ones(8))
    p1_again = predict_outcomes(model, x, np.ones(8))
    p0 = predict_outcomes(model, x, np.zeros(8))
    assert np.array_equal(p1, p1_again)
    assert not np.allclose(p1, p0)


def test_predict_ite_is_outcome_difference(rng):
    model = build_model(arch="shallow", mode="binary", input_dim=3, rng_seed=2)
    x = rng.normal(size=(6, 3))
    assert np.array_equal(
        predict_ites(model, x, 1.0, 0.0),
        predict_outcomes(model, x, 1.0) - predict_outcomes(model, x, 0.0),
    )


def test_continuous_treatment_feeds_every_head_layer(rng):
    # the local dosage coordinate enters each head layer, so two treatments
    # in the same bin must still give different outputs
    model = build_model(arch="shallow", mode="continuous", input_dim=3, rng_seed=3)
    x = rng.normal(size=(4, 3))
    a = predict_outcomes(model, x, np.full(4, 0.45))
    b = predict_outcomes(model, x, np.full(4, 0.55))
    c = predict_outcomes(model, x, np.full(4, 0.41))
    assert not np.allclose(a, c)   # same bin (index 2), different dosage
    assert not np.allclose(a, b)   # adjacent bins


def test_three_way_logits_sum_to_one(rng):
    for _ in range(200):
        p = rng.uniform(size=4)
        t = int(rng.integers(0, 2))
        probs = three_way_logits(*p, t)
        assert np.all(probs >= 0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_three_way_logits_symmetric_point():
    probs = three_way_logits(0.5, 0.5, 0.5, 0.5, 0)
    assert np.allclose(probs, [0.25, 0.5, 0.25])


def test_three_way_logits_validates_inputs():
    with pytest.raises(ValueError):
        three_way_logits(1.2, 0.5, 0.5, 0.5, 0)
    with pytest.raises(TreatmentDomainError):
        three_way_logits(0.5, 0.5, 0.5, 0.5, 2)


def test_model_json_round_trip(tmp_path, rng):
    x = rng.normal(size=(5, 3))
    for i, model in enumerate([
        build_model(arch="deep", mode="continuous", input_dim=3, rng_seed=9),
        build_model(arch="shallow", mode="binary", input_dim=3, rng_seed=2),
        tiny_network(seed=3, mode="binary"),
        tiny_network(seed=4, mode="continuous"),
    ]):
        path = tmp_path / f"model{i}.json"
        save_model(model, path)
        clone = load_model(path)
        t = (rng.uniform(size=5) if model.mode == "continuous"
             else rng.integers(0, 2, size=5))
        assert np.array_equal(
            predict_outcomes(model, x, t), predict_outcomes(clone, x, t)
        )
        assert (clone.arch, clone.mode) == (model.arch, model.mode)
        assert (clone.phi_specs, clone.head_specs) == (model.phi_specs,
                                                       model.head_specs)
        # model_hash hashes this text
        assert clone.params.to_json() == model.params.to_json()
