import numpy as np
import pytest

from paireffect import losses, models, nets
from paireffect.nets import (
    NonFiniteValue,
    ParamStore,
    RegConfig,
    ShapeMismatch,
    adam_init,
    adam_step,
    finite_diff_check,
    l2_penalty,
    loss_and_gradient,
)

from conftest import random_pair_batch, tiny_network


def _arrays(store):
    """Every weight and bias array of a ParamStore, block by block."""
    return [a for layers in store.blocks.values() for pair in layers
            for a in pair]


def test_init_is_seeded():
    a = models.build_model(arch="deep", input_dim=5, rng_seed=3)
    b = models.build_model(arch="deep", input_dim=5, rng_seed=3)
    c = models.build_model(arch="deep", input_dim=5, rng_seed=4)
    assert np.array_equal(a.params.flat, b.params.flat)
    assert not np.array_equal(a.params.flat, c.params.flat)


def test_param_store_round_trip():
    model = models.build_model(arch="shallow", input_dim=4, rng_seed=0)
    clone = ParamStore.from_json(model.params.to_json())
    assert np.array_equal(model.params.flat, clone.flat)
    assert clone.to_json() == model.params.to_json()


def test_param_store_check_finite():
    model = models.build_model(arch="shallow", input_dim=4, rng_seed=0)
    model.params.blocks["phi"][0][0][0, 0] = np.nan
    with pytest.raises(NonFiniteValue):
        model.params.check_finite()


def test_forward_rejects_bad_input_width(small_model):
    with pytest.raises(ShapeMismatch):
        models.predict_outcomes(small_model, np.zeros((5, 9)), np.zeros(5))


def test_l2_includes_biases(small_model):
    reg = RegConfig(l2_phi=1.0, l2_head=1.0)
    total = float(np.sum(small_model.params.flat**2))
    assert l2_penalty(small_model.params, reg) == pytest.approx(total)


def test_l2_zero_reg_is_zero(small_model):
    assert l2_penalty(small_model.params, RegConfig(l2_phi=0.0, l2_head=0.0)) == 0.0


@pytest.mark.parametrize("name, value", [
    ("l2_phi", float("nan")), ("l2_head", float("inf")), ("l2_head", -1e-4),
])
def test_reg_config_rejects_non_finite_and_negative_weights(name, value):
    with pytest.raises(ValueError, match=name):
        RegConfig(**{name: value})


def test_gradient_matches_finite_difference_factual(rng):
    batch = random_pair_batch(rng, n=30)
    gap = finite_diff_check(
        tiny_network(seed=5), batch, losses.FactualObjective(), RegConfig()
    )
    assert gap <= 1e-4


def test_regularized_gradient_matches_finite_difference(rng):
    # the L2 term contributes 2*v*theta to every coordinate; checking with a
    # large coefficient makes a missing factor of 2 stand out
    batch = random_pair_batch(rng, n=25)
    gap = finite_diff_check(
        tiny_network(seed=6), batch, losses.PairObjective(alpha=2.0),
        RegConfig(l2_phi=3.0, l2_head=0.5),
    )
    assert gap <= 1e-4


def test_head_isolation(small_model, rng):
    # a batch observed entirely under arm 1 must not touch head 0
    batch = random_pair_batch(rng, n=20)
    batch.t[:] = 1.0
    batch.tp[:] = 1.0
    _, grads = loss_and_gradient(
        small_model, batch, losses.FactualObjective(), RegConfig(l2_phi=0, l2_head=0)
    )
    for w, b in grads.blocks["head_0"]:
        assert not np.any(w) and not np.any(b)
    assert any(np.any(w) for w, _ in grads.blocks["head_1"])


def test_loss_and_gradient_returns_regularized_value(small_model, rng):
    batch = random_pair_batch(rng, n=15)
    obj = losses.FactualObjective()
    raw = losses.objective_value(small_model, batch, obj)
    reg = RegConfig(l2_phi=0.7, l2_head=0.2)
    value, _ = loss_and_gradient(small_model, batch, obj, reg)
    assert value == pytest.approx(raw + l2_penalty(small_model.params, reg))


def test_adam_first_step_size():
    # with bias correction the very first update moves each coordinate by
    # almost exactly lr, regardless of the gradient's magnitude
    params = ParamStore({"phi": [(np.array([[1.0]]), np.array([0.5]))]})
    grads = ParamStore({"phi": [(np.array([[123.0]]), np.array([-42.0]))]})
    state = adam_init(params, lr=0.01)
    new, state = adam_step(params, grads, state)
    (w, b), = new.blocks["phi"]
    assert w[0, 0] == pytest.approx(1.0 - 0.01, abs=1e-6)
    assert b[0] == pytest.approx(0.5 + 0.01, abs=1e-6)
    assert state.step == 1


def test_adam_state_advances_deterministically(rng):
    params = ParamStore({"phi": [(rng.normal(size=(3, 3)), rng.normal(size=3))]})
    grads = ParamStore({"phi": [(np.ones((3, 3)), np.ones(3))]})
    s1 = adam_init(params, lr=1e-3)
    s2 = adam_init(params, lr=1e-3)
    p1, p2 = params.copy(), params.copy()  # the update is in place
    for _ in range(5):
        p1, s1 = adam_step(p1, grads, s1)
        p2, s2 = adam_step(p2, grads, s2)
    assert p1 is not p2
    assert np.array_equal(p1.flat, p2.flat)
    assert not np.array_equal(p1.flat, params.flat)


def test_adam_step_matches_per_array_reference(rng):
    # the arithmetic of the per-array update the in-place one replaced,
    # operation for operation; the results must agree bit for bit
    model = models.build_model(arch="shallow", input_dim=4, rng_seed=2)
    params = model.params
    state = adam_init(params, lr=1e-3)
    ref = [a.copy() for a in _arrays(params)]
    m = [np.zeros_like(a) for a in ref]
    v = [np.zeros_like(a) for a in ref]
    b1, b2, lr, eps = 0.9, 0.999, 1e-3, 1e-8
    for t in range(1, 4):
        grads = params.zeros_like()
        grads.flat[:] = rng.normal(size=grads.flat.size) * 10.0 ** rng.integers(-6, 3)
        params, state = adam_step(params, grads, state)
        for i, g in enumerate(_arrays(grads)):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            mhat, vhat = m[i] / (1.0 - b1**t), v[i] / (1.0 - b2**t)
            ref[i] = ref[i] - lr * mhat / (np.sqrt(vhat) + eps)
    assert params is model.params and state.step == 3
    for a, r in zip(_arrays(params), ref):
        assert np.array_equal(a, r)


def test_param_store_arrays_are_views_of_flat():
    model = models.build_model(arch="deep", mode="continuous", input_dim=3,
                               rng_seed=1)
    params = model.params
    assert params.flat.size == sum(a.size for a in _arrays(params))
    assert all(np.shares_memory(a, params.flat) for a in _arrays(params))
    params.flat[params.spans["head_4"].start] = 7.0
    assert params.blocks["head_4"][0][0][0, 0] == 7.0
    snap = params.copy()
    params.flat += 1.0
    assert snap.blocks["head_4"][0][0][0, 0] == 7.0
    assert snap.to_json() != params.to_json()
    assert snap.spans == params.spans


def _elu_reference(z):
    return np.where(z >= 0.0, z, np.expm1(z))


def _elu_deriv_reference(z):
    return np.where(z >= 0.0, 1.0, np.exp(z))


def test_elu_matches_where_reference_bit_for_bit(rng):
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                        -1e-17, 1e-17, -745.2, -800.0, 700.0, 710.0])
    # special values land both in vectorized bodies and in loop tails
    z = rng.normal(scale=3.0, size=(100, 200))
    z.flat[rng.choice(z.size, size=4 * special.size, replace=False)] = np.tile(
        special, 4
    )
    with np.errstate(over="ignore"):
        for arr in (special, z, z[:7, :3]):
            for ours, ref in ((nets._apply_act(arr, nets.ELU), _elu_reference(arr)),
                              (nets._act_deriv(arr, nets.ELU),
                               _elu_deriv_reference(arr))):
                assert np.array_equal(ours.view(np.int64), ref.view(np.int64))
