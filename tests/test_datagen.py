import json

import numpy as np
import pytest

from paireffect.datagen import (
    BINARY,
    CONTINUOUS,
    Dataset,
    FAMILIES,
    GPToyConfig,
    MissingGroundTruth,
    gen_continuous_response,
    gen_gaussian_confounded,
    gen_gp_toy,
    gen_polynomial_synth,
    gp_factor,
    load_csv,
    sample_gp,
    save_csv,
    split_stratified,
)
from paireffect.metrics import mmd_rbf


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(x=np.zeros((3, 2)), t=np.array([0.0, 2.0, 1.0]),
                y=np.zeros(3), mode=BINARY)
    with pytest.raises(ValueError):
        Dataset(x=np.zeros((2, 1)), t=np.zeros(3), y=np.zeros(3))
    with pytest.raises(ValueError):
        Dataset(x=np.zeros((2, 1)), t=np.zeros(2), y=np.zeros(2), mode="dose")


@pytest.mark.parametrize("field", ["x", "t", "y"])
def test_dataset_rejects_non_finite_values(field, tmp_path):
    cols = {"x": np.zeros((3, 2)), "t": np.array([0.0, 0.5, 1.0]),
            "y": np.zeros(3)}
    cols[field] = cols[field].copy()
    cols[field].flat[1] = np.nan
    with pytest.raises(ValueError, match=f"dataset {field} holds non-finite"):
        Dataset(**cols, mode=CONTINUOUS)
    # the CSV loader hands its columns to the same check
    path = tmp_path / "nan.csv"
    path.write_text("x0,t,y\n0.0,1.0,nan\n", encoding="utf-8")
    with pytest.raises(ValueError, match="dataset y holds non-finite"):
        load_csv(path, BINARY)


def test_source_token_follows_content():
    ds = gen_polynomial_synth(20, np.random.default_rng(1))
    again = gen_polynomial_synth(20, np.random.default_rng(1))
    other = gen_polynomial_synth(20, np.random.default_rng(2))
    assert ds.source == again.source
    assert ds.source != other.source
    assert ds.subset([3, 4]).source == ds.source


def test_true_mu_requires_oracle():
    ds = Dataset(x=np.zeros((2, 1)), t=np.zeros(2), y=np.zeros(2))
    with pytest.raises(MissingGroundTruth):
        ds.true_mu(1.0)


def test_generators_are_pure_functions_of_seed():
    a = gen_polynomial_synth(50, np.random.default_rng(3))
    b = gen_polynomial_synth(50, np.random.default_rng(3))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.true_mu(1.0), b.true_mu(1.0))


def test_polynomial_oracle_noise_consistency():
    # observed y minus the oracle's factual outcome should recover the
    # declared noise level (+-20% at this size)
    ds = gen_polynomial_synth(10_000, np.random.default_rng(0))
    resid = ds.y - ds.true_mu(ds.t)
    assert ds.oracle.noise_sd == pytest.approx(0.1)
    assert np.std(resid) == pytest.approx(0.1, rel=0.2)


def test_polynomial_signal_to_noise_near_ten():
    ds = gen_polynomial_synth(10_000, np.random.default_rng(1))
    assert np.std(ds.true_mu(ds.t)) / 0.1 == pytest.approx(10.0, rel=0.5)


def test_polynomial_confounding_direction():
    strong = gen_polynomial_synth(4000, np.random.default_rng(2),
                                  propensity_strength=3.0)
    none = gen_polynomial_synth(4000, np.random.default_rng(2),
                                propensity_strength=0.0)
    def arm_gap(ds):
        return abs(np.mean(ds.x[ds.t == 1, 0]) - np.mean(ds.x[ds.t == 0, 0]))
    assert arm_gap(strong) > arm_gap(none)


def test_gaussian_confounded_group_means():
    rng = np.random.default_rng(4)
    ds = gen_gaussian_confounded(-1.0, 2.0, 100_000, 100_000, rng)
    assert np.mean(ds.x[ds.t == 0]) == pytest.approx(-1.0, abs=0.02)
    assert np.mean(ds.x[ds.t == 1]) == pytest.approx(1.0, abs=0.02)


def test_gp_factor_matches_kernel():
    xs = np.linspace(-1, 1, 20)
    chol = gp_factor(xs, width=0.7)
    k = chol @ chol.T
    expect = np.exp(-((xs[:, None] - xs[None, :]) ** 2) / (2 * 0.49))
    assert np.max(np.abs(k - expect)) < 1e-6


def test_sample_gp_smoothness_scales_with_width():
    xs = np.linspace(-2, 2, 200)
    rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
    rough = sample_gp(xs, 0.1, rng1)
    smooth = sample_gp(xs, 2.0, rng2)
    assert np.std(np.diff(rough)) > 5 * np.std(np.diff(smooth))


def test_gp_toy_draws_are_reproducible():
    toy_a = gen_gp_toy(GPToyConfig(seed=3))
    toy_b = gen_gp_toy(GPToyConfig(seed=3))
    assert np.array_equal(toy_a.mu0, toy_b.mu0)
    assert np.array_equal(toy_a.dataset.y, toy_b.dataset.y)
    mu_a, tau_a = toy_a.draw_candidate(np.random.default_rng(7))
    mu_b, tau_b = toy_b.draw_candidate(np.random.default_rng(7))
    assert np.array_equal(mu_a, mu_b) and np.array_equal(tau_a, tau_b)


def test_gp_toy_candidates_use_the_kernel_factors():
    from paireffect.datagen import GP_WIDTH_EFFECT, GP_WIDTH_OUTCOME

    toy = gen_gp_toy(GPToyConfig(seed=4, grid_points=64))
    mu_hat, tau_hat = toy.draw_candidate(np.random.default_rng(9))
    z = np.random.default_rng(9).standard_normal((2, 64))
    assert np.array_equal(mu_hat, gp_factor(toy.grid, GP_WIDTH_OUTCOME) @ z[0])
    assert np.array_equal(tau_hat, gp_factor(toy.grid, GP_WIDTH_EFFECT) @ z[1])


def test_gp_toy_zero_shift_mmd_small():
    near = gen_gp_toy(GPToyConfig(seed=0, shift=0.0, n0=800, n1=800))
    far = gen_gp_toy(GPToyConfig(seed=0, shift=4.0, n0=800, n1=800))
    def arm_mmd(toy):
        x = toy.dataset.x
        return mmd_rbf(x[toy.dataset.t == 0], x[toy.dataset.t == 1],
                       bandwidth=1.0)
    assert arm_mmd(far) > arm_mmd(near)
    assert arm_mmd(near) < 0.1


def test_gp_toy_weights_integrate_to_one():
    toy = gen_gp_toy(GPToyConfig(seed=1))
    total = np.trapezoid(toy.weights, toy.grid)
    assert total == pytest.approx(1.0, abs=0.01)


def test_continuous_families_generate_valid_datasets():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((100, 25))
    for family in FAMILIES:
        ds = gen_continuous_response(x, family, dosage_bias=2.0,
                                     noise_scale=1.0,
                                     rng=np.random.default_rng(7))
        assert ds.mode == CONTINUOUS
        assert np.all((ds.t >= 0) & (ds.t <= 1))
        assert len(ds) == 100
        # oracle evaluates at arbitrary dosages
        mu = ds.true_mu(0.5)
        assert np.all(np.isfinite(mu))


def test_csv_round_trip_binary_with_oracle(tmp_path):
    ds = gen_polynomial_synth(40, np.random.default_rng(8))
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    back = load_csv(path, BINARY)
    assert np.allclose(back.x, ds.x)
    assert np.allclose(back.y, ds.y)
    # oracle columns round-trip as exact potential outcomes
    assert np.allclose(back.true_mu(0.0), ds.true_mu(0.0))
    assert np.allclose(back.true_ite(1.0, 0.0), ds.true_ite(1.0, 0.0))


def test_csv_round_trip_continuous_sidecar(tmp_path):
    # n = 400 makes tcga0 and tcga1 resample projections for some rows
    x = np.random.default_rng(9).standard_normal((400, 25))
    doses = np.random.default_rng(11).uniform(size=400)
    rows = np.arange(0, 400, 3)
    for family in FAMILIES:
        ds = gen_continuous_response(x, family, dosage_bias=2.0,
                                     noise_scale=1.0,
                                     rng=np.random.default_rng(10))
        assert (ds.oracle.resampled_rows > 0) == (family in ("tcga0", "tcga1"))
        path = tmp_path / f"{family}.csv"
        save_csv(ds, path)
        sidecar_path = str(path) + ".oracle.json"
        with open(sidecar_path) as fh:
            sidecar = json.load(fh)
        assert sidecar["family"] == family
        back = load_csv(path, CONTINUOUS)
        assert np.array_equal(back.x, ds.x)
        assert back.oracle.noise_sd == ds.oracle.noise_sd > 0.0
        assert back.oracle.resampled_rows == ds.oracle.resampled_rows
        for t in (ds.t, 0.3, doses):
            assert np.array_equal(back.true_mu(t), ds.true_mu(t))
        assert np.array_equal(back.subset(rows).true_mu(0.7),
                              ds.subset(rows).true_mu(0.7))
        # a sidecar written without noise_sd still loads
        del sidecar["noise_sd"]
        with open(sidecar_path, "w") as fh:
            json.dump(sidecar, fh)
        old = load_csv(path, CONTINUOUS)
        assert old.oracle.noise_sd == 0.0
        assert np.array_equal(old.true_mu(doses), ds.true_mu(doses))


def test_split_stratified_preserves_arm_shares():
    ds = gen_polynomial_synth(400, np.random.default_rng(11))
    train, val = split_stratified(ds, val_fraction=0.3,
                                  rng=np.random.default_rng(0))
    assert len(val) == pytest.approx(120, abs=1)
    assert np.mean(train.t) == pytest.approx(np.mean(ds.t), abs=0.05)
    # no row lost or duplicated
    assert sorted(np.concatenate([train.ids, val.ids]).tolist()) == sorted(
        ds.ids.tolist()
    )


def test_split_stratified_deterministic():
    ds = gen_polynomial_synth(100, np.random.default_rng(12))
    t1, v1 = split_stratified(ds, 0.3, rng=np.random.default_rng(5))
    t2, v2 = split_stratified(ds, 0.3, rng=np.random.default_rng(5))
    assert np.array_equal(t1.ids, t2.ids) and np.array_equal(v1.ids, v2.ids)


def test_subset_keeps_oracle_alignment():
    ds = gen_polynomial_synth(60, np.random.default_rng(13))
    sub = ds.subset(np.arange(10, 20))
    assert np.allclose(sub.true_mu(1.0), ds.true_mu(1.0)[10:20])
