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
    Oracle,
    gen_continuous_response,
    gen_gaussian_confounded,
    gen_gp_toy,
    gen_polynomial_synth,
    gp_factor,
    load_csv,
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
    # malformed shapes are rejected on entry, naming the field
    for field, cols in (("ids", {"ids": [0, 1]}), ("t", {"t": np.zeros((6, 1))}),
                        ("x", {"x": np.zeros((6, 2, 1))})):
        with pytest.raises(ValueError, match=f"dataset {field} must"):
            Dataset(**{"x": np.zeros((6, 2)), "t": np.zeros(6),
                       "y": np.zeros(6), **cols})


def test_dataset_rejects_repeated_ids():
    # continuous pairing excludes an anchor's own row by id, so this table,
    # whose windows cover every row, once skipped every anchor deep inside
    # create_pair_ds
    cols = {"x": np.arange(4.0)[:, None], "t": np.array([0.4, 0.45, 0.5, 0.55]),
            "y": np.zeros(4), "mode": CONTINUOUS}
    with pytest.raises(ValueError, match="dataset ids must be unique"):
        Dataset(**cols, ids=[7, 7, 7, 7])
    with pytest.raises(ValueError, match="dataset ids must be unique"):
        Dataset(**cols, ids=[3, 7, 5, 3])
    assert list(Dataset(**cols, ids=[7, 3, 9, 1]).ids) == [7, 3, 9, 1]


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
    z = np.random.default_rng(5).standard_normal(len(xs))
    rough = gp_factor(xs, 0.1) @ z
    smooth = gp_factor(xs, 2.0) @ z
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


def _expected_val_count(fraction, n):
    return min(max(int(np.floor(fraction * n + 0.5)), 1), n - 1)


def test_split_stratified_properties():
    rng = np.random.default_rng(40)
    for _ in range(200):
        n = int(rng.integers(4, 120))
        fraction = float(rng.uniform(0.01, 0.99))
        if rng.uniform() < 0.5:
            t = np.zeros(n)
            t[rng.choice(n, int(rng.integers(2, n - 1)), replace=False)] = 1.0
            mode = BINARY
        else:
            t, mode = rng.uniform(size=n), CONTINUOUS
        ds = Dataset(x=rng.normal(size=(n, 2)), t=t, y=rng.normal(size=n),
                     mode=mode)
        train, val = split_stratified(ds, fraction,
                                      rng=np.random.default_rng(n))
        # disjoint, and together every row exactly once
        assert not set(train.ids) & set(val.ids)
        assert np.array_equal(np.sort(np.concatenate([train.ids, val.ids])),
                              np.arange(n))
        if mode == CONTINUOUS:
            assert len(val) == _expected_val_count(fraction, n)
            continue
        for g in (0.0, 1.0):
            n_g = int(np.sum(t == g))
            assert np.sum(val.t == g) == _expected_val_count(fraction, n_g)
            assert np.sum(train.t == g) > 0


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).tobytes()


def test_csv_round_trip_properties(tmp_path):
    rng = np.random.default_rng(41)
    for trial in range(40):
        n = int(rng.integers(1, 30))
        mode = (BINARY, CONTINUOUS)[trial % 2]
        with_oracle = trial % 4 >= 2
        family = FAMILIES[int(rng.integers(len(FAMILIES)))]
        d = 25 if mode == CONTINUOUS and family == "ihdp_cont" else int(
            rng.integers(1 if mode == BINARY else 3, 7))
        if mode == CONTINUOUS and with_oracle:
            ds = gen_continuous_response(rng.normal(size=(n, d)), family,
                                         rng=np.random.default_rng(trial))
        else:
            # wide magnitudes, so a lossy float format would show
            x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-200, 200, (n, d))
            t = (rng.integers(0, 2, n).astype(float) if mode == BINARY
                 else rng.uniform(size=n))
            y = rng.normal(size=n) * 10.0 ** rng.uniform(-200, 200, n)
            oracle = None
            if with_oracle:
                table = rng.normal(size=(n, 2)) * 1e-7

                def fn(ids, xs, tv, _table=table):
                    return np.where(tv == 1.0, _table[ids, 1],
                                    _table[ids, 0])

                oracle = Oracle(fn=fn)
            ds = Dataset(x=x, t=t, y=y, mode=mode, oracle=oracle)
        path = tmp_path / f"trial{trial}.csv"
        save_csv(ds, path)
        back = load_csv(path, mode)
        for name in ("x", "t", "y"):
            assert _bits(getattr(back, name)) == _bits(getattr(ds, name))
        assert (back.oracle is None) == (not with_oracle)
        if with_oracle:
            # mu0/mu1 columns (binary) or the descriptor sidecar (continuous)
            doses = (0.0, 1.0) if mode == BINARY else (0.0, 0.4, ds.t)
            for dose in doses:
                assert _bits(back.true_mu(dose)) == _bits(ds.true_mu(dose))


def test_subset_keeps_oracle_alignment():
    ds = gen_polynomial_synth(60, np.random.default_rng(13))
    sub = ds.subset(np.arange(10, 20))
    assert np.allclose(sub.true_mu(1.0), ds.true_mu(1.0)[10:20])


def test_subset_slice_is_a_view_sharing_the_table():
    ds = gen_polynomial_synth(60, np.random.default_rng(13))
    sub = ds.subset(slice(10, 20))
    for name in ("x", "t", "y", "ids"):
        assert np.shares_memory(getattr(sub, name), getattr(ds, name))
    assert np.array_equal(sub.ids, np.arange(10, 20))
    assert (sub.source, sub.oracle, sub.mode) == (ds.source, ds.oracle, ds.mode)


@pytest.mark.parametrize("idx", [[], slice(5, 5), np.zeros(60, dtype=bool)])
def test_empty_subset_raises(idx):
    ds = gen_polynomial_synth(60, np.random.default_rng(13))
    with pytest.raises(ValueError, match="at least one row"):
        ds.subset(idx)
