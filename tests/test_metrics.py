import math

import numpy as np
import pytest

from paireffect.metrics import (
    incomplete_beta,
    median_heuristic,
    mmd_rbf,
    paired_t_test_one_sided,
    pearson_corr,
    pehe,
    t_cdf,
    wasserstein1_1d,
)


def test_pehe_hand_values():
    assert pehe([1.0, 3.0], [2.0, 2.0]) == pytest.approx(1.0)
    assert pehe([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    with pytest.raises(ValueError):
        pehe([1.0], [1.0, 2.0])


def test_pehe_homogeneity(rng):
    true = rng.normal(size=50)
    pred = true + rng.normal(size=50)
    base = pehe(true, pred)
    scaled = pehe(3.0 * true, 3.0 * true + 3.0 * (pred - true))
    assert scaled == pytest.approx(3.0 * base)


def test_mmd_identical_samples_zero(rng):
    x = rng.normal(size=(40, 2))
    assert mmd_rbf(x, x.copy(), bandwidth=1.0) == 0.0


def test_mmd_singleton_closed_form():
    val = mmd_rbf(np.array([[0.0]]), np.array([[1.0]]), bandwidth=1.0)
    assert val == pytest.approx(math.sqrt(2.0 - 2.0 * math.exp(-0.5)), abs=1e-12)


def test_mmd_symmetric_and_nonnegative(rng):
    x, y = rng.normal(size=(30, 3)), rng.normal(1.0, 1.0, size=(25, 3))
    assert mmd_rbf(x, y, bandwidth=2.0) == pytest.approx(
        mmd_rbf(y, x, bandwidth=2.0)
    )
    assert mmd_rbf(x, y, bandwidth=2.0) >= 0.0


@pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("nan"), float("inf")])
def test_mmd_rejects_bad_bandwidth(bandwidth):
    with pytest.raises(ValueError, match="bandwidth"):
        mmd_rbf(np.zeros((3, 2)), np.ones((3, 2)), bandwidth=bandwidth)


def test_median_heuristic_matches_median_pairwise(rng):
    pooled = rng.normal(size=(50, 2))
    d = np.sqrt(
        np.sum((pooled[:, None, :] - pooled[None, :, :]) ** 2, axis=-1)
    )
    med = np.median(d[np.triu_indices(50, k=1)])
    assert median_heuristic(pooled) == pytest.approx(med)


def test_wasserstein_hand_values():
    assert wasserstein1_1d([0.0], [1.0]) == pytest.approx(1.0)
    assert wasserstein1_1d([0.0, 2.0], [1.0, 3.0]) == pytest.approx(1.0)
    assert wasserstein1_1d([1.0, 2.0], [2.0, 1.0]) == 0.0


def test_wasserstein_unequal_sizes_cdf_area():
    # one atom vs two half-atoms: area between step CDFs is 0.5
    assert wasserstein1_1d([0.0], [0.0, 1.0]) == pytest.approx(0.5)


def test_wasserstein_triangle_inequality(rng):
    for _ in range(50):
        x = rng.normal(size=rng.integers(2, 12))
        y = rng.normal(size=rng.integers(2, 12))
        z = rng.normal(size=rng.integers(2, 12))
        assert wasserstein1_1d(x, z) <= (
            wasserstein1_1d(x, y) + wasserstein1_1d(y, z) + 1e-12
        )


def test_pearson_corr_bounds_and_extremes(rng):
    a = rng.normal(size=30)
    assert pearson_corr(a, 2.0 * a + 1.0) == pytest.approx(1.0)
    assert pearson_corr(a, -a) == pytest.approx(-1.0)
    b = rng.normal(size=30)
    assert -1.0 <= pearson_corr(a, b) <= 1.0
    with pytest.raises(ValueError):
        pearson_corr(a, np.zeros(30))


def test_incomplete_beta_special_values():
    assert incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert incomplete_beta(2.0, 3.0, 1.0) == 1.0
    # I_x(1, 1) is the identity
    assert incomplete_beta(1.0, 1.0, 0.37) == pytest.approx(0.37, abs=1e-12)


# Standard two-tailed critical values: P(T <= t) for Student's t.
T_TABLE = [
    (1, 6.3138, 0.95), (1, 12.7062, 0.975),
    (2, 2.9200, 0.95), (2, 4.3027, 0.975),
    (5, 2.0150, 0.95), (5, 2.5706, 0.975),
    (10, 1.8125, 0.95), (10, 2.2281, 0.975),
    (30, 1.6973, 0.95), (30, 2.0423, 0.975),
    (100, 1.6602, 0.95), (100, 1.9840, 0.975),
]


@pytest.mark.parametrize("df,t,p", T_TABLE)
def test_t_cdf_against_tables(df, t, p):
    assert t_cdf(t, df) == pytest.approx(p, abs=5e-5)
    # symmetry pins the lower tail too
    assert t_cdf(-t, df) == pytest.approx(1.0 - p, abs=5e-5)


def test_t_cdf_center_and_tails():
    assert t_cdf(0.0, 7) == pytest.approx(0.5, abs=1e-12)
    assert t_cdf(60.0, 3) > 0.99999
    assert t_cdf(-60.0, 3) < 1e-5


def test_paired_t_test_hand_example():
    out = paired_t_test_one_sided([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    assert out["t"] == pytest.approx(2.0 / (1.0 / math.sqrt(3.0)), rel=1e-6)
    assert out["p"] == pytest.approx(0.0371, abs=5e-4)
    assert out["n"] == 3


def test_paired_t_test_swap_symmetry(rng):
    a, b = rng.normal(size=8), rng.normal(size=8)
    fwd = paired_t_test_one_sided(a, b)
    rev = paired_t_test_one_sided(b, a)
    assert fwd["t"] == pytest.approx(-rev["t"])
    assert fwd["p"] == pytest.approx(1.0 - rev["p"])


def test_paired_t_test_degenerate_inputs():
    out = paired_t_test_one_sided([1.0, 1.0], [1.0, 1.0])
    assert out == {"t": 0.0, "p": 0.5, "n": 2}
    with pytest.raises(ValueError):
        paired_t_test_one_sided([1.0], [2.0])


def test_null_p_values_are_uniform():
    # 2000 paired-noise replicates; KS distance against U(0,1) must clear
    # the 1% critical value 1.628/sqrt(n)
    rng = np.random.default_rng(2024)
    pvals = np.array([
        paired_t_test_one_sided(rng.normal(size=10), rng.normal(size=10))["p"]
        for _ in range(2000)
    ])
    grid = np.sort(pvals)
    ks = np.max(np.abs(grid - (np.arange(1, 2001) / 2000.0)))
    assert ks < 1.628 / math.sqrt(2000.0)
