import numpy as np
import pytest

from paireffect.datagen import BINARY, CONTINUOUS, Dataset
from paireffect.pairing import (
    EmptyPairDataset,
    IdentityEmbedding,
    PairingConfig,
    PhiEmbedding,
    RandomProjectionEmbedding,
    _smallest_k,
    create_pair_ds,
    derive_seed,
    neighbor_diagnostics,
    pair_distances,
    save_pairs_csv,
)

from conftest import binary_dataset, quick_pairs


def test_derive_seed_is_stable_and_sensitive():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert derive_seed("x") != derive_seed("y")
    assert 0 <= derive_seed("anything") < 2**63


def test_pairing_config_validation():
    with pytest.raises(ValueError):
        PairingConfig(temperature=-1.0)
    with pytest.raises(ValueError):
        PairingConfig(delta_pair=1.0)
    with pytest.raises(ValueError):
        PairingConfig(num_neighbors=0)


def test_same_seed_gives_bit_identical_pairs():
    a = quick_pairs(seed=42, num_neighbors=2)
    b = quick_pairs(seed=42, num_neighbors=2)
    c = quick_pairs(seed=43, num_neighbors=2)
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


def test_neighbors_come_from_opposite_arm():
    pairs = quick_pairs(seed=0, num_neighbors=3)
    assert np.all(pairs.tp == 1.0 - pairs.t)


def test_anchor_never_paired_with_itself_same_source():
    ds = binary_dataset(n=40, seed=5)
    pairs = quick_pairs(ds, seed=1, num_neighbors=2)
    assert np.all(pairs.anchor_idx != pairs.nbr_idx)


def test_distinct_sources_allow_index_overlap():
    # candidates from a different dataset are a different population, so a
    # shared row index is not self-pairing and must stay eligible
    anchors = Dataset(
        x=np.zeros((1, 1)), t=np.array([0.0]), y=np.array([0.0]), mode=BINARY
    )
    candidates = Dataset(
        x=np.array([[0.0], [5.0]]), t=np.array([1.0, 1.0]),
        y=np.zeros(2), mode=BINARY,
    )
    cfg = PairingConfig(temperature=1e6, num_neighbors=1, delta_pair=0.0)
    pairs = create_pair_ds(anchors, candidates, cfg, IdentityEmbedding(1), 0)
    # the co-indexed candidate is also the nearest one
    assert list(pairs.nbr_idx) == [0]


def test_single_arm_dataset_has_no_neighbors():
    ds = Dataset(
        x=np.random.default_rng(0).normal(size=(10, 2)),
        t=np.ones(10), y=np.zeros(10), mode=BINARY,
    )
    with pytest.raises(EmptyPairDataset):
        quick_pairs(ds, seed=0)


def test_nearest_neighbor_at_extreme_temperature():
    ds = binary_dataset(n=50, seed=7)
    pairs = quick_pairs(ds, seed=3, temperature=1e6, num_neighbors=1,
                        delta_pair=0.0)
    emb = ds.x
    for i in range(len(pairs)):
        a = pairs.anchor_idx[i]
        opposite = np.flatnonzero(ds.t != ds.t[a])
        dists = np.linalg.norm(emb[opposite] - emb[a], axis=1)
        assert pairs.nbr_idx[i] == opposite[np.argmin(dists)]


def test_without_replacement_no_duplicate_neighbors():
    pairs = quick_pairs(seed=11, num_neighbors=4, delta_pair=0.0)
    for a in np.unique(pairs.anchor_idx):
        chosen = pairs.nbr_idx[pairs.anchor_idx == a]
        assert len(chosen) == len(set(chosen))


def test_uniform_sampling_at_zero_temperature():
    # lambda = 0 makes every opposite-arm candidate equally likely
    x = np.concatenate([np.linspace(0.0, 3.0, 30), [0.0, 1.0]])
    t = np.concatenate([np.ones(30), np.zeros(2)])
    candidates = Dataset(x=x[:, None], t=t, y=np.zeros(32), mode=BINARY)
    cfg = PairingConfig(temperature=0.0, num_neighbors=1, delta_pair=0.0)
    draws = 6000
    pairs = create_pair_ds(_copies(draws, 0.0), candidates, cfg,
                           IdentityEmbedding(1), 2)
    counts = np.bincount(pairs.nbr_idx, minlength=32).astype(float)
    assert counts[30:].sum() == 0
    stat, df = _chi2(counts[:30], np.full(30, draws / 30))
    assert df == 29 and stat < _chi2_upper(df)


def test_trim_drops_global_distance_tail():
    ds = binary_dataset(n=60, seed=2)
    kept = quick_pairs(ds, seed=4, num_neighbors=2, delta_pair=0.25)
    full = quick_pairs(ds, seed=4, num_neighbors=2, delta_pair=0.0)
    n = len(full)
    expect = int(np.floor((1.0 - 0.25) * n + 0.5))
    assert len(kept) == expect
    assert kept.distance.max() <= np.sort(full.distance)[expect - 1] + 1e-12


def test_continuous_candidates_respect_dosage_window():
    rng = np.random.default_rng(3)
    n = 80
    ds = Dataset(
        x=rng.normal(size=(n, 2)), t=rng.uniform(size=n),
        y=rng.normal(size=n), mode=CONTINUOUS,
    )
    cfg = PairingConfig(num_neighbors=1, continuous_halfwidth=0.05,
                        delta_pair=0.0)
    pairs = create_pair_ds(ds, ds, cfg, IdentityEmbedding(2), 9)
    assert np.all(np.abs(pairs.tp - pairs.target_t) < 0.05)
    # the sampled alternative dosage is the anchor's own target, not its
    # observed one
    assert not np.allclose(pairs.target_t, pairs.t)


def test_embedding_providers_shape_and_determinism(rng):
    x = rng.normal(size=(12, 6))
    ident = IdentityEmbedding(6).embed(x)
    assert np.array_equal(ident, x)
    proj_a = RandomProjectionEmbedding(6, 3, seed=1).embed(x)
    proj_b = RandomProjectionEmbedding(6, 3, seed=1).embed(x)
    proj_c = RandomProjectionEmbedding(6, 3, seed=2).embed(x)
    assert proj_a.shape == (12, 3)
    assert np.array_equal(proj_a, proj_b)
    assert not np.allclose(proj_a, proj_c)


def test_phi_embedding_uses_model_representation(rng):
    from paireffect.models import build_model

    model = build_model(arch="shallow", mode="binary", input_dim=4, rng_seed=0)
    z = PhiEmbedding(model).embed(rng.normal(size=(3, 4)))
    assert z.shape == (3, 200)  # shallow trunk width


def test_pair_dataset_subset_and_len():
    pairs = quick_pairs(seed=13, num_neighbors=2)
    sub = pairs.subset(np.arange(5))
    assert len(sub) == 5
    assert np.array_equal(sub.anchor_idx, pairs.anchor_idx[:5])


def test_diagnostics_report_distance_moments():
    pairs = quick_pairs(seed=21, num_neighbors=2)
    diag = neighbor_diagnostics(pairs)
    assert diag["n_pairs"] == len(pairs)
    assert diag["mean_distance"] == pytest.approx(np.mean(pairs.distance))
    assert diag["mean_sq_distance"] == pytest.approx(np.mean(pairs.distance**2))
    # delta_hat is the worst anchor's mean neighbor distance, the empirical
    # counterpart of the boundedness assumption on the neighbor kernel
    worst = max(
        np.mean(pairs.distance[pairs.anchor_idx == a])
        for a in np.unique(pairs.anchor_idx)
    )
    assert diag["delta_hat"] == pytest.approx(worst)
    assert diag["delta_hat"] >= diag["mean_distance"] - 1e-12
    assert set(diag["per_treatment_counts"]) == {0, 1}


def diagnostics_reference(pairs):
    """neighbor_diagnostics' per-anchor maxima as one np.mean per anchor,
    over a mask of that anchor's pairs."""
    means, means_sq = [], []
    for a in np.unique(pairs.anchor_idx):
        d = pairs.distance[pairs.anchor_idx == a]
        means.append(float(np.mean(d)))
        means_sq.append(float(np.mean(d**2)))
    return max(means), max(means_sq)


@pytest.mark.parametrize("k", [1, 3, 8, 9, 17, 40])
def test_diagnostics_match_per_anchor_reference_bit_for_bit(k):
    ds = binary_dataset(n=90, seed=k)
    pairs = quick_pairs(ds, seed=k, num_neighbors=k, delta_pair=0.3)
    # trimming leaves anchors with differing pair counts; shuffling
    # interleaves the anchors' pairs and reorders each anchor's own
    shuffled = pairs.subset(np.random.default_rng(k).permutation(len(pairs)))
    # spread the distances over magnitudes so summation order would show
    scale = 10.0 ** np.random.default_rng(k + 1).uniform(-4, 4, len(pairs))
    shuffled.distance = shuffled.distance * scale
    for p in (pairs, shuffled):
        diag = neighbor_diagnostics(p)
        assert (diag["delta_hat"], diag["delta_hat_sq"]) == diagnostics_reference(p)


def test_save_pairs_csv_round_readable(tmp_path):
    import csv

    pairs = quick_pairs(seed=17)
    path = tmp_path / "pairs.csv"
    save_pairs_csv(pairs, path)
    rows = list(csv.DictReader(open(path)))
    assert len(rows) == len(pairs)
    assert float(rows[0]["distance"]) == pytest.approx(pairs.distance[0])


# ---------------------------------------------------------------------------
# Exact reference and pinned random streams


class NoEligibleNeighbor(LookupError):
    """The reference found no candidate for the anchor."""


def neighbor_distribution(anchor_x, anchor_t, candidates, provider, lam,
                          exclude_id=None):
    """Exact binary-mode probability over candidate rows of being drawn as
    the anchor's single neighbor: softmax(-lam * d) over the opposite arm,
    zero elsewhere and at `exclude_id`."""
    e_anchor = provider.embed(np.asarray(anchor_x, dtype=float)[None, :])[0]
    eligible = candidates.t != anchor_t
    if exclude_id is not None:
        eligible &= candidates.ids != exclude_id
    if not np.any(eligible):
        raise NoEligibleNeighbor("no candidate satisfies the treatment rule")
    d = np.linalg.norm(provider.embed(candidates.x)[eligible] - e_anchor, axis=1)
    z = np.exp(-lam * (d - d.min()))
    probs = np.zeros(len(candidates))
    probs[eligible] = z / z.sum()
    return probs


def test_neighbor_frequencies_match_softmax_chi_square():
    # one anchor, 12 opposite-arm candidates and 3 same-arm decoys
    x = np.concatenate([[0.0], np.linspace(0.2, 2.5, 12), [0.1, 0.5, 1.0]])
    t = np.concatenate([[0.0], np.ones(12), np.zeros(3)])
    ds = Dataset(x=x[:, None], t=t, y=np.zeros(len(x)), mode=BINARY)
    provider = IdentityEmbedding(1)
    cfg = PairingConfig(temperature=1.5, num_neighbors=1, delta_pair=0.0)
    draws = 3000
    counts = np.zeros(len(x))
    for s in range(draws):
        pairs = create_pair_ds(ds.subset([0]), ds, cfg, provider, s)
        counts[pairs.nbr_idx[0]] += 1
    probs = neighbor_distribution(x[:1], 0.0, ds, provider, 1.5, exclude_id=0)
    support = probs > 0
    assert np.array_equal(np.flatnonzero(support), np.arange(1, 13))
    assert counts[~support].sum() == 0
    expected = draws * probs[support]
    chi2 = float(np.sum((counts[support] - expected) ** 2 / expected))
    # 11 degrees of freedom; 31.26 is the 0.999 quantile
    assert chi2 < 31.26


def _chi2_upper(df):
    """0.999 quantile of chi-square with df degrees of freedom
    (Wilson-Hilferty; within 1 % of the exact value for df >= 10)."""
    z = 3.0902  # 0.999 quantile of the standard normal
    return df * (1.0 - 2.0 / (9 * df) + z * np.sqrt(2.0 / (9 * df))) ** 3


def _chi2(counts, expected):
    """Chi-square statistic and degrees of freedom, cells expecting fewer
    than 5 draws pooled into one."""
    small = expected < 5
    counts = np.r_[counts[~small], counts[small].sum()]
    expected = np.r_[expected[~small], expected[small].sum()]
    used = expected > 0
    stat = np.sum((counts[used] - expected[used]) ** 2 / expected[used])
    return float(stat), int(used.sum()) - 1


def _copies(n, t, mode=BINARY):
    """n independent anchors at x = 0 with treatment t."""
    return Dataset(x=np.zeros((n, 1)), t=np.full(n, t), y=np.zeros(n),
                   mode=mode)


def test_ordered_neighbor_pairs_match_successive_softmax_chi_square():
    # 12 opposite-arm candidates and 3 same-arm decoys; each anchor's two
    # neighbors, in draw order, follow P(i, j) = p_i p_j / (1 - p_i)
    x = np.concatenate([np.linspace(0.2, 2.5, 12), [0.1, 0.5, 1.0]])
    t = np.concatenate([np.ones(12), np.zeros(3)])
    candidates = Dataset(x=x[:, None], t=t, y=np.zeros(15), mode=BINARY)
    provider = IdentityEmbedding(1)
    cfg = PairingConfig(temperature=1.5, num_neighbors=2, delta_pair=0.0)
    draws = 40000
    pairs = create_pair_ds(_copies(draws, 0.0), candidates, cfg, provider, 5)
    first, second = pairs.nbr_idx.reshape(draws, 2).T
    assert np.all(first < 12) and np.all(second < 12)
    assert np.all(first != second)
    counts = np.bincount(first * 12 + second, minlength=144).astype(float)
    p = neighbor_distribution([0.0], 0.0, candidates, provider, 1.5)[:12]
    exact = p[:, None] * p[None, :] / (1.0 - p[:, None])
    np.fill_diagonal(exact, 0.0)
    stat, df = _chi2(counts, draws * exact.ravel())
    assert stat < _chi2_upper(df)


def test_continuous_window_frequencies_match_exact_chi_square():
    # the target t' ~ U[0, 1] picks the window; integrating the window's
    # softmax over t' gives each candidate's exact probability, and the
    # uncovered stretches of [0, 1] the probability of a skipped anchor
    # no candidate's window covers t' in (0.62, 0.74)
    tc = np.array([0.05, 0.12, 0.2, 0.31, 0.45, 0.5, 0.86, 0.9, 0.93, 0.97])
    xc = np.linspace(-1.0, 1.5, 10)
    candidates = Dataset(x=xc[:, None], t=tc, y=np.zeros(10), mode=CONTINUOUS)
    hw, lam = 0.12, 3.0
    edges = np.unique(np.clip(np.r_[0.0, 1.0, tc - hw, tc + hw], 0.0, 1.0))
    exact = np.zeros(11)  # ten candidates, then "skipped"
    for lo, hi in zip(edges[:-1], edges[1:]):
        inside = np.abs(tc - 0.5 * (lo + hi)) < hw
        if not inside.any():
            exact[10] += hi - lo
            continue
        z = np.exp(-lam * np.abs(xc[inside]))
        exact[:10][inside] += (hi - lo) * z / z.sum()
    assert exact.sum() == pytest.approx(1.0)
    cfg = PairingConfig(temperature=lam, num_neighbors=1, delta_pair=0.0,
                        continuous_halfwidth=hw)
    draws = 20000
    pairs = create_pair_ds(_copies(draws, 0.3, CONTINUOUS), candidates, cfg,
                           IdentityEmbedding(1), 6)
    assert np.all(np.abs(pairs.tp - pairs.target_t) < hw)
    counts = np.r_[np.bincount(pairs.nbr_idx, minlength=10),
                   pairs.provenance["skipped_anchors"]].astype(float)
    stat, df = _chi2(counts, draws * exact)
    assert df == 10 and stat < _chi2_upper(df)


@pytest.mark.parametrize("mode", [BINARY, CONTINUOUS])
def test_extreme_temperature_picks_exact_k_nearest_in_order(mode):
    k = 3
    if mode == BINARY:
        ds, provider = binary_dataset(n=50, seed=7), IdentityEmbedding(3)
    else:
        ds, provider = _continuous_table(), IdentityEmbedding(2)
    cfg = PairingConfig(temperature=1e6, num_neighbors=k, delta_pair=0.0,
                        continuous_halfwidth=0.2)
    pairs = create_pair_ds(ds, ds, cfg, provider, 3)
    assert pairs.provenance["fallback_anchors"] == 0
    for row in range(0, len(pairs), k):
        a = pairs.anchor_idx[row]
        if mode == BINARY:
            eligible = ds.t != ds.t[a]
        else:
            eligible = np.abs(ds.t - pairs.target_t[row]) < 0.2
        eligible &= ds.ids != a
        cand = np.flatnonzero(eligible)
        dists = np.linalg.norm(ds.x[cand] - ds.x[a], axis=1)
        nearest = cand[np.argsort(dists, kind="stable")[:k]]
        assert np.array_equal(pairs.nbr_idx[row:row + k], nearest)


def test_smallest_k_equals_per_row_stable_argsort():
    rng = np.random.default_rng(0)
    for keys in (rng.normal(size=(40, 25)),
                 rng.integers(0, 6, size=(40, 25)).astype(float)):
        keys[rng.uniform(size=keys.shape) < 0.3] = np.inf
        for k in range(1, 12):
            got = _smallest_k(keys, k)
            for row, top in zip(keys, got):
                ranked = np.sort(row)
                if ranked[k - 1] != ranked[k]:  # the k smallest are unique
                    assert np.array_equal(
                        top, np.argsort(row, kind="stable")[:k])


def _continuous_table():
    rng = np.random.default_rng(3)
    n = 80
    return Dataset(x=rng.normal(size=(n, 2)), t=rng.uniform(size=n),
                   y=rng.normal(size=n), mode=CONTINUOUS)


def _short_arm_table():
    # two treated rows: every control anchor has fewer than k = 3 candidates
    rng = np.random.default_rng(5)
    return Dataset(x=rng.normal(size=(12, 2)), t=np.array([1.0] * 2 + [0.0] * 10),
                   y=rng.normal(size=12), mode=BINARY)


# Hashes recorded when one generator per call began drawing the targets,
# the exponential keys and the with-replacement rows; a change here means
# the random streams moved.
GOLDEN = {
    "binary": ("96c259942e9bfd5d", 162),
    "continuous": ("7a338ae5be369d33", 144),
    "fallback": ("110168033b44c8de", 36),
}


def _golden_cases():
    ds = binary_dataset(n=60, seed=0)
    cds = _continuous_table()
    fds = _short_arm_table()
    return {
        "binary": (ds, PairingConfig(num_neighbors=3),
                   RandomProjectionEmbedding(3, 5, seed=1), 42),
        "continuous": (cds, PairingConfig(num_neighbors=2, temperature=2.0),
                       IdentityEmbedding(2), 7),
        "fallback": (fds, PairingConfig(num_neighbors=3, delta_pair=0.0),
                     IdentityEmbedding(2), 11),
    }


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_pair_draws_match_recorded_hashes(case):
    ds, cfg, provider, seed = _golden_cases()[case]
    pairs = create_pair_ds(ds, ds, cfg, provider, seed)
    assert (pairs.content_hash(), len(pairs)) == GOLDEN[case]
    if case == "fallback":
        # control anchors draw with replacement from the two treated rows
        controls = pairs.anchor_idx >= 2
        assert set(pairs.nbr_idx[controls]) <= {0, 1}
        assert np.sum(controls) == 30
        assert pairs.provenance["fallback_anchors"] == 10


@pytest.mark.parametrize("dim", [1, 3, 10, 200])
@pytest.mark.parametrize("block_bytes", [1, 4096, 1 << 18])
def test_pair_distances_match_norm_bit_for_bit(monkeypatch, dim, block_bytes):
    from paireffect import pairing

    monkeypatch.setattr(pairing, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(dim)
    anchors = Dataset(x=rng.normal(size=(9, dim)), t=np.zeros(9),
                      y=np.zeros(9))
    candidates = Dataset(x=rng.normal(size=(40, dim)), t=np.ones(40),
                         y=np.zeros(40))
    provider = IdentityEmbedding(dim)
    table = pair_distances(anchors, candidates, provider)
    assert table.shape == (9, 40)
    for i in range(9):
        ref = np.linalg.norm(candidates.x - anchors.x[i], axis=1)
        assert np.array_equal(table[i], ref)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_distance_table_gives_same_pairs(case):
    ds, cfg, provider, seed = _golden_cases()[case]
    table = pair_distances(ds, ds, provider)
    with_table = create_pair_ds(ds, ds, cfg, provider, seed, distances=table)
    without = create_pair_ds(ds, ds, cfg, provider, seed)
    assert with_table.content_hash() == without.content_hash()
    assert np.array_equal(with_table.xp, without.xp)
    if ds.mode == CONTINUOUS:
        assert np.array_equal(with_table.target_t, without.target_t)
    with pytest.raises(ValueError):
        create_pair_ds(ds, ds, cfg, provider, seed, distances=table[1:])


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_block_size_does_not_change_pairs(monkeypatch, case):
    from paireffect import pairing

    ds, cfg, provider, seed = _golden_cases()[case]
    table = pair_distances(ds, ds, provider)
    hashes = set()
    for block_bytes in (1, 4096, 1 << 18):
        monkeypatch.setattr(pairing, "_BLOCK_BYTES", block_bytes)
        for distances in (None, table):
            pairs = create_pair_ds(ds, ds, cfg, provider, seed,
                                   distances=distances)
            hashes.add((pairs.content_hash(), len(pairs)))
    assert hashes == {GOLDEN[case]}


def test_same_table_loaded_twice_never_self_pairs(tmp_path):
    from paireffect.datagen import load_csv, save_csv

    rng = np.random.default_rng(2)
    n = 300
    ds = Dataset(x=rng.normal(size=(n, 2)), t=rng.uniform(size=n),
                 y=rng.normal(size=n), mode=CONTINUOUS)
    path = tmp_path / "table.csv"
    save_csv(ds, path)
    first = load_csv(path, mode=CONTINUOUS)
    second = load_csv(path, mode=CONTINUOUS)
    assert first.source == second.source
    cfg = PairingConfig(num_neighbors=3, continuous_halfwidth=0.1,
                        delta_pair=0.0)
    pairs = create_pair_ds(first, second, cfg, IdentityEmbedding(2), 4)
    assert np.all(pairs.anchor_idx != pairs.nbr_idx)
