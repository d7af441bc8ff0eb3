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
    for k in (0, 2.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="num_neighbors"):
            PairingConfig(num_neighbors=k)


@pytest.mark.parametrize("name, value", [
    ("temperature", float("nan")), ("temperature", float("inf")),
    ("continuous_halfwidth", float("nan")),
    ("continuous_halfwidth", float("inf")),
])
def test_pairing_config_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match=name):
        PairingConfig(**{name: value})


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


def _continuous_pairs():
    rng = np.random.default_rng(8)
    ds = Dataset(x=rng.normal(size=(70, 3)), t=rng.uniform(size=70),
                 y=rng.normal(size=70), mode=CONTINUOUS)
    cfg = PairingConfig(num_neighbors=2, continuous_halfwidth=0.1)
    return create_pair_ds(ds.subset(np.arange(30)), ds, cfg,
                          IdentityEmbedding(3), 4)


@pytest.mark.parametrize("make", ["binary", "continuous", "permuted"])
def test_pair_columns_are_gathers_from_their_tables(make):
    if make == "continuous":
        pairs = _continuous_pairs()
    else:
        pairs = quick_pairs(seed=6, num_neighbors=3)
    if make == "permuted":
        pairs = pairs.subset(np.random.default_rng(2).permutation(len(pairs)))
    a, c = pairs.anchors, pairs.candidates
    for name, table in (("x", a.x), ("t", a.t), ("y", a.y), ("anchor_idx", a.ids)):
        assert np.array_equal(getattr(pairs, name), table[pairs.rows])
    for name, table in (("xp", c.x), ("tp", c.t), ("yp", c.y), ("nbr_idx", c.ids)):
        assert np.array_equal(getattr(pairs, name), table[pairs.nbr_rows])
    assert len(pairs.rows) == len(pairs.nbr_rows) == len(pairs.distance)


def test_pair_subset_slice_is_a_view():
    pairs = _continuous_pairs()
    sub = pairs.subset(slice(3, 9))
    assert len(sub) == 6
    for name in ("rows", "nbr_rows", "distance", "target_t"):
        assert np.shares_memory(getattr(sub, name), getattr(pairs, name))
    assert sub.anchors is pairs.anchors and sub.candidates is pairs.candidates


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


@pytest.mark.parametrize("margin", [None, -3.0])
def test_pruned_race_ordered_pairs_match_successive_softmax_chi_square(
        monkeypatch, margin):
    # candidates at distances 0.1..0.5 (A), 40 in [0.9, 1.0] (B) and 400 in
    # [5, 10] (C), plus same-arm decoys.  At lam = 5 about a sixth of the
    # slab is near, so the race is pruned; B holds about a fifth of the
    # softmax mass.  A margin of -3 leaves only A near, so the far check
    # fires on nearly every anchor and thinning must find B's picks.
    from paireffect import pairing

    if margin is not None:
        monkeypatch.setattr(pairing, "_MARGIN", margin)
    thinned = _spy(monkeypatch, "_thin")
    rng = np.random.default_rng(4)
    x = np.concatenate([np.linspace(0.1, 0.5, 5), rng.uniform(0.9, 1.0, 40),
                        rng.uniform(5.0, 10.0, 400), [0.05, 0.3]])
    t = np.concatenate([np.ones(445), np.zeros(2)])
    candidates = Dataset(x=x[:, None], t=t, y=np.zeros(len(x)), mode=BINARY)
    provider = IdentityEmbedding(1)
    cfg = PairingConfig(temperature=5.0, num_neighbors=2, delta_pair=0.0)
    draws = 20000
    pairs = create_pair_ds(_copies(draws, 0.0), candidates, cfg, provider, 8)
    if margin is None:
        assert thinned == []
    else:
        assert len(thinned) > 0.9 * draws
    first, second = pairs.nbr_idx.reshape(draws, 2).T
    assert np.all(first < 445) and np.all(second < 445)
    assert np.all(first != second)
    # B is drawn often enough for its cells to count
    assert np.sum((first >= 5) & (first < 45)) > 0.1 * draws
    counts = np.bincount(first * 445 + second, minlength=445**2).astype(float)
    p = neighbor_distribution([0.0], 0.0, candidates, provider, 5.0)[:445]
    exact = p[:, None] * p[None, :] / (1.0 - p[:, None])
    np.fill_diagonal(exact, 0.0)
    stat, df = _chi2(counts, draws * exact.ravel())
    assert df > 100 and stat < _chi2_upper(df)


def test_thinning_keeps_pairs_independent_of_block_size_and_table(
        monkeypatch):
    from paireffect import pairing

    monkeypatch.setattr(pairing, "_MARGIN", -3.0)
    thinned = _spy(monkeypatch, "_thin")
    anchors, candidates, cfg, provider, seed = _golden_cases()["pruned"]
    table = pair_distances(anchors, candidates, provider)
    results = set()
    for block_bytes in (1, 4096, 1 << 18):
        monkeypatch.setattr(pairing, "_BLOCK_BYTES", block_bytes)
        for distances in (None, table):
            pairs = create_pair_ds(anchors, candidates, cfg, provider, seed,
                                   distances=distances)
            results.add((pairs.content_hash(), len(pairs), _provenance(pairs)))
    assert len(results) == 1
    # six calls, each thinning nearly every anchor
    assert len(thinned) > 0.9 * 6 * len(anchors)
    # the thinned pairs differ from the pruned race's
    assert results != {(*GOLDEN["pruned"], PROVENANCE["pruned"])}


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
            # ties, among them the inf keys, go to the lower index
            got = _smallest_k(keys.copy(), k)
            for row, top in zip(keys, got):
                assert np.array_equal(top, np.argsort(row, kind="stable")[:k])


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


def _k_row_arm_table():
    # three treated rows: every control anchor has exactly k = 3 candidates
    rng = np.random.default_rng(9)
    return Dataset(x=rng.normal(size=(14, 2)), t=np.array([1.0] * 3 + [0.0] * 11),
                   y=rng.normal(size=14), mode=BINARY)


# Hashes recorded when one generator per call began drawing the targets,
# the exponential keys and the with-replacement rows; a change here means
# the random streams moved.  The last three cases were recorded before
# binary pairing stopped scanning same-arm entries.
GOLDEN = {
    "binary": ("96c259942e9bfd5d", 162),
    "continuous": ("7a338ae5be369d33", 144),
    "fallback": ("110168033b44c8de", 36),
    "subset_anchors": ("2ad20ab233b09189", 32),
    "empty_target": ("0c34cab6343ec21a", 38),
    "k_row_arm": ("66576bf92bc246be", 42),
    "pruned": ("33773fdf7ee9ad48", 540),
}
# (skipped_anchors, fallback_anchors, pre_trim_size) of each case
PROVENANCE = {
    "binary": (0, 0, 180),
    "continuous": (0, 0, 160),
    "fallback": (0, 10, 36),
    "subset_anchors": (0, 0, 36),
    "empty_target": (39, 0, 42),
    "k_row_arm": (0, 0, 42),
    "pruned": (0, 0, 600),
}


def _golden_cases():
    """Each case's (anchors, candidates, config, provider, seed)."""
    ds = binary_dataset(n=60, seed=0)
    cds = _continuous_table()
    fds = _short_arm_table()
    kds = _k_row_arm_table()
    pds = _mixed_arm_table(200, 1, 12)
    # anchors a strict subset of the candidates' table, as for the
    # validation pairs of a training run
    vds = binary_dataset(n=50, seed=4)
    val = vds.subset(np.random.default_rng(0).permutation(50)[:12])
    treated = ds.subset(np.flatnonzero(ds.t == 1.0))
    return {
        "binary": (ds, ds, PairingConfig(num_neighbors=3),
                   RandomProjectionEmbedding(3, 5, seed=1), 42),
        "continuous": (cds, cds, PairingConfig(num_neighbors=2, temperature=2.0),
                       IdentityEmbedding(2), 7),
        "fallback": (fds, fds, PairingConfig(num_neighbors=3, delta_pair=0.0),
                     IdentityEmbedding(2), 11),
        "subset_anchors": (val, vds, PairingConfig(num_neighbors=3),
                           RandomProjectionEmbedding(3, 4, seed=2), 5),
        # treated anchors find no control candidate and are all skipped
        "empty_target": (ds, treated, PairingConfig(num_neighbors=2),
                         IdentityEmbedding(3), 8),
        "k_row_arm": (kds, kds, PairingConfig(num_neighbors=3, delta_pair=0.0),
                      IdentityEmbedding(2), 13),
        # a sharp softmax over 1-D covariates: about a tenth of each slab
        # is near, so both arms take the pruned race
        "pruned": (pds, pds, PairingConfig(num_neighbors=3, temperature=200.0),
                   IdentityEmbedding(1), 17),
    }


def _provenance(pairs):
    return tuple(pairs.provenance[key] for key in
                 ("skipped_anchors", "fallback_anchors", "pre_trim_size"))


def _spy(monkeypatch, name):
    """The argument tuples of every call to pairing.<name>."""
    from paireffect import pairing

    calls = []
    real = getattr(pairing, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pairing, name, spy)
    return calls


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_pair_draws_match_recorded_hashes(monkeypatch, case):
    anchors, candidates, cfg, provider, seed = _golden_cases()[case]
    far_checks = _spy(monkeypatch, "_arrival")
    pairs = create_pair_ds(anchors, candidates, cfg, provider, seed)
    assert (pairs.content_hash(), len(pairs)) == GOLDEN[case]
    assert _provenance(pairs) == PROVENANCE[case]
    # only the pruned case takes the pruned race, for every anchor
    checked = sum(np.size(args[0]) for args in far_checks)
    assert checked == (len(anchors) if case == "pruned" else 0)
    if case == "fallback":
        # control anchors draw with replacement from the two treated rows
        controls = pairs.anchor_idx >= 2
        assert set(pairs.nbr_idx[controls]) <= {0, 1}
        assert np.sum(controls) == 30
    if case == "k_row_arm":
        # each control anchor draws all three treated rows, once each
        controls = pairs.anchor_idx >= 3
        assert np.array_equal(np.sort(pairs.nbr_idx[controls].reshape(-1, 3)),
                              np.tile([0, 1, 2], (11, 1)))


def _mixed_arm_table(n, dim, seed, edge=()):
    """n rows with random arms; the first rows' covariates set to `edge`."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dim))
    x[:len(edge), 0] = edge
    return Dataset(x=x, t=rng.integers(0, 2, size=n).astype(float),
                   y=np.zeros(n))


@pytest.mark.parametrize("dim", [1, 3, 10, 200])
@pytest.mark.parametrize("block_bytes", [1, 4096, 1 << 18])
def test_pair_distances_match_norm_bit_for_bit(monkeypatch, dim, block_bytes):
    # binary blocks hold, per target, the anchors targeting it against the
    # candidates of that arm, each in table order; every stored entry is
    # compared with np.linalg.norm, for distinct tables and for one table
    # paired with itself (whose second block is the first transposed).
    # In 1-D the distance is |c - a|, which is the norm's sqrt((c - a)^2)
    # unless the square underflows or overflows: the edge rows hold
    # differences of 3e-160 and 1e300 from the 0.0 rows
    from paireffect import pairing

    monkeypatch.setattr(pairing, "_BLOCK_BYTES", block_bytes)
    edge = (0.0, 0.0, 3e-160, -3e-160, 1e300, -1e300) if dim == 1 else ()
    anchors = _mixed_arm_table(9, dim, dim, edge)
    candidates = _mixed_arm_table(40, dim, dim + 1, edge)
    provider = IdentityEmbedding(dim)
    edges = 0
    for a, c in ((anchors, candidates), (candidates, candidates)):
        blocks = pair_distances(a, c, provider)
        assert len(blocks) == 2
        for target, block in enumerate(blocks):
            rows = np.flatnonzero(a.t == 1.0 - target)
            cols = np.flatnonzero(c.t == target)
            assert block.shape == (len(rows), len(cols))
            for i, row in enumerate(rows):
                with np.errstate(over="ignore"):
                    ref = np.linalg.norm(c.x[cols] - a.x[row], axis=1)
                got = block[i]
                if dim == 1:
                    diff = np.abs(c.x[cols, 0] - a.x[row, 0])
                    assert np.array_equal(got, diff)
                    edge = (diff > 0) & ((diff < 2.0**-511)
                                         | (diff >= 2.0**512))
                    edges += np.count_nonzero(got[edge] != ref[edge])
                    got, ref = got[~edge], ref[~edge]
                assert np.array_equal(got, ref)
    # the norm differs from |c - a| on edge entries
    assert (edges > 0) == (dim == 1)


def test_continuous_pair_distances_are_the_full_table():
    cds = _continuous_table()
    (table,) = pair_distances(cds, cds, IdentityEmbedding(2))
    cols = np.argsort(cds.t, kind="stable")
    assert table.shape == (len(cds), len(cds))
    for i in range(len(cds)):
        ref = np.linalg.norm(cds.x[cols] - cds.x[i], axis=1)
        assert np.array_equal(table[i], ref)


def test_same_table_binary_distances_evaluate_only_cross_arm_entries(
        monkeypatch):
    from paireffect import pairing

    evaluated = []
    real = pairing._distances

    def counting(e_anchor, e_cand):
        out = real(e_anchor, e_cand)
        evaluated.append(out.size)
        return out

    monkeypatch.setattr(pairing, "_distances", counting)
    ds = binary_dataset(n=60, seed=0)
    n1 = int(np.sum(ds.t == 1.0))
    n0 = len(ds) - n1
    first, second = pair_distances(ds, ds, IdentityEmbedding(3))
    assert sum(evaluated) == n1 * n0
    # one stored block; the arm-0 anchors read it transposed
    assert first.shape == (n1, n0) and first.flags.owndata
    assert second.base is first and np.array_equal(second, first.T)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_distance_table_gives_same_pairs(case):
    anchors, candidates, cfg, provider, seed = _golden_cases()[case]
    table = pair_distances(anchors, candidates, provider)
    with_table = create_pair_ds(anchors, candidates, cfg, provider, seed,
                                distances=table)
    without = create_pair_ds(anchors, candidates, cfg, provider, seed)
    assert with_table.content_hash() == without.content_hash()
    assert np.array_equal(with_table.xp, without.xp)
    assert with_table.provenance == without.provenance
    if anchors.mode == CONTINUOUS:
        assert np.array_equal(with_table.target_t, without.target_t)
    full = np.zeros((len(anchors), len(candidates)))
    for wrong in (table[1:], full, (full, full)):
        with pytest.raises(ValueError, match="distance blocks"):
            create_pair_ds(anchors, candidates, cfg, provider, seed,
                           distances=wrong)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_block_size_does_not_change_pairs(monkeypatch, case):
    from paireffect import pairing

    anchors, candidates, cfg, provider, seed = _golden_cases()[case]
    table = pair_distances(anchors, candidates, provider)
    results = set()
    for block_bytes in (1, 4096, 1 << 18):
        monkeypatch.setattr(pairing, "_BLOCK_BYTES", block_bytes)
        for distances in (None, table):
            pairs = create_pair_ds(anchors, candidates, cfg, provider, seed,
                                   distances=distances)
            results.add((pairs.content_hash(), len(pairs), _provenance(pairs)))
    assert results == {(*GOLDEN[case], PROVENANCE[case])}


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
