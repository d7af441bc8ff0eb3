"""Cross-treatment pair construction.

For each anchor record, opposite-treatment neighbors are sampled from a
softmax over negative embedding distances, exp(-lambda * d); the fraction of
assembled pairs with the largest distances is then dropped globally.
Continuous treatments first draw a target t' ~ Uniform[0,1] per anchor and
restrict candidates to a window around it; binary ones target 1 - t.

Anchors are taken in blocks in target order and candidates sorted by t, so
a block reads only the slab its windows span: distances read from a
pair_distances table (training builds one per run) or computed on the fly,
within _BLOCK_BYTES of temporaries.  Binary blocks are cut at the boundary
between the two targets, so each block's slab is exactly the opposite arm
and every entry in it is eligible: no mask, no same-arm entry, and a
binary table holds only the cross-arm distances, n1 * n0 of them for one
table paired with itself.  The k smallest keys lambda * d + log(E),
E ~ Exp(1), are a Gumbel top-k: k successive softmax draws without
replacement, exact at any temperature.  Anchors with fewer than k eligible
candidates draw k with replacement; those with none are skipped.

A binary arm with more than k candidates and lambda > 0 takes the pruned
race unless more than _DENSE_SHARE of its slab is near, on average over
_SAMPLE of its anchors; otherwise it takes the dense race, one key per
entry.  The pruned race draws keys only for each anchor's near
candidates, d <= d_(k) + (log n + _MARGIN) / lambda, and handles the far
ones exactly by Poisson thinning: one bounding first arrival per anchor
shows whether any far key could beat the anchor's k-th key, and only then
are arrivals thinned to individual far candidates.  The law stays the
Gumbel top-k, and a near key keeps the dense race's bits and tie rule.
Continuous windows always take the dense, masked race.

A pair set holds row positions into its anchor and candidate tables; its
columns (x, t, y, xp, tp, yp, anchor_idx, nbr_idx) are read-only gathers
through them, so a table must not be changed after pairing.

Determinism: one generator per call, seeded by rng_seed, draws in order the
continuous targets; one exponential per key entry in (target, t) order
(every eligible entry in a dense race, the near entries in a pruned one);
one bounding first arrival per pruned anchor with a far candidate, then
the thinning draws of the anchors whose check fires, in the same order;
and the with-replacement rows.  Neither the block size nor the distance
table changes a draw or a distance bit.  The draws are shared, so an
anchor's pairs depend on the other anchors of the call.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import nets
from .datagen import BINARY, CONTINUOUS, Dataset


class EmptyPairDataset(RuntimeError):
    pass


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from arbitrary hashable parts (order-sensitive)."""
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# ---------------------------------------------------------------------------
# Embedding providers


class IdentityEmbedding:
    def __init__(self, dim):
        self.output_dim = dim

    def embed(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.output_dim:
            raise ValueError(
                f"expected dimension {self.output_dim}, got {x.shape[1]}"
            )
        return x


class RandomProjectionEmbedding:
    """Fixed Gaussian projection, scaled by 1/sqrt(output_dim)."""

    def __init__(self, in_dim, out_dim, seed=0):
        self.in_dim = in_dim
        self.output_dim = out_dim
        rng = np.random.default_rng(seed)
        self.matrix = rng.standard_normal((in_dim, out_dim)) / np.sqrt(out_dim)

    def embed(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_dim:
            raise ValueError(f"expected dimension {self.in_dim}, got {x.shape[1]}")
        return x @ self.matrix


class PhiEmbedding:
    """Frozen representation chain of a trained model."""

    def __init__(self, model):
        self.phi_specs = list(model.phi_specs)
        self.chain = [(w.copy(), b.copy()) for w, b in model.params.blocks["phi"]]
        self.in_dim = model.input_dim
        self.output_dim = self.phi_specs[-1].n_out

    def embed(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_dim:
            raise ValueError(f"expected dimension {self.in_dim}, got {x.shape[1]}")
        return nets._chain_forward(self.chain, self.phi_specs, x)


# ---------------------------------------------------------------------------
# Pair datasets


@dataclass
class PairingConfig:
    delta_pair: float = 0.1
    num_neighbors: int = 3
    temperature: float = 1.0
    continuous_halfwidth: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.delta_pair < 1.0:
            raise ValueError("delta_pair must lie in [0, 1)")
        if type(self.num_neighbors) is not int or self.num_neighbors < 1:
            raise ValueError("num_neighbors must be an int >= 1, not "
                             f"{self.num_neighbors!r}")
        if not (np.isfinite(self.temperature) and self.temperature >= 0.0):
            raise ValueError("temperature must be finite and non-negative, "
                             f"not {self.temperature!r}")
        if not (np.isfinite(self.continuous_halfwidth)
                and self.continuous_halfwidth > 0.0):
            raise ValueError("continuous_halfwidth must be finite and "
                             f"positive, not {self.continuous_halfwidth!r}")


def _gather(table, positions, *columns):
    """Read-only pair columns: each of `columns` of `table` at `positions`."""
    return [property(lambda self, c=c: getattr(getattr(self, table), c)[
        getattr(self, positions)]) for c in columns]


@dataclass
class PairDataset:
    """Pairs as row positions: anchor rows[i] of `anchors` with neighbor
    nbr_rows[i] of `candidates`; each column read is a fresh gather."""

    anchors: Dataset
    candidates: Dataset
    rows: np.ndarray
    nbr_rows: np.ndarray
    distance: np.ndarray
    target_t: np.ndarray | None = None   # continuous mode: per-pair drawn t'
    provenance: dict = field(default_factory=dict)

    anchor_idx, x, t, y = _gather("anchors", "rows", "ids", "x", "t", "y")
    nbr_idx, xp, tp, yp = _gather("candidates", "nbr_rows", "ids", "x", "t", "y")

    def __len__(self):
        return len(self.rows)

    def subset(self, idx) -> "PairDataset":
        """Pairs idx, an index array or a slice (which gives views)."""
        return replace(
            self, rows=self.rows[idx], nbr_rows=self.nbr_rows[idx],
            distance=self.distance[idx],
            target_t=None if self.target_t is None else self.target_t[idx],
        )

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for arr in (self.anchor_idx, self.nbr_idx, self.distance):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()[:16]


def _softmax_neg(distances, lam):
    z = np.exp(-lam * (distances - np.min(distances)))
    return z / np.sum(z)


# the largest temporary one anchor block may allocate
_BLOCK_BYTES = 1 << 18


def _distances(e_anchor, e_cand):
    """Anchor x candidate Euclidean distances, each sqrt(add.reduce(diff *
    diff)) over a contiguous row as np.linalg.norm(..., axis=1) does, so
    they match it bit for bit whatever the block shape.

    One-dimensional embeddings take |c - a|, which is sqrt(fl((c - a)^2))
    to the bit unless the square underflows (|c - a| < 2^-511) or
    overflows (|c - a| >= 2^512); there np.linalg.norm rounds the
    distance, or returns inf, and this returns |c - a|."""
    if e_cand.shape[1] == 1:
        diff = e_cand[:, 0] - e_anchor
        return np.abs(diff, out=diff)
    diff = e_cand - e_anchor[:, None, :]
    diff *= diff
    return np.sqrt(np.add.reduce(diff, axis=-1))


def _table(e_anchor, e_cand):
    out = np.empty((len(e_anchor), len(e_cand)))
    rows = max(1, _BLOCK_BYTES // max(e_cand.nbytes, 1))
    for lo in range(0, len(out), rows):
        out[lo:lo + rows] = _distances(e_anchor[lo:lo + rows], e_cand)
    return out


def _spans(anchors: Dataset, candidates: Dataset):
    """(a0, a1, c0, c1) per target span: anchors a0:a1 in target order read
    candidates c0:c1 in t order.  Binary: target 0 (treated anchors) reads
    the control arm and target 1 the treated arm; continuous: one span."""
    if anchors.mode != BINARY:
        return [(0, len(anchors), 0, len(candidates))]
    a_cut = int(np.count_nonzero(anchors.t == 1.0))
    c_cut = int(np.count_nonzero(candidates.t == 0.0))
    return [(0, a_cut, 0, c_cut), (a_cut, len(anchors), c_cut, len(candidates))]


def pair_distances(anchors: Dataset, candidates: Dataset, provider) -> tuple:
    """Distance blocks in the provider's embedding, one per target span, for
    reuse across create_pair_ds calls on the same tables.

    Binary: block g holds the distances from the anchors targeting g to the
    candidates of arm g, rows and columns in table order within the arm;
    same-arm entries are neither evaluated nor stored.  When both tables
    hold the same rows, block 1 is block 0 transposed (a view), since
    _distances is bitwise symmetric.  Continuous: one full anchor x
    candidate block, columns in t order."""
    e_anchor = provider.embed(anchors.x)
    e_cand = provider.embed(candidates.x)
    same = (np.array_equal(anchors.t, candidates.t)
            and np.array_equal(e_anchor, e_cand))
    e_cand = np.ascontiguousarray(
        e_cand[np.argsort(candidates.t, kind="stable")])
    if anchors.mode != BINARY:
        return (_table(e_anchor, e_cand),)
    e_anchor = e_anchor[np.argsort(1.0 - anchors.t, kind="stable")]
    (a0, a1, c0, c1), (b0, b1, d0, d1) = _spans(anchors, candidates)
    first = _table(e_anchor[a0:a1], e_cand[c0:c1])
    return first, first.T if same else _table(e_anchor[b0:b1], e_cand[d0:d1])


def _smallest_k(keys, k):
    """Column indices of each row's k smallest keys in increasing order,
    ties to the lower index: np.argsort(row, kind="stable")[:k] for every
    row, as k successive row minima.  Overwrites the taken keys with inf."""
    rows = np.arange(len(keys))
    top = np.empty((len(keys), k), dtype=np.intp)
    for j in range(k):
        top[:, j] = np.argmin(keys, axis=1)
        keys[rows, top[:, j]] = np.inf
    return top


# The pruned race draws keys only for an anchor's near candidates, those
# with d <= d_(k) + (log n + _MARGIN) / lam, where d_(k) is its k-th
# smallest distance and n its slab's size.  The anchor's k-th key is at
# most lam * d_(k) + log max(E_1..E_k) over its k nearest draws, so the
# far check fires with probability below H_k e^(-_MARGIN) per anchor,
# H_k = 1 + 1/2 + ... + 1/k.
_MARGIN = 20.0
# A binary span takes the dense race, a key for every entry, when more
# than _DENSE_SHARE of its slab is near on average over _SAMPLE of its
# anchors, evenly spaced in target order.
_DENSE_SHARE = 0.25
_SAMPLE = 16


def _near_bound(d, k, lam):
    """Each row's near bound d_(k) + (log n + _MARGIN) / lam."""
    kth = d[np.arange(len(d)), _smallest_k(d.copy(), k)[:, -1]]
    return kth + (np.log(d.shape[1]) + _MARGIN) / lam


def _arrival(s, n_far, lam, threshold):
    """log(s / R): the log time of the arrival, of a Poisson process of rate
    R = n_far e^(-lam threshold), whose Exp(1) gaps sum to s."""
    return np.log(s) - np.log(n_far) + lam * threshold


def _thin(rng, d, threshold, lam, s, keys, nbr, dist, cols):
    """Merge one anchor's far candidates, d > threshold over its slab
    `cols`, into its top k (keys, neighbors and distances, in key order) by
    Poisson thinning, and return the new neighbors and distances.

    Each far race has rate e^(-lam d) < e^(-lam threshold), so one process
    of rate n_far e^(-lam threshold) dominates them all: each of its
    arrivals goes to a uniform far candidate, which takes it with
    probability e^(-lam (d - threshold)), and a candidate's first taken
    arrival is its key.  s is the first arrival's draw; the loop ends when
    an arrival passes the k-th key, which no later far key can beat."""
    far = np.flatnonzero(d > threshold)
    taken = set()
    while (key := _arrival(s, len(far), lam, threshold)) < keys[-1]:
        j = far[rng.integers(len(far))]
        if rng.random() < np.exp(-lam * (d[j] - threshold)) and j not in taken:
            taken.add(j)
            at = np.searchsorted(keys, key, "right")
            keys, nbr, dist = (np.insert(v, at, x)[:-1] for v, x in
                               ((keys, key), (nbr, cols[j]), (dist, d[j])))
        s += rng.standard_exponential()
    return nbr, dist


def create_pair_ds(anchors: Dataset, candidates: Dataset,
                   config: PairingConfig, provider, rng_seed,
                   distances=None) -> PairDataset:
    """Sample num_neighbors opposite-treatment pairs per anchor, then drop
    the delta_pair fraction with the largest embedding distances.

    distances: optional pair_distances(anchors, candidates, provider)
    blocks; without them the same distances are computed block by block.
    """
    if anchors.dim != candidates.dim or anchors.mode != candidates.mode:
        raise ValueError("anchor and candidate datasets disagree on shape/mode")
    spans = _spans(anchors, candidates)
    if distances is not None:
        shapes = [np.shape(block) for block in distances]
        expected = [(a1 - a0, c1 - c0) for a0, a1, c0, c1 in spans]
        if shapes != expected:
            raise ValueError(f"distance blocks have shapes {shapes}, "
                             f"expected {expected}")
    mode, k, lam = anchors.mode, config.num_neighbors, config.temperature
    rng = np.random.default_rng(rng_seed)
    # binary anchors target the opposite arm; a continuous candidate is
    # eligible when its t lies strictly within `reach` of a drawn t'
    if mode == BINARY:
        target = 1.0 - anchors.t
    else:
        target = rng.uniform(size=len(anchors))
        reach = config.continuous_halfwidth
    c_order = np.argsort(candidates.t, kind="stable")
    t_c, ids_c = candidates.t[c_order], candidates.ids[c_order]
    a_order = np.argsort(target, kind="stable")
    width = 1  # a table block's temporaries hold one float per entry
    if distances is None:
        e_anchor = provider.embed(anchors.x)
        e_cand = np.ascontiguousarray(provider.embed(candidates.x)[c_order])
        width = e_cand.shape[1]
    # an anchor's own row is in its own arm, so only continuous windows
    # can hold it
    same_table = mode == CONTINUOUS and anchors.source == candidates.source

    def read(g, pos, lo, hi):
        """Distances from span g's anchors at positions pos of its target
        order (an index array, or a slice, which views a binary table in
        place) to the t-sorted candidates lo:hi."""
        a0, a1, c0, _ = spans[g]
        if distances is None:
            return _distances(e_anchor[a_order[a0:a1][pos]], e_cand[lo:hi])
        if mode == BINARY:  # rows in target order within the span
            return distances[g][pos, lo - c0:hi - c0]
        return distances[0][a_order[pos], lo:hi]  # rows in table order

    nbr = np.empty((len(anchors), k), dtype=np.intp)
    dist = np.empty((len(anchors), k))
    n_eligible = np.empty(len(anchors), dtype=np.intp)
    short = []   # (anchor, eligible candidates, distances) with < k eligible
    # by position in target order: a pruned anchor's near bound, its far
    # candidates' count (0 for every other anchor) and its top k keys
    bound = np.empty(len(anchors))
    far = np.zeros(len(anchors), dtype=np.intp)
    top_keys = np.empty((len(anchors), k))
    for g, (a0, a1, c0, c1) in enumerate(spans):
        step = max(1, _BLOCK_BYTES // max(8 * (c1 - c0) * width, 1))
        prune = False
        if mode == BINARY and lam > 0 and c1 - c0 > k and a1 > a0:
            m = min(_SAMPLE, a1 - a0)
            sample = np.arange(m) * (a1 - a0) // m
            n_near = 0
            for i in range(0, m, step):
                d = read(g, sample[i:i + step], c0, c1)
                n_near += np.count_nonzero(d <= _near_bound(d, k, lam)[:, None])
            prune = n_near <= _DENSE_SHARE * m * (c1 - c0)
        for start in range(a0, a1, step):
            end = min(start + step, a1)
            a_rows = a_order[start:end]
            if mode == BINARY:
                lo, hi = c0, c1
            else:
                # the slab of t-sorted candidates the block's windows span; a
                # bound one float step beyond each rounded window edge keeps
                # every candidate the exact mask below can admit
                lo = np.searchsorted(
                    t_c, np.nextafter(target[a_rows[0]] - reach, -np.inf))
                hi = np.searchsorted(
                    t_c, np.nextafter(target[a_rows[-1]] + reach, np.inf),
                    "right")
            cols = c_order[lo:hi]
            d = read(g, slice(start - a0, end - a0), lo, hi)
            # exponential race: the k smallest lam * d + log(E) are the k
            # largest Gumbel keys -lam * d + G, since -log(E) is a standard
            # Gumbel
            if mode == BINARY:  # the slab is the opposite arm, all eligible
                count = np.full(len(a_rows), hi - lo)
                if prune:
                    # keys for the near entries only, row by row; each row's
                    # k smallest, ties to the lower column
                    bound[start:end] = _near_bound(d, k, lam)
                    r, c = np.divmod(
                        np.flatnonzero(d <= bound[start:end, None]), hi - lo)
                    keys = np.log(rng.standard_exponential(len(r)))
                    keys += lam * d[r, c]
                    near = np.bincount(r, minlength=len(a_rows))
                    pick = np.lexsort((keys, r))[
                        (np.cumsum(near) - near)[:, None] + np.arange(k)]
                    top, top_keys[start:end] = c[pick], keys[pick]
                    far[start:end] = hi - lo - near
                else:
                    keys = rng.standard_exponential(d.shape)
                    np.log(keys, out=keys)
            else:
                mask = np.abs(t_c[None, lo:hi] - target[a_rows, None]) < reach
                if same_table:
                    mask &= ids_c[None, lo:hi] != anchors.ids[a_rows, None]
                count = np.count_nonzero(mask, axis=1)
                keys = np.full(d.shape, np.inf)
                keys[mask] = np.log(rng.standard_exponential(int(count.sum())))
            n_eligible[a_rows] = count
            full = count >= k
            if np.any(full):
                sel = slice(None) if np.all(full) else full
                if not prune:
                    keys += lam * d
                    top = _smallest_k(keys[sel], k)
                nbr[a_rows[sel]] = cols[top]
                dist[a_rows[sel]] = np.take_along_axis(d[sel], top, 1)
            for r in np.flatnonzero((count > 0) & ~full):
                keep = slice(None) if mode == BINARY else mask[r]
                short.append((a_rows[r], cols[keep], d[r, keep]))
    # one bounding first arrival of each pruned anchor's far candidates;
    # only an anchor whose arrival beats its k-th key is thinned
    pos = np.flatnonzero(far)
    first = rng.standard_exponential(len(pos))
    for i in np.flatnonzero(
            _arrival(first, far[pos], lam, bound[pos]) < top_keys[pos, -1]):
        p, a = pos[i], a_order[pos[i]]
        g = int(p >= spans[0][1])
        a0, _, c0, c1 = spans[g]
        nbr[a], dist[a] = _thin(rng, read(g, [p - a0], c0, c1)[0], bound[p],
                                lam, first[i], top_keys[p], nbr[a], dist[a],
                                c_order[c0:c1])
    for a, cols, d in short:
        pick = rng.choice(len(cols), size=k, replace=True,
                          p=_softmax_neg(d, lam))
        nbr[a], dist[a] = cols[pick], d[pick]
    paired = np.flatnonzero(n_eligible > 0)
    if len(paired) == 0:
        raise EmptyPairDataset("every anchor was skipped")

    dists = dist[paired].ravel()
    keep = int(np.floor((1.0 - config.delta_pair) * len(dists) + 0.5))
    # keep assembly order (anchor, then draw) among the retained pairs
    order = np.sort(np.argsort(dists, kind="stable")[:keep])
    rows_a = np.repeat(paired, k)[order]
    return PairDataset(
        anchors, candidates, rows_a, nbr[paired].ravel()[order],
        distance=dists[order],
        target_t=target[rows_a] if mode == CONTINUOUS else None,
        provenance={
            "skipped_anchors": int(len(anchors) - len(paired)),
            "fallback_anchors": len(short),
            "pre_trim_size": int(len(dists)),
        },
    )


def neighbor_diagnostics(pairs: PairDataset) -> dict:
    """Distance summaries: delta_hat is the max over anchors of the mean
    retained-neighbor distance (squared variant reported alongside)."""
    if len(pairs) == 0:
        raise ValueError("empty pair dataset")
    # each anchor's distances, contiguous and in pair order
    order = np.argsort(pairs.anchor_idx, kind="stable")
    anchors = pairs.anchor_idx[order]
    d = pairs.distance[order]
    starts = np.flatnonzero(np.r_[True, anchors[1:] != anchors[:-1]])
    sizes = np.diff(np.r_[starts, len(d)])
    delta_hat = delta_hat_sq = -np.inf
    for size in np.unique(sizes):
        # the anchors with `size` pairs as matrix rows: a row-wise mean sums
        # each row exactly as np.mean sums that anchor's own 1-d array
        rows = d[starts[sizes == size, None] + np.arange(size)]
        delta_hat = max(delta_hat, float(np.max(np.mean(rows, axis=1))))
        delta_hat_sq = max(delta_hat_sq,
                           float(np.max(np.mean(rows**2, axis=1))))
    counts = {}
    if np.all((pairs.t == 0) | (pairs.t == 1)):
        counts = {int(g): int(np.sum(pairs.t == g)) for g in (0, 1)}
    return {
        "mean_distance": float(np.mean(pairs.distance)),
        "mean_sq_distance": float(np.mean(pairs.distance**2)),
        "delta_hat": delta_hat,
        "delta_hat_sq": delta_hat_sq,
        "per_treatment_counts": counts,
        "n_pairs": len(pairs),
    }


def save_pairs_csv(pairs: PairDataset, path) -> None:
    # each column read is a gather, so read them once
    columns = (pairs.anchor_idx, pairs.nbr_idx, pairs.t, pairs.y, pairs.tp,
               pairs.yp, pairs.distance)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["anchor_idx", "nbr_idx", "t", "y", "t_prime", "y_prime", "distance"])
        for anchor, nbr, *values in zip(*columns):
            writer.writerow([int(anchor), int(nbr), *(repr(float(v)) for v in values)])
