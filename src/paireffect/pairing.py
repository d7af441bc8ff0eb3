"""Cross-treatment pair construction.

For each anchor record, opposite-treatment neighbors are sampled from a
softmax over negative embedding distances, exp(-lambda * d); the fraction of
assembled pairs with the largest distances is then dropped globally.
Continuous treatments first draw a target t' ~ Uniform[0,1] per anchor and
restrict candidates to a window around it.

Distances are computed in anchor blocks whose difference temporary stays
within _BLOCK_BYTES (or one anchor's row, when that is larger), either on
the fly or read from a table made once by pair_distances.  Training keeps the embedding fixed for the whole run, so it
builds that table once from the train split (n_train**2 float64: 2.2 MB at
n_train = 525, 392 MB at 7,000) and hands it to every epoch.  The top k keys
are found with a partition, then only the candidates at or above the k-th
key are sorted.

Determinism: each anchor owns an rng derived from (seed, anchor position), so
results are independent of iteration order and safe to parallelize.  The
rng draws, in order, the continuous target and then the Gumbel keys; neither
the distance table nor the block size changes a draw or a distance bit.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import asdict, dataclass, field

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
    kind = "identity"

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

    kind = "random_projection"

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

    kind = "phi"

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
        if self.num_neighbors < 1:
            raise ValueError("num_neighbors must be >= 1")
        if self.temperature < 0.0:
            raise ValueError("temperature must be non-negative")
        if self.continuous_halfwidth <= 0.0:
            raise ValueError("continuous_halfwidth must be positive")


@dataclass
class PairDataset:
    """Columnar pair records: anchor (x, t, y) with neighbor (xp, tp, yp)."""

    anchor_idx: np.ndarray
    nbr_idx: np.ndarray
    x: np.ndarray
    t: np.ndarray
    y: np.ndarray
    xp: np.ndarray
    tp: np.ndarray
    yp: np.ndarray
    distance: np.ndarray
    target_t: np.ndarray | None = None   # continuous mode: per-pair drawn t'
    provenance: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.t)

    def subset(self, idx) -> "PairDataset":
        idx = np.asarray(idx)
        return PairDataset(
            anchor_idx=self.anchor_idx[idx],
            nbr_idx=self.nbr_idx[idx],
            x=self.x[idx],
            t=self.t[idx],
            y=self.y[idx],
            xp=self.xp[idx],
            tp=self.tp[idx],
            yp=self.yp[idx],
            distance=self.distance[idx],
            target_t=None if self.target_t is None else self.target_t[idx],
            provenance=self.provenance,
        )

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for arr in (self.anchor_idx, self.nbr_idx, self.distance):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()[:16]


def _softmax_neg(distances, lam):
    z = np.exp(-lam * (distances - np.min(distances)))
    return z / np.sum(z)


# the largest difference temporary one distance block may allocate
_BLOCK_BYTES = 1 << 18


def _distance_blocks(e_anchor, e_cand):
    """Yield (first row, block) of anchor-to-candidate Euclidean distances.

    Each entry is sqrt(add.reduce(diff * diff)) over a contiguous row, the
    same reduction np.linalg.norm(..., axis=1) does, so the values match it
    bit for bit whatever the block size.
    """
    e_anchor = np.ascontiguousarray(e_anchor)
    e_cand = np.ascontiguousarray(e_cand)
    rows = max(1, _BLOCK_BYTES // max(e_cand.nbytes, 1))
    for lo in range(0, len(e_anchor), rows):
        diff = e_cand - e_anchor[lo:lo + rows, None, :]
        diff *= diff
        yield lo, np.sqrt(np.add.reduce(diff, axis=-1))


def pair_distances(anchors: Dataset, candidates: Dataset, provider) -> np.ndarray:
    """The full anchor x candidate distance table in the provider's
    embedding, for reuse across create_pair_ds calls on the same tables."""
    out = np.empty((len(anchors), len(candidates)))
    for lo, block in _distance_blocks(provider.embed(anchors.x),
                                      provider.embed(candidates.x)):
        out[lo:lo + len(block)] = block
    return out


def _top_k(keys, k):
    """Indices of the k largest keys, ties to the lower index: exactly
    np.argsort(-keys, kind="stable")[:k], NaN keys last, without sorting
    every key."""
    neg = -keys
    kth = np.partition(neg, k - 1)[k - 1]
    # `not >` keeps NaNs, and everything when kth itself is NaN, so the
    # stable sort below still sees every key the full sort would rank first
    top = np.flatnonzero(~(neg > kth))
    return top[np.argsort(neg[top], kind="stable")[:k]]


def create_pair_ds(anchors: Dataset, candidates: Dataset,
                   config: PairingConfig, provider, rng_seed,
                   distances=None) -> PairDataset:
    """Sample num_neighbors opposite-treatment pairs per anchor, then drop
    the delta_pair fraction with the largest embedding distances.

    distances: optional pair_distances(anchors, candidates, provider) table;
    without it the same distances are computed block by block.
    """
    if anchors.dim != candidates.dim or anchors.mode != candidates.mode:
        raise ValueError("anchor and candidate datasets disagree on shape/mode")
    mode = anchors.mode
    k = config.num_neighbors
    if distances is None:
        blocks = _distance_blocks(provider.embed(anchors.x),
                                  provider.embed(candidates.x))
    else:
        if np.shape(distances) != (len(anchors), len(candidates)):
            raise ValueError(
                f"distance table has shape {np.shape(distances)}, expected "
                f"{(len(anchors), len(candidates))}"
            )
        blocks = [(0, distances)]
    same_table = anchors.source == candidates.source

    # at most k pairs per anchor; filled up to `size`
    rows_a = np.empty(len(anchors) * k, dtype=np.intp)
    rows_c = np.empty_like(rows_a)
    dists = np.empty(len(rows_a))
    targets = np.empty(len(rows_a))
    size = skipped = 0
    for lo, block in blocks:
        for i, row in enumerate(block, start=lo):
            rng = np.random.default_rng([rng_seed, i])
            if mode == BINARY:
                eligible = candidates.t != anchors.t[i]
                target = 0.0
            else:
                target = rng.uniform()
                eligible = (np.abs(candidates.t - target)
                            < config.continuous_halfwidth)
            if same_table:
                eligible = eligible & (candidates.ids != anchors.ids[i])
            idx = np.flatnonzero(eligible)
            if len(idx) == 0:
                skipped += 1
                continue
            d = row[idx]
            if len(idx) >= k:
                # Gumbel top-k == successive softmax draws without
                # replacement, and stays exact for arbitrarily large
                # temperatures where the normalized probabilities would
                # underflow
                keys = -config.temperature * d + rng.gumbel(size=len(idx))
                pick = _top_k(keys, k)
            else:
                probs = _softmax_neg(d, config.temperature)
                pick = rng.choice(len(idx), size=k, replace=True, p=probs)
            fill = slice(size, size + k)
            rows_a[fill] = i
            rows_c[fill] = idx[pick]
            dists[fill] = d[pick]
            targets[fill] = target
            size += k
    if size == 0:
        raise EmptyPairDataset("every anchor was skipped")

    rows_a, rows_c, dists = rows_a[:size], rows_c[:size], dists[:size]
    keep = int(np.floor((1.0 - config.delta_pair) * len(rows_a) + 0.5))
    order = np.argsort(dists, kind="stable")[:keep]
    order = np.sort(order)  # keep assembly order among the retained pairs

    pairs = PairDataset(
        anchor_idx=anchors.ids[rows_a[order]],
        nbr_idx=candidates.ids[rows_c[order]],
        x=anchors.x[rows_a[order]],
        t=anchors.t[rows_a[order]],
        y=anchors.y[rows_a[order]],
        xp=candidates.x[rows_c[order]],
        tp=candidates.t[rows_c[order]],
        yp=candidates.y[rows_c[order]],
        distance=dists[order],
        target_t=targets[order] if mode == CONTINUOUS else None,
        provenance={
            "anchor_source": anchors.source,
            "candidate_source": candidates.source,
            "seed": int(rng_seed),
            "skipped_anchors": skipped,
            "pre_trim_size": int(len(rows_a)),
            "config": asdict(config),
        },
    )
    return pairs


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["anchor_idx", "nbr_idx", "t", "y", "t_prime", "y_prime", "distance"])
        for i in range(len(pairs)):
            writer.writerow([
                int(pairs.anchor_idx[i]),
                int(pairs.nbr_idx[i]),
                repr(float(pairs.t[i])),
                repr(float(pairs.y[i])),
                repr(float(pairs.tp[i])),
                repr(float(pairs.yp[i])),
                repr(float(pairs.distance[i])),
            ])
