"""Cross-treatment pair construction.

For each anchor record, opposite-treatment neighbors are sampled from a
softmax over negative embedding distances, exp(-lambda * d); the fraction of
assembled pairs with the largest distances is then dropped globally.
Continuous treatments first draw a target t' ~ Uniform[0,1] per anchor and
restrict candidates to a window around it; binary ones target 1 - t.

Anchors are taken in blocks in target order and candidates sorted by t, so
a block reads only the slab its windows span: distances gathered from a
pair_distances table (training builds one per run) or computed on the fly,
within _BLOCK_BYTES of temporaries.  The k smallest keys lambda * d +
log(E), E ~ Exp(1), are a Gumbel top-k: k successive softmax draws without
replacement, exact at any temperature.  Anchors with fewer than k eligible
candidates draw k with replacement; those with none are skipped.

Determinism: one generator per call, seeded by rng_seed, draws in order the
continuous targets, one exponential per eligible (anchor, candidate) entry
in (target, t) order, and the with-replacement rows.  Neither the block size
nor the distance table changes a draw or a distance bit.  The draws are
shared, so an anchor's pairs depend on the other anchors of the call.
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


# the largest temporary one anchor block may allocate
_BLOCK_BYTES = 1 << 18


def _distances(e_anchor, e_cand):
    """Anchor x candidate Euclidean distances, each sqrt(add.reduce(diff *
    diff)) over a contiguous row as np.linalg.norm(..., axis=1) does, so
    they match it bit for bit whatever the block shape."""
    diff = e_cand - e_anchor[:, None, :]
    diff *= diff
    return np.sqrt(np.add.reduce(diff, axis=-1))


def pair_distances(anchors: Dataset, candidates: Dataset, provider) -> np.ndarray:
    """The full anchor x candidate distance table in the provider's
    embedding, for reuse across create_pair_ds calls on the same tables."""
    e_anchor = provider.embed(anchors.x)
    e_cand = np.ascontiguousarray(provider.embed(candidates.x))
    out = np.empty((len(anchors), len(candidates)))
    rows = max(1, _BLOCK_BYTES // max(e_cand.nbytes, 1))
    for lo in range(0, len(out), rows):
        out[lo:lo + rows] = _distances(e_anchor[lo:lo + rows], e_cand)
    return out


def _smallest_k(keys, k):
    """Column indices of each row's k smallest keys in increasing order:
    np.argsort(row, kind="stable")[:k] for every row, without sorting
    every key, whenever a row's k-th and (k+1)-th keys differ."""
    rows = np.arange(len(keys))[:, None]
    top = np.sort(np.argpartition(keys, k - 1, axis=1)[:, :k], axis=1)
    return top[rows, np.argsort(keys[rows, top], axis=1, kind="stable")]


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
    shape = (len(anchors), len(candidates))
    if distances is not None and np.shape(distances) != shape:
        raise ValueError(f"distance table has shape {np.shape(distances)}, "
                         f"expected {shape}")
    mode, k, lam = anchors.mode, config.num_neighbors, config.temperature
    rng = np.random.default_rng(rng_seed)
    # an eligible candidate's t lies strictly within `reach` of its anchor's
    # target: the opposite arm, or the window around a drawn t'
    if mode == BINARY:
        target, reach = 1.0 - anchors.t, 0.5
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
    rows = max(1, _BLOCK_BYTES // max(8 * len(candidates) * width, 1))
    # each block reads the slab of t-sorted candidates its windows span; a
    # bound one float step beyond each rounded window edge keeps every
    # candidate the exact mask below can admit
    starts = np.arange(0, len(anchors), rows)
    ends = np.minimum(starts + rows, len(anchors))
    slab_lo = np.searchsorted(
        t_c, np.nextafter(target[a_order[starts]] - reach, -np.inf))
    slab_hi = np.searchsorted(
        t_c, np.nextafter(target[a_order[ends - 1]] + reach, np.inf), "right")
    same_table = anchors.source == candidates.source

    nbr = np.empty((len(anchors), k), dtype=np.intp)
    dist = np.empty((len(anchors), k))
    n_eligible = np.empty(len(anchors), dtype=np.intp)
    short = []   # (anchor, eligible candidates, distances) with < k eligible
    for start, end, lo, hi in zip(starts, ends, slab_lo, slab_hi):
        a_rows, cols = a_order[start:end], c_order[lo:hi]
        if distances is None:
            d = _distances(e_anchor[a_rows], e_cand[lo:hi])
        else:
            d = distances[a_rows][:, cols]
        if mode == BINARY:
            mask = t_c[None, lo:hi] != anchors.t[a_rows, None]
        else:
            mask = np.abs(t_c[None, lo:hi] - target[a_rows, None]) < reach
        if same_table:
            mask &= ids_c[None, lo:hi] != anchors.ids[a_rows, None]
        count = n_eligible[a_rows] = np.count_nonzero(mask, axis=1)
        # exponential race: the k smallest lam * d + log(E) are the k largest
        # Gumbel keys -lam * d + G, since -log(E) is a standard Gumbel
        keys = np.full(d.shape, np.inf)
        keys[mask] = np.log(rng.standard_exponential(int(count.sum())))
        keys += lam * d
        full = count >= k
        if np.any(full):
            top = _smallest_k(keys, k)
            nbr[a_rows[full]] = cols[top[full]]
            dist[a_rows[full]] = np.take_along_axis(d, top, 1)[full]
        for r in np.flatnonzero((count > 0) & ~full):
            short.append((a_rows[r], cols[mask[r]], d[r, mask[r]]))
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
    rows_a, rows_c = np.repeat(paired, k)[order], nbr[paired].ravel()[order]
    return PairDataset(
        anchor_idx=anchors.ids[rows_a],
        nbr_idx=candidates.ids[rows_c],
        x=anchors.x[rows_a],
        t=anchors.t[rows_a],
        y=anchors.y[rows_a],
        xp=candidates.x[rows_c],
        tp=candidates.t[rows_c],
        yp=candidates.y[rows_c],
        distance=dists[order],
        target_t=target[rows_a] if mode == CONTINUOUS else None,
        provenance={
            "anchor_source": anchors.source,
            "candidate_source": candidates.source,
            "seed": int(rng_seed),
            "skipped_anchors": int(len(anchors) - len(paired)),
            "fallback_anchors": len(short),
            "pre_trim_size": int(len(dists)),
            "config": asdict(config),
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
