"""Executable checks of the risk identities on finite 1-D scenes.

A scene fixes support points, per-arm covariate masses p_0/p_1, arm
marginals u_0/u_1, polynomial error residuals r_0/r_1, and the neighbor
kernel q_t(x'|x) (softmax of -lambda |x - x'| over the opposite arm's
support).  On such scenes every risk functional is an exact finite sum, so
the identity between the ITE risk and the pair risk can be asserted to
floating-point accuracy, and the upper bound can be evaluated with exact
1-D Wasserstein distances and exact polynomial Lipschitz constants.

Note on the identity's first term: the grouping that actually cancels is
u_t with r_{1-t}^2 (p_t - q_t), i.e. each arm's own covariate-vs-neighbor
marginal gap weighs the opposite arm's squared residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .datagen import Dataset
from .metrics import wasserstein1_1d
from .pairing import (PairingConfig, IdentityEmbedding, create_pair_ds,
                      neighbor_diagnostics, derive_seed)

_MASS_TOL = 1e-9


@dataclass
class FiniteScene:
    xs: np.ndarray                 # support points, 1-D
    p0: np.ndarray                 # covariate mass of the control arm
    p1: np.ndarray                 # covariate mass of the treated arm
    u0: float                      # control marginal; u1 = 1 - u0
    r0_coeffs: np.ndarray          # residual polynomials, ascending coeffs
    r1_coeffs: np.ndarray
    lam: float = 1.0
    q0: np.ndarray | None = None   # optional explicit kernels (rows: anchors)
    q1: np.ndarray | None = None

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.p0 = np.asarray(self.p0, dtype=float)
        self.p1 = np.asarray(self.p1, dtype=float)
        self.r0_coeffs = np.asarray(self.r0_coeffs, dtype=float)
        self.r1_coeffs = np.asarray(self.r1_coeffs, dtype=float)
        m = len(self.xs)
        for name, mass in (("p0", self.p0), ("p1", self.p1)):
            if mass.shape != (m,) or np.any(mass < 0):
                raise ValueError(f"{name} must be a nonnegative vector over the support")
            if abs(np.sum(mass) - 1.0) > _MASS_TOL:
                raise ValueError(f"{name} must sum to 1")
        if not 0.0 <= self.u0 <= 1.0:
            raise ValueError("u0 must lie in [0, 1]")
        if self.q0 is None:
            self.q0 = self._kernel(opposite=self.p1)
        if self.q1 is None:
            self.q1 = self._kernel(opposite=self.p0)
        for name, q in (("q0", self.q0), ("q1", self.q1)):
            q = np.asarray(q, dtype=float)
            if q.shape != (m, m) or np.any(q < 0):
                raise ValueError(f"{name} must be a nonnegative (m, m) matrix")
            if np.any(np.abs(np.sum(q, axis=1) - 1.0) > _MASS_TOL):
                raise ValueError(f"{name} rows must sum to 1")

    @property
    def u1(self):
        return 1.0 - self.u0

    def _kernel(self, opposite):
        """Rows: anchors; columns: neighbor mass over the opposite support."""
        present = opposite > 0
        if not np.any(present):
            raise ValueError("opposite arm has empty support")
        d = np.abs(self.xs[:, None] - self.xs[None, :])
        logits = np.where(present[None, :], -self.lam * d, -np.inf)
        z = np.exp(logits - np.max(logits, axis=1, keepdims=True))
        return z / np.sum(z, axis=1, keepdims=True)

    def r0(self, x):
        return P.polyval(x, self.r0_coeffs)

    def r1(self, x):
        return P.polyval(x, self.r1_coeffs)


def scene_functionals(scene: FiniteScene) -> dict:
    """All risk functionals of the scene as exact sums over the support."""
    r0 = scene.r0(scene.xs)
    r1 = scene.r1(scene.xs)
    p_mix = scene.u0 * scene.p0 + scene.u1 * scene.p1

    eps_f0 = float(np.sum(r0**2 * scene.p0))
    eps_f1 = float(np.sum(r1**2 * scene.p1))
    eps_ite = float(np.sum((r1 - r0) ** 2 * p_mix))

    # pair risk: anchors of arm t against their opposite-arm neighbors
    pair1 = np.sum(((r1[:, None] - r0[None, :]) ** 2) * scene.q1 * scene.p1[:, None])
    pair0 = np.sum(((r0[:, None] - r1[None, :]) ** 2) * scene.q0 * scene.p0[:, None])
    eps_pair = float(scene.u1 * pair1 + scene.u0 * pair0)

    g01 = np.sum((r0[None, :] - r0[:, None]) * scene.q1, axis=1)
    g10 = np.sum((r1[None, :] - r1[:, None]) * scene.q0, axis=1)
    q0_marginal = scene.p0 @ scene.q0
    q1_marginal = scene.p1 @ scene.q1

    return {
        "eps_ite": eps_ite,
        "eps_pair": eps_pair,
        "eps_f0": eps_f0,
        "eps_f1": eps_f1,
        "g01": g01,
        "g10": g10,
        "q0_marginal": q0_marginal,
        "q1_marginal": q1_marginal,
    }


def verify_lemma_identity(scene: FiniteScene) -> dict:
    """Exact decomposition of (ITE risk - pair risk) into the marginal-gap
    term and the residual-gap term; `gap` is the defect of the identity."""
    f = scene_functionals(scene)
    r0 = scene.r0(scene.xs)
    r1 = scene.r1(scene.xs)
    term1 = scene.u0 * np.sum(r1**2 * (scene.p0 - f["q0_marginal"])) + (
        scene.u1 * np.sum(r0**2 * (scene.p1 - f["q1_marginal"]))
    )
    term2 = 2.0 * scene.u1 * np.sum(r1 * f["g01"] * scene.p1) + (
        2.0 * scene.u0 * np.sum(r0 * f["g10"] * scene.p0)
    )
    lhs = f["eps_ite"] - f["eps_pair"]
    rhs = float(term1 + term2)
    return {"lhs": lhs, "rhs": rhs, "gap": abs(lhs - rhs)}


def _poly_abs_max(coeffs, lo, hi) -> float:
    """Exact max of |polynomial| on [lo, hi] via critical points."""
    pts = [lo, hi]
    deriv = np.trim_zeros(np.atleast_1d(P.polyder(coeffs)), "b")
    if len(deriv) >= 2:
        for r in np.atleast_1d(P.polyroots(deriv)):
            if abs(r.imag) < 1e-12 and lo <= r.real <= hi:
                pts.append(float(r.real))
    return float(np.max(np.abs(P.polyval(np.array(pts), coeffs))))


def _w1_discrete(xs, mass_a, mass_b) -> float:
    order = np.argsort(xs)
    x = xs[order]
    ca = np.cumsum(mass_a[order])
    cb = np.cumsum(mass_b[order])
    return float(np.sum(np.abs(ca[:-1] - cb[:-1]) * np.diff(x)))


def verify_ite_bound(scene: FiniteScene) -> dict:
    """Check ITE risk <= pair risk + sum_t u_t (B W1(p_t, q_t)
    + 2 K_{1-t} delta sqrt(eps_F^t)) with exact constants.

    K_t is the Lipschitz constant of r_t on the support hull, B the larger
    Lipschitz constant of r_t^2, and delta the max expected neighbor distance
    over anchors (absolute distance; the squared variant is also reported).
    Also evaluates the factual-loss counterpart bound for comparison.
    """
    f = scene_functionals(scene)
    lo, hi = float(np.min(scene.xs)), float(np.max(scene.xs))

    k0 = _poly_abs_max(P.polyder(scene.r0_coeffs), lo, hi)
    k1 = _poly_abs_max(P.polyder(scene.r1_coeffs), lo, hi)
    b = max(
        _poly_abs_max(P.polyder(P.polymul(scene.r0_coeffs, scene.r0_coeffs)), lo, hi),
        _poly_abs_max(P.polyder(P.polymul(scene.r1_coeffs, scene.r1_coeffs)), lo, hi),
    )

    d = np.abs(scene.xs[:, None] - scene.xs[None, :])
    exp_dist = []
    exp_dist_sq = []
    for q, p in ((scene.q0, scene.p0), (scene.q1, scene.p1)):
        anchors = p > 0
        if np.any(anchors):
            exp_dist.append(np.max(np.sum(d[anchors] * q[anchors], axis=1)))
            exp_dist_sq.append(np.max(np.sum(d[anchors] ** 2 * q[anchors], axis=1)))
    delta = float(max(exp_dist))
    delta_sq = float(max(exp_dist_sq))

    w1_0 = _w1_discrete(scene.xs, scene.p0, f["q0_marginal"])
    w1_1 = _w1_discrete(scene.xs, scene.p1, f["q1_marginal"])
    ipm_term = scene.u0 * w1_0 + scene.u1 * w1_1
    bound = f["eps_pair"] + (
        scene.u0 * (b * w1_0 + 2.0 * k1 * delta * np.sqrt(f["eps_f0"]))
        + scene.u1 * (b * w1_1 + 2.0 * k0 * delta * np.sqrt(f["eps_f1"]))
    )
    w1_p0_p1 = _w1_discrete(scene.xs, scene.p0, scene.p1)
    factual_bound = 2.0 * (f["eps_f0"] + f["eps_f1"] + b * w1_p0_p1)

    return {
        "eps_ite": f["eps_ite"],
        "eps_pair": f["eps_pair"],
        "bound": float(bound),
        "margin": float(bound - f["eps_ite"]),
        "holds": bool(f["eps_ite"] <= bound + 1e-12),
        "factual_bound": float(factual_bound),
        "ipm_term": float(ipm_term),
        "w1_p0_p1": float(w1_p0_p1),
        "k0": k0,
        "k1": k1,
        "b": b,
        "delta": delta,
        "delta_sq": delta_sq,
    }


def random_scene(rng, max_degree=3) -> FiniteScene:
    """A randomized valid scene: random support, masses, polynomials."""
    m = int(rng.integers(3, 9))
    xs = np.sort(rng.uniform(-2.0, 2.0, size=m))
    p0 = rng.uniform(0.05, 1.0, size=m)
    p1 = rng.uniform(0.05, 1.0, size=m)
    # knock out some support points per arm, keeping each arm populated
    for p in (p0, p1):
        drop = rng.uniform(size=m) < 0.3
        if np.all(drop):
            drop[rng.integers(m)] = False
        p[drop] = 0.0
    p0 /= np.sum(p0)
    p1 /= np.sum(p1)
    deg = int(rng.integers(1, max_degree + 1))
    return FiniteScene(
        xs=xs,
        p0=p0,
        p1=p1,
        u0=float(rng.uniform(0.2, 0.8)),
        r0_coeffs=rng.normal(0.0, 0.7, size=deg + 1),
        r1_coeffs=rng.normal(0.0, 0.7, size=deg + 1),
        lam=float(rng.uniform(0.2, 3.0)),
    )


def confounded_scene(rng) -> FiniteScene:
    """Overlapping but well-separated arm distributions on a shared grid,
    with a proximity-greedy kernel; used for the IPM-term ordering check."""
    xs = np.linspace(-2.0, 2.0, 21)
    p0 = np.exp(-((xs + 1.0) ** 2) / (2.0 * 0.35**2))
    p1 = np.exp(-((xs - 1.0) ** 2) / (2.0 * 0.35**2))
    return FiniteScene(
        xs=xs,
        p0=p0 / np.sum(p0),
        p1=p1 / np.sum(p1),
        u0=float(rng.uniform(0.35, 0.65)),
        r0_coeffs=rng.normal(0.0, 0.5, size=2),
        r1_coeffs=rng.normal(0.0, 0.5, size=2),
        lam=6.0,
    )


# ---------------------------------------------------------------------------
# Consistency sweep

STRICT = "strict"
VIOLATED = "violated"


def _sweep_dataset(n, overlap, rng) -> Dataset:
    if overlap == STRICT:
        x = rng.normal(0.0, 1.0, size=n)
        propensity = np.clip(1.0 / (1.0 + np.exp(-2.0 * x)), 0.1, 0.9)
        t = (rng.uniform(size=n) < propensity).astype(float)
    elif overlap == VIOLATED:
        half = n // 2
        x = np.concatenate([
            rng.uniform(-3.0, -1.0, size=n - half),
            rng.uniform(1.0, 3.0, size=half),
        ])
        t = np.concatenate([np.zeros(n - half), np.ones(half)])
    else:
        raise ValueError(f"unknown overlap regime {overlap!r}")

    # pairs and the W1 rows read only x and t
    return Dataset(x=x[:, None], t=t, y=np.zeros(n), mode="binary")


def consistency_sweep(sizes=(100, 400, 1600, 6400), overlap=STRICT,
                      seed=0) -> list[dict]:
    """Neighbor-distance shrinkage as the sample grows.

    The kernel temperature is large (near nearest-neighbor pairing)
    because the shrinking-neighborhood argument is about distance-greedy
    pairs; a fixed moderate temperature converges to a fixed non-degenerate
    neighbor distribution instead, and its expected distance plateaus.
    """
    pairing_config = PairingConfig(temperature=1e6)
    rows = []
    for n in sizes:
        rng = np.random.default_rng([derive_seed("sweep", seed, n)])
        ds = _sweep_dataset(n, overlap, rng)
        provider = IdentityEmbedding(ds.dim)
        pairs = create_pair_ds(ds, ds, pairing_config, provider,
                               derive_seed("sweep-pairs", seed, n))
        diag = neighbor_diagnostics(pairs)
        row = {
            "n": int(n),
            "delta_hat": diag["delta_hat"],
            "delta_hat_sq": diag["delta_hat_sq"],
            "mean_distance": diag["mean_distance"],
        }
        for g in (0, 1):
            sel = pairs.t == g
            row[f"w1_{g}"] = (
                wasserstein1_1d(ds.x[ds.t == g, 0], pairs.xp[sel, 0])
                if np.any(sel) else float("nan")
            )
        rows.append(row)
    return rows


def verify(suite, scenes, seed) -> dict:
    """Run one check suite, or "all", and report each under its name with
    an `ok` verdict.  lemma: the identity's defect stays within 1e-10 on
    `scenes` random scenes.  bound: the bound holds on `scenes` random
    linear-residual scenes, and the IPM term stays below W1(p_0, p_1) on
    ten confounded ones.  sweep (no scenes): delta_hat at least halves
    from n = 100 to 6400 under strict overlap and keeps over 90 % of its
    value without overlap."""
    if suite not in ("all", "lemma", "bound", "sweep"):
        raise ValueError(f"unknown verify suite {suite!r}")
    out = {}
    if suite in ("all", "lemma"):
        rng = np.random.default_rng(seed)
        max_gap = max(verify_lemma_identity(random_scene(rng))["gap"]
                      for _ in range(scenes))
        out["lemma"] = {"scenes": scenes, "max_gap": max_gap,
                        "ok": max_gap <= 1e-10}
    if suite in ("all", "bound"):
        rng = np.random.default_rng(seed + 1)
        results = [verify_ite_bound(random_scene(rng, max_degree=1))
                   for _ in range(scenes)]
        rng = np.random.default_rng(seed + 2)
        confounded = [verify_ite_bound(confounded_scene(rng)) for _ in range(10)]
        tighter = [res["ipm_term"] < res["w1_p0_p1"] for res in confounded]
        all_hold = all(res["holds"] for res in results)
        out["bound"] = {
            "scenes": scenes,
            "all_hold": all_hold,
            "min_margin": min(res["margin"] for res in results),
            "confounded_tighter": int(sum(tighter)),
            "ok": all_hold and all(tighter),
        }
    if suite in ("all", "sweep"):
        rows = consistency_sweep(seed=seed)
        control = consistency_sweep(overlap=VIOLATED, seed=seed)
        ratio = rows[-1]["delta_hat"] / rows[0]["delta_hat"]
        control_ratio = control[-1]["delta_hat"] / control[0]["delta_hat"]
        out["sweep"] = {
            "delta_ratio": ratio,
            "violated_delta_ratio": control_ratio,
            "rows": rows,
            "ok": ratio < 0.5 and control_ratio > 0.9,
        }
    return out
