"""Executable checks of the risk identities on finite supports.

`risk_terms` computes every risk functional as exact sums over arrays:
residuals r_0/r_1, arm masses p_0/p_1, the control share u_0 and the
row-stochastic neighbor kernels q_0/q_1.  So the identity between the ITE
risk and the pair risk holds to floating-point accuracy on any finite
support, a trained model's held-out rows included.  A 1-D `FiniteScene`
produces those arrays from polynomial residuals and a softmax kernel of
|x - x'|; its polynomials also give the upper bound exact Lipschitz
constants, beside exact 1-D Wasserstein distances.

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


def softmax_kernel(d, opposite, lam) -> np.ndarray:
    """Rows of d are anchors; each row is a softmax of -lam * d over the
    columns where the opposite-arm mask `opposite` is set."""
    if not np.any(opposite):
        raise ValueError("opposite arm has empty support")
    logits = np.where(opposite[None, :], -lam * d, -np.inf)
    z = np.exp(logits - np.max(logits, axis=1, keepdims=True))
    return z / np.sum(z, axis=1, keepdims=True)


@dataclass
class FiniteScene:
    xs: np.ndarray                 # support points, 1-D
    p0: np.ndarray                 # covariate mass of the control arm
    p1: np.ndarray                 # covariate mass of the treated arm
    u0: float                      # control marginal; u1 = 1 - u0
    r0_coeffs: np.ndarray          # residual polynomials, ascending coeffs
    r1_coeffs: np.ndarray
    lam: float = 1.0               # kernel sharpness

    def __post_init__(self):
        for name in ("xs", "p0", "p1", "r0_coeffs", "r1_coeffs"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        for name in ("xs", "p0", "p1", "r0_coeffs", "r1_coeffs", "lam"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        m = len(self.xs)
        for name, mass in (("p0", self.p0), ("p1", self.p1)):
            if mass.shape != (m,) or np.any(mass < 0):
                raise ValueError(f"{name} must be a nonnegative vector over the support")
            if abs(np.sum(mass) - 1.0) > _MASS_TOL:
                raise ValueError(f"{name} must sum to 1")
        if not 0.0 <= self.u0 <= 1.0:
            raise ValueError("u0 must lie in [0, 1]")

    def arrays(self) -> tuple:
        """The arguments of `risk_terms`: (r0, r1, p0, p1, u0, q0, q1)."""
        d = np.abs(self.xs[:, None] - self.xs[None, :])
        return (P.polyval(self.xs, self.r0_coeffs),
                P.polyval(self.xs, self.r1_coeffs), self.p0, self.p1, self.u0,
                softmax_kernel(d, self.p1 > 0, self.lam),
                softmax_kernel(d, self.p0 > 0, self.lam))


def risk_terms(r0, r1, p0, p1, u0, q0, q1) -> dict:
    """Every risk functional of a finite support as exact sums, and the
    decomposition of (ITE risk - pair risk) into the marginal-gap term and
    the residual-gap term; `gap` is the defect of that identity.  The
    kernels must be row-stochastic for the identity to hold."""
    u1 = 1.0 - u0
    p_mix = u0 * p0 + u1 * p1

    eps_f0 = float(np.sum(r0**2 * p0))
    eps_f1 = float(np.sum(r1**2 * p1))
    eps_ite = float(np.sum((r1 - r0) ** 2 * p_mix))

    # pair risk: anchors of arm t against their opposite-arm neighbors
    pair1 = np.sum(((r1[:, None] - r0[None, :]) ** 2) * q1 * p1[:, None])
    pair0 = np.sum(((r0[:, None] - r1[None, :]) ** 2) * q0 * p0[:, None])
    eps_pair = float(u1 * pair1 + u0 * pair0)

    g01 = np.sum((r0[None, :] - r0[:, None]) * q1, axis=1)
    g10 = np.sum((r1[None, :] - r1[:, None]) * q0, axis=1)
    q0_marginal = p0 @ q0
    q1_marginal = p1 @ q1

    marginal_gap = (u0 * np.sum(r1**2 * (p0 - q0_marginal))
                    + u1 * np.sum(r0**2 * (p1 - q1_marginal)))
    residual_gap = (2.0 * u1 * np.sum(r1 * g01 * p1)
                    + 2.0 * u0 * np.sum(r0 * g10 * p0))
    lhs = eps_ite - eps_pair
    rhs = float(marginal_gap + residual_gap)
    return {
        "eps_ite": eps_ite, "eps_pair": eps_pair,
        "eps_f0": eps_f0, "eps_f1": eps_f1,
        "q0_marginal": q0_marginal, "q1_marginal": q1_marginal,
        "marginal_gap": float(marginal_gap),
        "residual_gap": float(residual_gap),
        "lhs": lhs, "rhs": rhs, "gap": abs(lhs - rhs),
    }


def verify_lemma_identity(scene: FiniteScene) -> dict:
    """The risk identity on a scene: `lhs` (ITE risk - pair risk), `rhs`
    (the sum of its two correction terms) and their defect `gap`."""
    f = risk_terms(*scene.arrays())
    return {key: f[key] for key in ("lhs", "rhs", "gap")}


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
    over anchors.  ipm_term (sum_t u_t W1(p_t, q_t)) is reported beside
    W1(p_0, p_1) for the confounded-scene ordering check.
    """
    arrays = scene.arrays()
    _, _, p0, p1, u0, q0, q1 = arrays
    u1 = 1.0 - u0
    f = risk_terms(*arrays)
    lo, hi = float(np.min(scene.xs)), float(np.max(scene.xs))

    k0 = _poly_abs_max(P.polyder(scene.r0_coeffs), lo, hi)
    k1 = _poly_abs_max(P.polyder(scene.r1_coeffs), lo, hi)
    b = max(
        _poly_abs_max(P.polyder(P.polymul(scene.r0_coeffs, scene.r0_coeffs)), lo, hi),
        _poly_abs_max(P.polyder(P.polymul(scene.r1_coeffs, scene.r1_coeffs)), lo, hi),
    )

    # every arm has mass, so every arm has anchors
    d = np.abs(scene.xs[:, None] - scene.xs[None, :])
    delta = float(max(np.max(np.sum(d[p > 0] * q[p > 0], axis=1))
                      for q, p in ((q0, p0), (q1, p1))))

    w1_0 = _w1_discrete(scene.xs, p0, f["q0_marginal"])
    w1_1 = _w1_discrete(scene.xs, p1, f["q1_marginal"])
    ipm_term = u0 * w1_0 + u1 * w1_1
    bound = f["eps_pair"] + (
        u0 * (b * w1_0 + 2.0 * k1 * delta * np.sqrt(f["eps_f0"]))
        + u1 * (b * w1_1 + 2.0 * k0 * delta * np.sqrt(f["eps_f1"]))
    )
    return {
        "eps_ite": f["eps_ite"],
        "eps_pair": f["eps_pair"],
        "bound": float(bound),
        "margin": float(bound - f["eps_ite"]),
        "holds": bool(f["eps_ite"] <= bound + 1e-12),
        "ipm_term": float(ipm_term),
        "w1_p0_p1": _w1_discrete(scene.xs, p0, p1),
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
