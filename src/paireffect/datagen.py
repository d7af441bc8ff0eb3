"""Synthetic dataset generators with ground-truth outcome oracles, plus CSV I/O.

Datasets carry stable row ids and a source token so that downstream pair
construction can exclude an anchor from its own candidate pool only when the
two datasets actually descend from the same table.  The token is a hash of
the table's content, so the same table loaded twice is still one source.

Noise convention: where a recipe says N(0, v), v is a variance.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

BINARY = "binary"
CONTINUOUS = "continuous"


class MissingGroundTruth(RuntimeError):
    pass


class DegenerateRow(ValueError):
    pass


@dataclass
class Oracle:
    """Noiseless potential-outcome function evaluated on dataset rows.

    fn(ids, x, t) -> outcomes; ids are original row numbers so that per-row
    generator state (e.g. resampled projections) survives subsetting.
    """

    fn: object
    noise_sd: float = 0.0
    descriptor: dict | None = None
    resampled_rows: int = 0


@dataclass
class Dataset:
    """Rows (x, t, y) with stable ids, checked once on construction; slice
    subsets and pair sets read the arrays in place, so never change them."""

    x: np.ndarray
    t: np.ndarray
    y: np.ndarray
    mode: str = BINARY
    ids: np.ndarray | None = None
    source: str = ""
    oracle: Oracle | None = None

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        self.t = np.asarray(self.t, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        for name, ndim in (("x", 2), ("t", 1), ("y", 1)):
            if getattr(self, name).ndim != ndim:
                raise ValueError(f"dataset {name} must be {ndim}-D")
        if len(self.x) < 1:
            raise ValueError("dataset must contain at least one row")
        if not (len(self.x) == len(self.t) == len(self.y)):
            raise ValueError("covariates, treatments, outcomes must align")
        for name in ("x", "t", "y"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"dataset {name} holds non-finite values")
        if self.mode == BINARY:
            if not np.all((self.t == 0) | (self.t == 1)):
                raise ValueError("binary treatments must be 0 or 1")
        elif self.mode == CONTINUOUS:
            if np.any(self.t < 0) or np.any(self.t > 1):
                raise ValueError("continuous treatments must lie in [0, 1]")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.ids is None:
            self.ids = np.arange(len(self.x))
        self.ids = np.asarray(self.ids, dtype=int)
        if self.ids.shape != self.t.shape:
            raise ValueError(f"dataset ids must have shape {self.t.shape}")
        if len(np.unique(self.ids)) != len(self.ids):
            raise ValueError("dataset ids must be unique")
        if not self.source:
            h = hashlib.sha256(repr(self.x.shape).encode())
            for arr in (self.ids, self.x, self.t, self.y):
                h.update(np.ascontiguousarray(arr).tobytes())
            self.source = f"ds-{h.hexdigest()[:16]}"

    def __len__(self):
        return len(self.x)

    @property
    def dim(self):
        return self.x.shape[1]

    def subset(self, idx) -> "Dataset":
        """Rows idx (an index array, or a slice for views) with this table's
        mode, source and oracle, and without checking them again."""
        sub = copy.copy(self)
        sub.x, sub.t, sub.y, sub.ids = (
            self.x[idx], self.t[idx], self.y[idx], self.ids[idx])
        if len(sub) < 1:
            raise ValueError("dataset must contain at least one row")
        return sub

    def true_mu(self, t) -> np.ndarray:
        """Noiseless outcome of every row under treatment(s) t."""
        if self.oracle is None:
            raise MissingGroundTruth("dataset carries no outcome oracle")
        tv = np.broadcast_to(np.asarray(t, dtype=float), (len(self),))
        return np.asarray(self.oracle.fn(self.ids, self.x, tv), dtype=float)

    def true_ite(self, t, t_prime) -> np.ndarray:
        return self.true_mu(t) - self.true_mu(t_prime)


# ---------------------------------------------------------------------------
# Gaussian-process toy


def gp_factor(xs, width) -> np.ndarray:
    """Cholesky factor of the kernel exp(-(a-b)^2 / (2 width^2)) on xs,
    with escalating diagonal jitter (1e-10 .. 1e-4)."""
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("grid points must be finite")
    if width <= 0:
        raise ValueError("width must be positive")
    diff = xs[:, None] - xs[None, :]
    k = np.exp(-(diff**2) / (2.0 * width**2))
    jitter = 1e-10
    while jitter <= 1e-4:
        try:
            return np.linalg.cholesky(k + jitter * np.eye(len(xs)))
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise RuntimeError("kernel factorization failed at max jitter 1e-4")


# The effect length-scale is below the outcome's, i.e. the effect surface is
# the rougher one; with a long effect length-scale the evaluation location
# stops mattering and the losses' risk correlations collapse onto each
# other.  Candidates are drawn with the same length-scales as the truth.
GP_WIDTH_OUTCOME = 1.0      # length-scale of the base outcome
GP_WIDTH_EFFECT = 0.5       # length-scale of the effect
GP_BASE_MEAN = -1.0         # covariate mean of the control group


@dataclass
class GPToyConfig:
    shift: float = 1.5              # confounding shift between group means
    # Unbalanced arms: with a scarce treated arm the factual loss barely
    # weights the effect error, while every control anchor still pulls a
    # treated neighbour, so the loss variants separate cleanly.
    n0: int = 750
    n1: int = 250
    noise_sd: float = 0.1
    grid_points: int = 512
    seed: int = 0

    def __post_init__(self):
        if self.n0 < 1 or self.n1 < 1:
            raise ValueError("group counts must be >= 1")


@dataclass
class GPToy:
    """A drawn toy world: 1-D grid functions plus an observational sample."""

    config: GPToyConfig
    grid: np.ndarray
    mu0: np.ndarray         # true base outcome on the grid
    tau: np.ndarray         # true effect on the grid
    weights: np.ndarray     # covariate mixture density on the grid
    dataset: Dataset
    factors: tuple          # gp_factor of the outcome and effect widths

    def draw_candidate(self, rng):
        """A candidate (base outcome, effect) pair on the same grid."""
        f_out, f_eff = self.factors
        mu0_hat = f_out @ rng.standard_normal(len(self.grid))
        tau_hat = f_eff @ rng.standard_normal(len(self.grid))
        return mu0_hat, tau_hat

    def mu_values(self, x, t, mu0_grid=None, tau_grid=None):
        mu0_grid = self.mu0 if mu0_grid is None else mu0_grid
        tau_grid = self.tau if tau_grid is None else tau_grid
        base = np.interp(x, self.grid, mu0_grid)
        eff = np.interp(x, self.grid, tau_grid)
        return base + np.asarray(t, dtype=float) * eff


def ite_risk_quadrature(grid, weights, tau_true, tau_hat) -> float:
    """Mean absolute effect error under the covariate density, by trapezoid
    quadrature on the grid (weights renormalized to correct truncation)."""
    w = np.asarray(weights, dtype=float)
    gaps = np.gradient(np.asarray(grid, dtype=float))
    mass = np.sum(w * gaps)
    return float(np.sum(np.abs(tau_true - tau_hat) * w * gaps) / mass)


def _normal_pdf(x, mean, sd):
    return np.exp(-0.5 * ((x - mean) / sd) ** 2) / (sd * np.sqrt(2.0 * np.pi))


def gen_gp_toy(config: GPToyConfig) -> GPToy:
    rng = np.random.default_rng(config.seed)
    lo = GP_BASE_MEAN - 4.0
    hi = GP_BASE_MEAN + config.shift + 4.0
    grid = np.linspace(lo, hi, config.grid_points)
    # candidates share the truth's widths, so one factorization serves both
    factors = (gp_factor(grid, GP_WIDTH_OUTCOME), gp_factor(grid, GP_WIDTH_EFFECT))
    mu0 = factors[0] @ rng.standard_normal(len(grid))
    tau = factors[1] @ rng.standard_normal(len(grid))

    x0 = rng.normal(GP_BASE_MEAN, 1.0, size=config.n0)
    x1 = rng.normal(GP_BASE_MEAN + config.shift, 1.0, size=config.n1)
    x = np.concatenate([x0, x1])
    t = np.concatenate([np.zeros(config.n0), np.ones(config.n1)])
    mu_obs = np.interp(x, grid, mu0) + t * np.interp(x, grid, tau)
    y = mu_obs + rng.normal(0.0, config.noise_sd, size=len(x))

    n = config.n0 + config.n1
    weights = (config.n0 / n) * _normal_pdf(grid, GP_BASE_MEAN, 1.0) + (
        config.n1 / n
    ) * _normal_pdf(grid, GP_BASE_MEAN + config.shift, 1.0)

    def oracle_fn(ids, xs, tv, _grid=grid, _mu0=mu0.copy(), _tau=tau.copy()):
        base = np.interp(xs[:, 0], _grid, _mu0)
        return base + tv * np.interp(xs[:, 0], _grid, _tau)

    ds = Dataset(
        x=x[:, None],
        t=t,
        y=y,
        mode=BINARY,
        oracle=Oracle(fn=oracle_fn, noise_sd=config.noise_sd),
    )
    return GPToy(config=config, grid=grid, mu0=mu0, tau=tau, weights=weights,
                 dataset=ds, factors=factors)


def gen_gaussian_confounded(u, s, n0, n1, rng) -> Dataset:
    """1-D covariates only: group t=0 from N(u,1), t=1 from N(u+s,1);
    outcomes are zero-filled."""
    if n0 < 1 or n1 < 1:
        raise ValueError("group counts must be >= 1")
    x0 = rng.normal(u, 1.0, size=n0)
    x1 = rng.normal(u + s, 1.0, size=n1)
    x = np.concatenate([x0, x1])[:, None]
    t = np.concatenate([np.zeros(n0), np.ones(n1)])
    return Dataset(x=x, t=t, y=np.zeros(n0 + n1), mode=BINARY)


# ---------------------------------------------------------------------------
# Polynomial synthetic (binary treatments)


def _monomials(n_vars, max_degree):
    out = []
    for deg in range(max_degree + 1):
        out.extend(itertools.combinations_with_replacement(range(n_vars), deg))
    return out


def _eval_poly(x, monomials, coeffs):
    vals = np.zeros(len(x))
    for mono, c in zip(monomials, coeffs):
        term = np.ones(len(x)) * c
        for j in mono:
            term = term * x[:, j]
        vals += term
    return vals


def gen_polynomial_synth(n, rng, propensity_strength=1.0) -> Dataset:
    """Confounded polynomial benchmark.

    Covariates are 10 standard normals; the base outcome is a random degree-3
    polynomial and the effect a random degree-2 polynomial, both on the first
    5 covariates and rescaled to unit sample deviation so the 0.1 outcome
    noise gives a signal-to-noise ratio near 10.  Treatment is logistic in a
    random direction of the relevant covariates.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    relevant_dims, noise_sd = 5, 0.1
    x = rng.standard_normal((n, 10))
    xr = x[:, :relevant_dims]

    mono3 = _monomials(relevant_dims, 3)
    mono2 = _monomials(relevant_dims, 2)
    c_mu = rng.standard_normal(len(mono3))
    c_tau = rng.standard_normal(len(mono2))

    mu0_raw = _eval_poly(xr, mono3, c_mu)
    tau_raw = _eval_poly(xr, mono2, c_tau)
    scale_mu = max(np.std(mu0_raw), 1e-12)
    scale_tau = max(np.std(tau_raw), 1e-12)
    c_mu = c_mu / scale_mu
    c_tau = c_tau / scale_tau

    w = rng.standard_normal(relevant_dims)
    w = w / np.linalg.norm(w)
    propensity = 1.0 / (1.0 + np.exp(-propensity_strength * (xr @ w)))
    t = (rng.uniform(size=n) < propensity).astype(float)

    def oracle_fn(ids, xs, tv, _m3=mono3, _m2=mono2, _c3=c_mu.copy(),
                  _c2=c_tau.copy(), _k=relevant_dims):
        base = _eval_poly(xs[:, :_k], _m3, _c3)
        eff = _eval_poly(xs[:, :_k], _m2, _c2)
        return base + tv * eff

    ids = np.arange(n)
    y = oracle_fn(ids, x, t) + rng.normal(0.0, noise_sd, size=n)
    return Dataset(
        x=x, t=t, y=y, mode=BINARY,
        oracle=Oracle(fn=oracle_fn, noise_sd=noise_sd),
    )


# ---------------------------------------------------------------------------
# Continuous-treatment response families

IHDP_CONT = "ihdp_cont"
NEWS = "news"
TCGA0 = "tcga0"
TCGA1 = "tcga1"
TCGA2 = "tcga2"
FAMILIES = (IHDP_CONT, NEWS, TCGA0, TCGA1, TCGA2)

# 0-indexed covariate index sets for the 25-column IHDP recipe
_IHDP_DIS1 = [3, 6, 7, 8, 9, 10, 11, 12, 13, 14]
_IHDP_DIS2 = [15, 16, 17, 18, 19, 20, 21, 22, 23, 24]

_PROJ_EPS = 1e-8


def _unit_directions(rng, d, k=3):
    v = rng.standard_normal((k, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _ihdp_response(x, t, c1):
    s1 = x[:, _IHDP_DIS1]
    factor = np.tanh(5.0 * np.mean(s1 - c1, axis=1))
    wave = np.sin(3.0 * np.pi * t) / (1.2 - t)
    bump = np.exp(0.2 * (x[:, 0] - x[:, 5])) / (
        0.5 + 5.0 * np.minimum(np.minimum(x[:, 1], x[:, 2]), x[:, 4])
    )
    return wave * factor + bump


def _news_response(p1, p2, p3, t):
    y_star = np.exp(p2 / p3 - 0.3)
    return 2.0 * (np.clip(y_star, -2.0, 2.0) + 20.0 * p1) * (
        4.0 * (t - 0.5) ** 2 + np.sin(0.5 * np.pi * t)
    )


def _tcga_response(family, p1, p2, p3, t):
    if family == TCGA0:
        return 10.0 * (p1 + 12.0 * t * p3 - 12.0 * t**2 * p3)
    if family == TCGA1:
        return 10.0 * (p1 + np.sin(np.pi * (p2 / p3) * t))
    ratio = p2 / p3
    return 10.0 * (p1 + 12.0 * t * (t - 0.75 * ratio) ** 2)


def _tcga_optimal_dose(family, p1, p2, p3):
    if family == TCGA0:
        return p2 / (2.0 * p3)
    if family == TCGA1:
        return p3 / (2.0 * p2)
    ratio = p2 / p3
    return np.where(ratio >= 1.0, 0.25 * ratio, 1.0)


def _beta_from_mode(alpha, mode):
    return (alpha - 1.0) / mode + 2.0 - alpha


def gen_continuous_response(covariates, family, dosage_bias=2.0,
                            noise_scale=1.0, rng=None) -> Dataset:
    """Attach a continuous treatment and synthetic response to given covariates.

    Projection-based families (news, tcga*) draw three normalized Gaussian
    directions; rows whose projections make a denominator or Beta parameter
    degenerate get their projection triple rejection-resampled from another
    valid row, with a counter on the returned oracle.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    x = np.atleast_2d(np.asarray(covariates, dtype=float))
    n, d = x.shape

    if family == IHDP_CONT:
        return _gen_ihdp_cont(x, noise_scale, rng)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if d < 3:
        raise ValueError("projection families need covariate dimension >= 3")

    v = _unit_directions(rng, d)
    proj = x @ v.T  # (n, 3)

    def degenerate(p):
        p1, p2, p3 = p[:, 0], p[:, 1], p[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            if family == NEWS:
                beta_b = np.abs(p3 / (2.0 * p2))
                return (np.abs(p2) < _PROJ_EPS) | (np.abs(p3) < _PROJ_EPS) | (
                    beta_b < _PROJ_EPS
                )
            dose = _tcga_optimal_dose(family, p1, p2, p3)
            beta_param = _beta_from_mode(dosage_bias, dose)
            bad = (np.abs(p3) < _PROJ_EPS) | (dose <= _PROJ_EPS)
            bad |= ~np.isfinite(beta_param) | (beta_param <= _PROJ_EPS)
            if family == TCGA1:
                bad |= np.abs(p2) < _PROJ_EPS
        return bad

    bad = degenerate(proj)
    overrides: dict[int, list[float]] = {}
    good_rows = np.flatnonzero(~bad)
    if len(good_rows) == 0 and np.any(bad):
        raise DegenerateRow("every row degenerate for family " + family)
    for i in np.flatnonzero(bad):
        for _ in range(100):
            j = good_rows[rng.integers(len(good_rows))]
            cand = proj[j] + 0.0
            if not degenerate(cand[None, :])[0]:
                proj[i] = cand
                overrides[int(i)] = [float(c) for c in cand]
                break
        else:
            raise DegenerateRow(f"row {i} could not be resampled")

    p1, p2, p3 = proj[:, 0], proj[:, 1], proj[:, 2]
    if family == NEWS:
        t = rng.beta(2.0, np.abs(p3 / (2.0 * p2)))
        noiseless = _news_response(p1, p2, p3, t)
        # noise enters the second factor of the response product, so the
        # effective residual scale is per-row; declare its rms
        gain = 2.0 * (np.clip(np.exp(p2 / p3 - 0.3), -2.0, 2.0) + 20.0 * p1)
        noise = rng.normal(0.0, noise_scale * np.sqrt(0.5), size=n)
        y = noiseless + gain * noise
        base_sd = np.sqrt(0.5) * np.sqrt(np.mean(gain**2))
    else:
        dose_star = _tcga_optimal_dose(family, p1, p2, p3)
        beta_param = _beta_from_mode(dosage_bias, dose_star)
        t = rng.beta(dosage_bias, beta_param)
        base_sd = np.sqrt(0.2)
        noiseless = _tcga_response(family, p1, p2, p3, t)
        y = noiseless + rng.normal(0.0, noise_scale * base_sd, size=n)

    descriptor = {
        "family": family,
        "dosage_bias": dosage_bias,
        "noise_scale": noise_scale,
        "noise_sd": float(noise_scale * base_sd),
        "v": v.tolist(),
        "overrides": {str(k): val for k, val in overrides.items()},
    }
    return Dataset(x=x, t=t, y=y, mode=CONTINUOUS,
                   oracle=_oracle_from_descriptor(descriptor))


def _gen_ihdp_cont(x, noise_scale, rng):
    n, d = x.shape
    if d != 25:
        raise ValueError("this recipe expects exactly 25 covariate columns")
    c1 = float(np.mean(x[:, _IHDP_DIS1]))
    c2 = float(np.mean(x[:, _IHDP_DIS2]))
    for name, den in (
        ("1 + x1", 1.0 + x[:, 1]),
        ("0.2 + min(x2,x4,x5)", 0.2 + np.minimum(np.minimum(x[:, 2], x[:, 4]), x[:, 5])),
        ("0.5 + 5 min(x1,x2,x4)", 0.5 + 5.0 * np.minimum(np.minimum(x[:, 1], x[:, 2]), x[:, 4])),
    ):
        if np.any(np.abs(den) < 1e-12):
            raise DegenerateRow(f"zero denominator in {name}")

    s2 = x[:, _IHDP_DIS2]
    t_tilde = (
        2.0 * x[:, 0] / (1.0 + x[:, 1])
        + 2.0 * np.maximum(np.maximum(x[:, 2], x[:, 4]), x[:, 5])
        / (0.2 + np.minimum(np.minimum(x[:, 2], x[:, 4]), x[:, 5]))
        + 2.0 * np.tanh(
            5.0 * np.mean(s2 - c2, axis=1) - 4.0
            + rng.normal(0.0, noise_scale * 0.5, size=n)
        )
    )
    t = 1.0 / (1.0 + np.exp(-t_tilde))
    base_sd = 0.5
    y = _ihdp_response(x, t, c1) + rng.normal(0.0, noise_scale * base_sd, size=n)

    descriptor = {"family": IHDP_CONT, "noise_scale": noise_scale,
                  "noise_sd": noise_scale * base_sd, "c1": c1, "c2": c2}
    return Dataset(x=x, t=t, y=y, mode=CONTINUOUS,
                   oracle=_oracle_from_descriptor(descriptor))


# ---------------------------------------------------------------------------
# Splitting and CSV plumbing


def split_stratified(ds: Dataset, val_fraction=0.3, rng=None):
    """Disjoint (train, val) split: per-treatment-group proportional for
    binary data, plain random for continuous."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must be in (0, 1)")
    if rng is None:
        rng = np.random.default_rng(0)
    n = len(ds)
    val_idx = []
    if ds.mode == BINARY:
        for g in (0.0, 1.0):
            rows = np.flatnonzero(ds.t == g)
            if len(rows) < 2:
                raise ValueError(f"treatment group {int(g)} has < 2 members")
            take = int(np.floor(val_fraction * len(rows) + 0.5))
            take = min(max(take, 1), len(rows) - 1)
            perm = rng.permutation(rows)
            val_idx.append(perm[:take])
        val_idx = np.concatenate(val_idx)
    else:
        take = int(np.floor(val_fraction * n + 0.5))
        take = min(max(take, 1), n - 1)
        val_idx = rng.permutation(n)[:take]
    mask = np.zeros(n, dtype=bool)
    mask[val_idx] = True
    return ds.subset(np.flatnonzero(~mask)), ds.subset(np.flatnonzero(mask))


def save_csv(ds: Dataset, path) -> None:
    """Write x0..x{d-1},t,y (+ mu0,mu1 for binary oracles; continuous oracles
    go to a '<path>.oracle.json' sidecar when they carry a descriptor)."""
    header = [f"x{j}" for j in range(ds.dim)] + ["t", "y"]
    extra = []
    if ds.oracle is not None and ds.mode == BINARY:
        header += ["mu0", "mu1"]
        extra = [ds.true_mu(0.0), ds.true_mu(1.0)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(ds)):
            row = [repr(float(v)) for v in ds.x[i]]
            row += [repr(float(ds.t[i])), repr(float(ds.y[i]))]
            row += [repr(float(col[i])) for col in extra]
            writer.writerow(row)
    if ds.oracle is not None and ds.mode == CONTINUOUS and ds.oracle.descriptor:
        with open(str(path) + ".oracle.json", "w", encoding="utf-8") as fh:
            json.dump(ds.oracle.descriptor, fh)


def load_csv(path, mode=BINARY) -> Dataset:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        x_cols = [h for h in header if h.startswith("x")]
        want_mu = "mu0" in header and "mu1" in header
        expected = len(x_cols) + 2 + (2 if want_mu else 0)
        if header[: len(x_cols)] != [f"x{j}" for j in range(len(x_cols))] or (
            header[len(x_cols):len(x_cols) + 2] != ["t", "y"]
        ):
            raise ValueError(f"{path}: header must be x0..x{{d-1}},t,y[,mu0,mu1]")
        rows, ts, ys, mu0s, mu1s = [], [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != expected:
                raise ValueError(f"{path}:{lineno}: expected {expected} fields, got {len(row)}")
            try:
                vals = [float(v) for v in row]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            d = len(x_cols)
            t = vals[d]
            if mode == BINARY and t not in (0.0, 1.0):
                raise ValueError(f"{path}:{lineno}: treatment {t} not in {{0,1}}")
            if mode == CONTINUOUS and not 0.0 <= t <= 1.0:
                raise ValueError(f"{path}:{lineno}: treatment {t} outside [0,1]")
            rows.append(vals[:d])
            ts.append(t)
            ys.append(vals[d + 1])
            if want_mu:
                mu0s.append(vals[d + 2])
                mu1s.append(vals[d + 3])
    if not rows:
        raise ValueError(f"{path}: no data rows")

    oracle = None
    if want_mu and mode == BINARY:
        table = np.column_stack([mu0s, mu1s])

        def oracle_fn(ids, xs, tv, _table=table):
            return np.where(tv == 1.0, _table[ids, 1], _table[ids, 0])

        oracle = Oracle(fn=oracle_fn)
    sidecar = str(path) + ".oracle.json"
    if mode == CONTINUOUS and os.path.exists(sidecar):
        with open(sidecar, encoding="utf-8") as fh:
            desc = json.load(fh)
        oracle = _oracle_from_descriptor(desc)
    return Dataset(x=np.array(rows), t=np.array(ts), y=np.array(ys),
                   mode=mode, oracle=oracle)


def _oracle_from_descriptor(desc) -> Oracle:
    """The continuous-family oracle a generator's descriptor records; a
    descriptor saved without noise_sd gives noise_sd 0."""
    family = desc["family"]
    noise_sd = desc.get("noise_sd", 0.0)
    if family == IHDP_CONT:
        c1 = desc["c1"]

        def fn(ids, xs, tv, _c1=c1):
            return _ihdp_response(xs, tv, _c1)

        return Oracle(fn=fn, noise_sd=noise_sd, descriptor=desc)
    v = np.array(desc["v"], dtype=float)
    overrides = {int(k): val for k, val in desc.get("overrides", {}).items()}

    def fn(ids, xs, tv, _v=v, _ov=overrides, _family=family):
        p = xs @ _v.T
        for row, vals in _ov.items():
            hit = np.flatnonzero(ids == row)
            p[hit] = vals
        if _family == NEWS:
            return _news_response(p[:, 0], p[:, 1], p[:, 2], tv)
        return _tcga_response(_family, p[:, 0], p[:, 1], p[:, 2], tv)

    return Oracle(fn=fn, noise_sd=noise_sd, descriptor=desc,
                  resampled_rows=len(overrides))
