"""Evaluation metrics and the statistics used for method comparison.

The Student-t CDF is computed from the regularized incomplete beta function
(continued fraction, Lentz iteration, 1e-12 convergence threshold) so the
package needs no statistics dependency.
"""

from __future__ import annotations

import math

import numpy as np


def pehe(tau_true, tau_pred) -> float:
    """Root mean squared error between true and predicted effects."""
    a = np.asarray(tau_true, dtype=float)
    b = np.asarray(tau_pred, dtype=float)
    if a.shape != b.shape or a.size == 0:
        raise ValueError("effect vectors must share a nonzero length")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def _sq_dists(a, b):
    aa = np.sum(a * a, axis=1)[:, None]
    bb = np.sum(b * b, axis=1)[None, :]
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


def median_heuristic(pooled) -> float:
    """Median pairwise distance of the pooled sample; deterministic stride
    subsample above 2000 points to keep the quadratic cost bounded."""
    x = np.atleast_2d(np.asarray(pooled, dtype=float))
    if len(x) > 2000:
        x = x[np.linspace(0, len(x) - 1, 2000).astype(int)]
    d = np.sqrt(_sq_dists(x, x))
    vals = d[np.triu_indices(len(x), k=1)]
    med = float(np.median(vals)) if len(vals) else 0.0
    return med if med > 0 else 1.0


def _mean_kernel(a, b, sigma, chunk=1024):
    total = 0.0
    denom = 2.0 * sigma * sigma
    for i in range(0, len(a), chunk):
        block = _sq_dists(a[i:i + chunk], b)
        total += float(np.sum(np.exp(-block / denom)))
    return total / (len(a) * len(b))


def mmd_rbf(x, y, bandwidth) -> float:
    """Biased V-statistic MMD with a Gaussian kernel exp(-||a-b||^2/(2 s^2))
    of positive bandwidth s (median_heuristic gives the usual choice)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[0] == 0 or y.shape[0] == 0 or x.shape[1] != y.shape[1]:
        raise ValueError("samples must be non-empty with equal dimension")
    sigma = float(bandwidth)
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"bandwidth must be finite and positive, not {sigma!r}")
    val = (
        _mean_kernel(x, x, sigma)
        + _mean_kernel(y, y, sigma)
        - 2.0 * _mean_kernel(x, y, sigma)
    )
    return float(np.sqrt(max(val, 0.0)))


def wasserstein1_1d(x, y) -> float:
    """Exact 1-D earth mover distance between empirical distributions."""
    a = np.sort(np.asarray(x, dtype=float).reshape(-1))
    b = np.sort(np.asarray(y, dtype=float).reshape(-1))
    if len(a) == 0 or len(b) == 0:
        raise ValueError("samples must be non-empty")
    if len(a) == len(b):
        return float(np.mean(np.abs(a - b)))
    # unequal sizes: integrate |F_x - F_y| over the pooled support
    points = np.sort(np.concatenate([a, b]))
    fa = np.searchsorted(a, points[:-1], side="right") / len(a)
    fb = np.searchsorted(b, points[:-1], side="right") / len(b)
    return float(np.sum(np.abs(fa - fb) * np.diff(points)))


def pearson_corr(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or len(a) < 2:
        raise ValueError("need two vectors of equal length >= 2")
    ac = a - np.mean(a)
    bc = b - np.mean(b)
    denom = np.sqrt(np.sum(ac**2) * np.sum(bc**2))
    if denom == 0.0:
        raise ValueError("zero variance input")
    return float(np.dot(ac, bc) / denom)


# ---------------------------------------------------------------------------
# Student-t machinery (Numerical Recipes style)

_BETA_EPS = 1e-12
_FPMIN = 1e-300


def _betacf(a, b, x):
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def incomplete_beta(a, b, x) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x outside [0, 1]")
    if x == 0.0 or x == 1.0:
        return float(x)
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t, df) -> float:
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(t):
        return 0.0 if t < 0 else 1.0
    x = df / (df + t * t)
    tail = 0.5 * incomplete_beta(0.5 * df, 0.5, x)
    return tail if t <= 0 else 1.0 - tail


def paired_t_test_one_sided(reference, other) -> dict:
    """Test H1: mean(reference) < mean(other) on paired samples.

    d = other - reference; small p means the reference method's values are
    significantly lower.  All-zero differences return t = 0, p = 0.5 by
    convention.
    """
    a = np.asarray(reference, dtype=float)
    b = np.asarray(other, dtype=float)
    if a.shape != b.shape or len(a) < 2:
        raise ValueError("need paired samples of equal length >= 2")
    d = b - a
    n = len(d)
    if np.all(d == 0.0):
        return {"t": 0.0, "p": 0.5, "n": n}
    sd = float(np.std(d, ddof=1))
    mean = float(np.mean(d))
    if sd == 0.0:
        t = math.inf if mean > 0 else -math.inf
    else:
        t = mean / (sd / math.sqrt(n))
    return {"t": float(t), "p": 1.0 - t_cdf(t, n - 1), "n": n}
