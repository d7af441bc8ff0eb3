"""Training objectives.

Each objective exposes two methods consumed by the gradient machinery:
rows(batch) -> (x, t) names the rows to predict and the treatment each is
predicted under (the model routes treatments to its heads), and
value_and_output_grads(outputs, batch) -> (value, d_outputs) turns those
predictions into a mean loss and its gradient w.r.t. each prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nets

FACTUAL = "factual"
PAIR = "pair"
PAIR_ALPHA = "pair_alpha"
MATCHING = "matching"
PAIR_BINARY = "pair_binary"
KINDS = (FACTUAL, PAIR, PAIR_ALPHA, MATCHING, PAIR_BINARY)

PROB_CLAMP = 1e-12


@dataclass
class LossConfig:
    kind: str = PAIR
    alpha: float = 2.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not 0.0 <= self.alpha <= 2.0:
            raise ValueError("alpha must lie in [0, 2]")
        if self.kind == PAIR:
            self.alpha = 2.0


def make_objective(config: LossConfig):
    if config.kind == FACTUAL:
        return FactualObjective()
    if config.kind in (PAIR, PAIR_ALPHA):
        return PairObjective(config.alpha)
    if config.kind == MATCHING:
        return MatchingObjective()
    return PairBinaryObjective()


def objective_value(model, batch, objective) -> float:
    outputs = nets.network_outputs(model, *objective.rows(batch))
    value, _ = objective.value_and_output_grads(outputs, batch)
    return value


class FactualObjective:
    """Mean squared error on observed outcomes."""

    def rows(self, batch):
        return batch.x, batch.t

    def value_and_output_grads(self, outputs, batch):
        r = batch.y - outputs
        m = len(r)
        return float(np.mean(r**2)), (-2.0 / m) * r


class PairObjective:
    """Mean of r^2 + r'^2 - alpha * r * r' over pairs, r the anchor residual
    and r' the neighbor's; alpha = 2 makes this the squared error between the
    observed and predicted within-pair outcome differences."""

    def __init__(self, alpha=2.0):
        if not 0.0 <= alpha <= 2.0:
            raise ValueError("alpha must lie in [0, 2]")
        self.alpha = alpha

    def rows(self, batch):
        """Anchors stacked over their neighbors."""
        return (np.vstack([batch.x, batch.xp]),
                np.concatenate([batch.t, batch.tp]))

    def value_and_output_grads(self, outputs, batch):
        m = len(batch)
        r = batch.y - outputs[:m]
        rp = batch.yp - outputs[m:]
        value = float(np.mean(r**2 + rp**2 - self.alpha * r * rp))
        d = np.concatenate([
            (-2.0 * r + self.alpha * rp) / m,
            (-2.0 * rp + self.alpha * r) / m,
        ])
        return value, d


class MatchingObjective:
    """Counterfactual supervision: predict the anchor under the neighbor's
    treatment and regress onto the neighbor's observed outcome."""

    def rows(self, batch):
        return batch.x, batch.tp

    def value_and_output_grads(self, outputs, batch):
        r = outputs - batch.yp
        m = len(r)
        return float(np.mean(r**2)), (2.0 / m) * r


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class PairBinaryObjective:
    """Three-way cross-entropy on the within-pair outcome difference.

    Model outputs pass through a sigmoid to give p = P(outcome = 0); with
    a = p(anchor | its arm) and b = p(neighbor | its arm), the label
    y - y' in {-1, 0, +1} has probabilities a(1-b), ab + (1-a)(1-b), (1-a)b.
    clamped_targets counts the probabilities this objective has clamped at
    PROB_CLAMP.  Outcomes must be 0/1; training checks that at its entry.
    """

    rows = PairObjective.rows

    def __init__(self):
        self.clamped_targets = 0

    def value_and_output_grads(self, outputs, batch):
        m = len(batch)
        a = _sigmoid(outputs[:m])
        b = _sigmoid(outputs[m:])
        label = (batch.y - batch.yp).astype(int)

        p = np.where(
            label == -1, a * (1.0 - b),
            np.where(label == 0, a * b + (1.0 - a) * (1.0 - b), (1.0 - a) * b),
        )
        dp_da = np.where(label == -1, 1.0 - b,
                         np.where(label == 0, 2.0 * b - 1.0, -b))
        dp_db = np.where(label == -1, -a,
                         np.where(label == 0, 2.0 * a - 1.0, 1.0 - a))

        self.clamped_targets += int(np.sum(p < PROB_CLAMP))
        p = np.maximum(p, PROB_CLAMP)
        value = float(np.mean(-np.log(p)))
        d_a = (-dp_da / p) * a * (1.0 - a) / m
        d_b = (-dp_db / p) * b * (1.0 - b) / m
        return value, np.concatenate([d_a, d_b])


# ---------------------------------------------------------------------------
# Public scalar losses


def pair_loss(model, batch, alpha=2.0) -> float:
    return objective_value(model, batch, PairObjective(alpha))


def pair_loss_decomposition(y, y_prime, yhat, yhat_prime):
    """Split one pair's alpha=2 loss into (anchor squared error, neighbor
    squared error, residual alignment); the three sum to the pair loss."""
    r = np.asarray(y, dtype=float) - np.asarray(yhat, dtype=float)
    rp = np.asarray(y_prime, dtype=float) - np.asarray(yhat_prime, dtype=float)
    return r**2, rp**2, -2.0 * r * rp
