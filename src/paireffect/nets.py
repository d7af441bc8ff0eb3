"""Dense feedforward primitives on plain float64 numpy arrays.

A network is a set of named parameter blocks ("phi", "head_0", "head_1", ...),
each holding the (weight, bias) pairs of one chain of affine layers with ELU
or identity activations.  Gradients are hand-rolled reverse-mode and are
validated against central finite differences (`finite_diff_check`).

Parameters live in one contiguous vector (`ParamStore.flat`).  `adam_step`
updates the parameters and its state in place (training keeps its best
snapshot as a `.copy()`), and `loss_and_gradient` writes into a gradient
store kept with the parameters, which the next call overwrites; everything
else returns fresh arrays.  Batch losses are means over records, so gradient
magnitudes do not scale with batch size.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

import numpy as np

ELU = "elu"
IDENTITY = "identity"
_ACTIVATIONS = (ELU, IDENTITY)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class ShapeMismatch(ValueError):
    """Layer input/parameter shapes disagree; the message names the layer."""


class NonFiniteValue(FloatingPointError):
    """A pass produced NaN or inf; the message names the parameter block."""


@dataclass(frozen=True)
class LayerSpec:
    """One affine layer: n_in -> n_out followed by an activation."""

    n_in: int
    n_out: int
    activation: str = ELU

    def __post_init__(self):
        if self.n_in <= 0 or self.n_out <= 0:
            raise ValueError(
                f"layer widths must be positive, got {self.n_in}x{self.n_out}"
            )
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


def _apply_act(z, activation):
    if activation == ELU:
        # expm1(z) > z for z < 0, so the max picks z for z >= 0 and expm1(z)
        # below; equal to where(z >= 0, z, expm1(z)) bit for bit, -0.0,
        # infinities and NaN included, without evaluating both branches
        h = np.minimum(z, 0.0)
        np.expm1(h, out=h)
        return np.maximum(h, z, out=h)
    return z


def _act_deriv(z, activation):
    if activation == ELU:
        return np.exp(np.minimum(z, 0.0))  # where(z >= 0, 1, exp(z)), exactly
    return np.ones_like(z)


class ParamStore:
    """Named blocks of (weight, bias) pairs, one pair per layer.

    Weights are (n_out, n_in) float64, biases (n_out,).  Every array is a
    view into the contiguous vector `flat`, laid out block by block in
    insertion order, weight before bias; `spans` maps each block name to its
    slice of `flat`, so a write through either shows in both.
    """

    def __init__(self, blocks: dict[str, list[tuple[np.ndarray, np.ndarray]]]):
        blocks = {
            name: [
                (np.asarray(w, dtype=float), np.asarray(b, dtype=float))
                for w, b in layers
            ]
            for name, layers in blocks.items()
        }
        self._bind(
            np.concatenate(
                [a.ravel() for layers in blocks.values() for pair in layers
                 for a in pair]
            ),
            blocks,
        )

    def _bind(self, flat, like):
        """Point this store at `flat`, shaped block by block as `like`."""
        self.flat, self.blocks, self.spans = flat, {}, {}
        self._grads = None  # loss_and_gradient's output store, made on first use
        pos = 0
        for name, layers in like.items():
            start = pos
            views = []
            for a in (a for pair in layers for a in pair):
                views.append(flat[pos:pos + a.size].reshape(a.shape))
                pos += a.size
            self.blocks[name] = list(zip(views[::2], views[1::2]))
            self.spans[name] = slice(start, pos)

    def _with_flat(self, flat) -> "ParamStore":
        store = ParamStore.__new__(ParamStore)
        store._bind(flat, self.blocks)
        return store

    def copy(self) -> "ParamStore":
        return self._with_flat(self.flat.copy())

    def zeros_like(self) -> "ParamStore":
        return self._with_flat(np.zeros_like(self.flat))

    def check_finite(self) -> None:
        if np.isfinite(self.flat).all():
            return
        for name, layers in self.blocks.items():
            for i, (w, b) in enumerate(layers):
                if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                    raise NonFiniteValue(
                        f"non-finite values in block {name!r}, layer {i}"
                    )

    def to_json(self) -> str:
        doc = {
            name: [{"w": w.tolist(), "b": b.tolist()} for w, b in layers]
            for name, layers in self.blocks.items()
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "ParamStore":
        doc = json.loads(text)
        return cls(
            {
                name: [(np.array(d["w"], dtype=float), np.array(d["b"], dtype=float)) for d in layers]
                for name, layers in doc.items()
            }
        )


def init_chain(specs, rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """Initialise one layer chain: W ~ U(-1/sqrt(n_in), 1/sqrt(n_in)), b = 0."""
    chain = []
    for spec in specs:
        bound = 1.0 / np.sqrt(spec.n_in)
        w = rng.uniform(-bound, bound, size=(spec.n_out, spec.n_in))
        b = np.zeros(spec.n_out)
        chain.append((w, b))
    return chain


def _chain_forward(chain, specs, x, extras=None, caches=None):
    """Batched chain evaluation.  x is (m, n); extras, if given, is (m,)."""
    if len(chain) != len(specs):
        raise ShapeMismatch(
            f"chain has {len(chain)} layers but {len(specs)} specs were given"
        )
    h = np.asarray(x, dtype=float)
    for i, ((w, b), spec) in enumerate(zip(chain, specs)):
        v = h if extras is None else np.hstack([h, extras[:, None]])
        if v.shape[1] != spec.n_in or w.shape != (spec.n_out, spec.n_in):
            raise ShapeMismatch(
                f"layer {i}: spec {spec.n_in}->{spec.n_out}, "
                f"weight shape {w.shape}, input width {v.shape[1]}"
            )
        z = v @ w.T
        z += b
        if caches is not None:
            caches.append((v, z))
        h = _apply_act(z, spec.activation)
    return h


def _chain_backward(chain, specs, caches, d_out, has_extra, grads):
    """Backprop through one chain, writing each layer's (dW, db) into the
    matching arrays of `grads`.  Returns d_input."""
    dh = d_out
    for i in reversed(range(len(chain))):
        w, _ = chain[i]
        v, z = caches[i]
        dz = dh * _act_deriv(z, specs[i].activation)
        gw, gb = grads[i]
        np.matmul(dz.T, v, out=gw)
        dz.sum(axis=0, out=gb)
        dv = dz @ w
        dh = dv[:, :-1] if has_extra else dv
    return dh


def network_outputs(model, x, t, caches=None):
    """Scalar network outputs for rows x under treatments t.

    model.route(t) gives each row's head index ("head_{h}") and its extra
    input: None, or a (k,) float array appended to every affine layer of
    the chosen head.  The shared representation chain "phi" is applied
    first.  If `caches` is a dict, it receives what the backward pass reads:
    "phi" -> (phi output, layer caches), and each used head's block name
    -> (its row indices, layer caches, whether extras were appended).
    """
    heads, extras = model.route(t)
    x = np.asarray(x, dtype=float)
    phi_caches = None if caches is None else []
    phi_out = _chain_forward(
        model.params.blocks["phi"], model.phi_specs, x, caches=phi_caches
    )
    if caches is not None:
        caches["phi"] = (phi_out, phi_caches)
    outputs = np.empty(len(x))
    for h in np.unique(heads):
        idx = np.flatnonzero(heads == h)
        ex = None if extras is None else extras[idx]
        head_caches = None if caches is None else []
        out = _chain_forward(
            model.params.blocks[f"head_{h}"],
            model.head_specs,
            phi_out[idx],
            ex,
            caches=head_caches,
        )
        if out.shape[1] != 1:
            raise ShapeMismatch(
                f"head_{h} must end in a single output, got width {out.shape[1]}"
            )
        outputs[idx] = out[:, 0]
        if caches is not None:
            caches[f"head_{h}"] = (idx, head_caches, ex is not None)
    return outputs


def l2_penalty(params, reg) -> float:
    """Sum of weight * ||theta||^2 over every parameter array in every block."""
    total = 0.0
    for name, layers in params.blocks.items():
        weight = reg.l2_phi if name == "phi" else reg.l2_head
        for w, b in layers:
            total += weight * (np.sum(w * w) + np.sum(b * b))
    return total


def loss_and_gradient(model, batch, objective, reg):
    """Mean batch loss (plus L2 penalty) and its gradient for every parameter.

    `objective` must provide rows(batch) -> (x, t), the rows to predict and
    their treatments, and value_and_output_grads(outputs, batch) -> (value,
    d_outputs), where d_outputs already carries the 1/m mean factor.  The
    gradient store is kept with model.params and overwritten by the next
    call; copy to keep it.
    """
    caches = {}
    outputs = network_outputs(model, *objective.rows(batch), caches)
    value, d_out = objective.value_and_output_grads(outputs, batch)

    params = model.params
    if params._grads is None:
        params._grads = params.zeros_like()
    grads = params._grads
    phi_out, phi_caches = caches.pop("phi")
    d_phi_out = np.zeros_like(phi_out)
    for name, (idx, head_caches, has_extra) in caches.items():
        d_phi_out[idx] += _chain_backward(
            params.blocks[name],
            model.head_specs,
            head_caches,
            d_out[idx][:, None],
            has_extra=has_extra,
            grads=grads.blocks[name],
        )
    _chain_backward(
        params.blocks["phi"], model.phi_specs, phi_caches, d_phi_out,
        has_extra=False, grads=grads.blocks["phi"],
    )

    for name, span in params.spans.items():
        weight = reg.l2_phi if name == "phi" else reg.l2_head
        decay = 2.0 * weight * params.flat[span]
        if name == "phi" or name in caches:
            grads.flat[span] += decay
        else:  # head never routed to in this batch: L2 term only
            grads.flat[span] = decay
    grads.check_finite()
    return value + l2_penalty(params, reg), grads


@dataclass
class RegConfig:
    """Per-block L2 weights.  The penalty adds 2*weight*theta per parameter
    to the gradient; biases are regularized along with weights."""

    l2_phi: float = 1.0
    l2_head: float = 1e-4

    def __post_init__(self):
        for name in ("l2_phi", "l2_head"):
            weight = getattr(self, name)
            if not (np.isfinite(weight) and weight >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, not {weight!r}")


@dataclass
class AdamState:
    m: ParamStore
    v: ParamStore
    step: int
    lr: float


def adam_init(params, lr=1e-4) -> AdamState:
    return AdamState(m=params.zeros_like(), v=params.zeros_like(), step=0,
                     lr=lr)


def adam_step(params, grads, state):
    """One Adam update with bias correction, in place on `params` and
    `state`; returns (params, state)."""
    t = state.step + 1
    g, m, v = grads.flat, state.m.flat, state.v.flat
    # the same operations, in the same order, as beta1 * m + (1 - beta1) * g,
    # beta2 * v + (1 - beta2) * g * g and lr * (m / c1) / (sqrt(v / c2) + eps)
    tmp = (1 - ADAM_BETA1) * g
    m *= ADAM_BETA1
    m += tmp
    np.multiply(1 - ADAM_BETA2, g, out=tmp)
    tmp *= g
    v *= ADAM_BETA2
    v += tmp
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    np.divide(m, c1, out=tmp)
    tmp *= state.lr
    denom = v / c2
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    tmp /= denom
    params.flat -= tmp
    state.step = t
    return params, state


def finite_diff_check(model, batch, objective, reg) -> float:
    """Max relative error between analytic and central-difference gradients.

    Error per coordinate is |a - n| / max(1, |n|): relative where the numeric
    gradient is large, absolute where it is small (a tiny denominator would
    only amplify the cancellation noise of the central difference).
    """
    epsilon = 1e-5
    _, analytic = loss_and_gradient(model, batch, objective, reg)

    probe = copy.copy(model)
    probe.params = model.params.copy()
    flat = probe.params.flat
    x, t = objective.rows(batch)

    def total():
        outputs = network_outputs(probe, x, t)
        value, _ = objective.value_and_output_grads(outputs, batch)
        return value + l2_penalty(probe.params, reg)

    worst = 0.0
    for j, g in enumerate(analytic.flat):
        orig = flat[j]
        flat[j] = orig + epsilon
        up = total()
        flat[j] = orig - epsilon
        down = total()
        flat[j] = orig
        numeric = (up - down) / (2.0 * epsilon)
        err = abs(g - numeric) / max(1.0, abs(numeric))
        worst = max(worst, err)
    return worst
