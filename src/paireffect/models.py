"""Two-headed outcome models.

Binary treatments get one prediction head per arm on top of a shared
representation chain.  Continuous treatments in [0,1] are routed to one of 5
uniformly spaced bin heads, with the within-bin coordinate appended to the
input of every affine layer of that head, so predictions vary smoothly in t
inside a bin (they may jump at bin edges).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import nets
from .datagen import BINARY, CONTINUOUS
from .nets import ELU, IDENTITY, LayerSpec, ParamStore

NUM_BINS = 5

DEEP = "deep"
SHALLOW = "shallow"


class TreatmentDomainError(ValueError):
    pass


@dataclass
class TwoHeadedNetwork:
    input_dim: int
    mode: str                      # "binary" or "continuous"
    arch: str                      # "deep" or "shallow"
    phi_specs: list[LayerSpec]
    head_specs: list[LayerSpec]
    params: ParamStore

    @property
    def n_heads(self) -> int:
        return 2 if self.mode == BINARY else NUM_BINS

    def route(self, t):
        """Map treatments to (head indices, per-layer extra inputs or None)."""
        t = np.asarray(t, dtype=float)
        if self.mode == BINARY:
            if not np.all((t == 0.0) | (t == 1.0)):
                raise TreatmentDomainError(
                    f"binary treatments must be 0 or 1, got {t[(t != 0) & (t != 1)][:3]}"
                )
            return t.astype(int), None
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise TreatmentDomainError("continuous treatments must lie in [0, 1]")
        return bin_index(t)


def _specs(arch, mode, input_dim):
    extra = 1 if mode == CONTINUOUS else 0
    if arch == DEEP:
        phi = [
            LayerSpec(input_dim, 200, ELU),
            LayerSpec(200, 200, ELU),
            LayerSpec(200, 200, ELU),
        ]
        head = [
            LayerSpec(200 + extra, 100, ELU),
            LayerSpec(100 + extra, 100, ELU),
            LayerSpec(100 + extra, 1, IDENTITY),
        ]
    elif arch == SHALLOW:
        phi = [LayerSpec(input_dim, 200, ELU)]
        head = [
            LayerSpec(200 + extra, 100, ELU),
            LayerSpec(100 + extra, 1, IDENTITY),
        ]
    else:
        raise ValueError(f"unknown arch {arch!r}")
    return phi, head


def build_model(arch=DEEP, mode=BINARY, input_dim=25, rng_seed=0) -> TwoHeadedNetwork:
    if mode not in (BINARY, CONTINUOUS):
        raise ValueError(f"unknown treatment mode {mode!r}")
    if input_dim < 1:
        raise ValueError("input_dim must be positive")
    phi_specs, head_specs = _specs(arch, mode, input_dim)
    n_heads = 2 if mode == BINARY else NUM_BINS
    rng = np.random.default_rng(rng_seed)
    blocks = {"phi": nets.init_chain(phi_specs, rng)}
    for k in range(n_heads):
        blocks[f"head_{k}"] = nets.init_chain(head_specs, rng)
    return TwoHeadedNetwork(
        input_dim=input_dim,
        mode=mode,
        arch=arch,
        phi_specs=phi_specs,
        head_specs=head_specs,
        params=ParamStore(blocks),
    )


def bin_index(t):
    """Bin k = min(floor(5t), 4) and the within-bin coordinate t - k/5."""
    t = np.asarray(t, dtype=float)
    k = np.minimum(np.floor(NUM_BINS * t), NUM_BINS - 1).astype(int)
    return k, t - k / NUM_BINS


def predict_outcomes(model, x, t) -> np.ndarray:
    """Vector of predictions for rows of x under elementwise treatments t."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.broadcast_to(np.asarray(t, dtype=float), (len(x),))
    return nets.network_outputs(model, x, t)


def predict_ites(model, x, t, t_prime) -> np.ndarray:
    return predict_outcomes(model, x, t) - predict_outcomes(model, x, t_prime)


def three_way_logits(p0, p1, p0_prime, p1_prime, t):
    """Distribution of the outcome difference y - y' over labels {-1, 0, +1}.

    Inputs are the four predicted probabilities that the outcome equals zero:
    p0, p1 for the anchor under either arm and p0', p1' for its paired
    neighbor; t is the anchor's observed (binary) treatment, the neighbor's
    being 1 - t.
    """
    for name, v in (("p0", p0), ("p1", p1), ("p0_prime", p0_prime), ("p1_prime", p1_prime)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} = {v} outside [0, 1]")
    if t not in (0, 1):
        raise TreatmentDomainError(f"t must be 0 or 1, got {t}")
    down = p0 * (1 - p1_prime) * (1 - t) + p1 * (1 - p0_prime) * t
    same = (p0 * p1_prime + (1 - p0) * (1 - p1_prime)) * (1 - t) + (
        p1 * p0_prime + (1 - p1) * (1 - p0_prime)
    ) * t
    up = (1 - p0) * p1_prime * (1 - t) + (1 - p1) * p0_prime * t
    return np.array([down, same, up])


def save_model(model, path) -> None:
    """JSON of the network's shape, layer specs and parameters."""
    doc = {
        "input_dim": model.input_dim,
        "mode": model.mode,
        "arch": model.arch,
        "phi_specs": [asdict(spec) for spec in model.phi_specs],
        "head_specs": [asdict(spec) for spec in model.head_specs],
        "params": json.loads(model.params.to_json()),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path) -> TwoHeadedNetwork:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return TwoHeadedNetwork(
        input_dim=doc["input_dim"],
        mode=doc["mode"],
        arch=doc["arch"],
        phi_specs=[LayerSpec(**spec) for spec in doc["phi_specs"]],
        head_specs=[LayerSpec(**spec) for spec in doc["head_specs"]],
        params=ParamStore.from_json(json.dumps(doc["params"])),
    )
