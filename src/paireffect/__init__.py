"""Treatment-effect estimation by training on matched observation pairs.

The package trains two-headed (or binned) feedforward networks on pairs of
nearby observations with contrasting treatments, so the regression target
is an observed outcome difference rather than a single outcome.  It also
ships the surrounding apparatus: pair sampling with softmax-over-distance
neighbor draws, synthetic dataset generators with oracles, evaluation
metrics and statistics, finite-support checks for the underlying risk
identities and bounds, and a seeded experiment harness.
"""

from types import ModuleType as _Module

from .datagen import (
    BINARY,
    CONTINUOUS,
    Dataset,
    GPToyConfig,
    MissingGroundTruth,
    Oracle,
    gen_continuous_response,
    gen_gaussian_confounded,
    gen_gp_toy,
    gen_polynomial_synth,
    load_csv,
    save_csv,
    split_stratified,
)
from .losses import LossConfig, pair_loss, pair_loss_decomposition
from .metrics import (
    mmd_rbf,
    paired_t_test_one_sided,
    pearson_corr,
    pehe,
    t_cdf,
    wasserstein1_1d,
)
from .models import (
    TwoHeadedNetwork,
    build_model,
    load_model,
    predict_ites,
    predict_outcomes,
    save_model,
    three_way_logits,
)
from .nets import NonFiniteValue, RegConfig, ShapeMismatch, finite_diff_check
from .pairing import (
    EmptyPairDataset,
    IdentityEmbedding,
    PairDataset,
    PairingConfig,
    PhiEmbedding,
    RandomProjectionEmbedding,
    create_pair_ds,
    derive_seed,
    neighbor_diagnostics,
    pair_distances,
)
from .theory import (
    FiniteScene,
    confounded_scene,
    consistency_sweep,
    random_scene,
    risk_terms,
    verify_ite_bound,
    verify_lemma_identity,
)
from .training import RunRecord, TrainConfig, compare_methods, evaluate_pehe, train
from .experiments import gp_correlation_toy, mmd_shift_toy, run_experiment

__version__ = "0.1.0"

# the public API is exactly the names imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _Module))
