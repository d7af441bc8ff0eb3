import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from paireffect.datagen import gen_polynomial_synth
from paireffect.losses import LossConfig, pair_loss_decomposition
from paireffect.models import predict_outcomes
from paireffect.pairing import PairingConfig
from paireffect.theory import (
    STRICT,
    VIOLATED,
    FiniteScene,
    confounded_scene,
    consistency_sweep,
    random_scene,
    risk_terms,
    softmax_kernel,
    verify,
    verify_ite_bound,
    verify_lemma_identity,
)
from paireffect.training import PSI_IDENTITY, TrainConfig, train


def _uniform_scene(lam=1.0):
    xs = np.linspace(-1.0, 1.0, 9)
    m = np.full(9, 1.0 / 9.0)
    return FiniteScene(
        xs=xs, p0=m.copy(), p1=m.copy(), u0=0.5,
        r0_coeffs=np.array([0.3, -0.7]), r1_coeffs=np.array([-0.2, 0.5, 0.1]),
        lam=lam,
    )


def test_scene_validation():
    xs = np.linspace(0, 1, 4)
    good = np.full(4, 0.25)
    with pytest.raises(ValueError):
        FiniteScene(xs=xs, p0=good * 2, p1=good, u0=0.5,
                    r0_coeffs=[1.0], r1_coeffs=[1.0])
    with pytest.raises(ValueError):
        FiniteScene(xs=xs, p0=good, p1=good, u0=1.5,
                    r0_coeffs=[1.0], r1_coeffs=[1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["xs", "p0", "p1", "r0_coeffs",
                                   "r1_coeffs", "lam"])
def test_scene_rejects_non_finite_values(field, bad):
    # a NaN mass passes `abs(sum - 1) > tol`, and a NaN anywhere turns the
    # identity's gap into NaN, so each field is checked where it enters
    fields = dict(xs=np.linspace(0, 1, 4), p0=np.array([0.25, 0.5, 0.25, 0.0]),
                  p1=np.full(4, 0.25), u0=0.5, r0_coeffs=np.array([1.0, 0.5]),
                  r1_coeffs=np.array([0.2, -1.0]), lam=2.0)
    if field == "lam":
        fields["lam"] = bad
    else:
        fields[field] = fields[field].copy()
        fields[field][0] = bad
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        FiniteScene(**fields)


def test_identity_holds_on_fixed_scene():
    out = verify_lemma_identity(_uniform_scene())
    assert out["gap"] <= 1e-12
    assert out["lhs"] == pytest.approx(out["rhs"], abs=1e-12)


def test_identity_holds_on_random_scenes():
    rng = np.random.default_rng(0)
    gaps = [verify_lemma_identity(random_scene(rng))["gap"] for _ in range(50)]
    assert max(gaps) <= 1e-10


def test_identity_with_explicit_kernel_override():
    r0, r1, p0, p1, u0, _, _ = _uniform_scene().arrays()
    rng = np.random.default_rng(1)
    q = rng.uniform(0.1, 1.0, size=(9, 9))
    q /= q.sum(axis=1, keepdims=True)
    assert risk_terms(r0, r1, p0, p1, u0, q, q.copy())["gap"] <= 1e-12


def test_zero_residuals_make_all_risks_zero():
    scene = FiniteScene(
        xs=np.linspace(0, 1, 5), p0=np.full(5, 0.2), p1=np.full(5, 0.2),
        u0=0.5, r0_coeffs=[0.0], r1_coeffs=[0.0],
    )
    out = risk_terms(*scene.arrays())
    assert out["eps_ite"] == 0.0
    assert out["eps_pair"] == 0.0


def test_kernel_takes_the_sharp_limit_where_every_distance_overflows():
    # lam * d overflows on the only opposite-arm column of both anchors; a
    # plain softmax of -inf logits would make both kernel rows NaN
    scene = FiniteScene(xs=[0, 2], p0=[1, 0], p1=[0, 1], u0=0.5,
                        r0_coeffs=[1], r1_coeffs=[0.5], lam=1e308)
    assert verify_lemma_identity(scene)["gap"] == 0.0
    assert verify_ite_bound(scene)["holds"]
    d = np.array([[1.0, 3.0, 3.0], [2.0, 5.0, 5.0]])
    q = softmax_kernel(d, np.array([False, True, True]), 1e308)
    assert np.array_equal(q, [[0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])


def test_sharp_kernel_with_identical_arms_closes_gap():
    # when both arms share covariate mass and the kernel is near-degenerate
    # at the anchor, neighbors coincide with anchors and the pair risk equals
    # the ITE risk evaluated pointwise
    scene = _uniform_scene(lam=1e9)
    out = risk_terms(*scene.arrays())
    r0 = P.polyval(scene.xs, scene.r0_coeffs)
    r1 = P.polyval(scene.xs, scene.r1_coeffs)
    ite_pointwise = np.sum(0.5 * (r1 - r0) ** 2 * (2.0 / 9.0))
    assert out["eps_pair"] == pytest.approx(ite_pointwise, rel=1e-6)


def scene_pair_loss_via_losses(scene):
    """Recompute the scene's pair risk through the loss module's arithmetic
    on the induced weighted pair enumeration (cross-module consistency)."""
    r0, r1, p0, p1, u0, q0, q1 = scene.arrays()
    total = 0.0
    weight = 0.0
    for u, p, q, r_anchor, r_nbr in (
        (1 - u0, p1, q1, r1, r0),
        (u0, p0, q0, r0, r1),
    ):
        for i in range(len(scene.xs)):
            if p[i] == 0:
                continue
            w = u * p[i] * q[i]
            f_a, f_n, align = pair_loss_decomposition(
                r_anchor[i] * np.ones(len(scene.xs)), r_nbr,
                np.zeros(len(scene.xs)), np.zeros(len(scene.xs)),
            )
            total += float(np.sum(w * (f_a + f_n + align)))
            weight += float(np.sum(w))
    return total / weight


def test_pair_risk_agrees_with_loss_module():
    # the same functional computed by enumerating the kernel as explicit
    # pair records through the loss code path
    for seed in range(5):
        scene = random_scene(np.random.default_rng(seed))
        direct = risk_terms(*scene.arrays())["eps_pair"]
        via_losses = scene_pair_loss_via_losses(scene)
        assert via_losses == pytest.approx(direct, abs=1e-12)


def test_identity_holds_on_trained_model_held_out_rows():
    # the identity is exact on any finite support: here the 200 held-out
    # rows of a trained model, with empirical arm masses and a softmax
    # kernel over opposite-arm rows in the identity embedding
    full = gen_polynomial_synth(400, np.random.default_rng(3))
    train_ds, held = full.subset(np.arange(200)), full.subset(np.arange(200, 400))
    config = TrainConfig(loss=LossConfig(kind="pair"), arch="shallow",
                         max_epochs=3, patience=3, psi=PSI_IDENTITY, lr=1e-3,
                         pairing=PairingConfig(num_neighbors=2), seed=3)
    model, _ = train(train_ds, config)
    r0, r1 = (held.true_mu(t) - predict_outcomes(model, held.x, t)
              for t in (0.0, 1.0))
    treated = held.t == 1
    p0, p1 = ~treated / np.sum(~treated), treated / np.sum(treated)
    d = np.linalg.norm(held.x[:, None, :] - held.x[None, :, :], axis=2)
    q0, q1 = softmax_kernel(d, treated, 5.0), softmax_kernel(d, ~treated, 5.0)
    out = risk_terms(r0, r1, p0, p1, np.mean(~treated), q0, q1)
    assert out["gap"] <= 1e-10
    # the risks are not trivially zero, so the identity is exercised
    assert out["eps_ite"] > 0.01 and out["eps_pair"] > 0.01


def test_bound_holds_on_linear_scenes():
    rng = np.random.default_rng(7)
    for _ in range(20):
        out = verify_ite_bound(random_scene(rng, max_degree=1))
        assert out["holds"], out
        assert out["margin"] >= 0.0


def test_bound_ipm_term_tighter_under_confounding():
    rng = np.random.default_rng(8)
    for _ in range(10):
        out = verify_ite_bound(confounded_scene(rng))
        assert out["ipm_term"] < out["w1_p0_p1"]


def test_sweep_distances_shrink_under_strict_overlap():
    rows = consistency_sweep(sizes=(100, 1600), overlap=STRICT, seed=0)
    assert rows[-1]["delta_hat"] < 0.5 * rows[0]["delta_hat"]
    assert rows[0]["n"] == 100 and rows[-1]["n"] == 1600


def test_sweep_distances_plateau_without_overlap():
    rows = consistency_sweep(sizes=(100, 1600), overlap=VIOLATED, seed=0)
    assert rows[-1]["delta_hat"] > 0.9 * rows[0]["delta_hat"]


def test_sweep_rejects_unknown_regime():
    with pytest.raises(ValueError):
        consistency_sweep(sizes=(50,), overlap="partial")


def test_verify_rejects_unknown_suite():
    with pytest.raises(ValueError, match="unknown verify suite"):
        verify("lemmas", 5, 0)
