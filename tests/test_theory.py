import numpy as np
import pytest

from paireffect.losses import pair_loss_decomposition
from paireffect.theory import (
    STRICT,
    VIOLATED,
    FiniteScene,
    confounded_scene,
    consistency_sweep,
    random_scene,
    scene_functionals,
    verify,
    verify_ite_bound,
    verify_lemma_identity,
)


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


def test_identity_holds_on_fixed_scene():
    out = verify_lemma_identity(_uniform_scene())
    assert out["gap"] <= 1e-12
    assert out["lhs"] == pytest.approx(out["rhs"], abs=1e-12)


def test_identity_holds_on_random_scenes():
    rng = np.random.default_rng(0)
    gaps = [verify_lemma_identity(random_scene(rng))["gap"] for _ in range(50)]
    assert max(gaps) <= 1e-10


def test_identity_with_explicit_kernel_override():
    scene = _uniform_scene()
    rng = np.random.default_rng(1)
    q = rng.uniform(0.1, 1.0, size=(9, 9))
    q /= q.sum(axis=1, keepdims=True)
    custom = FiniteScene(
        xs=scene.xs, p0=scene.p0, p1=scene.p1, u0=0.5,
        r0_coeffs=scene.r0_coeffs, r1_coeffs=scene.r1_coeffs,
        q0=q, q1=q.copy(),
    )
    assert verify_lemma_identity(custom)["gap"] <= 1e-12


def test_zero_residuals_make_all_risks_zero():
    scene = FiniteScene(
        xs=np.linspace(0, 1, 5), p0=np.full(5, 0.2), p1=np.full(5, 0.2),
        u0=0.5, r0_coeffs=[0.0], r1_coeffs=[0.0],
    )
    out = scene_functionals(scene)
    assert out["eps_ite"] == 0.0
    assert out["eps_pair"] == 0.0


def test_sharp_kernel_with_identical_arms_closes_gap():
    # when both arms share covariate mass and the kernel is near-degenerate
    # at the anchor, neighbors coincide with anchors and the pair risk equals
    # the ITE risk evaluated pointwise
    scene = _uniform_scene(lam=1e9)
    out = scene_functionals(scene)
    ite_pointwise = sum(
        0.5 * (scene.r1(x) - scene.r0(x)) ** 2 * (2.0 / 9.0)
        for x in scene.xs
    )
    assert out["eps_pair"] == pytest.approx(ite_pointwise, rel=1e-6)


def scene_pair_loss_via_losses(scene):
    """Recompute the scene's pair risk through the loss module's arithmetic
    on the induced weighted pair enumeration (cross-module consistency)."""
    r0 = scene.r0(scene.xs)
    r1 = scene.r1(scene.xs)
    total = 0.0
    weight = 0.0
    for u, p, q, r_anchor, r_nbr in (
        (scene.u1, scene.p1, scene.q1, r1, r0),
        (scene.u0, scene.p0, scene.q0, r0, r1),
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
        direct = scene_functionals(scene)["eps_pair"]
        via_losses = scene_pair_loss_via_losses(scene)
        assert via_losses == pytest.approx(direct, abs=1e-12)


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
