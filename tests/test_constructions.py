"""Tests for example systems, random generators, weights, and composition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgframes import (
    BadDimError,
    DimMismatchError,
    GenerationFailedError,
    KGSystem,
    GSystem,
    NotAFrameError,
    NotTightError,
    SubspaceFrameFamily,
    ZeroWeightError,
    analysis,
    canonical_kg_dual,
    classify,
    compose,
    corner_projection_system,
    frame_operator,
    is_kg_dual,
    optimal_bounds,
    overlap_chain_system,
    random_frame_family,
    random_kg_system,
    scale_weights,
    tight_relation_check,
)
from kgframes.gsystem import Classification

from oracles import random_instance


def test_overlap_chain_structure():
    ksys = overlap_chain_system(5)
    assert ksys.system.num_blocks == 4
    assert ksys.system.block_dims == (2, 2, 2, 2)
    b0 = ksys.system.blocks[0]
    assert b0[0].tolist() == [1, 1, 0, 0, 0]
    assert np.array_equal(b0[0], b0[1])
    # K's last column vanishes, every other column is e_j + e_{j+1}
    assert np.linalg.norm(ksys.k[:, -1]) == 0.0
    assert ksys.k[:, 1].tolist() == [0, 1, 1, 0, 0]


def test_overlap_chain_frame_operator_is_twice_kk_star():
    ksys = overlap_chain_system(10)
    s = frame_operator(ksys.system)
    kk = ksys.k @ ksys.k.conj().T
    assert np.array_equal(s, 2.0 * kk)


def test_overlap_chain_alternating_vectors_have_constant_energy():
    ksys = overlap_chain_system(16)
    for m in range(1, 16):
        g = np.zeros(16, dtype=np.complex128)
        g[:m] = [(-1.0) ** i for i in range(m)]
        total = analysis(ksys.system, g).norm() ** 2
        assert abs(total - 2.0) <= 1e-10


def test_overlap_chain_rejects_tiny_dims():
    with pytest.raises(BadDimError):
        overlap_chain_system(2)


def test_corner_projection_structure():
    ksys = corner_projection_system(9)
    assert ksys.system.num_blocks == 3
    assert ksys.system.block_dims == (3, 3, 3)
    assert np.linalg.norm(ksys.system.blocks[1]) == 0.0
    assert np.linalg.norm(ksys.system.blocks[2]) == 0.0
    s = frame_operator(ksys.system)
    assert np.array_equal(np.diag(s).real, [1, 1, 1, 0, 0, 0, 0, 0, 0])


def test_corner_projection_rejects_bad_dims():
    for n in (3, 5, 7, 8):
        with pytest.raises(BadDimError):
            corner_projection_system(n)


def test_random_system_is_deterministic():
    a = random_kg_system(6, [2, 2, 3], 4, seed=123)
    b = random_kg_system(6, [2, 2, 3], 4, seed=123)
    assert all(np.array_equal(x, y) for x, y in zip(a.system.blocks, b.system.blocks))
    assert np.array_equal(a.k, b.k)
    c = random_kg_system(6, [2, 2, 3], 4, seed=124)
    assert not np.array_equal(a.k, c.k)


def test_random_system_validates_arguments():
    with pytest.raises(BadDimError):
        random_kg_system(0, [1], 1, seed=0)
    with pytest.raises(BadDimError):
        random_kg_system(4, [], 2, seed=0)
    with pytest.raises(BadDimError):
        random_kg_system(4, [2, 2], 5, seed=0)


def test_random_system_fails_when_blocks_cannot_cover_k():
    # a single 1-dimensional block cannot contain the range of a rank-2 K
    with pytest.raises(GenerationFailedError):
        random_kg_system(4, [1], 2, seed=0)


def test_scale_weights_validates():
    ksys = random_instance(50)
    m = ksys.system.num_blocks
    with pytest.raises(DimMismatchError):
        scale_weights(ksys, [1.0] * (m + 1))
    with pytest.raises(ZeroWeightError):
        scale_weights(ksys, [1.0] * (m - 1) + [0.0])


def test_scale_weights_bounds_scale_with_moduli():
    for seed in range(30):
        rng = np.random.default_rng(1000 + seed)
        ksys = random_instance(seed)
        m = ksys.system.num_blocks
        weights = rng.uniform(0.5, 2.0, m) * np.exp(2j * np.pi * rng.random(m))
        scaled = scale_weights(ksys, weights)
        a, b = scaled.weight_lower, scaled.weight_upper
        base = optimal_bounds(ksys)
        got = optimal_bounds(scaled.system)
        assert got.kg_lower_opt >= a * a * base.kg_lower_opt - 1e-9
        assert got.bessel_upper_opt <= b * b * base.bessel_upper_opt + 1e-9


def test_scale_weights_preserves_duality_with_reciprocal_weights():
    for seed in (3, 17, 29):
        rng = np.random.default_rng(2000 + seed)
        ksys = random_instance(seed)
        theta = canonical_kg_dual(ksys)
        m = ksys.system.num_blocks
        weights = rng.uniform(0.5, 2.0, m)  # real positive weights
        scaled_sys = scale_weights(ksys, weights).system
        scaled_theta = scale_weights(
            KGSystem(theta, ksys.k), 1.0 / weights
        ).system
        assert is_kg_dual(scaled_sys.system, scaled_theta.system, ksys.k)
        # complex weights need the conjugate reciprocal on the dual side
        phases = np.exp(2j * np.pi * rng.random(m))
        w = weights * phases
        scaled_sys = scale_weights(ksys, w).system
        scaled_theta = scale_weights(KGSystem(theta, ksys.k), 1.0 / np.conj(w)).system
        assert is_kg_dual(scaled_sys.system, scaled_theta.system, ksys.k)


def test_frame_family_from_vectors_rejects_deficient_families():
    with pytest.raises(NotAFrameError):
        SubspaceFrameFamily.from_vectors([np.array([[1.0, 0.0]])])  # 1 vector in dim 2
    with pytest.raises(NotAFrameError):
        SubspaceFrameFamily.from_vectors([])
    with pytest.raises(NotAFrameError):
        SubspaceFrameFamily.from_vectors([np.zeros((3, 2))])


def test_frame_family_bounds_are_eigenvalue_extremes():
    fam = SubspaceFrameFamily.from_vectors([np.diag([2.0, 3.0])])
    assert abs(fam.lower - 4.0) < 1e-12
    assert abs(fam.upper - 9.0) < 1e-12


def test_random_frame_family_spans():
    fams = random_frame_family((2, 3, 1), seed=5)
    assert len(fams.families) == 3
    assert fams.lower > 0
    assert fams.upper >= fams.lower


def test_compose_validates_shapes():
    ksys = random_instance(51)
    good = random_frame_family(ksys.system.block_dims, seed=1)
    with pytest.raises(DimMismatchError):
        compose(ksys, SubspaceFrameFamily.from_vectors([np.eye(2)]))
    wrong_dims = tuple(d + 1 for d in ksys.system.block_dims)
    with pytest.raises(DimMismatchError):
        compose(ksys, random_frame_family(wrong_dims, seed=2))
    del good


def test_compose_of_a_system_without_blocks_is_empty():
    k = np.eye(3)
    composed = compose(KGSystem(GSystem(3, ()), k), SubspaceFrameFamily((), 1.0, 1.0))
    assert composed.system.num_blocks == 0
    assert composed.system.matrix.shape == (0, 3)
    assert np.array_equal(composed.k, k)


def test_compose_with_orthonormal_bases_preserves_frame_operator():
    ksys = random_instance(52)
    fams = SubspaceFrameFamily.from_vectors(
        [np.eye(d) for d in ksys.system.block_dims]
    )
    composed = compose(ksys, fams)
    assert composed.system.num_blocks == sum(ksys.system.block_dims)
    assert all(d == 1 for d in composed.system.block_dims)
    s_before = frame_operator(ksys.system)
    s_after = frame_operator(composed.system)
    assert np.max(np.abs(s_before - s_after)) <= 1e-12 * max(1.0, np.max(np.abs(s_before)))


def test_compose_bounds_sandwiched_by_family_bounds():
    for seed in range(50):
        ksys = random_instance(seed)
        fams = random_frame_family(ksys.system.block_dims, seed=seed + 777)
        composed = compose(ksys, fams)
        base = optimal_bounds(ksys)
        got = optimal_bounds(composed)
        c, d = fams.lower, fams.upper
        assert got.kg_lower_opt is not None
        assert got.kg_lower_opt >= c * base.kg_lower_opt - 1e-9
        assert got.bessel_upper_opt <= d * base.bessel_upper_opt + 1e-9


def test_tight_relation_requires_tightness():
    with pytest.raises(NotTightError):
        tight_relation_check(corner_projection_system(6))


def test_tight_relation_identity_system():
    rep = tight_relation_check(KGSystem(GSystem(3, (np.eye(3),)), np.eye(3)))
    assert abs(rep.kg_constant - 1.0) < 1e-9
    assert rep.is_tight_g
    assert abs(rep.g_constant - 1.0) < 1e-9
    assert rep.ratio_deviation <= 1e-9
    assert abs(rep.kk_star_scalar - 1.0) < 1e-9
    assert rep.iff_consistent


def test_tight_relation_scalar_kk_star():
    # K = sqrt(c) * unitary gives K K^* = c I; identity block stays tight
    rng = np.random.default_rng(60)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    c = 0.49
    ksys = KGSystem(GSystem(4, (np.eye(4),)), np.sqrt(c) * q)
    rep = tight_relation_check(ksys)
    assert rep.is_tight_g
    assert rep.kk_star_scalar is not None and abs(rep.kk_star_scalar - c) < 1e-9
    assert abs(rep.g_constant - rep.kg_constant * c) <= 1e-9 * max(1.0, rep.g_constant)
    assert rep.iff_consistent


def test_tight_relation_non_scalar_kk_star():
    # single block equal to K^* makes S = K K^* (tight with constant 1)
    k = np.diag([1.0, 2.0]).astype(np.complex128)
    ksys = KGSystem(GSystem(2, (k.conj().T,)), k)
    rep = tight_relation_check(ksys)
    assert abs(rep.kg_constant - 1.0) < 1e-9
    assert not rep.is_tight_g
    assert rep.g_constant is None
    assert rep.kk_star_scalar is None
    assert rep.iff_consistent


def test_overlap_chain_is_tight_and_consistent():
    rep = tight_relation_check(overlap_chain_system(8))
    assert abs(rep.kg_constant - 2.0) <= 1e-8
    assert not rep.is_tight_g
    assert rep.iff_consistent


@pytest.mark.parametrize("c", [1.0, 1e-3, 1e-6])
def test_tight_relation_verdict_does_not_depend_on_scale(c):
    # S = diag(1, 4) = K K^* / c^2: tight relative to K, and K K^* is not scalar
    l = np.diag([1.0, 2.0]).astype(np.complex128)
    rep = tight_relation_check(KGSystem(GSystem(2, (l,)), c * l))
    assert abs(rep.kg_constant * c * c - 1.0) < 1e-9
    assert not rep.is_tight_g
    assert rep.kk_star_scalar is None
    assert rep.iff_consistent
    # K = c I over the identity block: K K^* = c^2 I and the system is g-tight
    rep = tight_relation_check(KGSystem(GSystem(2, (np.eye(2),)), c * np.eye(2)))
    assert rep.is_tight_g
    assert rep.kk_star_scalar is not None and abs(rep.kk_star_scalar - c * c) <= 1e-9 * c * c
    assert rep.iff_consistent


def test_tight_relation_decides_scalar_as_classify_does():
    # S = diag(1 + 5e-9, 1, 1, 1) is within TIGHT_RTOL of scalar, and K = I
    blocks = (np.diag([np.sqrt(1 + 5e-9), 1.0, 0.0, 0.0])[:2], np.eye(4)[2:])
    ksys = KGSystem(GSystem(4, blocks), np.eye(4))
    assert classify(ksys).label is Classification.TIGHT_G_FRAME
    rep = tight_relation_check(ksys)
    assert rep.is_tight_g
    assert rep.kk_star_scalar == 1.0
    assert rep.iff_consistent


def test_tightness_relative_to_k_is_decided_in_the_operator_norm():
    # S = diag(w) with one eigenvalue 5e-8 above the rest and K = I: ||S - I||
    # is 5e-8 ||S||, so neither S nor S relative to K is tight, though the
    # Frobenius distance, 5e-8 against ||S||_F = 10, is within TIGHT_RTOL
    w = np.ones(100)
    w[-1] += 5e-8
    ksys = KGSystem(GSystem(100, (np.diag(np.sqrt(w)),)), np.eye(100))
    rep = classify(ksys)
    assert rep.label is Classification.G_FRAME
    assert not rep.bounds.tight_kg
    with pytest.raises(NotTightError):
        tight_relation_check(ksys)


def test_at_k_the_identity_tightness_relative_to_k_is_g_tightness():
    # near-scalar S, K = I: the tight-g label and tight_kg must agree
    rng = np.random.default_rng(20261019)
    for _ in range(600):
        n = int(rng.integers(2, 65))
        w = np.ones(n)
        moved = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        w[moved] += rng.choice([-1.0, 1.0], size=moved.size) * 10.0 ** rng.uniform(-10, -6, moved.size)
        block = np.sqrt(10.0 ** rng.uniform(-3, 3) * w)[:, np.newaxis] * _unitary(rng, n)
        ksys = KGSystem(GSystem(n, (block,)), np.eye(n))
        rep = classify(ksys)
        assert rep.bounds.tight_kg == (rep.label is Classification.TIGHT_G_FRAME), w
        if rep.bounds.tight_kg:
            assert tight_relation_check(ksys).iff_consistent, w


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def _near_scalar_tight_systems(draw):
    """S = a K K^* exactly, with K K^* = c I but for one eigenvalue moved by delta."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sig2 = np.ones(n)
    sig2[draw(st.integers(0, n - 1))] += draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(
        st.floats(np.log10(3e-11), -7.0))
    c = 10.0 ** draw(st.floats(-3.0, 3.0))
    k = _unitary(rng, n) @ np.diag(np.sqrt(c * sig2)) @ _unitary(rng, n)
    a = 10.0 ** draw(st.floats(-2.0, 2.0))
    l = np.sqrt(a) * _unitary(rng, n) @ k.conj().T
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=min(2, n - 1))))
    return KGSystem(GSystem(n, tuple(np.split(l, cuts))), k)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_near_scalar_tight_systems())
def test_tight_relation_is_consistent_near_the_scalar_threshold(ksys):
    try:
        rep = tight_relation_check(ksys)
    except NotTightError:
        return
    assert rep.iff_consistent
