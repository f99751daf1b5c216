"""Tests for erasure criteria and brute-force survival analysis."""

import numpy as np
import pytest

from kgframes import (
    BadIndexError,
    FrameOperatorSingularError,
    GSystem,
    KGSystem,
    KStarNotBoundedBelowError,
    NotUnitNormError,
    TooManySubsetsError,
    Classification,
    approx_defect,
    brute_force_erasure_search,
    classify,
    corner_projection_system,
    erasure_brute_report,
    erasure_invertibility,
    erasure_norm_count,
    frame_operator,
    optimal_bounds,
    overlap_chain_system,
    partial_frame_operator,
    perturbed_dual,
    random_kg_system,
    reduced_system,
)

from oracles import (
    complex_gaussian,
    frame_operator_of,
    full_rank_instance,
    oracle_is_kg_frame,
    unit_norm_instance,
)


def _unitary_block_system(n: int, num_unitary: int, c_min: float, seed: int) -> KGSystem:
    """All-unitary blocks with K of top singular value 1 and bottom c_min."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(num_unitary):
        q, _ = np.linalg.qr(complex_gaussian(rng, (n, n)))
        blocks.append(q)
    u, _ = np.linalg.qr(complex_gaussian(rng, (n, n)))
    v, _ = np.linalg.qr(complex_gaussian(rng, (n, n)))
    svals = np.linspace(1.0, c_min, n).astype(np.complex128)
    k = u @ np.diag(svals) @ v.conj().T
    return KGSystem(GSystem(n, tuple(blocks)), k)


def test_partial_frame_operators_are_additive():
    ksys = full_rank_instance(7)
    m = ksys.system.num_blocks
    idx = tuple(range(0, m, 2))
    rest = tuple(j for j in range(m) if j not in idx)
    total = partial_frame_operator(ksys.system, idx) + partial_frame_operator(
        ksys.system, rest
    )
    s = frame_operator(ksys.system)
    assert np.max(np.abs(total - s)) <= 1e-12 * max(1.0, np.max(np.abs(s)))


def test_partial_frame_operator_validates_indices():
    ksys = full_rank_instance(8)
    with pytest.raises(BadIndexError):
        partial_frame_operator(ksys.system, [0, 0])
    with pytest.raises(BadIndexError):
        partial_frame_operator(ksys.system, [ksys.system.num_blocks])
    with pytest.raises(BadIndexError):
        partial_frame_operator(ksys.system, [-1])


def test_reduced_system_keeps_complement_in_order():
    ksys = full_rank_instance(9)
    red = reduced_system(ksys, (1,))
    kept = [b for j, b in enumerate(ksys.system.blocks) if j != 1]
    assert red.system.num_blocks == ksys.system.num_blocks - 1
    assert all(np.array_equal(a, b) for a, b in zip(red.system.blocks, kept))
    assert np.array_equal(red.k, ksys.k)


def test_norm_count_requires_k_star_bounded_below():
    ksys = corner_projection_system(6)
    with pytest.raises(KStarNotBoundedBelowError):
        erasure_norm_count(ksys, [1])


def test_norm_count_requires_unit_norm_removed_blocks():
    ksys = full_rank_instance(10)  # gaussian blocks, norms far from one
    with pytest.raises(NotUnitNormError):
        erasure_norm_count(ksys, [0])


def test_norm_count_empty_removal_reports_full_margin():
    ksys = _unitary_block_system(5, 3, 0.9, seed=1)
    rep = erasure_norm_count(ksys, [])
    a = optimal_bounds(ksys).kg_lower_opt
    c = float(np.linalg.svd(ksys.k, compute_uv=False)[-1])
    assert rep.survives
    assert abs(rep.predicted_lower_bound - a * c * c) <= 1e-9
    assert rep.criterion == "normCount"


def test_norm_count_margin_matches_closed_form():
    # three unitary blocks: S = 3 I, so the bound relative to K is exactly 3
    ksys = _unitary_block_system(4, 3, np.sqrt(0.8), seed=2)
    rep = erasure_norm_count(ksys, [0, 2])
    assert rep.survives
    assert abs(rep.predicted_lower_bound - (3.0 * 0.8 - 2.0)) <= 1e-9
    assert rep.actual_lower_bound is not None
    assert rep.predicted_lower_bound <= rep.actual_lower_bound + 1e-8
    assert rep.count_conditions_differ is False


def test_norm_count_detects_diverging_count_conditions():
    # A = 3, C = 0.8: |I| = 2 sits between A C^2 = 1.92 and A C = 2.4
    ksys = _unitary_block_system(4, 3, 0.8, seed=3)
    rep = erasure_norm_count(ksys, [0, 1])
    assert not rep.survives
    assert rep.predicted_lower_bound is None
    assert rep.count_conditions_differ is True


def test_norm_count_survival_is_sound_against_brute_force():
    for seed in range(10):
        ksys = unit_norm_instance(seed)
        m = ksys.system.num_blocks
        for removal in ([0], [m - 1], [0, 1]):
            rep = erasure_norm_count(ksys, removal)
            if rep.survives:
                truth = erasure_brute_report(ksys, removal)
                assert truth.survives
                assert rep.predicted_lower_bound <= truth.actual_lower_bound + 1e-8


def test_invertibility_requires_nonsingular_frame_operator():
    ksys = corner_projection_system(6)
    with pytest.raises(FrameOperatorSingularError):
        erasure_invertibility(ksys, [1])


def test_invertibility_empty_removal_survives():
    ksys = full_rank_instance(11)
    rep = erasure_invertibility(ksys, [])
    assert rep.survives
    assert rep.criterion == "invertibility"
    assert rep.invertibility_norm is not None
    assert abs(rep.invertibility_norm - 1.0) <= 1e-9
    assert rep.predicted_lower_bound <= rep.actual_lower_bound + 1e-8


def test_invertibility_detects_fatal_removal():
    # 2+2+1 rows in dimension 4: dropping both big blocks leaves rank 1
    ksys = random_kg_system(4, [2, 2, 1], 4, seed=77)
    rep = erasure_invertibility(ksys, [0, 1])
    assert not rep.survives
    truth = erasure_brute_report(ksys, [0, 1])
    assert not truth.survives


def test_invertibility_matches_brute_force_on_all_small_removals():
    for seed in range(6):
        ksys = full_rank_instance(seed + 40)
        m = ksys.system.num_blocks
        singletons = [(j,) for j in range(m)]
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        for removal in singletons + pairs:
            rep = erasure_invertibility(ksys, removal)
            truth = erasure_brute_report(ksys, removal)
            assert rep.survives == truth.survives, (seed, removal)
            if rep.survives:
                assert rep.predicted_lower_bound <= truth.actual_lower_bound + 1e-8
                assert rep.predicted_lower_bound_stated is not None


def test_brute_report_matches_independent_oracle():
    for seed in range(6):
        ksys = full_rank_instance(seed + 60)
        m = ksys.system.num_blocks
        for removal in [(j,) for j in range(m)]:
            rep = erasure_brute_report(ksys, removal)
            kept = [b for j, b in enumerate(ksys.system.blocks) if j not in removal]
            s_red = frame_operator_of(GSystem(ksys.ambient_dim, tuple(kept)))
            assert rep.survives == oracle_is_kg_frame(s_red, ksys.k), (seed, removal)


def test_brute_report_on_zero_blocks_of_corner_system():
    ksys = corner_projection_system(6)
    dead = erasure_brute_report(ksys, [0])
    assert not dead.survives
    alive = erasure_brute_report(ksys, [1])
    assert alive.survives
    assert abs(alive.actual_lower_bound - 1.0) <= 1e-10


def test_brute_search_enumerates_in_deterministic_order():
    ksys = corner_projection_system(6)
    reports = brute_force_erasure_search(ksys, 1)
    assert [r.removed for r in reports] == [(), (0,), (1,)]
    assert [r.survives for r in reports] == [True, False, True]
    all_reports = brute_force_erasure_search(ksys, 2)
    assert [r.removed for r in all_reports] == [(), (0,), (1,), (0, 1)]


def test_brute_search_validates_budget_and_range():
    ksys = corner_projection_system(6)
    with pytest.raises(BadIndexError):
        brute_force_erasure_search(ksys, 3)
    wide = random_kg_system(3, [1] * 40, 2, seed=5)
    with pytest.raises(TooManySubsetsError):
        brute_force_erasure_search(wide, 5)


def test_removing_every_block_never_survives():
    ksys = full_rank_instance(12)
    rep = erasure_brute_report(ksys, range(ksys.system.num_blocks))
    assert not rep.survives
    assert rep.actual_lower_bound is None


def test_brute_survival_is_scale_invariant():
    chain = overlap_chain_system(8)
    reference = [r.survives for r in brute_force_erasure_search(chain, 1)]
    for c in (1e-6, 1e6):
        scaled = KGSystem(GSystem(8, tuple(c * b for b in chain.system.blocks)), chain.k)
        assert classify(scaled).label is Classification.TIGHT_KG_FRAME
        assert erasure_brute_report(scaled, []).survives
        assert [r.survives for r in brute_force_erasure_search(scaled, 1)] == reference
        rescaled_k = KGSystem(chain.system, c * chain.k)
        assert [r.survives for r in brute_force_erasure_search(rescaled_k, 1)] == reference


def _nearly_singular_system() -> KGSystem:
    """S = diag(1, 1e-4) plus a zero block: singular only at rank_tol 1e-3."""
    blocks = (np.array([[1.0, 0.0]]), np.array([[0.0, 1e-2]]), np.zeros((1, 2)))
    return KGSystem(GSystem(2, blocks), np.eye(2))


def test_erasure_criteria_use_the_rank_tolerance():
    ksys = _nearly_singular_system()
    assert erasure_brute_report(ksys, [2]).survives
    assert not erasure_brute_report(ksys, [2], rank_tol=1e-3).survives
    assert [r.survives for r in brute_force_erasure_search(ksys, 0, rank_tol=1e-3)] == [False]
    assert erasure_invertibility(ksys, [2]).survives
    with pytest.raises(FrameOperatorSingularError):
        erasure_invertibility(ksys, [2], rank_tol=1e-3)
    skewed_k = KGSystem(GSystem(2, (np.eye(2),)), np.diag([1.0, 1e-4]))
    assert erasure_norm_count(skewed_k, []).survives
    with pytest.raises(KStarNotBoundedBelowError):
        erasure_norm_count(skewed_k, [], rank_tol=1e-3)


def test_perturbed_dual_uses_the_rank_tolerance():
    rng = np.random.default_rng(98)
    u, _ = np.linalg.qr(complex_gaussian(rng, (4, 4)))
    k = u @ np.diag([1.0, 0.5, 1e-4, 0.0]) @ u.conj().T
    ksys = KGSystem(GSystem(4, (complex_gaussian(rng, (5, 4)),)), k)
    pert = perturbed_dual(ksys, 0.3, seed=1, rank_tol=1e-3)
    assert abs(approx_defect(ksys.system, pert, k, rank_tol=1e-3).defect - 0.3) <= 1e-9
