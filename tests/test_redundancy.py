"""Tests for erasure criteria and brute-force survival analysis."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgframes import (
    BadIndexError,
    FloatRangeError,
    FrameOperatorSingularError,
    GSystem,
    KGSystem,
    KStarNotBoundedBelowError,
    NotKGFrameError,
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
from kgframes.linops import RANGE_INCLUSION_RTOL
from kgframes import linops, redundancy
from kgframes.redundancy import _fatal_removals, _removed_rows, _survival_floor

from oracles import (
    complex_gaussian,
    frame_operator_of,
    full_rank_instance,
    invertibility_norms_of,
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


def test_norm_count_requires_a_kg_frame():
    # K = I is invertible with norm 1 and the removed block has norm 1, but S = diag(1, 0) is singular
    ksys = KGSystem(GSystem(2, (np.array([[1.0, 0.0]]),)), np.eye(2))
    with pytest.raises(NotKGFrameError, match="no positive lower bound relative to K"):
        erasure_norm_count(ksys, [0])


@pytest.mark.parametrize("k", [np.eye(2), 1e-10 * np.eye(2), np.zeros((2, 2))], ids=["I", "1e-10 I", "0"])
def test_invertibility_with_s_below_the_float_range_is_a_typed_error(k):
    # S = 2e-312 I: S^{-1} overflows
    ksys = KGSystem(GSystem(2, (1e-156 * np.eye(2), 1e-156 * np.eye(2))), k)
    with pytest.raises(FloatRangeError):
        erasure_invertibility(ksys, [1])


def test_search_with_s_below_the_float_range_leaves_the_certificate_out():
    # S = 2e-312 I: S^{-1} overflows, so removing both blocks is left to the eigh path
    ksys = KGSystem(GSystem(2, (1e-156 * np.eye(2), 1e-156 * np.eye(2))), np.eye(2))
    reports = brute_force_erasure_search(ksys, 2)
    _assert_equals_reference(ksys, reports, linops.DEFAULT_RANK_TOL)
    whole = optimal_bounds(ksys).kg_lower_opt
    assert [r.actual_lower_bound for r in reports] == [whole, 1e-312, 1e-312, None]


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



def test_norm_count_requires_k_of_norm_at_most_one():
    # three unitary blocks give S = 3 I; with ||K|| = 2, removing two leaves
    # S_red = I, whose bound relative to K is 1 / ||K||^2 = 0.25, below the
    # count's A C^2 - |I| = 0.75 * 1.8^2 - 2 = 0.43
    base = _unitary_block_system(4, 3, 0.9, seed=2)
    ksys = KGSystem(base.system, 2.0 * base.k)
    assert erasure_brute_report(ksys, [0, 1]).actual_lower_bound == pytest.approx(0.25)
    with pytest.raises(NotUnitNormError, match="K has operator norm 2"):
        erasure_norm_count(ksys, [0, 1])
    # a singular K is reported as such first
    corner = corner_projection_system(6)
    with pytest.raises(KStarNotBoundedBelowError):
        erasure_norm_count(KGSystem(corner.system, 2.0 * corner.k), [1])


@st.composite
def _unit_norm_instances(draw):
    """Systems of unit-norm blocks, one to three of them unitary, with K invertible and ||K|| <= 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 6))
    blocks = [np.linalg.qr(complex_gaussian(rng, (n, n)))[0] for _ in range(draw(st.integers(1, 3)))]
    for d in draw(st.lists(st.integers(1, n), max_size=3)):
        g = complex_gaussian(rng, (d, n))
        blocks.append(g / np.linalg.svd(g, compute_uv=False)[0])
    u, _ = np.linalg.qr(complex_gaussian(rng, (n, n)))
    v, _ = np.linalg.qr(complex_gaussian(rng, (n, n)))
    svals = draw(st.sampled_from((0.3, 1.0))) * np.linspace(1.0, draw(st.floats(0.5, 1.0)), n)
    return KGSystem(GSystem(n, tuple(blocks)), (u * svals) @ v.conj().T)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_unit_norm_instances())
def test_norm_count_never_claims_more_than_brute_force_property(ksys):
    m = ksys.system.num_blocks
    for removal in itertools.chain.from_iterable(
        itertools.combinations(range(m), r) for r in range(m + 1)
    ):
        rep = erasure_norm_count(ksys, removal)
        if rep.survives:
            truth = erasure_brute_report(ksys, removal)
            assert truth.survives, removal
            actual = truth.actual_lower_bound
            assert rep.predicted_lower_bound <= actual + 1e-8 * max(1.0, actual), removal


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


def test_invertibility_answers_for_zero_k():
    # a g-frame with K = 0: every A > 0 serves, so A is the g-frame bound
    r = np.random.default_rng(0)
    g = lambda d: r.standard_normal((d, 4)) + 1j * r.standard_normal((d, 4))
    ksys = KGSystem(GSystem(4, (g(4), g(2))), np.zeros((4, 4)))
    assert classify(ksys).label is Classification.G_FRAME
    kept = erasure_invertibility(ksys, [1])  # block 0 alone spans C^4
    assert kept.survives
    # K^* T^{-1} = 0 guarantees nothing; the companion A / ||T^{-1}||^2 is reported
    assert kept.predicted_lower_bound is None and kept.actual_lower_bound is None
    inv_norm = kept.invertibility_norm
    assert kept.predicted_lower_bound_stated == optimal_bounds(ksys).g_lower_opt / (inv_norm * inv_norm)
    assert not erasure_invertibility(ksys, [0]).survives  # block 1 has 2 rows
    # brute force's rule A * ||K||^2 > SURVIVAL_TOL * B never holds for K = 0
    assert not erasure_brute_report(ksys, [1]).survives
    with pytest.raises(KStarNotBoundedBelowError):
        erasure_norm_count(ksys, [1])


def test_invertibility_norms_match_plain_inverses():
    for seed in range(3):
        ksys = random_kg_system(12, [3] * 5, 5, seed=seed)
        bounds = optimal_bounds(ksys)
        a = min(bounds.g_lower_opt, bounds.kg_lower_opt)
        for removal in [*itertools.combinations(range(5), 1), *itertools.combinations(range(5), 2)]:
            rep = erasure_invertibility(ksys, removal)
            if not rep.survives:
                continue
            inv_norm, k_inv_norm = invertibility_norms_of(ksys, removal)
            assert abs(rep.invertibility_norm - inv_norm) <= 1e-11 * inv_norm, removal
            want = a / (k_inv_norm * k_inv_norm)
            assert abs(rep.predicted_lower_bound - want) <= 1e-11 * want, removal


def test_invertibility_takes_one_svd_of_t_and_no_inverse(linalg_calls):
    ksys = random_kg_system(12, [3] * 5, 5, seed=0)
    assert ksys.k_svals is not None and ksys.s_evals is not None  # K and S factored first
    linalg_calls.clear()
    assert erasure_invertibility(ksys, [1]).survives
    names = [name for name, _, _ in linalg_calls]
    assert [call for call in linalg_calls if call[0] == "svd"] == [("svd", (12, 12), True)]
    assert "inv" not in names and "solve" not in names
    # the bound's Gram, ||K^* V diag(1/sigma)||'s Gram, and the reduced system's eigh and Gram
    assert sorted(names) == ["eigh", "eigvalsh", "eigvalsh", "eigvalsh", "svd"]


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


def _erasure_cases() -> dict[str, tuple[KGSystem, int]]:
    """Systems for the reference comparison, each with its ``max_remove``."""
    rng = np.random.default_rng(31)
    n = 5
    blocks = tuple(complex_gaussian(rng, (d, n)) for d in (2, 3, 1, 2))
    low_rank_k = complex_gaussian(rng, (n, 2)) @ complex_gaussian(rng, (2, n))
    with_empty_block = (blocks[0], np.zeros((0, n)), *blocks[1:])
    return {
        # the erasure_sweep benchmark size: 13 blocks of d = 2 in n = 24, rank K = 8
        "sweep_seed0": (random_kg_system(24, [2] * 13, 8, seed=0), 2),
        "sweep_seed1": (random_kg_system(24, [2] * 13, 8, seed=1), 2),
        "chain": (overlap_chain_system(6), 5),
        "corner": (corner_projection_system(6), 2),
        "zero_k": (KGSystem(GSystem(n, blocks), np.zeros((n, n))), 4),
        "rank_deficient_k": (KGSystem(GSystem(n, blocks), low_rank_k), 4),
        "empty_block": (KGSystem(GSystem(n, with_empty_block), complex_gaussian(rng, (n, n))), 5),
        "unitary": (_unitary_block_system(4, 3, 0.9, seed=4), 3),
    }


ERASURE_CASES = _erasure_cases()
# Preconditions of the two sufficient criteria; the comparison needs only the
# reduced bound a criterion reports when it runs.
PRECONDITIONS = (FrameOperatorSingularError, KStarNotBoundedBelowError, NotKGFrameError, NotUnitNormError)


def _assert_same_bound(got, want, where):
    assert (got is None) == (want is None), where
    if want is not None:
        assert abs(got - want) <= 1e-12 * abs(want), (where, got, want)


@pytest.mark.parametrize("scale", (1.0, 1e-6, 1e6))
@pytest.mark.parametrize("name", sorted(ERASURE_CASES))
def test_erasure_bounds_match_the_reduced_system_reference(name, scale):
    base, max_remove = ERASURE_CASES[name]
    ksys = KGSystem(base.system.with_matrix(scale * base.system.matrix), base.k)
    floor = _survival_floor(ksys)
    criteria = (erasure_brute_report, erasure_norm_count, erasure_invertibility)
    ran = dict.fromkeys(criteria, 0)
    reports = brute_force_erasure_search(ksys, max_remove)
    for rep in reports:
        want = optimal_bounds(reduced_system(ksys, rep.removed)).kg_lower_opt
        assert rep.survives == (want is not None and want > floor), rep.removed
        _assert_same_bound(rep.actual_lower_bound, want, rep.removed)
        for criterion in criteria:
            try:
                got = criterion(ksys, rep.removed)
            except PRECONDITIONS:
                continue
            ran[criterion] += 1
            _assert_same_bound(got.actual_lower_bound, want, (criterion.__name__, rep.removed))
            if criterion is erasure_brute_report:
                assert got.survives == rep.survives, rep.removed
    assert ran[erasure_brute_report] == len(reports)
    if name == "unitary" and scale == 1.0:
        assert set(ran.values()) == {len(reports)}


def _tally(calls, n: int) -> dict[str, int]:
    """Counts of n x n ``eigh`` matrices, each matrix of a stack counted, of
    batched ``eigh`` calls of another size, of ``eigvalsh`` calls and of SVDs
    with vectors."""
    counts = {"eigh_nxn": 0, "eigh_batched": 0, "eigvalsh": 0, "svd_with_vectors": 0}
    for name, shape, compute_uv in calls:
        if name == "eigh" and shape[-1] == n:
            counts["eigh_nxn"] += math.prod(shape[:-2])
            continue
        if name == "eigh":
            name = "eigh_batched"
        elif name == "svd" and compute_uv:
            name = "svd_with_vectors"
        if name in counts:
            counts[name] += 1
    return counts


def test_search_on_a_cached_spectrum_factors_no_k_and_no_s_for_fatal_removals(linalg_calls):
    # 13 blocks of 2 rows in n = 24: removing two leaves 22 rows, so every
    # pair is certified fatal from the full factorization; the 13 single
    # removals take one stacked eigh of 13 n x n matrices, and the empty removal reads S's
    ksys = random_kg_system(24, [2] * 13, 8, seed=0)
    assert ksys.k_svals is not None  # K factored before counting starts
    linalg_calls.clear()
    reports = brute_force_erasure_search(ksys, 2)
    counts = _tally(linalg_calls, 24)
    assert len(reports) == 92
    assert counts["eigh_nxn"] == 13
    # one batched q x q eigh for the one (size, q) group tried: the pairs, q = 4
    assert counts["eigh_batched"] == 1
    # one stacked Gram eigvalsh for S^{+/2} K per pass: the empty removal's and the singles'
    assert counts["eigvalsh"] == 2
    assert counts["svd_with_vectors"] == 0
    assert all(r.actual_lower_bound is None for r in reports if len(r.removed) == 2)


def test_search_with_a_singular_frame_operator_factors_s_once_and_each_nonempty_removal_once(linalg_calls):
    # 10 rows in n = 6, so three-block removals leave fewer than n rows, but
    # S is singular and the certificate is not tried
    chain = overlap_chain_system(6)
    assert chain.k_svals is not None  # K is factored; S is factored on first use
    linalg_calls.clear()
    reports = brute_force_erasure_search(chain, 3)
    # S itself, on first use, which the empty removal shares, then one matrix per other subset;
    # the one support size that keeps range(K) takes one stacked Gram eigvalsh
    assert _tally(linalg_calls, 6) == {"eigh_nxn": len(reports), "eigh_batched": 0,
                                    "eigvalsh": 1, "svd_with_vectors": 0}


def _assert_equals_reference(ksys, reports, rank_tol):
    """Each report equals the bounds of the reduced system built from scratch, to the bit."""
    floor = _survival_floor(ksys)
    for rep in reports:
        want = optimal_bounds(reduced_system(ksys, rep.removed), rank_tol=rank_tol).kg_lower_opt
        assert (rep.actual_lower_bound is None) == (want is None), rep.removed
        assert rep.actual_lower_bound == want, (rep.removed, rep.actual_lower_bound, want)
        assert rep.survives == (want is not None and want > floor), rep.removed


def _mixed_dims_system(seed: int, k_kind: str) -> KGSystem:
    """Blocks of 1, 2 and 3 rows and one of none in n = 6: removals of one
    size remove different row counts q, and some leave fewer than n rows.

    K has full rank, rank 2, or its range spanned by the 3 rows of blocks 0
    and 1, so removals that keep those blocks survive with fewer than n rows.
    """
    rng = np.random.default_rng(seed)
    n = 6
    blocks = tuple(complex_gaussian(rng, (d, n)) for d in (2, 1, 0, 3, 1, 2))
    if k_kind == "in_rows":
        k = np.vstack(blocks[:2]).conj().T @ complex_gaussian(rng, (3, n))
    else:
        rank_k = {"full": n, "rank2": 2}[k_kind]
        k = complex_gaussian(rng, (n, rank_k)) @ complex_gaussian(rng, (rank_k, n))
    return KGSystem(GSystem(n, blocks), k)


@pytest.mark.parametrize("scale", (1.0, 1e-6, 1e6))
@pytest.mark.parametrize("rank_tol", (0.0, 1e-10, 1e-3))
@pytest.mark.parametrize("k_kind", ("full", "rank2", "in_rows"))
def test_fatal_removal_certificate_keeps_every_report_of_the_reference(k_kind, rank_tol, scale):
    base = _mixed_dims_system(17, k_kind)
    ksys = KGSystem(base.system.with_matrix(scale * base.system.matrix), base.k)
    reports = brute_force_erasure_search(ksys, 4, rank_tol)
    _assert_equals_reference(ksys, reports, rank_tol)
    for rep in reports:
        assert erasure_brute_report(ksys, rep.removed, rank_tol) == rep
    if k_kind == "in_rows":
        # survivors that leave fewer rows than n exist, so "fewer rows" alone proves nothing
        assert any(r.survives and 0 not in r.removed and 3 in r.removed for r in reports)


def test_fatal_removal_certificate_fires_on_mixed_block_dims():
    ksys = _mixed_dims_system(17, "rank2")
    subsets = [c for r in range(5) for c in itertools.combinations(range(6), r)]
    removed = _removed_rows(ksys.system, subsets)
    fatal = _fatal_removals(ksys, removed, 1e-10)
    counts = {int(rows.sum()) for rows, dead in zip(removed, fatal) if dead}
    assert len(counts) > 1  # certified removals of more than one row count
    assert not _fatal_removals(ksys, removed, 0.0).any()


@pytest.mark.parametrize("k_component", (0.5, 2.0))
def test_fatal_removal_certificate_declines_near_the_range_threshold(k_component):
    # dropping blocks 1 and 2 leaves the rows e1, e2 in n = 3, whose only
    # kernel direction e3 carries a K-component of about RANGE_INCLUSION_RTOL ||K||
    rng = np.random.default_rng(6)
    u, _ = np.linalg.qr(complex_gaussian(rng, (3, 3)))
    rows = (np.eye(3)[:2], np.eye(3)[2:], np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2.0))
    k = np.diag([1.0, 1.0, k_component * RANGE_INCLUSION_RTOL])
    ksys = KGSystem(GSystem(3, tuple(r @ u for r in rows)), u.conj().T @ k @ u)
    assert not _fatal_removals(ksys, _removed_rows(ksys.system, [(1, 2)]), 1e-10).any()
    reports = brute_force_erasure_search(ksys, 2)
    _assert_equals_reference(ksys, reports, 1e-10)
    assert (reports[-1].actual_lower_bound is None) == (k_component > 1.0)


def test_a_moved_range_threshold_reaches_every_decision_of_the_search(monkeypatch):
    # the rows of the test above with K = diag(1, 1, 0.05): K's component
    # along e3, the kernel left by dropping blocks 1 and 2, is inside 0.1 ||K||
    rng = np.random.default_rng(6)
    u, _ = np.linalg.qr(complex_gaussian(rng, (3, 3)))
    rows = (np.eye(3)[:2], np.eye(3)[2:], np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2.0))
    k = np.diag([1.0, 1.0, 0.05])
    ksys = KGSystem(GSystem(3, tuple(r @ u for r in rows)), u.conj().T @ k @ u)
    assert brute_force_erasure_search(ksys, 2)[-1].actual_lower_bound is None
    monkeypatch.setattr(linops, "RANGE_INCLUSION_RTOL", 0.1)
    reports = brute_force_erasure_search(ksys, 2)
    assert reports[-1].removed == (1, 2)
    assert reports[-1].actual_lower_bound == optimal_bounds(reduced_system(ksys, (1, 2))).kg_lower_opt
    assert reports[-1].survives
    _assert_equals_reference(ksys, reports, 1e-10)


def _grouping_system() -> KGSystem:
    """Rows e1 | none | e2 + e1/2, e3 | e3 + e4, e4 + e1/4 | e2 - 3e1/4 in
    n = 4, in a fixed unitary basis, with range(K) = span(e1, e2).

    Dropping block 2 or block 3 keeps four rows each, with S_red of rank 4
    and 3 respectively, range(K) inside both, and different bounds.
    """
    rng = np.random.default_rng(23)
    u, _ = np.linalg.qr(complex_gaussian(rng, (4, 4)))
    e = np.eye(4)
    rows = (e[[0]], np.zeros((0, 4)), np.array([e[1] + e[0] / 2, e[2]]),
            np.array([e[2] + e[3], e[3] + e[0] / 4]), np.array([e[1] - 3 * e[0] / 4]))
    k = e[:, :2] @ complex_gaussian(rng, (2, 4))
    return KGSystem(GSystem(4, tuple(r @ u for r in rows)), u.conj().T @ k @ u)


@pytest.mark.parametrize("rank_tol", (0.0, 1e-10, 1e-3))
def test_stacked_search_groups_by_kept_rows_and_support_size(rank_tol):
    ksys = _grouping_system()
    m = ksys.system.num_blocks
    subsets = [c for r in range(m + 1) for c in itertools.combinations(range(m), r)]
    # the groups the stacked pass forms, seen from the system itself
    live = ~_fatal_removals(ksys, _removed_rows(ksys.system, subsets), 1e-10)
    support_sizes: dict[int, set[int]] = {}
    for idx, alive in zip(subsets, live):
        red = reduced_system(ksys, idx)
        if alive and red.system.offsets[-1] and oracle_is_kg_frame(frame_operator_of(red.system), ksys.k):
            w = np.linalg.eigvalsh(frame_operator_of(red.system))
            size = int(np.count_nonzero(w > 1e-10 * w[-1]))
            support_sizes.setdefault(red.system.offsets[-1], set()).add(size)
    assert len(support_sizes) >= 2
    assert {3, 4} <= support_sizes[4]
    reports = brute_force_erasure_search(ksys, m, rank_tol)
    _assert_equals_reference(ksys, reports, rank_tol)
    for rep in reports:
        assert erasure_brute_report(ksys, rep.removed, rank_tol) == rep


def test_a_search_in_runs_within_a_small_stack_budget_reports_the_same_bits(monkeypatch):
    cases = [_mixed_dims_system(17, kind) for kind in ("full", "rank2", "in_rows")] + [_grouping_system()]
    chunks, runs, budget = redundancy._chunks, [], redundancy.STACK_BYTES

    def recorded(members, member_bytes):
        for run in chunks(members, member_bytes):
            runs.append(len(run))
            yield run

    monkeypatch.setattr(redundancy, "_chunks", recorded)
    for rank_tol in (0.0, 1e-10, 1e-3):
        for ksys in cases:
            reports, run_counts = [], []
            for stack_bytes in (budget, 4096, 1):
                monkeypatch.setattr(redundancy, "STACK_BYTES", stack_bytes)
                runs.clear()
                reports.append(brute_force_erasure_search(ksys, ksys.system.num_blocks, rank_tol))
                run_counts.append(len(runs))
            assert reports[0] == reports[1] == reports[2]
            assert run_counts[0] < run_counts[1] < run_counts[2] and max(runs) == 1  # one removal per run


@st.composite
def _erasure_instances(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(2, 6))
    dims = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    rank_k = draw(st.integers(0, n))
    blocks = tuple(10.0 ** rng.uniform(-6, 6) * complex_gaussian(rng, (d, n)) for d in dims)
    # range(K) inside the span of a few blocks' rows, so that removals leaving
    # fewer than n rows can survive
    spanning = draw(st.lists(st.integers(0, len(dims) - 1), max_size=2, unique=True))
    basis = np.vstack([blocks[j] for j in spanning]).conj().T if spanning else np.eye(n)
    k = basis @ complex_gaussian(rng, (basis.shape[1], rank_k)) @ complex_gaussian(rng, (rank_k, n))
    rank_tol = draw(st.sampled_from((0.0, 1e-10, 1e-3)))
    return KGSystem(GSystem(n, blocks), k), min(3, len(dims)), rank_tol


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_erasure_instances())
def test_erasure_search_equals_the_reduced_system_reference_property(instance):
    ksys, max_remove, rank_tol = instance
    _assert_equals_reference(ksys, brute_force_erasure_search(ksys, max_remove, rank_tol), rank_tol)


@st.composite
def _g_frame_instances(draw):
    """Random K-g-systems with n <= 7 and at least n rows, so S is invertible."""
    dims = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    n = draw(st.integers(1, min(7, sum(dims))))
    rank_k = draw(st.integers(1, n))
    return random_kg_system(n, dims, rank_k, seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_g_frame_instances())
def test_invertibility_never_claims_more_than_brute_force_property(ksys):
    # every removal, all blocks included, where T = I - S^{-1} S is rounding noise
    m = ksys.system.num_blocks
    for removal in itertools.chain.from_iterable(
        itertools.combinations(range(m), r) for r in range(m + 1)
    ):
        rep = erasure_invertibility(ksys, removal)
        if rep.survives:
            truth = erasure_brute_report(ksys, removal)
            assert truth.survives, removal
            assert rep.predicted_lower_bound <= truth.actual_lower_bound * (1.0 + 1e-9), removal
