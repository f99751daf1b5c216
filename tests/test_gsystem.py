"""Tests for the core system model, bounds, and classification."""

import numpy as np
import pytest

from kgframes import (
    BlockSequence,
    Classification,
    DimMismatchError,
    FloatRangeError,
    GSystem,
    KGSystem,
    RangeConditionError,
    analysis,
    approx_defect,
    brute_force_erasure_search,
    canonical_kg_dual,
    classify,
    corner_projection_system,
    frame_operator,
    inner,
    optimal_bounds,
    overlap_chain_system,
    partial_frame_operator,
    random_kg_system,
    range_condition_holds,
    synthesis,
)

from oracles import (
    bisect_kg_lower_bound,
    complex_gaussian,
    frame_operator_of,
    full_rank_instance,
    random_instance,
)


def _identity_system(n: int) -> KGSystem:
    return KGSystem(GSystem(n, (np.eye(n),)), np.eye(n))


def test_block_width_must_match_ambient_dim():
    with pytest.raises(DimMismatchError, match="block 1"):
        GSystem(3, (np.zeros((2, 3)), np.zeros((2, 4))))


def test_k_must_be_square_of_ambient_dim():
    with pytest.raises(DimMismatchError):
        KGSystem(GSystem(3, (np.eye(3),)), np.zeros((3, 2)))


def test_blocks_are_frozen():
    sys = GSystem(2, (np.eye(2),))
    with pytest.raises(ValueError):
        sys.blocks[0][0, 0] = 5.0


def test_analysis_synthesis_shapes_and_values():
    sys = GSystem(2, (np.array([[1.0, 0.0]]), np.array([[0.0, 2.0], [1.0, 0.0]])))
    seq = analysis(sys, [1.0, 1.0])
    assert [p.tolist() for p in seq.parts] == [[1.0], [2.0, 1.0]]
    back = synthesis(sys, seq)
    s = frame_operator(sys)
    assert np.allclose(back, s @ np.array([1.0, 1.0]), atol=1e-12)


def test_block_sequence_norm_and_inner():
    seq = BlockSequence((np.array([3.0 + 0j]), np.array([4.0 + 0j, 0.0 + 0j])))
    assert abs(seq.norm() - 5.0) < 1e-12
    other = BlockSequence((np.array([1.0 + 0j]), np.array([0.0 + 0j, 1.0 + 0j])))
    assert abs(seq.inner(other) - 3.0) < 1e-12


def test_synthesis_adjoint_to_analysis():
    rng = np.random.default_rng(31)
    ksys = random_instance(41)
    sys = ksys.system
    for _ in range(20):
        f = complex_gaussian(rng, sys.ambient_dim)
        parts = BlockSequence(tuple(complex_gaussian(rng, d) for d in sys.block_dims))
        lhs = inner(synthesis(sys, parts), f)
        rhs = parts.inner(analysis(sys, f))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_frame_operator_equals_synthesis_after_analysis():
    ksys = random_instance(42)
    sys = ksys.system
    n = sys.ambient_dim
    composed = np.column_stack(
        [synthesis(sys, analysis(sys, e)) for e in np.eye(n, dtype=np.complex128)]
    )
    assert np.max(np.abs(composed - frame_operator(sys))) <= 1e-12 * max(
        1.0, np.max(np.abs(composed))
    )
    assert np.max(np.abs(frame_operator(sys) - frame_operator_of(sys))) <= 1e-12


def test_analysis_norm_squared_is_quadratic_form():
    rng = np.random.default_rng(32)
    ksys = random_instance(43)
    sys = ksys.system
    s = frame_operator(sys)
    for _ in range(10):
        f = complex_gaussian(rng, sys.ambient_dim)
        lhs = analysis(sys, f).norm() ** 2
        rhs = float(np.real(np.vdot(f, s @ f)))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_range_condition_trivial_cases():
    ksys = _identity_system(4)
    assert range_condition_holds(ksys)
    zero_k = KGSystem(GSystem(2, (np.eye(2),)), np.zeros((2, 2)))
    assert range_condition_holds(zero_k)
    # S supported on e0 only, K maps onto e1: inclusion fails
    bad = KGSystem(
        GSystem(2, (np.array([[1.0, 0.0]]),)),
        np.array([[0.0, 0.0], [1.0, 0.0]]),
    )
    assert not range_condition_holds(bad)


def test_bounds_of_blocks_near_1e_minus_156_need_no_square_of_a_norm():
    # S = 2e-312 I is subnormal and ||S^{+/2} K|| near 7e155: its square overflows, its Gram scaled does not
    ksys = KGSystem(GSystem(2, (1e-156 * np.eye(2), 1e-156 * np.eye(2))), np.eye(2))
    rep = optimal_bounds(ksys)
    assert rep.kg_lower_opt == rep.g_lower_opt == rep.bessel_upper_opt  # K = I and S scalar
    assert 1e-312 < rep.kg_lower_opt < 3e-312
    assert rep.tight_kg and rep.tightness_constant == rep.kg_lower_opt
    assert classify(ksys).label is Classification.TIGHT_G_FRAME


@pytest.mark.parametrize("scale", [1e-160, 1e-200])
def test_a_bound_relative_to_k_past_the_float_range_is_a_typed_error(scale):
    ksys = random_kg_system(4, [2, 1, 2], 2, 3)
    with pytest.raises(FloatRangeError, match="the lower bound relative to K"):
        optimal_bounds(KGSystem(ksys.system, scale * ksys.k))


def test_a_frame_operator_past_the_float_range_is_a_typed_error():
    ksys = random_kg_system(4, [2, 1, 2], 2, 3)
    big = KGSystem(ksys.system.with_matrix(1e160 * ksys.system.matrix), ksys.k)
    with pytest.raises(FloatRangeError, match="the frame operator"):
        frame_operator(big.system)
    with pytest.raises(FloatRangeError, match="the frame operator"):
        partial_frame_operator(big.system, [0])
    # 1e150 leaves S near 1e300, inside the range
    assert np.isfinite(frame_operator(ksys.system.with_matrix(1e150 * ksys.system.matrix))).all()


def test_bounds_scale_exactly_by_powers_of_two():
    ksys = random_kg_system(4, [2, 1, 2], 2, 3)
    base = optimal_bounds(ksys)
    brute = [r.actual_lower_bound for r in brute_force_erasure_search(ksys, 1)]
    for a in (-30, -1, 0, 20):
        for b in (-7, 0, 3, 11):
            scaled = KGSystem(GSystem(4, tuple(np.ldexp(1.0, a) * blk for blk in ksys.system.blocks)),
                              np.ldexp(1.0, b) * ksys.k)
            rep = optimal_bounds(scaled)
            assert rep.bessel_upper_opt == np.ldexp(base.bessel_upper_opt, 2 * a)
            assert rep.kg_lower_opt == np.ldexp(base.kg_lower_opt, 2 * a - 2 * b)
            got = [r.actual_lower_bound for r in brute_force_erasure_search(scaled, 1)]
            assert got == [None if x is None else np.ldexp(x, 2 * a - 2 * b) for x in brute], (a, b)


def test_a_zero_k_or_zero_s_has_no_bound_and_takes_no_norm_of_an_empty_matrix(linalg_calls):
    blocks = (complex_gaussian(np.random.default_rng(5), (3, 3)), np.zeros((2, 3)))
    for ksys in (KGSystem(GSystem(3, blocks), np.zeros((3, 3))),
                 KGSystem(GSystem(3, (blocks[1], np.zeros((1, 3)))), np.eye(3))):
        assert optimal_bounds(ksys).kg_lower_opt is None
        assert all(r.actual_lower_bound is None for r in brute_force_erasure_search(ksys, 2))
    # numpy releases before 2 raise on the eigenvalues or spectral norm of an empty matrix
    assert all(0 not in shape for name, shape, _ in linalg_calls if name in ("eigvalsh", "norm"))


def test_identity_system_bounds_are_tight():
    rep = optimal_bounds(_identity_system(5))
    assert abs(rep.bessel_upper_opt - 1.0) < 1e-12
    assert abs(rep.g_lower_opt - 1.0) < 1e-12
    assert rep.kg_lower_opt is not None and abs(rep.kg_lower_opt - 1.0) < 1e-12
    assert rep.tight_kg
    assert abs(rep.tightness_constant - 1.0) < 1e-12


def test_corner_projection_bounds_are_one():
    for n in (6, 12):
        rep = optimal_bounds(corner_projection_system(n))
        assert rep.kg_lower_opt is not None
        assert abs(rep.kg_lower_opt - 1.0) <= 1e-10
        assert abs(rep.bessel_upper_opt - 1.0) <= 1e-10
        assert not rep.tight_kg


def test_overlap_chain_lower_bound_matches_bisection():
    ksys = overlap_chain_system(16)
    rep = optimal_bounds(ksys)
    assert rep.kg_lower_opt is not None and rep.kg_lower_opt > 0
    oracle = bisect_kg_lower_bound(frame_operator(ksys.system), ksys.k)
    assert abs(rep.kg_lower_opt - oracle) <= 1e-8 * max(1.0, oracle)


def test_lower_bound_formula_agrees_with_bisection_oracle():
    for seed in range(100):
        ksys = random_instance(seed, n_max=10)
        rep = optimal_bounds(ksys)
        assert rep.kg_lower_opt is not None
        oracle = bisect_kg_lower_bound(frame_operator(ksys.system), ksys.k)
        assert abs(rep.kg_lower_opt - oracle) <= 1e-7 * max(1.0, oracle)


def test_bound_report_sandwich_on_random_vectors():
    rng = np.random.default_rng(33)
    for seed in (7, 8, 9):
        ksys = random_instance(seed)
        sys = ksys.system
        rep = optimal_bounds(ksys)
        stack = np.vstack([b for b in sys.blocks])
        fs = complex_gaussian(rng, (sys.ambient_dim, 1000))
        sums = np.sum(np.abs(stack @ fs) ** 2, axis=0)
        k_star_sq = np.sum(np.abs(ksys.k.conj().T @ fs) ** 2, axis=0)
        f_sq = np.sum(np.abs(fs) ** 2, axis=0)
        assert np.all(rep.kg_lower_opt * k_star_sq <= sums + 1e-9)
        assert np.all(sums <= rep.bessel_upper_opt * f_sq + 1e-9)


def test_lower_bound_relative_to_k_lifts_to_plain_lower_bound():
    # when K^* is bounded below by C, an A relative to K forces a plain
    # lower bound of at least A C^2
    for seed in range(10):
        ksys = full_rank_instance(seed)
        rep = optimal_bounds(ksys)
        c = float(np.linalg.svd(ksys.k, compute_uv=False)[-1])
        assert c > 0
        assert rep.g_lower_opt >= rep.kg_lower_opt * c * c - 1e-9


def test_classify_identity_is_tight_g_frame():
    rep = classify(_identity_system(4))
    assert rep.label is Classification.TIGHT_G_FRAME
    assert rep.is_g_frame and rep.is_kg_frame
    assert rep.is_tight_g_frame and rep.is_tight_kg_frame
    assert abs(rep.k_star_lower_bound - 1.0) < 1e-12
    assert rep.g_frame_implied


def test_classify_example_systems_are_kg_not_g():
    for ksys in [overlap_chain_system(n) for n in (8, 16, 64)] + [
        corner_projection_system(n) for n in (6, 9, 12)
    ]:
        rep = classify(ksys)
        assert rep.is_kg_frame
        assert not rep.is_g_frame
        assert rep.k_star_lower_bound == 0.0
        assert not rep.g_frame_implied


def test_classify_overlap_chain_is_tight_relative_to_k():
    # the chain's frame operator is exactly twice K K^*; its kernel eigenvalue
    # is rounding noise (~1e-16), which no tolerance may count as positive
    for n in (8, 12):
        for tol in (1e-10, 1e-18, 1e-300):
            rep = classify(overlap_chain_system(n), rank_tol=tol)
            assert rep.is_tight_kg_frame
            assert rep.label is Classification.TIGHT_KG_FRAME


def test_classify_generic_full_rank_system_is_g_frame():
    rep = classify(full_rank_instance(3))
    assert rep.is_g_frame
    assert rep.is_kg_frame
    assert rep.g_frame_implied
    assert rep.k_star_lower_bound > 0


def test_classify_g_bessel_only_when_range_condition_fails():
    bad = KGSystem(
        GSystem(2, (np.array([[1.0, 0.0]]),)),
        np.array([[0.0, 0.0], [1.0, 0.0]]),
    )
    rep = classify(bad)
    assert rep.label is Classification.G_BESSEL_ONLY
    assert not rep.is_kg_frame
    assert rep.bounds.kg_lower_opt is None


@pytest.mark.parametrize("rank_tol", [0.0, 1e-10, 1e-3])
def test_zero_k_is_a_kg_frame_with_no_finite_bound_and_a_zero_dual(rank_tol):
    ksys = KGSystem(GSystem(5, (complex_gaussian(np.random.default_rng(7), (2, 5)),)), np.zeros((5, 5)))
    rep = classify(ksys, rank_tol=rank_tol)
    assert rep.label is Classification.KG_FRAME and rep.is_kg_frame
    assert range_condition_holds(ksys, rank_tol)
    assert rep.bounds.kg_lower_opt is None and not rep.g_frame_implied
    assert not np.any(canonical_kg_dual(ksys, rank_tol).matrix)
    # survival asks for A ||K||^2 > SURVIVAL_TOL B, which no A reaches at K = 0
    assert not any(r.survives for r in brute_force_erasure_search(ksys, 1, rank_tol))


def test_classify_rejects_negative_and_non_finite_tolerances():
    for tol in (float("nan"), -1.0, float("inf")):
        with pytest.raises(ValueError):
            classify(_identity_system(3), rank_tol=tol)


@pytest.mark.parametrize("ksys", [overlap_chain_system(8), corner_projection_system(6),
                                  random_kg_system(8, [2] * 6, 3, 0)])
def test_classify_at_zero_tolerance_is_machine_precision(ksys):
    # any tolerance below machine precision, 0 included, gives the same cut
    assert classify(ksys, rank_tol=0.0) == classify(ksys, rank_tol=1e-300)


@pytest.mark.parametrize("rank_tol", [float("nan"), -1.0])
def test_unusable_rank_tolerances_raise(rank_tol):
    ksys = overlap_chain_system(8)
    with pytest.raises(ValueError):
        optimal_bounds(ksys, rank_tol=rank_tol)
    with pytest.raises(ValueError):
        approx_defect(ksys.system, ksys.system, ksys.k, rank_tol=rank_tol)
    with pytest.raises(ValueError):
        brute_force_erasure_search(ksys, 1, rank_tol)


@pytest.mark.parametrize("rank_tol", [float("nan"), -1.0])
def test_unusable_rank_tolerance_raises_for_zero_k_with_or_without_cache(rank_tol):
    ksys = KGSystem(GSystem(3, (np.eye(3),)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        approx_defect(ksys.system, ksys.system, ksys.k, rank_tol=rank_tol)
    assert ksys.k_svals is not None  # K factored and cached
    with pytest.raises(ValueError):
        approx_defect(ksys.system, ksys.system, ksys.k, rank_tol=rank_tol)


def _near_kernel_family(seed: int, eps: float) -> KGSystem:
    """n = 6, S with the one kernel vector q_5, and a rank-3 K whose range
    leaves range(S) by ``eps`` relative: one column of its left factor gets
    ``eps ||b||_F q_5``."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
    rows = (q[:, :5] * rng.uniform(0.5, 2, 5)).conj().T
    b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    q5 = q[:, 5:]
    b -= q5 @ (q5.conj().T @ b)
    b[:, 0] += eps * np.linalg.norm(b) * q[:, 5]
    k = b @ (rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6)))
    return KGSystem(GSystem(6, (rows[:2], rows[2:])), k)


def _assert_one_range_decision(ksys: KGSystem) -> None:
    holds = range_condition_holds(ksys)
    assert holds == (optimal_bounds(ksys).kg_lower_opt is not None)
    label = classify(ksys).label
    assert (label is Classification.G_BESSEL_ONLY) == (not holds)
    if holds:
        canonical_kg_dual(ksys)
    else:
        with pytest.raises(RangeConditionError):
            canonical_kg_dual(ksys)


@pytest.mark.parametrize("seed, eps", [(293, 1.2807887671083303e-08), (291, 1.1034188082085647e-08)])
def test_range_inclusion_is_decided_once_at_a_rounding_flip(seed, eps):
    # at these points range(K) leaves range(S) by about RANGE_INCLUSION_RTOL
    # ||K||, where two differently rounded tests of the inclusion disagreed
    _assert_one_range_decision(_near_kernel_family(seed, eps))


@pytest.mark.parametrize("seed", [6, 11, 13])
def test_range_inclusion_is_decided_once_on_both_sides_of_its_flip(seed):
    def holds(eps: float) -> bool:
        return optimal_bounds(_near_kernel_family(seed, eps)).kg_lower_opt is not None

    lo, hi = 1e-10, 1e-6
    assert holds(lo) and not holds(hi)
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    for eps in (lo, hi):
        _assert_one_range_decision(_near_kernel_family(seed, eps))
