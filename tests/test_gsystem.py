"""Tests for the core system model, bounds, and classification."""

import numpy as np
import pytest

from kgframes import (
    BlockSequence,
    Classification,
    DimMismatchError,
    GSystem,
    KGSystem,
    analysis,
    approx_defect,
    brute_force_erasure_search,
    classify,
    corner_projection_system,
    frame_operator,
    inner,
    optimal_bounds,
    overlap_chain_system,
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


def test_a_zero_k_or_zero_s_has_no_bound_and_takes_no_norm_of_an_empty_matrix(monkeypatch):
    # numpy releases before 2 raise on the spectral norm of an empty matrix
    norm = np.linalg.norm

    def strict_norm(x, ord=None, *args, **kwargs):
        assert ord != 2 or np.size(x), "spectral norm of an empty matrix"
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", strict_norm)
    blocks = (complex_gaussian(np.random.default_rng(5), (3, 3)), np.zeros((2, 3)))
    for ksys in (KGSystem(GSystem(3, blocks), np.zeros((3, 3))),
                 KGSystem(GSystem(3, (blocks[1], np.zeros((1, 3)))), np.eye(3))):
        assert optimal_bounds(ksys).kg_lower_opt is None
        assert all(r.actual_lower_bound is None for r in brute_force_erasure_search(ksys, 2))


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
    assert ksys.spectrum is not None
    with pytest.raises(ValueError):
        approx_defect(ksys.system, ksys.system, ksys.k, rank_tol=rank_tol)
