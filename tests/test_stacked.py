"""Tests for the stacked storage of g-systems and the products built on it."""

import numpy as np
import pytest

from kgframes import (
    Classification,
    DimMismatchError,
    GSystem,
    KGSystem,
    analysis,
    brute_force_erasure_search,
    classify,
    erasure_brute_report,
    frame_operator,
    mixed_operator,
    neumann_reconstruct,
    optimal_bounds,
    perturbed_dual,
    reduced_system,
    synthesis,
)

from oracles import (
    analysis_of,
    complex_gaussian,
    frame_operator_of,
    mixed_operator_of,
    neumann_iterates_of,
    random_instance,
    random_range_vector,
    synthesis_of,
)

RTOL = 1e-12


def _assert_close(actual, expected):
    scale = max(1.0, float(np.max(np.abs(expected))) if np.size(expected) else 0.0)
    assert np.max(np.abs(actual - expected), initial=0.0) <= RTOL * scale


def _with_empty_block() -> GSystem:
    rng = np.random.default_rng(5)
    return GSystem(3, (complex_gaussian(rng, (2, 3)), np.zeros((0, 3)), complex_gaussian(rng, (2, 3))))


def test_matrix_stacks_the_blocks():
    for seed in range(5):
        sys = random_instance(seed).system
        assert np.array_equal(sys.matrix, np.vstack(sys.blocks))
        assert sys.matrix.shape == (sum(sys.block_dims), sys.ambient_dim)
        assert sys.offsets == (0, *np.cumsum(sys.block_dims).tolist())


def test_blocks_are_read_only_views_of_the_matrix():
    raw = [np.ones((2, 3)), np.eye(3)]
    sys = GSystem(3, tuple(raw))
    raw[0][0, 0] = 7.0  # the system keeps its own copy
    assert sys.blocks[0][0, 0] == 1.0
    assert not sys.matrix.flags.writeable
    for block in sys.blocks:
        assert not block.flags.writeable
        assert np.shares_memory(block, sys.matrix)
    with pytest.raises(ValueError):
        sys.matrix[0, 0] = 5.0


def test_with_matrix_keeps_the_block_structure():
    sys = _with_empty_block()
    other = sys.with_matrix(2.0 * sys.matrix)
    assert other.block_dims == sys.block_dims == (2, 0, 2)
    assert other.offsets == sys.offsets == (0, 2, 2, 4)
    assert all(np.array_equal(a, 2.0 * b) for a, b in zip(other.blocks, sys.blocks))
    for bad in (sys.matrix[:3], np.vstack([sys.matrix, sys.matrix[:1]]), sys.matrix[0]):
        with pytest.raises(DimMismatchError):
            sys.with_matrix(bad)


def test_system_with_an_empty_block():
    sys = _with_empty_block()
    rng = np.random.default_rng(6)
    f = complex_gaussian(rng, 3)
    parts = analysis(sys, f).parts
    assert [p.shape[0] for p in parts] == [2, 0, 2]
    assert all(np.allclose(p, q, atol=1e-14) for p, q in zip(parts, analysis_of(sys, f)))
    _assert_close(synthesis(sys, parts), synthesis_of(sys, parts))
    _assert_close(frame_operator(sys), frame_operator_of(sys))
    ksys = KGSystem(sys, np.eye(3))
    full = optimal_bounds(ksys)
    # dropping the empty block changes nothing
    assert optimal_bounds(reduced_system(ksys, [1])) == full
    assert erasure_brute_report(ksys, [1]).survives


def test_system_of_zero_blocks():
    sys = GSystem(3, (np.zeros((2, 3)), np.zeros((1, 3))))
    assert np.array_equal(frame_operator(sys), np.zeros((3, 3)))
    assert np.array_equal(synthesis(sys, analysis(sys, [1.0, 2.0, 3.0])), np.zeros(3))
    ksys = KGSystem(sys, np.eye(3))
    rep = optimal_bounds(ksys)
    assert (rep.bessel_upper_opt, rep.g_lower_opt, rep.kg_lower_opt) == (0.0, 0.0, None)
    assert classify(ksys).label is Classification.G_BESSEL_ONLY
    assert [r.survives for r in brute_force_erasure_search(ksys, 1)] == [False] * 3
    zero_k = KGSystem(sys, np.zeros((3, 3)))
    assert not erasure_brute_report(zero_k, []).survives


def test_stacked_products_match_per_block_oracles():
    rng = np.random.default_rng(7)
    for seed in range(10):
        ksys = random_instance(seed)
        sys = ksys.system
        cand = perturbed_dual(ksys, 0.5, seed=seed)
        _assert_close(frame_operator(sys), frame_operator_of(sys))
        _assert_close(mixed_operator(sys, cand), mixed_operator_of(sys, cand))
        f = complex_gaussian(rng, sys.ambient_dim)
        parts = analysis(cand, f).parts
        for got, want in zip(parts, analysis_of(cand, f)):
            _assert_close(got, want)
        _assert_close(synthesis(sys, parts), synthesis_of(sys, parts))


def test_neumann_reconstruct_matches_per_block_oracle():
    rng = np.random.default_rng(8)
    for seed in range(10):
        ksys = random_instance(seed)
        cand = perturbed_dual(ksys, 0.5, seed=seed)
        f = random_range_vector(rng, ksys.k)
        trace = neumann_reconstruct(ksys.system, cand, ksys.k, f, num_steps=20)
        want = neumann_iterates_of(ksys.system, cand, ksys.k, f, 20)
        assert len(trace.iterates) == len(want)
        for got, ref in zip(trace.iterates, want):
            _assert_close(got, ref)
