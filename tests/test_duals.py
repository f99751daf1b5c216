"""Tests for dual families, defects, corrections, and reconstruction."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgframes import (
    DimMismatchError,
    FloatRangeError,
    GSystem,
    KGSystem,
    NotAFrameError,
    NotApproxDualError,
    NotInRangeError,
    RangeConditionError,
    SubspaceFrameFamily,
    TrivialRangeError,
    approx_defect,
    canonical_kg_dual,
    compose,
    corner_projection_system,
    exactify_dual,
    frame_operator,
    is_kg_dual,
    lift_to_vector_frames,
    mixed_operator,
    neumann_reconstruct,
    optimal_bounds,
    perturbed_dual,
    pinv,
    random_frame_family,
    random_kg_system,
    range_projector,
    truncated_neumann_dual,
)
from kgframes.linops import DUAL_EXACT_TOL, NEUMANN_STOP_RTOL
from kgframes.linops import op_norm

from oracles import (
    complex_gaussian,
    neumann_iterates_of,
    projector_of,
    random_instance,
    random_range_vector,
)


def _zero_candidate(sys: GSystem) -> GSystem:
    return GSystem(sys.ambient_dim, tuple(np.zeros_like(b) for b in sys.blocks))


def test_mixed_operator_requires_matching_shapes():
    a = GSystem(3, (np.zeros((2, 3)),))
    b = GSystem(4, (np.zeros((2, 4)),))
    with pytest.raises(DimMismatchError):
        mixed_operator(a, b)
    c = GSystem(3, (np.zeros((1, 3)),))
    with pytest.raises(DimMismatchError):
        mixed_operator(a, c)


def test_blocks_splitting_the_same_rows_differently_do_not_match():
    a = GSystem(3, (np.zeros((2, 3)), np.zeros((0, 3)), np.zeros((3, 3))))
    b = GSystem(3, (np.zeros((0, 3)), np.zeros((2, 3)), np.zeros((3, 3))))
    with pytest.raises(DimMismatchError) as exc:
        approx_defect(a, b, np.eye(3))
    assert str(exc.value) == "block dims differ: (2, 0, 3) vs (0, 2, 3)"


def test_canonical_dual_of_identity_system_is_identity():
    ksys = KGSystem(GSystem(3, (np.eye(3),)), np.eye(3))
    dual = canonical_kg_dual(ksys)
    assert np.allclose(dual.blocks[0], np.eye(3), atol=1e-12)


def test_canonical_dual_of_corner_projection():
    ksys = corner_projection_system(6)
    dual = canonical_kg_dual(ksys)
    expected = np.zeros((3, 6))
    expected[0, 0] = expected[1, 1] = 1.0  # e2 row dies with the projector
    assert np.allclose(dual.blocks[0], expected, atol=1e-12)
    for b in dual.blocks[1:]:
        assert np.linalg.norm(b) == 0.0


def test_canonical_dual_requires_range_condition():
    bad = KGSystem(
        GSystem(2, (np.array([[1.0, 0.0]]),)),
        np.array([[0.0, 0.0], [1.0, 0.0]]),
    )
    with pytest.raises(RangeConditionError):
        canonical_kg_dual(bad)


def test_canonical_dual_reconstructs_on_range_of_k():
    for seed in range(20):
        ksys = random_instance(seed)
        dual = canonical_kg_dual(ksys)
        cert = approx_defect(ksys.system, dual, ksys.k)
        assert cert.defect <= 1e-10
        assert cert.interchange_defect <= 1e-10
        assert cert.is_exact_dual
        assert is_kg_dual(ksys.system, dual, ksys.k)


def test_defect_of_zero_candidate_is_one():
    ksys = random_instance(70)
    cert = approx_defect(ksys.system, _zero_candidate(ksys.system), ksys.k)
    assert abs(cert.defect - 1.0) <= 1e-12
    assert not cert.is_exact_dual


def test_defect_of_scaled_canonical_dual():
    ksys = random_instance(71)
    dual = canonical_kg_dual(ksys)
    for delta in (0.25, 0.5):
        scaled = GSystem(dual.ambient_dim, tuple((1 + delta) * b for b in dual.blocks))
        cert = approx_defect(ksys.system, scaled, ksys.k)
        assert abs(cert.defect - delta) <= 1e-9
        assert abs(cert.interchange_defect - delta) <= 1e-9
        assert cert.is_approx_dual and not cert.is_exact_dual


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_unusable_exact_dual_tolerances_raise(tol):
    # the candidate's defect is 7.63: an infinite tolerance would certify it exact
    ksys = random_kg_system(8, [2] * 6, 3, 0)
    cand = perturbed_dual(ksys, 0.5, seed=0)
    cand = cand.with_matrix(7.0 * cand.matrix)
    with pytest.raises(ValueError, match="exact_tol"):
        approx_defect(ksys.system, cand, ksys.k, exact_tol=tol)
    with pytest.raises(ValueError, match="exact_tol"):
        is_kg_dual(ksys.system, cand, ksys.k, exact_tol=tol)


def test_perturbed_dual_hits_requested_defect():
    for seed, eps in ((0, 0.3), (1, 0.5), (2, 0.8), (3, 0.05)):
        ksys = random_instance(80 + seed)
        cand = perturbed_dual(ksys, eps, seed=seed)
        cert = approx_defect(ksys.system, cand, ksys.k)
        assert abs(cert.defect - eps) <= 1e-12
    assert perturbed_dual(random_instance(80), 0.0, seed=0)  # exact dual back


def test_perturbed_dual_validates_defect():
    ksys = random_instance(81)
    with pytest.raises(ValueError):
        perturbed_dual(ksys, 1.0, seed=0)
    with pytest.raises(ValueError):
        perturbed_dual(ksys, -0.1, seed=0)


def test_perturbed_dual_rejects_a_positive_defect_when_range_k_is_trivial():
    ksys = KGSystem(GSystem(3, (np.eye(3),)), np.zeros((3, 3)))
    with pytest.raises(TrivialRangeError, match="trivial"):
        perturbed_dual(ksys, 0.5, seed=0)
    exact = perturbed_dual(ksys, 0.0, seed=0)
    assert np.array_equal(exact.matrix, canonical_kg_dual(ksys).matrix)


def test_exactify_rejects_non_contractive_candidates():
    ksys = random_instance(72)
    with pytest.raises(NotApproxDualError):
        exactify_dual(ksys.system, _zero_candidate(ksys.system), ksys.k)


def test_exactify_recovers_canonical_dual_from_scaling():
    ksys = random_instance(73)
    dual = canonical_kg_dual(ksys)
    shrunk = GSystem(dual.ambient_dim, tuple(0.7 * b for b in dual.blocks))
    fixed = exactify_dual(ksys.system, shrunk, ksys.k)
    p = range_projector(ksys.k)
    for fb, db in zip(fixed.blocks, dual.blocks):
        # agreement after restriction to range(K), where the dual acts
        assert np.allclose(fb @ p, db @ p, atol=1e-10)
    assert approx_defect(ksys.system, fixed, ksys.k).defect <= 1e-10


def test_exactify_drives_defect_below_threshold():
    for seed, eps in ((0, 0.9), (1, 0.5), (2, 0.999), (3, 0.1)):
        ksys = random_instance(90 + seed)
        cand = perturbed_dual(ksys, eps, seed=seed)
        fixed = exactify_dual(ksys.system, cand, ksys.k)
        assert approx_defect(ksys.system, fixed, ksys.k).defect <= 1e-9


def _pinv_exactified(ksys: KGSystem, candidate: GSystem, rank_tol: float = 1e-10) -> np.ndarray:
    """((T B) pinv(C)) B^*, C = B^* M B: exactification through the pinv of C."""
    b = ksys.k_range(rank_tol)
    tb = candidate.matrix @ b
    c = b.conj().T @ (ksys.system.matrix.T @ tb.conj()).conj()
    return (tb @ pinv(c, rank_tol)) @ b.conj().T


def test_exactify_falls_back_to_pinv_when_one_minus_defect_is_within_the_cutoff(linalg_calls):
    ksys = random_kg_system(10, [3] * 6, 4, seed=31)
    dual = canonical_kg_dual(ksys)
    cand = dual.with_matrix(1e-11 * dual.matrix)
    defect = approx_defect(ksys.system, cand, ksys.k).defect
    assert abs(defect - (1.0 - 1e-11)) <= 1e-15
    linalg_calls.clear()
    fixed = exactify_dual(ksys.system, cand, ksys.k, rank_tol=1e-10)
    assert [name for name, _, _ in linalg_calls].count("solve") == 0
    assert np.array_equal(fixed.matrix, _pinv_exactified(ksys, cand))


def _empty_block_system() -> KGSystem:
    base = random_kg_system(6, [2, 3, 2, 2], 3, seed=22)
    blocks = base.system.blocks
    return KGSystem(GSystem(6, (blocks[0], np.zeros((0, 6)), *blocks[1:])), base.k)


def _rescaled_system(scale: float) -> KGSystem:
    base = random_kg_system(8, [2] * 6, 5, seed=23)
    return KGSystem(base.system.with_matrix(scale * base.system.matrix), base.k)


@pytest.mark.parametrize("make", [
    lambda: random_kg_system(10, [3] * 6, 4, seed=21),  # rank(K) = 4 < n
    _empty_block_system,
    lambda: _rescaled_system(1e-6),
    lambda: _rescaled_system(1e6),
], ids=["rank_deficient_k", "empty_block", "blocks_1e-6", "blocks_1e6"])
def test_exactify_by_lu_matches_the_pinv_formula(make, linalg_calls):
    ksys = make()
    for eps in (0.0, 0.5, 0.95):
        cand = perturbed_dual(ksys, eps, seed=8)
        linalg_calls.clear()
        fixed = exactify_dual(ksys.system, cand, ksys.k)
        assert [name for name, _, _ in linalg_calls].count("solve") == 1
        want = _pinv_exactified(ksys, cand)
        assert np.linalg.norm(fixed.matrix - want) <= 1e-13 * np.linalg.norm(fixed.matrix)
        assert approx_defect(ksys.system, fixed, ksys.k).defect <= DUAL_EXACT_TOL


@settings(max_examples=25, derandomize=True, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.0, 0.99), st.integers(0, 2**31))
def test_perturbed_dual_is_the_canonical_dual_times_identity_plus_g(instance, eps, seed):
    ksys = random_instance(instance)
    n = ksys.ambient_dim
    p = projector_of(np.array(ksys.k))
    g = complex_gaussian(np.random.default_rng(seed), (n, n))
    g *= eps / np.linalg.norm(p @ g @ p, 2)  # ||P G P|| = eps
    want = canonical_kg_dual(ksys).matrix @ (np.eye(n) + g)
    got = perturbed_dual(ksys, eps, seed=seed)
    assert np.linalg.norm(got.matrix - want) <= 1e-13 * np.linalg.norm(want)
    assert abs(approx_defect(ksys.system, got, ksys.k).defect - eps) <= 1e-12


def test_truncated_dual_geometric_defect_decay():
    ksys = random_instance(74)
    for eps, terms in ((0.5, 3), (0.8, 10)):
        cand = perturbed_dual(ksys, eps, seed=5)
        trunc = truncated_neumann_dual(ksys.system, cand, ksys.k, terms)
        cert = approx_defect(ksys.system, trunc, ksys.k)
        assert cert.defect <= eps ** (terms + 1) + 1e-9


def test_truncated_dual_defect_is_monotone_in_terms():
    ksys = random_instance(75)
    cand = perturbed_dual(ksys, 0.7, seed=6)
    defects = []
    for terms in range(8):
        trunc = truncated_neumann_dual(ksys.system, cand, ksys.k, terms)
        defects.append(approx_defect(ksys.system, trunc, ksys.k).defect)
    for prev, nxt in zip(defects, defects[1:]):
        assert nxt <= prev + 1e-12


def test_truncated_dual_zero_terms_restricts_candidate():
    ksys = random_instance(76)
    cand = perturbed_dual(ksys, 0.4, seed=7)
    trunc = truncated_neumann_dual(ksys.system, cand, ksys.k, 0)
    p = range_projector(ksys.k)
    for tb, cb in zip(trunc.blocks, cand.blocks):
        assert np.allclose(tb, cb @ p, atol=1e-12)


def test_truncated_dual_validates_input():
    ksys = random_instance(77)
    cand = perturbed_dual(ksys, 0.4, seed=8)
    with pytest.raises(ValueError):
        truncated_neumann_dual(ksys.system, cand, ksys.k, -1)
    with pytest.raises(NotApproxDualError):
        truncated_neumann_dual(ksys.system, _zero_candidate(ksys.system), ksys.k, 2)


def test_reconstruction_with_exact_dual_converges_immediately():
    ksys = random_instance(78)
    dual = canonical_kg_dual(ksys)
    rng = np.random.default_rng(0)
    f = random_range_vector(rng, ksys.k)
    trace = neumann_reconstruct(ksys.system, dual, ksys.k, f)
    assert trace.errors[0] <= 1e-10
    assert len(trace.iterates) == len(trace.errors) == len(trace.predicted_bound)


def test_reconstruction_errors_below_geometric_envelope():
    rng = np.random.default_rng(1)
    for seed, eps in ((0, 0.3), (1, 0.6)):
        ksys = random_instance(95 + seed)
        cand = perturbed_dual(ksys, eps, seed=seed)
        f = random_range_vector(rng, ksys.k)
        trace = neumann_reconstruct(ksys.system, cand, ksys.k, f, num_steps=30)
        f_norm = float(np.linalg.norm(f))
        for step, err in enumerate(trace.errors):
            assert err <= eps ** (step + 1) * f_norm + 1e-9
            assert abs(trace.predicted_bound[step] - eps ** (step + 1) * f_norm) <= 1e-9
        assert trace.errors[-1] <= 1e-10


def test_reconstruction_rejects_vectors_outside_range():
    ksys = corner_projection_system(6)
    f = np.zeros(6)
    f[3] = 1.0  # orthogonal to range(K) = span{e0, e1}
    with pytest.raises(NotInRangeError):
        neumann_reconstruct(ksys.system, canonical_kg_dual(ksys), ksys.k, f)


def test_reconstruction_rejects_non_contractive_candidate():
    ksys = random_instance(79)
    rng = np.random.default_rng(2)
    f = random_range_vector(rng, ksys.k)
    with pytest.raises(NotApproxDualError):
        neumann_reconstruct(ksys.system, _zero_candidate(ksys.system), ksys.k, f)


def test_reconstruction_rejects_negative_step_counts_before_certifying():
    ksys = random_instance(79)
    f = random_range_vector(np.random.default_rng(2), ksys.k)
    # the zero candidate is no approximate dual, so a late check would raise
    # NotApproxDualError instead
    with pytest.raises(ValueError, match="num_steps"):
        neumann_reconstruct(ksys.system, _zero_candidate(ksys.system), ksys.k, f, num_steps=-3)
    trace = neumann_reconstruct(ksys.system, canonical_kg_dual(ksys), ksys.k, f, num_steps=0)
    assert len(trace.errors) == 1


def test_canonical_dual_bessel_bound_from_factorization():
    for seed in range(10):
        ksys = random_instance(seed + 200)
        dual = canonical_kg_dual(ksys)
        s = frame_operator(ksys.system)
        base = optimal_bounds(ksys)
        dual_bessel = optimal_bounds(KGSystem(dual, ksys.k)).bessel_upper_opt
        cap = base.bessel_upper_opt * op_norm(pinv(s)) ** 2 * op_norm(range_projector(ksys.k)) ** 2
        assert dual_bessel <= cap + 1e-9


def _assert_rows_close(vectors, want: np.ndarray, rtol: float):
    got = np.array(vectors).reshape(want.shape)
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def test_lift_flattens_to_equal_mixed_operators():
    for seed in range(10):
        ksys = random_instance(seed + 300)
        dual = canonical_kg_dual(ksys)
        fams = random_frame_family(ksys.system.block_dims, seed=seed)
        lift = lift_to_vector_frames(ksys.system, dual, fams, k=ksys.k)
        assert lift.residual <= 1e-9
        assert lift.restricted_defect is not None and lift.restricted_defect <= 1e-8
        assert abs(lift.operator_defect - lift.vector_defect) <= 1e-9
        assert len(lift.vectors_e) == len(lift.vectors_f)
        assert len(lift.vectors_e) == sum(f.shape[0] for f in fams.families)

        # T_j^* f and L_j^* f~ are the conjugated rows f^* T_j and f~^* L_j of
        # the composed systems, f~ = S_j^{-1} f the canonical dual in each space
        canonical = tuple(f @ np.linalg.inv(f.T @ f.conj()).T for f in fams.families)
        dual_fams = SubspaceFrameFamily(canonical, 1.0 / fams.upper, 1.0 / fams.lower)
        _assert_rows_close(lift.vectors_e, compose(KGSystem(dual, ksys.k), fams).system.matrix.conj(), 1e-15)
        _assert_rows_close(lift.vectors_f, compose(ksys, dual_fams).system.matrix.conj(), 1e-15)
        interchange = approx_defect(ksys.system, dual, ksys.k).interchange_defect
        assert lift.restricted_defect == interchange  # the same C, the same norm


@pytest.mark.parametrize("shape", [(5, 5), (6, 5)])
def test_lift_rejects_a_k_of_the_wrong_shape(shape):
    ksys = random_kg_system(6, (2, 2, 2), 3, seed=8)
    fams = random_frame_family(ksys.system.block_dims, seed=8)
    with pytest.raises(DimMismatchError):
        lift_to_vector_frames(ksys.system, ksys.system, fams, k=np.eye(6)[: shape[0], : shape[1]])


def test_lift_of_a_system_without_blocks_is_empty():
    system = GSystem(3, ())
    lift = lift_to_vector_frames(system, system, SubspaceFrameFamily((), 1.0, 1.0), k=np.eye(3))
    assert lift.vectors_e == lift.vectors_f == ()
    assert lift.residual == 0.0
    assert lift.operator_defect == lift.vector_defect == lift.restricted_defect == 1.0


def test_lift_with_orthonormal_families_reproduces_block_rows():
    ksys = random_instance(310)
    dual = canonical_kg_dual(ksys)
    fams = SubspaceFrameFamily.from_vectors([np.eye(d) for d in ksys.system.block_dims])
    lift = lift_to_vector_frames(ksys.system, dual, fams, k=ksys.k)
    assert lift.residual <= 1e-10
    # with orthonormal bases the lifted vectors are exactly the block rows
    idx = 0
    for j, d in enumerate(ksys.system.block_dims):
        for i in range(d):
            assert np.allclose(lift.vectors_e[idx], dual.blocks[j].conj().T[:, i], atol=1e-12)
            assert np.allclose(lift.vectors_f[idx], ksys.system.blocks[j].conj().T[:, i], atol=1e-12)
            idx += 1


def test_lift_rejects_non_spanning_families():
    ksys = random_instance(311)
    dims = ksys.system.block_dims
    families = [complex_gaussian(np.random.default_rng(3), (max(d + 1, 2), d)) for d in dims]
    families[0] = np.zeros_like(families[0])
    fams = SubspaceFrameFamily(tuple(families), 0.0, 1.0)
    with pytest.raises(NotAFrameError):
        lift_to_vector_frames(ksys.system, ksys.system, fams, k=ksys.k)


def test_lift_validates_family_count():
    ksys = random_instance(312)
    fams = random_frame_family(ksys.system.block_dims + (2,), seed=4)
    with pytest.raises(DimMismatchError):
        lift_to_vector_frames(ksys.system, ksys.system, fams, k=ksys.k)


def _assert_matches_oracle(system: GSystem, candidate: GSystem, k, f, num_steps: int):
    """The trace agrees with the per-block oracle within 1e-12 ||f|| at every
    step it ran, and its errors are the distances of its own iterates."""
    trace = neumann_reconstruct(system, candidate, k, f, num_steps=num_steps)
    f = np.asarray(f, dtype=np.complex128)
    f_norm = float(np.linalg.norm(f))
    want = neumann_iterates_of(system, candidate, np.array(k), f, len(trace.iterates) - 1)
    for got, ref in zip(trace.iterates, want):
        assert np.linalg.norm(got - ref) <= 1e-12 * f_norm
    for err, x in zip(trace.errors, trace.iterates):
        assert err == float(np.linalg.norm(f - x))
    return trace


def test_reconstruction_matches_oracle_on_a_rank_deficient_k():
    ksys = random_kg_system(10, [3] * 6, 4, seed=21)
    assert ksys.k_rank(1e-10) == 4
    cand = perturbed_dual(ksys, 0.6, seed=2)
    f = random_range_vector(np.random.default_rng(3), ksys.k)
    trace = _assert_matches_oracle(ksys.system, cand, ksys.k, f, 40)
    assert len(trace.errors) > 20


def test_reconstruction_matches_oracle_with_an_empty_block():
    base = random_kg_system(6, [2, 3, 2, 2], 3, seed=22)
    blocks = base.system.blocks
    system = GSystem(6, (blocks[0], np.zeros((0, 6)), *blocks[1:]))
    ksys = KGSystem(system, base.k)
    cand = perturbed_dual(ksys, 0.5, seed=4)
    assert cand.block_dims == (2, 0, 3, 2, 2)
    f = random_range_vector(np.random.default_rng(5), ksys.k)
    _assert_matches_oracle(system, cand, ksys.k, f, 30)


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_reconstruction_matches_oracle_on_rescaled_blocks(scale):
    base = random_kg_system(8, [2] * 6, 5, seed=23)
    ksys = KGSystem(base.system.with_matrix(scale * base.system.matrix), base.k)
    cand = perturbed_dual(ksys, 0.5, seed=6)
    f = random_range_vector(np.random.default_rng(7), ksys.k)
    _assert_matches_oracle(ksys.system, cand, ksys.k, f, 30)


def test_long_reconstruction_matches_oracle_and_stops_by_the_rule():
    ksys = random_kg_system(8, [2] * 6, 5, seed=24)
    # the scaled canonical dual has defect 0.98 and errors 0.98^(N+1) ||f||
    dual = canonical_kg_dual(ksys)
    cand = dual.with_matrix(0.02 * dual.matrix)
    assert abs(approx_defect(ksys.system, cand, ksys.k).defect - 0.98) <= 1e-12
    f = random_range_vector(np.random.default_rng(9), ksys.k)
    trace = _assert_matches_oracle(ksys.system, cand, ksys.k, f, 2000)
    assert len(trace.errors) > 1000
    f_norm = float(np.linalg.norm(f))
    assert all(err > 1e-12 * f_norm for err in trace.errors[:-1])
    assert trace.errors[-1] <= 1e-12 * f_norm or len(trace.errors) == 2001


# Reconstruction runs in blocks of steps: each block has the steps the
# envelope defect^(N+1) ||f|| <= stop asks for, but no more than n.
# At n = 8 a block holds steps 0..7, 8..15 and so on, and a defect
# NEUMANN_STOP_RTOL^(1 / (S + 1/2)) stops the scaled canonical dual, whose
# errors are defect^(N+1) ||f||, at step S with a first block of S + 1 steps.
SEAM_N = 8


@pytest.mark.parametrize("stop_step, num_steps", [
    # the defect-0.98 dual stops at step 1367: the cap ends the run at each seam of n
    *((1367, cap) for cap in (SEAM_N - 2, SEAM_N - 1, SEAM_N, SEAM_N + 1,
                              2 * SEAM_N - 1, 2 * SEAM_N, 2 * SEAM_N + 1)),
    # the stop ends the run at each seam of n
    *((stop, 1000) for stop in (SEAM_N - 1, SEAM_N, SEAM_N + 1,
                                2 * SEAM_N - 1, 2 * SEAM_N, 2 * SEAM_N + 1)),
    # a first block of 5 < n steps, ended by the cap or by the stop
    (4, 3), (4, 4), (4, 5), (4, 6),
])
def test_reconstruction_across_block_seams_matches_oracle(stop_step, num_steps):
    ksys = random_kg_system(SEAM_N, [2] * 6, 5, seed=24)
    dual = canonical_kg_dual(ksys)
    defect = 0.98 if stop_step == 1367 else NEUMANN_STOP_RTOL ** (1.0 / (stop_step + 0.5))
    cand = dual.with_matrix((1.0 - defect) * dual.matrix)
    f = random_range_vector(np.random.default_rng(9), ksys.k)
    trace = _assert_matches_oracle(ksys.system, cand, ksys.k, f, num_steps)
    assert len(trace.errors) == min(stop_step, num_steps) + 1
    stop = NEUMANN_STOP_RTOL * float(np.linalg.norm(f))
    assert all(err > stop for err in trace.errors[:-1])
    assert trace.errors[-1] <= stop or len(trace.errors) == num_steps + 1


@pytest.mark.parametrize("defect", [0.5, 0.98])
def test_a_cap_far_past_the_stop_runs_to_the_same_stop_in_bounded_memory(defect):
    # both stop past n = 16 steps; at 0.98 the envelope asks for 1368 steps
    # and the errors stop after about 60, so only the cap of n steps per
    # block keeps the first block small
    ksys = random_kg_system(16, [4] * 8, 8, seed=25)
    cand = perturbed_dual(ksys, defect, seed=12)
    f = random_range_vector(np.random.default_rng(13), ksys.k)
    want = neumann_reconstruct(ksys.system, cand, ksys.k, f, num_steps=200)
    assert 16 < len(want.errors) < 201
    tracemalloc.start()
    try:
        got = neumann_reconstruct(ksys.system, cand, ksys.k, f, num_steps=10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.errors == want.errors
    n = ksys.ambient_dim
    assert peak <= 24 * n * n * np.dtype(np.complex128).itemsize


@pytest.mark.parametrize("num_steps", [0, 1, 5, 200])
def test_reconstruction_stops_at_the_first_small_error_or_the_cap(num_steps):
    ksys = random_instance(81)
    f = random_range_vector(np.random.default_rng(10), ksys.k)
    f_norm = float(np.linalg.norm(f))
    for cand in (canonical_kg_dual(ksys), perturbed_dual(ksys, 0.7, seed=11)):
        trace = neumann_reconstruct(ksys.system, cand, ksys.k, f, num_steps=num_steps)
        steps = len(trace.errors) - 1
        assert len(trace.iterates) == len(trace.predicted_bound) == steps + 1
        assert all(err > NEUMANN_STOP_RTOL * f_norm for err in trace.errors[:-1])
        assert trace.errors[-1] <= NEUMANN_STOP_RTOL * f_norm or steps == num_steps


def test_reconstruction_of_zero_through_k_zero():
    base = random_instance(82)
    n = base.ambient_dim
    ksys = KGSystem(base.system, np.zeros((n, n)))
    assert ksys.k_rank(1e-10) == 0
    cand = canonical_kg_dual(ksys)
    trace = neumann_reconstruct(ksys.system, cand, ksys.k, np.zeros(n), num_steps=10)
    assert trace.errors == (0.0,)
    assert trace.predicted_bound == (0.0,)
    assert len(trace.iterates) == 1 and trace.iterates[0].shape == (n,)
    assert not np.any(trace.iterates[0])


def test_canonical_and_perturbed_duals_past_the_float_range_are_typed_errors():
    # blocks x 1e-160 leave S subnormal: the dual's entries, near 1e160, are
    # representable, but S^+ B over S's eigenpairs overflows
    ksys = random_kg_system(4, [2, 1, 2], 2, 3)
    tiny = KGSystem(ksys.system.with_matrix(1e-160 * ksys.system.matrix), ksys.k)
    with pytest.raises(FloatRangeError):
        canonical_kg_dual(tiny)
    with pytest.raises(FloatRangeError):
        perturbed_dual(tiny, 0.5, seed=0)
