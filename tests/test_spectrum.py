"""Tests for the cached spectral factorizations of a K-g-system.

A ``KGSystem`` caches K's reduced SVD and the ``eigh`` of S, each taken on
first read. Bounds, verdicts and duals computed from them are checked
against the independent oracles on edge inputs, against metamorphic
relations (block permutation, unitaries on the coefficient spaces,
rescaling), and, for the duals that take a raw K, against the n x n
projector formulas. The duals read K's range basis from the cached SVD of
the live system that owns the K they are given, which factors K once and S
only when a consumer reads it, and give any other K an owner for the call.
"""

import gc
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgframes import (
    Classification,
    FloatRangeError,
    GSystem,
    KGSystem,
    RangeConditionError,
    approx_defect,
    brute_force_erasure_search,
    canonical_kg_dual,
    classify,
    corner_projection_system,
    exactify_dual,
    lift_to_vector_frames,
    neumann_reconstruct,
    optimal_bounds,
    overlap_chain_system,
    perturbed_dual,
    random_frame_family,
    random_kg_system,
    range_condition_holds,
    truncated_neumann_dual,
)
from kgframes.linops import DUAL_EXACT_TOL

from oracles import (
    bisect_kg_lower_bound,
    complex_gaussian,
    frame_operator_of,
    projector_defects_of,
    projector_exactify_factor_of,
    projector_neumann_factor_of,
    random_instance,
    random_range_vector,
    range_inclusion_oracle,
)

# Seeded and bounded, so the properties cost about a second in all.
PROPERTY = settings(max_examples=25, derandomize=True, deadline=None)
KG_RTOL = 1e-7
BOUND_RTOL = 1e-9


def _deficient_instance(seed: int) -> KGSystem:
    """Fewer block rows than the ambient dimension, so S is singular, and
    K = L^* G, so range(K) lies inside range(S): a K-g-frame, not a g-frame."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 10))
    dims = [int(d) for d in rng.integers(1, 3, size=int(rng.integers(1, 4)))]
    while sum(dims) >= n:
        dims.pop()
    blocks = tuple(complex_gaussian(rng, (d, n)) for d in dims)
    stacked = np.vstack(blocks)
    k = stacked.conj().T @ complex_gaussian(rng, (stacked.shape[0], n))
    return KGSystem(GSystem(n, blocks), k)


def _instance(kind: str, seed: int) -> KGSystem:
    if kind == "random":
        return random_instance(seed)
    if kind == "deficient":
        return _deficient_instance(seed)
    if kind == "corner":
        return corner_projection_system(3 * (2 + seed % 4))
    return overlap_chain_system(3 + seed % 8)


def _edge_systems() -> dict[str, KGSystem]:
    rng = np.random.default_rng(2024)
    n = 6
    blocks = tuple(complex_gaussian(rng, (d, n)) for d in (3, 2, 3))
    zero_blocks = (np.zeros((2, n)), np.zeros((3, n)))
    k_full = complex_gaussian(rng, (n, n))
    return {
        "rank_deficient_s": _deficient_instance(5),
        "chain": overlap_chain_system(7),
        "zero_k": KGSystem(GSystem(n, blocks), np.zeros((n, n))),
        "rank_deficient_k": random_kg_system(n, (3, 2, 3), 2, seed=11),
        "empty_block": KGSystem(GSystem(n, (blocks[0], np.zeros((0, n)), blocks[1], blocks[2])), k_full),
        "zero_blocks": KGSystem(GSystem(n, zero_blocks), k_full),
        "zero_blocks_zero_k": KGSystem(GSystem(n, zero_blocks), np.zeros((n, n))),
    }


EDGE = _edge_systems()


def _oracle_label(s: np.ndarray, k: np.ndarray, kg_lower) -> str:
    evals = np.linalg.eigvalsh(s)
    if evals[0] > 1e-10 * max(evals[-1], 1e-300):
        return "tight_g_frame" if evals[-1] - evals[0] <= 1e-8 * evals[-1] else "g_frame"
    if not range_inclusion_oracle(s, k):
        return "g_bessel_only"
    # K = 0 is a K-g-frame with no finite optimal bound, so never a tight one
    tight = kg_lower is not None and (
        np.linalg.norm(s - kg_lower * (k @ k.conj().T)) <= 1e-6 * np.linalg.norm(s))
    return "tight_kg_frame" if tight else "kg_frame"


@pytest.mark.parametrize("name", sorted(EDGE))
def test_spectral_bounds_match_oracles_on_edge_inputs(name):
    ksys = EDGE[name]
    s = frame_operator_of(ksys.system)
    k = np.array(ksys.k)
    evals = np.linalg.eigvalsh(s)
    scale = max(float(evals[-1]), 0.0)
    rep = optimal_bounds(ksys)
    assert abs(rep.bessel_upper_opt - scale) <= BOUND_RTOL * scale
    assert abs(rep.g_lower_opt - max(float(evals[0]), 0.0)) <= BOUND_RTOL * scale

    holds = range_condition_holds(ksys)
    assert holds == range_inclusion_oracle(s, k)
    if holds and np.any(k):
        oracle = bisect_kg_lower_bound(s, k)
        assert rep.kg_lower_opt is not None
        assert abs(rep.kg_lower_opt - oracle) <= KG_RTOL * oracle
    else:
        assert rep.kg_lower_opt is None

    assert classify(ksys).label.value == _oracle_label(s, k, rep.kg_lower_opt)
    if holds:
        defect, _ = projector_defects_of(ksys.system, canonical_kg_dual(ksys), k)
        assert defect <= 1e-9
    else:
        with pytest.raises(RangeConditionError):
            canonical_kg_dual(ksys)


def test_lower_bound_of_k_star_below_the_rank_cutoff_is_zero():
    for name in ("chain", "zero_k", "rank_deficient_k", "rank_deficient_s"):
        assert classify(EDGE[name]).k_star_lower_bound == 0.0
    c = float(np.linalg.svd(EDGE["empty_block"].k, compute_uv=False)[-1])
    assert abs(classify(EDGE["empty_block"]).k_star_lower_bound - c) <= 1e-12 * c


def _assert_bounds_scaled(rep, base, block_factor: float, kg_factor: float):
    """``rep`` is ``base`` with the Bessel and g bounds times ``block_factor``
    and the bound relative to K times ``kg_factor``; the verdicts agree."""
    bessel = base.bessel_upper_opt * block_factor
    assert abs(rep.bessel_upper_opt - bessel) <= BOUND_RTOL * bessel
    assert abs(rep.g_lower_opt - base.g_lower_opt * block_factor) <= BOUND_RTOL * bessel
    assert (rep.kg_lower_opt is None) == (base.kg_lower_opt is None)
    if base.kg_lower_opt is not None:
        want = base.kg_lower_opt * kg_factor
        assert abs(rep.kg_lower_opt - want) <= KG_RTOL * want
    assert rep.tight_kg == base.tight_kg


@pytest.mark.parametrize("name", sorted(EDGE))
@pytest.mark.parametrize("c", [1e-6, 1e6])
def test_edge_inputs_scaled_by_1e6_keep_their_verdicts(name, c):
    ksys = EDGE[name]
    base = optimal_bounds(ksys)
    label = classify(ksys).label
    for scaled, block_factor, kg_factor in (
        (KGSystem(ksys.system.with_matrix(c * ksys.system.matrix), ksys.k), c * c, c * c),
        (KGSystem(ksys.system, c * ksys.k), 1.0, 1.0 / (c * c)),
    ):
        _assert_bounds_scaled(optimal_bounds(scaled), base, block_factor, kg_factor)
        assert range_condition_holds(scaled) == range_condition_holds(ksys)
        assert classify(scaled).label is label


kinds = st.sampled_from(["random", "deficient", "chain"])
seeds = st.integers(0, 10_000)


@PROPERTY
@given(kind=kinds, seed=seeds)
def test_bounds_and_verdicts_invariant_under_block_permutation(kind, seed):
    ksys = _instance(kind, seed)
    order = np.random.default_rng(seed).permutation(ksys.system.num_blocks)
    permuted = KGSystem(GSystem(ksys.ambient_dim, tuple(ksys.system.blocks[j] for j in order)), ksys.k)
    _assert_bounds_scaled(optimal_bounds(permuted), optimal_bounds(ksys), 1.0, 1.0)
    assert classify(permuted).label is classify(ksys).label


@PROPERTY
@given(kind=kinds, seed=seeds)
def test_bounds_and_verdicts_invariant_under_coefficient_unitaries(kind, seed):
    ksys = _instance(kind, seed)
    rng = np.random.default_rng(seed)
    rotated = []
    for block in ksys.system.blocks:
        q, _ = np.linalg.qr(complex_gaussian(rng, (block.shape[0], block.shape[0])))
        rotated.append(q @ block)
    turned = KGSystem(GSystem(ksys.ambient_dim, tuple(rotated)), ksys.k)
    _assert_bounds_scaled(optimal_bounds(turned), optimal_bounds(ksys), 1.0, 1.0)
    assert classify(turned).label is classify(ksys).label


@PROPERTY
@given(kind=st.sampled_from(["random", "deficient", "chain", "corner"]), seed=seeds)
def test_bounds_verdicts_and_dual_invariant_under_an_ambient_unitary(kind, seed):
    # L_j -> L_j V and K -> V^* K V turn S into V^* S V and the canonical dual
    # T_j into T_j V, so no bound, verdict or erasure survival changes
    ksys = _instance(kind, seed)
    n = ksys.ambient_dim
    v, _ = np.linalg.qr(complex_gaussian(np.random.default_rng(seed), (n, n)))
    turned = KGSystem(ksys.system.with_matrix(ksys.system.matrix @ v), v.conj().T @ ksys.k @ v)
    assert classify(turned).label is classify(ksys).label
    base, rep = optimal_bounds(ksys), optimal_bounds(turned)
    assert rep.tight_kg == base.tight_kg
    for name in ("bessel_upper_opt", "g_lower_opt", "kg_lower_opt", "tightness_constant"):
        want, got = getattr(base, name), getattr(rep, name)
        assert (got is None) == (want is None), name
        if want is not None:
            # g_lower_opt of a singular S is rounding noise on the scale of S
            scale = base.bessel_upper_opt if name == "g_lower_opt" else want
            assert abs(got - want) <= 1e-10 * scale, name
    max_remove = min(2, ksys.system.num_blocks)
    assert ([r.survives for r in brute_force_erasure_search(turned, max_remove)]
            == [r.survives for r in brute_force_erasure_search(ksys, max_remove)])
    if base.kg_lower_opt is None:
        return
    dual = canonical_kg_dual(ksys)
    image = dual.with_matrix(dual.matrix @ v)
    assert approx_defect(turned.system, image, turned.k).defect <= DUAL_EXACT_TOL
    got = canonical_kg_dual(turned).matrix
    assert np.linalg.norm(got - image.matrix) <= 1e-10 * np.linalg.norm(image.matrix)


@PROPERTY
@given(kind=kinds, seed=seeds, exponent=st.integers(-6, 6), phase=st.floats(0.0, 2 * np.pi))
def test_bounds_scale_by_modulus_squared_under_block_scaling(kind, seed, exponent, phase):
    ksys = _instance(kind, seed)
    c = 10.0**exponent * np.exp(1j * phase)
    scaled = KGSystem(ksys.system.with_matrix(c * ksys.system.matrix), ksys.k)
    factor = abs(c) ** 2
    _assert_bounds_scaled(optimal_bounds(scaled), optimal_bounds(ksys), factor, factor)
    assert classify(scaled).label is classify(ksys).label


@pytest.mark.parametrize("seed", range(8))
def test_compressed_dual_paths_match_projector_formulas(seed):
    ksys = _deficient_instance(seed) if seed % 2 else random_instance(seed)
    system, k = ksys.system, np.array(ksys.k)
    candidate = perturbed_dual(ksys, 0.2 + 0.1 * (seed % 5), seed=seed)

    cert = approx_defect(system, candidate, k)
    defect, interchange = projector_defects_of(system, candidate, k)
    assert abs(cert.defect - defect) <= 1e-10
    assert abs(cert.interchange_defect - interchange) <= 1e-10

    def assert_factor(result, factor):
        want = candidate.matrix @ factor
        assert np.max(np.abs(result.matrix - want)) <= 1e-10 * max(1.0, float(np.max(np.abs(want))))

    assert_factor(exactify_dual(system, candidate, k), projector_exactify_factor_of(system, candidate, k))
    for num_terms in (0, 1, 6):
        assert_factor(truncated_neumann_dual(system, candidate, k, num_terms),
                      projector_neumann_factor_of(system, candidate, k, num_terms))


def _tally(calls) -> dict[str, int]:
    """How many ``eigh``, ``eigvalsh``, ``svd`` and spectral ``norm`` calls ``calls`` holds."""
    names = [name for name, _, _ in calls]
    return {name: names.count(name) for name in ("eigh", "eigvalsh", "svd", "norm")}


def test_one_factorization_serves_bounds_classification_and_dual(linalg_calls):
    base = random_kg_system(16, [4] * 6, 7, seed=5)
    ksys = KGSystem(base.system, base.k)  # a new instance: nothing cached yet
    linalg_calls.clear()
    classify(ksys)
    canonical_kg_dual(ksys)
    optimal_bounds(ksys)
    # one eigh of S and one SVD of K in all; one S^{+/2} K norm per bounds call,
    # each the eigvalsh of a Gram, and no SVD norm
    assert _tally(linalg_calls) == {"eigh": 1, "eigvalsh": 2, "svd": 1, "norm": 0}


def test_generated_system_arrives_with_its_factorization(linalg_calls):
    # the generator's range check factors S; with S of full rank it needs no K
    ksys = random_kg_system(12, [3] * 5, 4, seed=9)
    linalg_calls.clear()
    evals, evecs = ksys.s_evals, ksys.s_evecs
    assert _tally(linalg_calls)["eigh"] == _tally(linalg_calls)["svd"] == 0
    svals, basis = ksys.k_svals, ksys.k_range_basis
    assert _tally(linalg_calls)["svd"] == 1
    assert classify(ksys).label is Classification.G_FRAME
    assert ksys.s_evals is evals and ksys.s_evecs is evecs
    assert ksys.k_svals is svals and ksys.k_range_basis is basis
    assert _tally(linalg_calls)["eigh"] == 0 and _tally(linalg_calls)["svd"] == 1


def _dual_inputs(seed: int = 3):
    """A system with rank(K) < n whose factorizations are cached, a candidate and a target."""
    ksys = random_kg_system(16, [4] * 6, 7, seed=seed)
    candidate = perturbed_dual(ksys, 0.4, seed=seed)  # factors K and S if not yet done
    target = random_range_vector(np.random.default_rng(seed), np.array(ksys.k))
    return ksys, candidate, target


def test_duals_on_a_factored_system_take_no_svd_of_k(linalg_calls):
    ksys, candidate, target = _dual_inputs()
    fams = random_frame_family(ksys.system.block_dims, seed=1)
    linalg_calls.clear()
    approx_defect(ksys.system, candidate, ksys.k)
    truncated_neumann_dual(ksys.system, candidate, ksys.k, 4)
    neumann_reconstruct(ksys.system, candidate, ksys.k, target, num_steps=10)
    lift_to_vector_frames(ksys.system, candidate, fams, k=ksys.k)
    assert _tally(linalg_calls)["svd"] == 0
    exactify_dual(ksys.system, candidate, ksys.k)
    # the r x r C = B^* M B is inverted by an LU solve, not by the SVD of pinv
    assert _tally(linalg_calls)["svd"] == 0
    assert _tally(linalg_calls)["eigh"] == 0


@pytest.mark.parametrize("construction, norms, spanning_checks", [
    (lambda ksys, cand, f, fams: approx_defect(ksys.system, cand, ksys.k), 2, 0),
    (lambda ksys, cand, f, fams: exactify_dual(ksys.system, cand, ksys.k), 1, 0),
    (lambda ksys, cand, f, fams: truncated_neumann_dual(ksys.system, cand, ksys.k, 4), 1, 0),
    (lambda ksys, cand, f, fams: neumann_reconstruct(ksys.system, cand, ksys.k, f, num_steps=10),
     1, 0),
    (lambda ksys, cand, f, fams: lift_to_vector_frames(ksys.system, cand, fams, k=ksys.k), 4, 6),
], ids=["approx_defect", "exactify_dual", "truncated_neumann_dual", "neumann_reconstruct", "lift_with_k"])
def test_each_dual_construction_takes_only_the_norms_its_result_reports(
        construction, norms, spanning_checks, linalg_calls):
    # approx_defect reports the defect and ||I_r - C||; exactify_dual and the
    # Neumann constructions use the defect only; the lift reports its
    # residual, its two full-space defects and ||I_r - C|| but not the
    # defect. Each norm is the eigvalsh of a Gram. No construction takes an
    # SVD; the lift checks that each of the six frame families spans its
    # space (one eigvalsh each).
    ksys, candidate, target = _dual_inputs()
    fams = random_frame_family(ksys.system.block_dims, seed=1)
    linalg_calls.clear()
    construction(ksys, candidate, target, fams)
    assert _tally(linalg_calls) == {"eigh": 0, "eigvalsh": spanning_checks + norms, "svd": 0, "norm": 0}


def test_defect_on_a_fresh_system_factors_only_k(linalg_calls):
    ksys, candidate, _ = _dual_inputs()
    fresh = KGSystem(ksys.system, ksys.k)  # owns a new K, nothing cached yet
    linalg_calls.clear()
    cert = approx_defect(fresh.system, candidate, fresh.k)
    k_svd = [("svd", (16, 16), True)]  # K, factored into the owner's cache
    assert [call for call in linalg_calls if call[0] == "svd"] == k_svd
    assert approx_defect(fresh.system, candidate, fresh.k) == cert
    assert [call for call in linalg_calls if call[0] == "svd"] == k_svd  # and not again
    # S is not factored: the only eigvalsh calls are the two r x r norm Grams per call
    assert _tally(linalg_calls)["eigh"] == 0
    assert [call for call in linalg_calls if call[0] == "eigvalsh"] == [("eigvalsh", (7, 7), None)] * 4
    assert cert == approx_defect(ksys.system, candidate, ksys.k)


def test_an_owned_k_is_factored_once_whatever_the_call_order(linalg_calls):
    ksys, candidate, target = _dual_inputs()
    duals = {
        "approx_defect": lambda s: approx_defect(s.system, candidate, s.k),
        "exactify_dual": lambda s: exactify_dual(s.system, candidate, s.k),
        "neumann_reconstruct": lambda s: neumann_reconstruct(s.system, candidate, s.k, target),
    }
    calls = {**duals, "optimal_bounds": optimal_bounds, "canonical_kg_dual": canonical_kg_dual}
    for order in itertools.permutations(calls):
        fresh = KGSystem(ksys.system, ksys.k)  # owns a new K, nothing cached yet
        linalg_calls.clear()
        for name in order:
            seen = len(linalg_calls)
            calls[name](fresh)
            if name in duals:  # a dual call never factors S
                assert _tally(linalg_calls[seen:])["eigh"] == 0, order
        assert [call for call in linalg_calls if call[0] == "svd"] == [("svd", (16, 16), True)], order
        assert _tally(linalg_calls)["eigh"] == 1, order


def test_a_copy_of_k_gives_the_same_results_to_the_bit():
    ksys, candidate, target = _dual_inputs()
    system, copy = ksys.system, np.array(ksys.k)
    assert copy.flags.writeable

    def results(call):
        """``call(k)`` for the K of a new owner whose K was never factored
        (alive for the call), the owned K and a copy."""
        fresh = KGSystem(system, copy)
        return [call(k) for k in (fresh.k, ksys.k, copy)]

    # a tolerance below machine precision, 0 included, selects machine precision
    for rank_tol in (1e-10, 1e-3, 0.0, 1e-17, 1e-300):
        first, *rest = results(lambda k: approx_defect(system, candidate, k, rank_tol=rank_tol))
        assert all(cert == first for cert in rest)
    for call in (lambda k: exactify_dual(system, candidate, k),
                 lambda k: truncated_neumann_dual(system, candidate, k, 3)):
        first, *rest = results(call)
        assert all(np.array_equal(dual.matrix, first.matrix) for dual in rest)
    first, *rest = results(lambda k: neumann_reconstruct(system, candidate, k, target, num_steps=8))
    for trace in rest:
        assert trace.errors == first.errors
        assert all(np.array_equal(x, y) for x, y in zip(trace.iterates, first.iterates))


def test_k_of_a_collected_system_is_factored_per_call(linalg_calls):
    ksys, candidate, _ = _dual_inputs()
    system, k = ksys.system, ksys.k
    before = approx_defect(system, candidate, k)
    del ksys
    gc.collect()
    linalg_calls.clear()
    assert approx_defect(system, candidate, k) == before
    assert [call for call in linalg_calls if call[0] == "svd"] == [("svd", (16, 16), True)]


def test_reconstruction_steps_take_no_decomposition(linalg_calls):
    ksys, _, target = _dual_inputs()
    dual = canonical_kg_dual(ksys)
    candidate = dual.with_matrix(0.05 * dual.matrix)  # defect 0.95: all 200 steps run

    def decompositions(num_steps: int):
        linalg_calls.clear()
        trace = neumann_reconstruct(ksys.system, candidate, ksys.k, target, num_steps=num_steps)
        assert len(trace.errors) == num_steps + 1
        return list(linalg_calls)

    assert decompositions(0) == decompositions(200)


@pytest.mark.parametrize("rank_tol", [1e-10, 0.0])
@pytest.mark.parametrize("kind", ["invertible", "chain"])
def test_s_pinv_is_the_pseudo_inverse_of_the_frame_operator(kind, rank_tol):
    # the chain's S has a kernel; its eigenvalue there, near 5e-16, is cut at either tolerance
    ksys = random_kg_system(12, [3] * 5, 5, seed=0) if kind == "invertible" else overlap_chain_system(6)
    n = ksys.ambient_dim
    want = np.linalg.pinv(frame_operator_of(ksys.system))
    x = complex_gaussian(np.random.default_rng(8), (n, 3))
    for operand, expected in ((np.eye(n), want), (x, want @ x)):
        got = ksys.s_pinv(operand, rank_tol)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_s_pinv_past_the_float_range_is_a_typed_error():
    ksys = random_kg_system(4, [2, 1, 2], 2, 3)
    tiny = KGSystem(ksys.system.with_matrix(1e-160 * ksys.system.matrix), ksys.k)
    assert 0.0 < tiny.s_evals[0] < 1e-300  # subnormal, so 1/w overflows
    with pytest.raises(FloatRangeError):
        tiny.s_pinv(np.eye(4), 1e-10)
