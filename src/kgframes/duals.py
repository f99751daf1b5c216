"""Dual and approximately dual families for K-g-systems.

A candidate family ``theta`` is a dual of ``system`` relative to K when the
mixed operator M = sum_j L_j^* T_j restricts to the identity on range(K).
The defect ``||(I - M) P||`` (P the orthogonal projector onto range(K))
measures how far a candidate is from that identity; any defect below one
supports Neumann-series correction and reconstruction. Operators "on
range(K)" are compressed to an orthonormal basis B of range(K) (P = B B^*),
so every restricted norm and inverse is taken on r x r or n x r matrices,
r the rank of K. Neumann reconstruction steps likewise act on r-vectors of
coordinates in B through the r x r compression C = B^* M B, and form no
inverse.

Each construction takes only the decompositions its result uses, besides
the factorization of K that yields B: ``approx_defect`` takes two norms
(the defect and ||I_r - C||), each one ``eigvalsh`` of a Gram
(:func:`linops.op_norm`); ``exactify_dual``, ``truncated_neumann_dual``
and ``neumann_reconstruct`` one (the defect); ``perturbed_dual`` one
(||P G P||). Exactification inverts C by one LU solve unless 1 - defect is
within the rank cutoff, and the canonical and perturbed duals form no n x n
operator. ``lift_to_vector_frames`` flattens both sides of a pair with the
rows that ``compose`` builds and takes three norms, and with K a fourth,
||I_r - C||, not the defect. Each function that takes a raw K checks its shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linops
from .constructions import SubspaceFrameFamily, _canonical_duals, _complex_gaussian, _flatten
from .errors import (
    DimMismatchError,
    NotApproxDualError,
    NotInRangeError,
    RangeConditionError,
    TrivialRangeError,
)
from .gsystem import GSystem, KGSystem, _k_range, range_condition_holds

__all__ = ["DualCertificate", "LiftResult", "ReconstructionTrace", "approx_defect",
           "canonical_kg_dual", "exactify_dual", "is_kg_dual", "lift_to_vector_frames",
           "mixed_operator", "neumann_reconstruct", "perturbed_dual", "truncated_neumann_dual"]

# Default iteration cap of Neumann reconstruction.
NEUMANN_DEFAULT_STEPS = 50


@dataclass(frozen=True)
class DualCertificate:
    """Measured duality defects of a (system, candidate) pair relative to K.

    ``defect`` is ``||(I - M) P||`` with M = sum_j L_j^* T_j, the norm of
    the restriction to range(K) as a map into the whole space.
    ``interchange_defect`` is ``||P (I - M') P||`` for the swapped product
    M' = sum_j T_j^* L_j. The two need not agree when range(K) is proper.
    """

    defect: float
    is_exact_dual: bool
    is_approx_dual: bool
    interchange_defect: float


@dataclass(frozen=True, eq=False)
class ReconstructionTrace:
    """Partial sums of the Neumann reconstruction with measured errors.

    ``errors[N]`` is the distance of the N-th partial sum from the target;
    ``predicted_bound[N]`` is the geometric envelope defect^(N+1) * ||f||.
    """

    iterates: tuple[np.ndarray, ...]
    errors: tuple[float, ...]
    predicted_bound: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class LiftResult:
    """Vector families lifted from an operator-valued dual pair.

    ``vectors_e`` collects T_j^* f (candidate side) and ``vectors_f``
    collects L_j^* f~ (system side, against the per-space canonical duals
    f~). ``residual`` is the operator-norm distance between the two mixed
    operators, which coincide in exact arithmetic. The two full-space
    defects govern the approximate-duality predicate of either family; the
    restricted defect is the candidate's interchange defect relative to K.
    """

    vectors_e: tuple[np.ndarray, ...]
    vectors_f: tuple[np.ndarray, ...]
    residual: float
    operator_defect: float
    vector_defect: float
    restricted_defect: float


def _check_same_shape(system: GSystem, candidate: GSystem) -> None:
    if system.ambient_dim != candidate.ambient_dim:
        raise DimMismatchError(
            f"ambient dims differ: {system.ambient_dim} vs {candidate.ambient_dim}"
        )
    # equal offsets mean equal block dims, without building either tuple
    if system.offsets != candidate.offsets:
        raise DimMismatchError(
            f"block dims differ: {system.block_dims} vs {candidate.block_dims}"
        )


def mixed_operator(system: GSystem, candidate: GSystem) -> np.ndarray:
    """Matrix of sum_j L_j^* T_j (synthesis of one family after analysis by the other)."""
    _check_same_shape(system, candidate)
    return system.matrix.conj().T @ candidate.matrix


def canonical_kg_dual(ksys: KGSystem, rank_tol: float = linops.DEFAULT_RANK_TOL) -> GSystem:
    """Canonical dual family T_j = L_j pinv(S) P, P the range projector of K.

    Requires range(K) inside range(S); the result reproduces every f in
    range(K) through sum_j L_j^* T_j f = f, and the interchanged products
    reproduce range(K) as well.

    Raises
    ------
    RangeConditionError
        If range(K) is not contained in range(S) at the working tolerance,
        in which case no dual relative to K exists.
    """
    lsb, b = _canonical_factors(ksys, rank_tol)
    return ksys.system.with_matrix(lsb @ b.conj().T)


def _canonical_factors(ksys: KGSystem, rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """L pinv(S) B and the range basis B of K; the canonical dual is (L pinv(S) B) B^*."""
    if not range_condition_holds(ksys, rank_tol):
        raise RangeConditionError("range(K) is not contained in range(S)")
    support = ksys.s_support(rank_tol)
    v = ksys.s_evecs[:, support]
    b = ksys.k_range(rank_tol)
    # pinv(S) B = V diag(1/w) V^* B over the support of S
    left = (v / ksys.s_evals[support]) @ (v.conj().T @ b)
    return ksys.system.matrix @ left, b


def _compress(system: GSystem, candidate: GSystem, k, rank_tol: float):
    """The range basis B of K, T B, M B and the compression C = B^* M B.

    B comes from the cached SVD of the system that owns ``k``, and M B =
    L^* (T B) is formed as conj(L^T conj(T B)), so neither M nor a conjugated
    copy of L exists. The callers that use the defect take it as
    ||(I - M) P|| = ||B - M B||, a norm on range(K) only.
    """
    _check_same_shape(system, candidate)
    b = _k_range(k, system.ambient_dim, rank_tol)
    tb = candidate.matrix @ b
    mb = (system.matrix.T @ tb.conj()).conj()
    return b, tb, mb, b.conj().T @ mb


def _require_approx_dual(system: GSystem, candidate: GSystem, k, rank_tol: float):
    b, tb, mb, c = _compress(system, candidate, k, rank_tol)
    defect = linops.op_norm(b - mb)
    if not defect < 1.0:
        raise NotApproxDualError(f"defect {defect:.6g} is not below 1")
    return defect, b, tb, c


def approx_defect(
    system: GSystem,
    candidate: GSystem,
    k,
    exact_tol: float = linops.DUAL_EXACT_TOL,
    rank_tol: float = linops.DEFAULT_RANK_TOL,
) -> DualCertificate:
    """Measure both duality defects relative to K; exact when the defect <= ``exact_tol``."""
    linops._checked_tol(exact_tol, "exact_tol")
    b, _, mb, c = _compress(system, candidate, k, rank_tol)
    defect = linops.op_norm(b - mb)
    interchange = linops.op_norm(np.eye(c.shape[0]) - c)  # ||P (I - M^*) P||
    return DualCertificate(defect, defect <= exact_tol, defect < 1.0, interchange)


def is_kg_dual(system: GSystem, candidate: GSystem, k, exact_tol: float = linops.DUAL_EXACT_TOL) -> bool:
    """True when the measured defect does not exceed ``exact_tol``."""
    return approx_defect(system, candidate, k, exact_tol=exact_tol).is_exact_dual


def exactify_dual(
    system: GSystem,
    candidate: GSystem,
    k,
    rank_tol: float = linops.DEFAULT_RANK_TOL,
) -> GSystem:
    """Turn an approximate dual into an exact one by inverting the mixed operator.

    The correction right-composes every candidate block with the inverse of
    P M P taken on range(K) and extended by zero, so the corrected mixed
    operator restricts to the identity there. Requires defect < 1.
    """
    defect, b, tb, c = _require_approx_dual(system, candidate, k, rank_tol)
    # pinv(P M P) = B pinv(C) B^*. ||I_r - C|| <= defect puts the singular
    # values of C in [1 - defect, 1 + defect], so when 1 - defect clears the
    # rank cutoff of pinv, pinv(C) = C^-1 and T B C^-1 is one LU solve.
    if 1.0 - defect > linops.rank_cutoff(1.0 + defect, c.shape[0], rank_tol):
        corrected = np.linalg.solve(c.T, tb.T).T
    else:
        corrected = tb @ linops.pinv(c, rank_tol)
    return candidate.with_matrix(corrected @ b.conj().T)


def truncated_neumann_dual(
    system: GSystem,
    candidate: GSystem,
    k,
    num_terms: int,
    rank_tol: float = linops.DEFAULT_RANK_TOL,
) -> GSystem:
    """Approximate dual from the first ``num_terms + 1`` Neumann correction terms.

    The candidate blocks are right-composed with
    ``T_N = sum_{n=0..N} (P - P M P)^n P``; the defect of the result decays
    geometrically, bounded by defect(candidate)^(N+1).
    """
    if num_terms < 0:
        raise ValueError("num_terms must be non-negative")
    _, b, tb, c = _require_approx_dual(system, candidate, k, rank_tol)
    # P - P M P = B (I_r - C) B^*, so T_N = B (sum_n (I_r - C)^n) B^*
    eye = np.eye(c.shape[0], dtype=np.complex128)
    q = eye - c
    term = eye
    acc = eye.copy()
    for _ in range(num_terms):
        term = q @ term
        acc += term
    return candidate.with_matrix((tb @ acc) @ b.conj().T)


def neumann_reconstruct(
    system: GSystem,
    candidate: GSystem,
    k,
    target,
    num_steps: int = NEUMANN_DEFAULT_STEPS,
    rank_tol: float = linops.DEFAULT_RANK_TOL,
) -> ReconstructionTrace:
    """Reconstruct a vector of range(K) by the geometric correction series.

    The N-th iterate is sum_{n=0..N} P (I - M)^n M f, built from one
    analysis and one synthesis application to f and never forming an
    inverse. The series runs in the coordinates of the range basis B of K
    (P = B B^*): with t_0 = B^* M f and C = B^* M B, the next term is
    t_{N+1} = (I_r - C) t_N and the N-th iterate is B (t_0 + ... + t_N),
    so a step costs one r x r and one n x r product, r the rank of K. Each
    error is measured in the whole space as ||f - iterate||. Iteration
    stops after ``num_steps`` corrections or once the error is at most
    ``linops.NEUMANN_STOP_RTOL`` ||f||.

    Raises
    ------
    ValueError
        If ``num_steps`` is negative.
    NotInRangeError
        If the target is outside range(K) at relative tolerance ``linops.RANGE_INCLUSION_RTOL``.
    NotApproxDualError
        If the measured defect is not below 1.
    """
    if num_steps < 0:
        raise ValueError("num_steps must be non-negative")
    defect, b, _, c = _require_approx_dual(system, candidate, k, rank_tol)
    f = linops.as_vector(target)
    if f.shape[0] != system.ambient_dim:
        raise DimMismatchError(f"vector has length {f.shape[0]}, expected {system.ambient_dim}")
    b_star = b.conj().T
    f_norm = float(np.linalg.norm(f))
    if float(np.linalg.norm(f - b @ (b_star @ f))) > linops.RANGE_INCLUSION_RTOL * f_norm:
        raise NotInRangeError("target vector is not in range(K)")

    # M f = L^* (T f) = conj(L^T conj(T f)), which copies no matrix
    term = b_star @ (system.matrix.T @ (candidate.matrix @ f).conj()).conj()
    q = np.eye(c.shape[0]) - c  # B^* (I - M) B
    coords = term.copy()
    iterates = [b @ coords]
    errors = [float(np.linalg.norm(f - iterates[0]))]
    predicted = [defect * f_norm]
    stop = linops.NEUMANN_STOP_RTOL * f_norm
    for step in range(1, num_steps + 1):
        if errors[-1] <= stop:
            break
        term = q @ term
        coords += term
        iterates.append(b @ coords)
        errors.append(float(np.linalg.norm(f - iterates[-1])))
        predicted.append(defect ** (step + 1) * f_norm)
    return ReconstructionTrace(tuple(iterates), tuple(errors), tuple(predicted))


def perturbed_dual(
    ksys: KGSystem, defect: float, seed: int, rank_tol: float = linops.DEFAULT_RANK_TOL
) -> GSystem:
    """Approximate dual with a prescribed measured defect.

    Right-composes the canonical dual with ``I + G`` for a random G scaled
    so that ``||P G P|| = defect``. The perturbation acts inside range(K),
    which keeps the mixed operator range-compatible: exactly the situation
    in which the Neumann machinery applies. Raises
    :class:`~kgframes.errors.TrivialRangeError` for a positive defect when
    range(K) is {0} at ``rank_tol``, since no perturbation inside it has one.
    """
    if not 0.0 <= defect < 1.0:
        raise ValueError("defect must lie in [0, 1)")
    lsb, b = _canonical_factors(ksys, rank_tol)
    b_star = b.conj().T
    if defect == 0.0:
        return ksys.system.with_matrix(lsb @ b_star)
    if b.shape[1] == 0:
        raise TrivialRangeError(f"range(K) is trivial, so no defect {defect} > 0 can be reached")
    n = ksys.ambient_dim
    g = _complex_gaussian(np.random.default_rng(seed), (n, n))
    bg = b_star @ g
    scale = linops.op_norm(bg @ b)  # ||P G P||
    # canonical (I + G) = L pinv(S) B (B^* + B^* G), with G scaled to the defect
    return ksys.system.with_matrix(lsb @ (b_star + bg * (defect / scale)))


def lift_to_vector_frames(
    system: GSystem,
    candidate: GSystem,
    fams: SubspaceFrameFamily,
    k,
    rank_tol: float = linops.DEFAULT_RANK_TOL,
) -> LiftResult:
    """Lift an operator-valued dual pair to ordinary vector families.

    For every block index j and every vector f of the j-th family, the
    candidate side contributes T_j^* f and the system side L_j^* f~, where
    f~ runs over the canonical dual of the family inside its coefficient
    space. The two flattened families have equal mixed operators, so one is
    an approximate dual of the other exactly when the original pair is.
    """
    swapped = mixed_operator(candidate, system)  # sum_j T_j^* L_j
    # row i of a flattened system is f_i^* T_j, so its conjugate is T_j^* f_i
    lifted_e = _flatten(candidate, fams.families)
    lifted_f = _flatten(system, _canonical_duals(fams.families, rank_tol))
    lifted_mixed = mixed_operator(lifted_e, lifted_f)
    eye = np.eye(system.ambient_dim, dtype=np.complex128)
    *_, c = _compress(system, candidate, k, rank_tol)
    return LiftResult(
        tuple(lifted_e.matrix.conj()), tuple(lifted_f.matrix.conj()),
        linops.op_norm(lifted_mixed - swapped), linops.op_norm(eye - swapped),
        linops.op_norm(eye - lifted_mixed),
        linops.op_norm(np.eye(c.shape[0]) - c),  # as approx_defect's interchange
    )
