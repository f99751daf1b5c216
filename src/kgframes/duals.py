"""Dual and approximately dual families for K-g-systems.

A candidate family ``theta`` is a dual of ``system`` relative to K when the
mixed operator M = sum_j L_j^* T_j restricts to the identity on range(K).
The defect ``||(I - M) P||`` (P the orthogonal projector onto range(K))
measures how far a candidate is from that identity; any defect below one
supports Neumann-series correction and reconstruction. Operators "on
range(K)" are compressed to an orthonormal basis B of range(K) (P = B B^*),
so every restricted norm and inverse is taken on r x r or n x r matrices,
r the rank of K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linops
from .constructions import SubspaceFrameFamily, _complex_gaussian
from .errors import (
    DimMismatchError,
    NotAFrameError,
    NotApproxDualError,
    NotInRangeError,
    RangeConditionError,
    TrivialRangeError,
)
from .gsystem import GSystem, KGSystem, range_condition_holds
from .linops import DEFAULT_RANK_TOL

# Relative projector residual below which a vector counts as in range(K).
MEMBERSHIP_RTOL = 1e-8
# Defect at or below this value certifies an exact dual.
DUAL_EXACT_TOL = 1e-9
# Default iteration cap and early-stop threshold for Neumann reconstruction.
NEUMANN_DEFAULT_STEPS = 50
NEUMANN_STOP_RTOL = 1e-12


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
    restricted defect is reported when K is supplied.
    """

    vectors_e: tuple[np.ndarray, ...]
    vectors_f: tuple[np.ndarray, ...]
    residual: float
    operator_defect: float
    vector_defect: float
    restricted_defect: float | None


def _check_same_shape(system: GSystem, candidate: GSystem) -> None:
    if system.ambient_dim != candidate.ambient_dim:
        raise DimMismatchError(
            f"ambient dims differ: {system.ambient_dim} vs {candidate.ambient_dim}"
        )
    if system.block_dims != candidate.block_dims:
        raise DimMismatchError(
            f"block dims differ: {system.block_dims} vs {candidate.block_dims}"
        )


def mixed_operator(system: GSystem, candidate: GSystem) -> np.ndarray:
    """Matrix of sum_j L_j^* T_j (synthesis of one family after analysis by the other)."""
    _check_same_shape(system, candidate)
    return system.matrix.conj().T @ candidate.matrix


def canonical_kg_dual(ksys: KGSystem, rank_tol: float = DEFAULT_RANK_TOL) -> GSystem:
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
    if not range_condition_holds(ksys, rank_tol):
        raise RangeConditionError("range(K) is not contained in range(S)")
    spec = ksys.spectrum
    support = spec.s_support(rank_tol)
    v = spec.s_evecs[:, support]
    b = spec.k_range(rank_tol)
    # pinv(S) P = V diag(1/w) V^* B B^* over the support of S
    left = (v / spec.s_evals[support]) @ (v.conj().T @ b)
    return ksys.system.with_matrix((ksys.system.matrix @ left) @ b.conj().T)


def _certify(system: GSystem, candidate: GSystem, k, exact_tol: float, rank_tol: float):
    """The certificate of a candidate, the range basis B of K and C = B^* M B.

    Both defects are norms on range(K) only: ||(I - M) P|| = ||B - M B|| and
    ||P (I - M^*) P|| = ||I_r - C||.
    """
    m = mixed_operator(system, candidate)
    k_op = linops.as_operator(k)
    n = system.ambient_dim
    if k_op.shape != (n, n):
        raise DimMismatchError(f"K has shape {k_op.shape}, expected ({n}, {n})")
    b = linops.range_basis(k_op, rank_tol)
    mb = m @ b
    c = b.conj().T @ mb
    defect = linops.op_norm(b - mb)
    interchange = linops.op_norm(np.eye(c.shape[0]) - c)
    return DualCertificate(defect, defect <= exact_tol, defect < 1.0, interchange), b, c


def _require_approx_dual(system: GSystem, candidate: GSystem, k, rank_tol: float):
    cert, b, c = _certify(system, candidate, k, DUAL_EXACT_TOL, rank_tol)
    if not cert.is_approx_dual:
        raise NotApproxDualError(f"defect {cert.defect:.6g} is not below 1")
    return cert, b, c


def approx_defect(
    system: GSystem,
    candidate: GSystem,
    k,
    exact_tol: float = DUAL_EXACT_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> DualCertificate:
    """Measure both duality defects of a candidate family relative to K."""
    return _certify(system, candidate, k, exact_tol, rank_tol)[0]


def is_kg_dual(system: GSystem, candidate: GSystem, k, tol: float = DUAL_EXACT_TOL) -> bool:
    """True when the measured defect does not exceed ``tol``."""
    return approx_defect(system, candidate, k, exact_tol=tol).defect <= tol


def exactify_dual(
    system: GSystem,
    candidate: GSystem,
    k,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> GSystem:
    """Turn an approximate dual into an exact one by inverting the mixed operator.

    The correction right-composes every candidate block with the inverse of
    P M P taken on range(K) and extended by zero, so the corrected mixed
    operator restricts to the identity there. Requires defect < 1.
    """
    _, b, c = _require_approx_dual(system, candidate, k, rank_tol)
    # pinv(P M P) = B pinv(B^* M B) B^*
    return candidate.with_matrix(((candidate.matrix @ b) @ linops.pinv(c, rank_tol)) @ b.conj().T)


def truncated_neumann_dual(
    system: GSystem,
    candidate: GSystem,
    k,
    num_terms: int,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> GSystem:
    """Approximate dual from the first ``num_terms + 1`` Neumann correction terms.

    The candidate blocks are right-composed with
    ``T_N = sum_{n=0..N} (P - P M P)^n P``; the defect of the result decays
    geometrically, bounded by defect(candidate)^(N+1).
    """
    if num_terms < 0:
        raise ValueError("num_terms must be non-negative")
    _, b, c = _require_approx_dual(system, candidate, k, rank_tol)
    # P - P M P = B (I_r - C) B^*, so T_N = B (sum_n (I_r - C)^n) B^*
    eye = np.eye(c.shape[0], dtype=np.complex128)
    q = eye - c
    term = eye
    acc = eye.copy()
    for _ in range(num_terms):
        term = q @ term
        acc += term
    return candidate.with_matrix(((candidate.matrix @ b) @ acc) @ b.conj().T)


def neumann_reconstruct(
    system: GSystem,
    candidate: GSystem,
    k,
    target,
    num_steps: int = NEUMANN_DEFAULT_STEPS,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> ReconstructionTrace:
    """Reconstruct a vector of range(K) by the geometric correction series.

    Runs the iteration built only from analysis and synthesis applications:
    the N-th iterate adds the projected correction of the previous residual
    term, never forming an inverse. Iteration stops after ``num_steps``
    corrections or once the error falls below 1e-12 relative to ||f||.

    Raises
    ------
    NotInRangeError
        If the target is outside range(K) at relative tolerance 1e-8.
    NotApproxDualError
        If the measured defect is not below 1.
    """
    cert, b, _ = _require_approx_dual(system, candidate, k, rank_tol)
    f = linops.as_vector(target)
    if f.shape[0] != system.ambient_dim:
        raise DimMismatchError(f"vector has length {f.shape[0]}, expected {system.ambient_dim}")
    b_star = b.conj().T

    def project(v: np.ndarray) -> np.ndarray:
        return b @ (b_star @ v)

    f_norm = float(np.linalg.norm(f))
    if float(np.linalg.norm(f - project(f))) > MEMBERSHIP_RTOL * f_norm:
        raise NotInRangeError("target vector is not in range(K)")

    def apply_mixed(v: np.ndarray) -> np.ndarray:
        # analysis by the candidate, then synthesis by the system as
        # L^* y = conj(L^T conj(y)), which copies no matrix
        return (system.matrix.T @ (candidate.matrix @ v).conj()).conj()

    term = project(apply_mixed(f))
    approx = term.copy()
    iterates = [approx.copy()]
    errors = [float(np.linalg.norm(f - approx))]
    predicted = [cert.defect * f_norm]
    for step in range(1, num_steps + 1):
        if errors[-1] <= NEUMANN_STOP_RTOL * f_norm:
            break
        term = project(term - apply_mixed(term))
        approx += term
        iterates.append(approx.copy())
        errors.append(float(np.linalg.norm(f - approx)))
        predicted.append(cert.defect ** (step + 1) * f_norm)
    return ReconstructionTrace(tuple(iterates), tuple(errors), tuple(predicted))


def perturbed_dual(
    ksys: KGSystem, defect: float, seed: int, rank_tol: float = DEFAULT_RANK_TOL
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
    base = canonical_kg_dual(ksys, rank_tol)
    if defect == 0.0:
        return base
    n = ksys.ambient_dim
    rng = np.random.default_rng(seed)
    b = ksys.spectrum.k_range(rank_tol)
    if b.shape[1] == 0:
        raise TrivialRangeError(f"range(K) is trivial, so no defect {defect} > 0 can be reached")
    g = _complex_gaussian(rng, (n, n))
    scale = linops.op_norm(b.conj().T @ g @ b)  # ||P G P||
    g *= defect / scale
    factor = np.eye(n, dtype=np.complex128) + g
    return base.with_matrix(base.matrix @ factor)


def lift_to_vector_frames(
    system: GSystem,
    candidate: GSystem,
    fams: SubspaceFrameFamily,
    k=None,
    rank_tol: float = DEFAULT_RANK_TOL,
) -> LiftResult:
    """Lift an operator-valued dual pair to ordinary vector families.

    For every block index j and every vector f of the j-th family, the
    candidate side contributes T_j^* f and the system side L_j^* f~, where
    f~ runs over the canonical dual of the family inside its coefficient
    space. The two flattened families have equal mixed operators, so one is
    an approximate dual of the other exactly when the original pair is.
    """
    _check_same_shape(system, candidate)
    if len(fams.families) != system.num_blocks:
        raise DimMismatchError(
            f"expected {system.num_blocks} families, got {len(fams.families)}"
        )
    n = system.ambient_dim
    vectors_e = []
    vectors_f = []
    for j, fam in enumerate(fams.families):
        d = system.block_dims[j]
        if fam.shape[1] != d:
            raise DimMismatchError(
                f"family {j} has vectors of length {fam.shape[1]}, block needs {d}"
            )
        fam_op = SubspaceFrameFamily.frame_operator_of(fam)
        evals = linops.hermitian_eigvals(fam_op)
        if not evals.size or float(evals[0]) <= rank_tol * float(evals[-1]):
            raise NotAFrameError(f"family {j} does not span its space")
        duals = np.linalg.solve(fam_op, fam.T).T
        for vec, dual_vec in zip(fam, duals):
            vectors_e.append(candidate.blocks[j].conj().T @ vec)
            vectors_f.append(system.blocks[j].conj().T @ dual_vec)

    e_mat = np.column_stack(vectors_e) if vectors_e else np.zeros((n, 0), dtype=np.complex128)
    f_mat = np.column_stack(vectors_f) if vectors_f else np.zeros((n, 0), dtype=np.complex128)
    lifted_mixed = e_mat @ f_mat.conj().T
    swapped = mixed_operator(candidate, system)  # sum_j T_j^* L_j
    eye = np.eye(n, dtype=np.complex128)
    residual = linops.op_norm(lifted_mixed - swapped)
    operator_defect = linops.op_norm(eye - swapped)
    vector_defect = linops.op_norm(eye - lifted_mixed)
    restricted: float | None = None
    if k is not None:
        b = linops.range_basis(k, rank_tol)
        restricted = linops.op_norm(np.eye(b.shape[1]) - b.conj().T @ swapped @ b)  # ||P (I - M') P||
    return LiftResult(
        tuple(vectors_e), tuple(vectors_f), residual, operator_defect, vector_defect, restricted
    )
