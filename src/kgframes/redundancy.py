"""Erasure analysis: which sub-families of a K-g-frame stay K-g-frames.

Two sufficient criteria are implemented next to a brute-force oracle. The
norm-counting criterion needs unit-norm blocks on the removed set and an
invertible K; the invertibility criterion needs an invertible frame
operator and decides survival through T = I - S^{-1} S_I. The brute-force
path computes optimal bounds of the reduced system and is the ground truth
the criteria are judged against. Every reduced bound comes from one
eigendecomposition of the kept rows' frame operator, paired with the full
system's cached factorization of K, which every subset shares.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linops
from .errors import (
    BadIndexError,
    FrameOperatorSingularError,
    KStarNotBoundedBelowError,
    NotKGFrameError,
    NotUnitNormError,
    TooManySubsetsError,
)
from .gsystem import (
    RANGE_INCLUSION_RTOL,
    TIGHT_RTOL,
    BoundReport,
    GSystem,
    KGSystem,
    _gram,
    _spectral_bounds,
    optimal_bounds,
)
from .linops import DEFAULT_RANK_TOL

# Singular-value ratio below which T = I - S^{-1} S_I counts as singular.
INVERTIBILITY_TOL = 1e-10
# Removed blocks must have operator norm 1 within this tolerance.
UNIT_NORM_TOL = 1e-9
# A reduced system survives brute force when its lower bound A relative to K
# has A * ||K||^2 > SURVIVAL_TOL * B, B the full system's Bessel bound.
SURVIVAL_TOL = 1e-10
# Ceiling on the number of subsets a brute-force enumeration may visit.
MAX_SUBSETS = 100_000


@dataclass(frozen=True)
class ErasureReport:
    """Outcome of removing an index set from a K-g-system.

    ``predicted_lower_bound`` is the criterion's guaranteed lower frame
    bound for the reduced system (when one is claimed) and
    ``actual_lower_bound`` the reduced system's optimal bound, None when the
    reduced system has no bound relative to K. For the invertibility
    criterion ``predicted_lower_bound_stated`` keeps the companion form
    without the K factor inside the norm; it is reported for comparison but
    not guaranteed. ``count_conditions_differ`` flags norm-count instances
    where the two circulating subset conditions (|I| < A C versus
    |I| < A C^2) disagree.
    """

    removed: tuple[int, ...]
    criterion: str
    survives: bool
    predicted_lower_bound: float | None
    actual_lower_bound: float | None
    invertibility_norm: float | None
    predicted_lower_bound_stated: float | None = None
    count_conditions_differ: bool | None = None


def _validate_indices(num_blocks: int, indices) -> tuple[int, ...]:
    idx = tuple(int(i) for i in indices)
    if len(set(idx)) != len(idx):
        raise BadIndexError(f"index set has repeats: {idx}")
    for i in idx:
        if not 0 <= i < num_blocks:
            raise BadIndexError(f"index {i} outside [0, {num_blocks})")
    return tuple(sorted(idx))


def _block_rows(sys: GSystem, idx: tuple[int, ...]) -> np.ndarray:
    """Mask of the stacked rows that belong to the blocks in ``idx``."""
    mask = np.zeros(sys.offsets[-1], dtype=bool)
    for j in idx:
        mask[sys.offsets[j] : sys.offsets[j + 1]] = True
    return mask


def partial_frame_operator(sys: GSystem, indices) -> np.ndarray:
    """Frame operator restricted to a subset of blocks: sum_{j in I} L_j^* L_j."""
    idx = _validate_indices(sys.num_blocks, indices)
    return _gram(sys.matrix[_block_rows(sys, idx)])


def reduced_system(ksys: KGSystem, indices) -> KGSystem:
    """The K-g-system with the given blocks removed (K unchanged)."""
    idx = set(_validate_indices(ksys.system.num_blocks, indices))
    blocks = tuple(b for j, b in enumerate(ksys.system.blocks) if j not in idx)
    return KGSystem(GSystem(ksys.ambient_dim, blocks), ksys.k)


def _reduced_bounds(ksys: KGSystem, idx: tuple[int, ...], rank_tol: float) -> BoundReport:
    """``optimal_bounds(reduced_system(ksys, idx))`` without building the reduced system."""
    kept = ksys.system.matrix[~_block_rows(ksys.system, idx)]
    spec = ksys.spectrum._with_rows(kept)
    return _spectral_bounds(spec, rank_tol, RANGE_INCLUSION_RTOL, TIGHT_RTOL)


def _survival_floor(ksys: KGSystem) -> float:
    """The K-relative lower bound ``SURVIVAL_TOL * B / ||K||^2`` a reduced system must exceed.

    B = ||L||^2 is the full system's Bessel bound, so the threshold scales with
    the blocks and K; it is infinite for K = 0.
    """
    spec = ksys.spectrum
    if spec.k_norm == 0.0:
        return math.inf
    return SURVIVAL_TOL * max(float(spec.s_evals[-1]), 0.0) / (spec.k_norm * spec.k_norm)


def erasure_norm_count(
    ksys: KGSystem, indices, rank_tol: float = DEFAULT_RANK_TOL
) -> ErasureReport:
    """Survival via counting: the removed set is small against A * C^2.

    ``C`` is the lower bound of K^* (smallest singular value of K) and A
    the optimal lower bound of the full system relative to K. Every removed
    block must have unit operator norm. Survival is claimed when
    ``A * C^2 - |I| > 0``, and that value is the predicted lower bound of
    the reduced system.
    """
    idx = _validate_indices(ksys.system.num_blocks, indices)
    c = ksys.spectrum.k_lower(rank_tol)
    if c == 0.0:
        raise KStarNotBoundedBelowError("the adjoint of K is not bounded below")
    for j in idx:
        norm_j = linops.op_norm(ksys.system.blocks[j])
        if abs(norm_j - 1.0) > UNIT_NORM_TOL:
            raise NotUnitNormError(f"block {j} has operator norm {norm_j:.12g}, expected 1")
    full = optimal_bounds(ksys, rank_tol=rank_tol)
    if full.kg_lower_opt is None or full.kg_lower_opt <= 0.0:
        raise NotKGFrameError("system has no positive lower bound relative to K")
    a = full.kg_lower_opt
    margin = a * c * c - len(idx)
    survives = margin > 0.0
    predicted = margin if survives else None
    differs = (len(idx) < a * c) != (len(idx) < a * c * c)
    reduced = _reduced_bounds(ksys, idx, rank_tol)
    return ErasureReport(
        removed=idx,
        criterion="normCount",
        survives=survives,
        predicted_lower_bound=predicted,
        actual_lower_bound=reduced.kg_lower_opt,
        invertibility_norm=None,
        count_conditions_differ=differs,
    )


def erasure_invertibility(
    ksys: KGSystem, indices, rank_tol: float = DEFAULT_RANK_TOL
) -> ErasureReport:
    """Survival via invertibility of T = I - S^{-1} S_I.

    Requires the full frame operator S to be invertible. When T is
    invertible the reduced family keeps a positive lower bound relative to
    K; the guaranteed value follows the derivation that keeps K^* inside
    the norm, ``A / ||K^* T^{-1}||^2``, with A the largest constant serving
    simultaneously as a lower g-frame bound and a lower K-g bound of the
    full system. The statement-style companion ``A / ||T^{-1}||^2`` is
    stored alongside but is not a guaranteed bound.
    """
    idx = _validate_indices(ksys.system.num_blocks, indices)
    spec = ksys.spectrum
    if not spec.s_support(rank_tol).all():
        raise FrameOperatorSingularError("frame operator is singular at tolerance")
    full = optimal_bounds(ksys, rank_tol=rank_tol)
    if full.kg_lower_opt is None or full.kg_lower_opt <= 0.0:
        raise NotKGFrameError("system has no positive lower bound relative to K")
    a = min(full.g_lower_opt, full.kg_lower_opt)

    n = ksys.ambient_dim
    s_removed = partial_frame_operator(ksys.system, idx)
    # S^{-1} S_I through the eigenpairs S = V diag(w) V^*
    v = spec.s_evecs
    t = np.eye(n, dtype=np.complex128) - (v / spec.s_evals) @ (v.conj().T @ s_removed)
    tvals = linops.svd_values(t)
    survives = bool(tvals.size and float(tvals[0]) > 0.0
                    and float(tvals[-1]) > INVERTIBILITY_TOL * float(tvals[0]))

    predicted = None
    stated = None
    inv_norm = None
    if survives:
        t_inv = np.linalg.inv(t)
        inv_norm = linops.op_norm(t_inv)
        denom = linops.op_norm(ksys.k.conj().T @ t_inv)
        if denom > 0.0:
            predicted = a / (denom * denom)
        stated = a / (inv_norm * inv_norm)
    reduced = _reduced_bounds(ksys, idx, rank_tol)
    return ErasureReport(
        removed=idx,
        criterion="invertibility",
        survives=survives,
        predicted_lower_bound=predicted,
        actual_lower_bound=reduced.kg_lower_opt,
        invertibility_norm=inv_norm,
        predicted_lower_bound_stated=stated,
    )


def erasure_brute_report(
    ksys: KGSystem, indices, rank_tol: float = DEFAULT_RANK_TOL
) -> ErasureReport:
    """Ground-truth report: the optimal bounds of the reduced system.

    The reduced system survives when A * ||K||^2 > SURVIVAL_TOL * B, with A its
    lower bound relative to K and B the full system's Bessel bound.
    """
    idx = _validate_indices(ksys.system.num_blocks, indices)
    return _brute_report(ksys, idx, rank_tol, _survival_floor(ksys))


def _brute_report(ksys: KGSystem, idx: tuple[int, ...], rank_tol: float, floor: float):
    reduced = _reduced_bounds(ksys, idx, rank_tol)
    survives = reduced.kg_lower_opt is not None and reduced.kg_lower_opt > floor
    return ErasureReport(
        removed=idx,
        criterion="bruteForce",
        survives=bool(survives),
        predicted_lower_bound=None,
        actual_lower_bound=reduced.kg_lower_opt,
        invertibility_norm=None,
    )


def brute_force_erasure_search(
    ksys: KGSystem, max_remove: int, rank_tol: float = DEFAULT_RANK_TOL
) -> list[ErasureReport]:
    """Evaluate every removal of up to ``max_remove`` blocks.

    Enumeration is guarded: the total number of subsets must not exceed
    100000. Reports come back in deterministic order (by subset size, then
    lexicographic).
    """
    m = ksys.system.num_blocks
    if not 0 <= max_remove <= m:
        raise BadIndexError(f"max_remove must lie in [0, {m}], got {max_remove}")
    total = sum(math.comb(m, r) for r in range(max_remove + 1))
    if total > MAX_SUBSETS:
        raise TooManySubsetsError(f"{total} subsets exceed the {MAX_SUBSETS} budget")
    floor = _survival_floor(ksys)
    reports = []
    for r in range(max_remove + 1):
        for combo in itertools.combinations(range(m), r):
            reports.append(_brute_report(ksys, combo, rank_tol, floor))
    return reports
