"""Erasure analysis: which sub-families of a K-g-frame stay K-g-frames.

Two sufficient criteria are implemented next to a brute-force oracle. The
norm-counting criterion needs unit-norm blocks on the removed set and an
invertible K; the invertibility criterion needs an invertible frame
operator and decides survival through T = I - S^{-1} S_I. The brute-force
path computes optimal bounds of the reduced system and is the ground truth
the criteria are judged against. A removal that the full system's cached
factorization proves fatal (range(K) cannot lie in the range of the reduced
frame operator) is reported with no n x n work. Every other reduced bound
comes from one eigendecomposition of the kept rows' frame operator, paired
with the full system's cached factorization of K, which every subset shares;
a removal of no rows reads S's own eigendecomposition from that cache. The
search takes the index sets in stacked passes, one per kept-row count,
each cut into runs whose working arrays fit in STACK_BYTES, one ``eigh`` per run.
The two criteria take the full system's bound relative to K as the bound
after removing no blocks, in the same call that gives the reduced bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linops
from .errors import (
    BadIndexError,
    FloatRangeError,
    FrameOperatorSingularError,
    KStarNotBoundedBelowError,
    NotKGFrameError,
    NotUnitNormError,
    TooManySubsetsError,
)
from .gsystem import GSystem, KGSystem, _gram, _kg_lower

__all__ = ["ErasureReport", "brute_force_erasure_search", "erasure_brute_report",
           "erasure_invertibility", "erasure_norm_count", "partial_frame_operator",
           "reduced_system"]

# Ceiling on the number of subsets a brute-force enumeration may visit.
MAX_SUBSETS = 100_000
# Ceiling on the bytes of working arrays one stacked step of a search holds.
STACK_BYTES = 64 << 20


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


def _removed_rows(sys: GSystem, subsets) -> np.ndarray:
    """Masks of the stacked rows each index set removes, one index set per row.

    Built at once from the set x block incidence, repeated over the block dims.
    """
    hit = np.zeros((len(subsets), sys.num_blocks), dtype=bool)
    hit[np.repeat(np.arange(len(subsets)), [len(idx) for idx in subsets]),
        list(itertools.chain.from_iterable(subsets))] = True
    return np.repeat(hit, sys.block_dims, axis=1)


def partial_frame_operator(sys: GSystem, indices) -> np.ndarray:
    """Frame operator restricted to a subset of blocks: sum_{j in I} L_j^* L_j.

    Raises ``FloatRangeError`` when it lies outside the floating-point range.
    """
    idx = _validate_indices(sys.num_blocks, indices)
    return _gram(sys.matrix[_removed_rows(sys, [idx])[0]])


def reduced_system(ksys: KGSystem, indices) -> KGSystem:
    """The K-g-system with the given blocks removed (K unchanged)."""
    idx = set(_validate_indices(ksys.system.num_blocks, indices))
    blocks = tuple(b for j, b in enumerate(ksys.system.blocks) if j not in idx)
    return KGSystem(GSystem(ksys.ambient_dim, blocks), ksys.k)


def _chunks(members: np.ndarray, member_bytes: int):
    """``members`` in consecutive runs whose working arrays, ``member_bytes``
    each, fit in STACK_BYTES (at least one member per run)."""
    step = max(1, STACK_BYTES // member_bytes)
    return (members[i : i + step] for i in range(0, len(members), step))


def _reduced_kg_lowers(ksys: KGSystem, subsets, rank_tol: float) -> list[float | None]:
    """``optimal_bounds(reduced_system(ksys, idx)).kg_lower_opt`` for each index set.

    No reduced system is built. A removal that :func:`_fatal_removals` proves
    fatal is None, and a removal of no rows takes S's own eigendecomposition
    from the system's cache. The others are taken in stacked passes per kept-row
    count, each within STACK_BYTES: one product forms their frame operators
    and one stacked ``eigh`` factors them. K's factorization is the full
    system's cached SVD, which every subset shares.
    """
    l = ksys.system.matrix
    num_rows, n = l.shape
    removed = _removed_rows(ksys.system, subsets)
    kept = num_rows - np.count_nonzero(removed, axis=1)
    live = ~_fatal_removals(ksys, removed, rank_tol)
    lowers: list[float | None] = [None] * len(subsets)
    # most kept rows first, so the full system's bound, where asked for, is taken first
    for count in sorted(set(kept[live].tolist()), reverse=True):
        # the kept rows and their adjoint, and about four n x n arrays, per removal
        for members in _chunks(np.flatnonzero(live & (kept == count)), 16 * n * (2 * count + 4 * n)):
            if count == num_rows:  # no row removed: S's own cached eigenpairs, per member
                w, v = (np.broadcast_to(a, (len(members), *a.shape)) for a in ksys._s_eigh)
            else:
                rows = np.nonzero(~removed[members])[1].reshape(len(members), count)
                w, v = np.linalg.eigh(_gram(l[rows]))
            for i, lower in zip(members, _kg_lower(w, ksys.k_in(v), ksys.k_norm, rank_tol)):
                lowers[i] = lower
    return lowers


def _fatal_removals(ksys: KGSystem, removed: np.ndarray, rank_tol: float) -> np.ndarray:
    """Mask of the removals whose reduced system provably has no bound relative to K.

    Row i of ``removed`` masks the stacked rows removal i removes. Only
    removals that leave fewer rows than the ambient dimension n are tried,
    since only they are sure to leave a kernel, and only when S is
    invertible at ``rank_tol`` and K != 0; every other entry is False.

    With F = S^{-1} L^* and G = L F, an eigenvector v of G_I with eigenvalue 1
    gives a kernel vector f = F_I v of S_red = S - L_I^* L_I. The top
    eigenvector of G_I (one batched ``eigh`` per removed-row count q, in runs
    within STACK_BYTES) is taken as the witness, and rho = ||L_kept f||^2 / ||f||^2 and
    kappa = ||K^* f|| / ||f|| are measured directly. Write T = ||L_kept||_F^2.
    Since lambda_max(S_red) >= T / n, the ``eigh`` path's rank cut is at
    least c = rank_cutoff(1, n, rank_tol) T / n, so the part of f on the
    eigenvectors it keeps has norm at most sqrt((rho + delta) / c), with
    delta = n eps T the slack for rounding. Hence ||(I - P_red) K|| >=
    kappa - ||K|| sqrt((rho + delta) / c); when that exceeds twice
    ``linops.RANGE_INCLUSION_RTOL ||K||`` the ``eigh`` path must find range(K)
    outside range(S_red). Anything short of that is left to the ``eigh`` path.
    """
    l = ksys.system.matrix
    num_rows, n = l.shape
    gone_rows = np.count_nonzero(removed, axis=1)
    tried = (gone_rows > 0) & (num_rows - gone_rows < n)
    fatal = np.zeros(len(removed), dtype=bool)
    if not tried.any() or ksys.k_norm == 0.0 or not ksys.s_support(rank_tol).all():
        return fatal
    try:
        fh = ksys.s_pinv(l.conj().T, rank_tol).conj().T  # F^* = L S^{-1}
    except FloatRangeError:  # S below about 1e-308: the eigh path decides every removal
        return fatal
    g = fh @ l.conj().T
    row_sq = (l.real**2 + l.imag**2).sum(axis=1)
    k_norm = ksys.k_norm
    cut = linops.rank_cutoff(1.0, n, rank_tol) / n
    slack = n * np.finfo(np.float64).eps
    limit = 2.0 * linops.RANGE_INCLUSION_RTOL * k_norm
    for q in set(gone_rows[tried].tolist()):
        # G_I and its eigenvectors, F_I^*, and rows of length n or num_rows, per removal
        per_member = 16 * (2 * q * q + q * n + 4 * (n + num_rows))
        for members in _chunks(np.flatnonzero(tried & (gone_rows == q)), per_member):
            gone = removed[members]
            # the removed row indices of each removal, one removal per row
            idx = np.nonzero(gone)[1].reshape(len(members), q)
            _, vecs = np.linalg.eigh(g[idx[:, :, np.newaxis], idx[:, np.newaxis, :]])
            # one witness f^* = v^* F_I^* per row
            wit = np.einsum("mq,mqn->mn", vecs[:, :, -1].conj(), fh[idx])
            f_sq = (wit.real**2 + wit.imag**2).sum(axis=1)
            lf = wit.conj() @ l.T  # row m is (L f_m)^T
            rho = np.where(gone, 0.0, lf.real**2 + lf.imag**2).sum(axis=1)
            kappa = np.linalg.norm(wit @ ksys.k, axis=1)  # ||f^* K|| = ||K^* f||
            t = np.where(gone, 0.0, row_sq).sum(axis=1)
            # kappa - ||K|| sqrt((rho + delta) / c) > 2 RTOL ||K||, unnormalized
            # and squared, so an empty witness or an all-zero kept set declines
            margin = kappa - limit * np.sqrt(f_sq)
            bound_sq = k_norm * k_norm * (rho + slack * t * f_sq)
            fatal[members] = (margin > 0.0) & (margin * margin * cut * t > bound_sq)
    return fatal


def _survival_floor(ksys: KGSystem) -> float:
    """The K-relative lower bound ``linops.SURVIVAL_TOL * B / ||K||^2`` a reduced system must exceed.

    B = ||L||^2 is the full system's Bessel bound, so the threshold scales with
    the blocks and K; it is infinite for K = 0.
    """
    if ksys.k_norm == 0.0:
        return math.inf
    return linops.SURVIVAL_TOL * max(float(ksys.s_evals[-1]), 0.0) / (ksys.k_norm * ksys.k_norm)


def erasure_norm_count(
    ksys: KGSystem, indices, rank_tol: float = linops.DEFAULT_RANK_TOL
) -> ErasureReport:
    """Survival via counting: the removed set is small against A * C^2.

    ``C`` is the lower bound of K^* (smallest singular value of K) and A
    the optimal lower bound of the full system relative to K. Every removed
    block must have unit operator norm, and ||K|| <= 1 so that ||K^* f|| <= ||f||.
    Survival is claimed when ``A * C^2 - |I| > 0``, and that value is then a
    lower bound of the reduced system relative to K.
    """
    idx = _validate_indices(ksys.system.num_blocks, indices)
    c = ksys.k_lower(rank_tol)
    if c == 0.0:
        raise KStarNotBoundedBelowError("the adjoint of K is not bounded below")
    unit_tol = linops.UNIT_NORM_TOL
    if ksys.k_norm > 1.0 + unit_tol:
        raise NotUnitNormError(f"K has operator norm {ksys.k_norm:.12g}, expected at most 1")
    for j in idx:
        norm_j = linops.op_norm(ksys.system.blocks[j])
        if abs(norm_j - 1.0) > unit_tol:
            raise NotUnitNormError(f"block {j} has operator norm {norm_j:.12g}, expected 1")
    a, reduced = _reduced_kg_lowers(ksys, [(), idx], rank_tol)
    if a is None:
        raise NotKGFrameError("system has no positive lower bound relative to K")
    margin = a * c * c - len(idx)
    survives = margin > 0.0  # |I| < A * C^2
    return ErasureReport(
        removed=idx,
        criterion="normCount",
        survives=survives,
        predicted_lower_bound=margin if survives else None,
        actual_lower_bound=reduced,
        invertibility_norm=None,
        count_conditions_differ=(len(idx) < a * c) != survives,
    )


def erasure_invertibility(
    ksys: KGSystem, indices, rank_tol: float = linops.DEFAULT_RANK_TOL
) -> ErasureReport:
    """Survival via invertibility of T = I - S^{-1} S_I.

    Requires the full frame operator S to be invertible. When T has full
    rank at ``rank_tol``, on the scale of I (the cut is relative to
    max(||T||, 1)), the reduced family keeps a positive lower bound
    relative to K; the guaranteed value follows the derivation that keeps
    K^* inside the norm, ``A / ||K^* T^{-1}||^2``, with A the largest
    constant serving simultaneously as a lower g-frame bound and a lower
    K-g bound of the full system. The statement-style companion ``A / ||T^{-1}||^2`` is
    stored alongside but is not a guaranteed bound.

    For K = 0 every A > 0 is a lower bound relative to K, so A is the g-frame
    bound, the guaranteed value is None (K^* T^{-1} = 0) and only the
    companion is reported. Brute force's rule A * ||K||^2 > SURVIVAL_TOL * B
    never holds for K = 0, so there this criterion can report a survivor
    where brute force reports none. S^{-1} S_I is :meth:`KGSystem.s_pinv`'s
    (``FloatRangeError`` past the float range). One SVD T = U diag(sv) V^*
    gives the verdict, ||T^{-1}|| = 1/sv_min and ||K^* T^{-1}|| = ||K^* V diag(1/sv)||.
    """
    idx = _validate_indices(ksys.system.num_blocks, indices)
    if not ksys.s_support(rank_tol).all():
        raise FrameOperatorSingularError("frame operator is singular at tolerance")
    # S is invertible, so range(K) lies in range(S): only K = 0 has no finite bound relative to K
    kg_lower, reduced = _reduced_kg_lowers(ksys, [(), idx], rank_tol)
    g_lower = max(float(ksys.s_evals[0]), 0.0)
    a = g_lower if kg_lower is None else min(g_lower, kg_lower)

    n = ksys.ambient_dim
    t = np.eye(n, dtype=np.complex128) - ksys.s_pinv(partial_frame_operator(ksys.system, idx), rank_tol)
    # T's eigenvalues lie in [0, 1] (0 <= S_I <= S): cut on the scale of I, not of rounding noise
    _, sv, vh = np.linalg.svd(t)
    survives = bool(sv[-1] > linops.rank_cutoff(max(float(sv[0]), 1.0), n, rank_tol))

    predicted = None
    stated = None
    inv_norm = None
    if survives:
        inv_norm = 1.0 / float(sv[-1])
        denom = linops.op_norm((ksys.k.conj().T @ vh.conj().T) / sv)
        if denom > 0.0:
            predicted = a / (denom * denom)
        stated = a / (inv_norm * inv_norm)
    return ErasureReport(
        removed=idx,
        criterion="invertibility",
        survives=survives,
        predicted_lower_bound=predicted,
        actual_lower_bound=reduced,
        invertibility_norm=inv_norm,
        predicted_lower_bound_stated=stated,
    )


def erasure_brute_report(
    ksys: KGSystem, indices, rank_tol: float = linops.DEFAULT_RANK_TOL
) -> ErasureReport:
    """Ground-truth report: the optimal bounds of the reduced system.

    The reduced system survives when A * ||K||^2 > ``linops.SURVIVAL_TOL`` B, with A its
    lower bound relative to K and B the full system's Bessel bound. So K = 0
    never survives: every system is a K-g-frame for it, with no finite A.
    """
    idx = _validate_indices(ksys.system.num_blocks, indices)
    return _brute_reports(ksys, [idx], rank_tol)[0]


def _brute_reports(ksys: KGSystem, subsets: list[tuple[int, ...]], rank_tol: float):
    floor = _survival_floor(ksys)
    return [
        ErasureReport(
            removed=idx,
            criterion="bruteForce",
            survives=lower is not None and lower > floor,
            predicted_lower_bound=None,
            actual_lower_bound=lower,
            invertibility_norm=None,
        )
        for idx, lower in zip(subsets, _reduced_kg_lowers(ksys, subsets, rank_tol))
    ]


def brute_force_erasure_search(
    ksys: KGSystem, max_remove: int, rank_tol: float = linops.DEFAULT_RANK_TOL
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
    subsets = [c for r in range(max_remove + 1) for c in itertools.combinations(range(m), r)]
    return _brute_reports(ksys, subsets, rank_tol)
