"""Operator-valued frame systems and their frame bounds.

A g-system is a finite family of blocks ``L_j`` (``d_j x n`` complex
matrices) mapping an ambient n-dimensional space into per-block coefficient
spaces. Pairing the family with a square operator ``K`` on the ambient space
gives a K-g-system; the family is a K-g-frame when

    A * ||K^* f||^2  <=  sum_j ||L_j f||^2  <=  B * ||f||^2

holds for all f with constants 0 < A, B < infinity. This module computes the
optimal constants and classifies systems along the frame/tight-frame axes.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import linops
from .errors import DimMismatchError

__all__ = ["BlockSequence", "BoundReport", "Classification", "ClassificationReport", "GSystem",
           "KGSystem", "analysis", "classify", "frame_operator", "optimal_bounds",
           "range_condition_holds", "synthesis"]


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class GSystem:
    """A finite family of operator blocks over a common ambient space.

    ``blocks[j]`` has shape ``(d_j, ambient_dim)``; rows hold coordinates in
    the j-th coefficient space. The blocks are stored once, stacked row-wise
    in ``matrix`` (shape ``(sum_j d_j, ambient_dim)``); block j is rows
    ``offsets[j]:offsets[j + 1]``, and ``blocks[j]`` is a view of them.
    Instances are immutable: the stacked matrix is a read-only copy of the
    input blocks.
    """

    ambient_dim: int
    blocks: tuple[np.ndarray, ...]
    matrix: np.ndarray = field(init=False, repr=False)
    offsets: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if int(self.ambient_dim) < 1:
            raise DimMismatchError(f"ambient dimension must be >= 1, got {self.ambient_dim}")
        n = int(self.ambient_dim)
        blocks = [np.asarray(raw, dtype=np.complex128) for raw in self.blocks]
        for j, block in enumerate(blocks):
            if block.ndim != 2:
                raise ValueError(f"expected a matrix, got ndim={block.ndim}")
            if block.shape[1] != n:
                raise DimMismatchError(f"block {j} has {block.shape[1]} columns, expected {n}")
        # the one copy; the leading empty block covers a system without blocks
        matrix = linops.as_operator(np.concatenate([np.zeros((0, n), dtype=np.complex128), *blocks]))
        matrix.setflags(write=False)
        offsets = (0, *itertools.accumulate(b.shape[0] for b in blocks))
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "blocks", _split_rows(matrix, offsets))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)

    def with_matrix(self, matrix) -> "GSystem":
        """A system with this one's block dims whose stacked rows are ``matrix``."""
        if np.ndim(matrix) != 2 or np.shape(matrix)[0] != self.offsets[-1]:
            raise DimMismatchError(f"expected {self.offsets[-1]} stacked rows, got {np.shape(matrix)}")
        return GSystem(self.ambient_dim, _split_rows(matrix, self.offsets))


def _split_rows(a: np.ndarray, offsets: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Views of the row ranges ``offsets[j]:offsets[j + 1]`` of ``a``."""
    return tuple(a[lo:hi] for lo, hi in zip(offsets, offsets[1:]))


@dataclass(frozen=True, eq=False)
class KGSystem:
    """A g-system together with the square ambient operator ``K``.

    Caches K's reduced SVD and one ``eigh`` of S = L^* L, each taken when
    first read, so a consumer of K alone never factors S; instances are
    immutable, so neither goes stale. Everything that depends on a tolerance
    (ranks, range bases, S^+, P_K, the S^{+/2} K norm) is derived per call.
    """

    system: GSystem
    k: np.ndarray

    def __post_init__(self) -> None:
        k = linops.as_operator(self.k)
        n = self.system.ambient_dim
        if k.shape != (n, n):
            raise DimMismatchError(f"K has shape {k.shape}, expected ({n}, {n})")
        object.__setattr__(self, "k", _frozen(k))
        _K_OWNERS[id(self.k)] = self

    @property
    def ambient_dim(self) -> int:
        return self.system.ambient_dim

    @functools.cached_property
    def _k_svd(self) -> tuple[np.ndarray, np.ndarray]:
        u, sv, _ = np.linalg.svd(self.k, full_matrices=False)
        rank = np.count_nonzero(sv > linops.rank_cutoff(float(sv[0]), sv.size, 0.0))
        basis = np.array(u[:, :rank])  # a copy, so the rest of U is freed
        sv.setflags(write=False)
        basis.setflags(write=False)
        return sv, basis

    @functools.cached_property
    def _s_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        w, v = np.linalg.eigh(_gram(self.system.matrix))
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v

    k_svals = property(lambda self: self._k_svd[0], doc="Singular values of K, descending.")
    k_range_basis = property(lambda self: self._k_svd[1], doc="K's left singular vectors above the cutoff at 0.")
    s_evals = property(lambda self: self._s_eigh[0], doc="Eigenvalues of S, ascending.")
    s_evecs = property(lambda self: self._s_eigh[1], doc="Eigenvectors of S, as ``s_evals``.")

    def s_support(self, rank_tol: float) -> np.ndarray:
        """Mask of the eigenvalues of S above the rank cutoff at ``rank_tol``: range(S)."""
        return _support(self.s_evals, rank_tol)

    @property
    def k_norm(self) -> float:
        """||K||, the largest singular value of K."""
        return float(self.k_svals[0])

    def k_rank(self, rank_tol: float) -> int:
        """Numerical rank of K at the relative cutoff."""
        cutoff = linops.rank_cutoff(self.k_norm, self.k_svals.size, rank_tol)
        return int(np.count_nonzero(self.k_svals > cutoff))

    def k_range(self, rank_tol: float) -> np.ndarray:
        """Orthonormal basis of range(K) at the cutoff, one vector per column."""
        return self.k_range_basis[:, : self.k_rank(rank_tol)]

    def k_lower(self, rank_tol: float) -> float:
        """The lower bound of K^* (smallest singular value of K).

        Reported as 0.0 when it lies below the rank cutoff, i.e. when K is
        numerically singular.
        """
        return float(self.k_svals[-1]) if self.k_rank(rank_tol) == self.k_svals.size else 0.0

    def k_in(self, vecs: np.ndarray) -> np.ndarray:
        """K, up to a unitary on the right, in the orthonormal columns of ``vecs``.

        ``vecs`` may be a stack of such matrices, giving one K per matrix.

        Computed as (V^* U) diag(sigma) from the SVD K = U diag(sigma) W^*
        over the kept range basis, so row i is the component of K along the
        i-th column of V; with V the eigenvectors of S, K in S's eigenbasis.
        """
        basis = self.k_range_basis
        return (np.swapaxes(vecs.conj(), -1, -2) @ basis) * self.k_svals[: basis.shape[1]]


# Each live KGSystem under the id of the K it owns, so the duals that take a
# raw ``k`` can find the cached factorization of a system's own K. Weak, so
# it keeps no system alive; a bridge until those duals take the KGSystem.
_K_OWNERS: "weakref.WeakValueDictionary[int, KGSystem]" = weakref.WeakValueDictionary()


def _k_range(k, n: int, rank_tol: float) -> np.ndarray:
    """Orthonormal basis of range(K), from the cached SVD of the system that owns ``k``.

    A ``k`` that no live :class:`KGSystem` of ambient dimension ``n`` owns
    gets an owner without blocks for the call, which checks its shape and
    entries. K is factored once per owner; S is not factored.
    """
    owner = _K_OWNERS.get(id(k))
    # ``is`` rules out an id reused by another array
    if owner is None or owner.k is not k or owner.ambient_dim != n:
        owner = KGSystem(GSystem(n, ()), k)
    return owner.k_range(rank_tol)


@dataclass(frozen=True, eq=False)
class BlockSequence:
    """A coefficient sequence with one part per block of a g-system."""

    parts: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "parts", tuple(_frozen(linops.as_vector(p)) for p in self.parts)
        )

    def norm(self) -> float:
        """Norm induced by the direct-sum inner product."""
        return float(np.sqrt(sum(float(np.vdot(p, p).real) for p in self.parts)))

    def inner(self, other: "BlockSequence") -> complex:
        """Direct-sum inner product, linear in ``self``."""
        if len(self.parts) != len(other.parts):
            raise DimMismatchError("sequences have different block counts")
        return complex(sum(np.vdot(q, p) for p, q in zip(self.parts, other.parts)))


@dataclass(frozen=True)
class BoundReport:
    """Optimal frame constants of a K-g-system.

    ``kg_lower_opt`` is None when there is no finite optimal bound relative
    to K: when range(K) is not contained in range(S) at the working tolerance
    (no positive lower bound exists), and when K = 0 (every A > 0 serves).
    ``tight_kg`` records whether S equals ``kg_lower_opt * K K^*`` in the
    operator norm, ||S - A K K^*|| <= ``linops.TIGHT_RTOL`` max(||S||, A ||K||^2)
    with A = ``kg_lower_opt``, the constant then in ``tightness_constant``.
    At K = I this is the rule that labels a tight g-frame.
    """

    bessel_upper_opt: float
    g_lower_opt: float
    kg_lower_opt: float | None
    tight_kg: bool
    tightness_constant: float | None


class Classification(enum.Enum):
    G_BESSEL_ONLY = "g_bessel_only"
    KG_FRAME = "kg_frame"
    G_FRAME = "g_frame"
    TIGHT_KG_FRAME = "tight_kg_frame"
    TIGHT_G_FRAME = "tight_g_frame"


@dataclass(frozen=True)
class ClassificationReport:
    """Frame class of a system plus the lower-bound data for ``K^*``.

    ``k_star_lower_bound`` is the largest C with ``||K^* f|| >= C ||f||``
    (the smallest singular value of K, reported as 0.0 when it falls below
    the rank cutoff). ``g_frame_implied`` is True when
    that constant is positive and the system is a K-g-frame, in which case
    the system is guaranteed to be a g-frame as well.
    """

    label: Classification
    k_star_lower_bound: float
    g_frame_implied: bool
    bounds: BoundReport

    @property
    def is_kg_frame(self) -> bool:
        """True when the system satisfies the lower bound relative to K.

        Exactly when :func:`range_condition_holds`. Every g-frame qualifies,
        since the ordinary lower bound dominates the K-relative one after
        dividing by ``||K||^2``, and so does every system when K = 0, with
        no finite optimal bound (``bounds.kg_lower_opt`` is None).
        """
        return self.label is not Classification.G_BESSEL_ONLY

    @property
    def is_g_frame(self) -> bool:
        """True when the ordinary (K-free) lower frame bound is positive."""
        return self.label in (Classification.G_FRAME, Classification.TIGHT_G_FRAME)

    @property
    def is_tight_kg_frame(self) -> bool:
        return self.bounds.tight_kg

    @property
    def is_tight_g_frame(self) -> bool:
        return self.label is Classification.TIGHT_G_FRAME


def _coerce_parts(sys: GSystem, seq) -> tuple[np.ndarray, ...]:
    parts = seq.parts if isinstance(seq, BlockSequence) else tuple(linops.as_vector(p) for p in seq)
    if len(parts) != sys.num_blocks:
        raise DimMismatchError(f"expected {sys.num_blocks} parts, got {len(parts)}")
    for j, (part, d) in enumerate(zip(parts, sys.block_dims)):
        if part.shape[0] != d:
            raise DimMismatchError(f"part {j} has length {part.shape[0]}, expected {d}")
    return parts


def synthesis(sys: GSystem, seq) -> np.ndarray:
    """Map a coefficient sequence back to the ambient space: sum_j L_j^* g_j."""
    parts = _coerce_parts(sys, seq)
    coeffs = np.concatenate(parts) if parts else np.zeros(0, dtype=np.complex128)
    # L^* g as conj(L^T conj(g)): conjugates the vectors, not the matrix
    return (sys.matrix.T @ coeffs.conj()).conj()


def analysis(sys: GSystem, f) -> BlockSequence:
    """Apply every block to ``f``, producing the coefficient sequence {L_j f}."""
    vec = linops.as_vector(f)
    if vec.shape[0] != sys.ambient_dim:
        raise DimMismatchError(f"vector has length {vec.shape[0]}, expected {sys.ambient_dim}")
    return BlockSequence(_split_rows(sys.matrix @ vec, sys.offsets))


def frame_operator(sys: GSystem) -> np.ndarray:
    """The Hermitian PSD matrix S = sum_j L_j^* L_j (synthesis after analysis)."""
    return _gram(sys.matrix)


def _gram(m: np.ndarray) -> np.ndarray:
    """M^* M, symmetrized: the frame operator of the stacked rows ``m``, or of each matrix of a stack."""
    s = np.swapaxes(m.conj(), -1, -2) @ m
    s += np.swapaxes(s.conj(), -1, -2)
    s /= 2.0
    return s


def _norm_at_most(x: np.ndarray, limit: float) -> bool:
    """Whether ||x|| <= ``limit``.

    ||x||_F / sqrt(rank x) <= ||x|| <= ||x||_F, so the dense norm is taken
    only when the Frobenius norm alone does not decide.
    """
    fro = float(np.linalg.norm(x))
    if fro <= limit or fro > limit * math.sqrt(min(x.shape)):
        return fro <= limit
    return linops.op_norm(x) <= limit


def _support(w: np.ndarray, rank_tol: float) -> np.ndarray:
    """Mask of the eigenvalues above the rank cutoff at ``rank_tol``, for an
    ascending spectrum or each row of a stack of them: range(S)."""
    return w > linops.rank_cutoff(1.0, w.shape[-1], rank_tol) * np.maximum(w[..., -1:], 0.0)


def _range_holds(support: np.ndarray, y: np.ndarray, k_norm: float) -> np.ndarray:
    """Whether range(K) lies in range(S), for each system of a stack: the package's one test.

    ``support[i]`` masks range(S) in S's eigenbasis and ``y[i]`` is K in that
    basis (:meth:`KGSystem.k_in`); its rows outside the support must have
    norm at most ``linops.RANGE_INCLUSION_RTOL`` ||K||.
    """
    limit = linops.RANGE_INCLUSION_RTOL * k_norm
    return np.array([mask.all() or _norm_at_most(rows[~mask], limit)
                     for mask, rows in zip(support, y)], dtype=bool)


def range_condition_holds(ksys: KGSystem, rank_tol: float = linops.DEFAULT_RANK_TOL) -> bool:
    """Whether range(K) is contained in range(S) at the working tolerance.

    Decided by :func:`optimal_bounds`'s own test, so it holds exactly when
    that bound relative to K exists, K = 0 aside (the inclusion holds, and
    every A > 0 serves, so no finite bound is reported).
    """
    support = ksys.s_support(rank_tol)
    # S of full rank: no product, and K need not be factored
    return bool(support.all() or _range_holds(
        support[np.newaxis], ksys.k_in(ksys.s_evecs)[np.newaxis], ksys.k_norm)[0])


def optimal_bounds(ksys: KGSystem, rank_tol: float = linops.DEFAULT_RANK_TOL) -> BoundReport:
    """Compute the optimal frame constants of a K-g-system.

    Parameters
    ----------
    ksys : KGSystem
        System under analysis.
    rank_tol : float
        Relative singular-value cutoff for every rank decision. The range(K)
        in range(S) test uses ``linops.RANGE_INCLUSION_RTOL`` and the tightness
        test ``linops.TIGHT_RTOL``.

    Returns
    -------
    BoundReport
        The optimal upper bound is the largest eigenvalue of S and the
        optimal g-frame lower bound the smallest. The optimal lower bound
        relative to K is ``1 / ||S^{+/2} K||^2``, valid exactly when
        range(K) lies inside range(S); otherwise the field is None.
        Everything comes from the system's cached factorizations of K and
        S; the one dense computation per call is the top eigenvalue
        (``eigvalsh``) of the Gram of S^{+/2} K, and a second, for the norm
        of S - A K K^*, is taken only when its Frobenius norm does not
        decide tightness.

    Raises
    ------
    FloatRangeError
        If the bound relative to K lies outside the floating-point range.
    """
    w = ksys.s_evals
    bessel = max(float(w[-1]), 0.0)
    g_lower = max(float(w[0]), 0.0)

    y = ksys.k_in(ksys.s_evecs)
    kg_lower = _kg_lower(w[np.newaxis], y[np.newaxis], ksys.k_norm, rank_tol)[0]

    tight = False
    if kg_lower is not None:
        # S - A K K^* in the same basis is diag(w) - A y y^*; ||S|| = w_max
        # and ||A K K^*|| = A ||K||^2
        diff = -kg_lower * (y @ y.conj().T)
        diff[np.diag_indices_from(diff)] += w
        tight = _norm_at_most(diff, linops.TIGHT_RTOL * max(bessel, kg_lower * ksys.k_norm**2))
    return BoundReport(bessel, g_lower, kg_lower, tight, kg_lower if tight else None)


def _kg_lower(w: np.ndarray, y: np.ndarray, k_norm: float, rank_tol: float) -> list[float | None]:
    """The optimal lower bound relative to K of each system of a stack, None
    where range(K) is not in range(S) (:func:`_range_holds`).

    Row i of ``w`` holds the eigenvalues of one frame operator, ascending, and
    ``y[i]`` is K in its eigenbasis (:meth:`KGSystem.k_in`), so S^{+/2} K
    is the support rows of ``y[i]`` over sqrt(w). The support, the eigenvalues
    above the rank cutoff, is a suffix of each row; the systems of one support
    size share one stacked :func:`linops.gram_top`, which gives
    ||S^{+/2} K||^2 = lam * 4**e, and the bound is 1/lam * 2**(-2e) with no
    square root and no square of a norm. Raises ``FloatRangeError`` when a
    bound lies outside the floating-point range.
    """
    n = w.shape[1]
    support = _support(w, rank_tol)
    sizes = np.count_nonzero(support, axis=1)
    holds = _range_holds(support, y, k_norm)
    lowers: list[float | None] = [None] * len(w)
    for size in set(sizes[holds].tolist()):
        members = np.flatnonzero(holds & (sizes == size))
        a = y[members, n - size:] / np.sqrt(w[members, n - size:])[..., np.newaxis]
        if a.size == 0:  # K = 0 or S = 0: no norm to take, and no bound
            continue
        lam, e = linops.gram_top(a)
        for i, top, exp in zip(members, lam.tolist(), e.tolist()):
            if top > 0.0:
                lowers[i] = linops.pow2_scale(1.0 / top, -2 * exp, "the lower bound relative to K")
    return lowers


def _is_scalar(top: float, bottom: float) -> bool:
    """Whether extreme eigenvalues ``top`` >= ``bottom`` are those of a scalar multiple of I."""
    return top - bottom <= linops.TIGHT_RTOL * top


def classify(ksys: KGSystem, rank_tol: float = linops.DEFAULT_RANK_TOL) -> ClassificationReport:
    """Classify a K-g-system along the frame and tightness axes.

    The label reports the strongest property that holds: a g-frame wins over
    a plain K-g-frame, and within each strength the tight variant wins.
    ``rank_tol`` is the rank tolerance of every decision (see
    :func:`linops.rank_cutoff`): the system is a g-frame when S has full
    rank at it, the same cut that decides range(S) for the bound relative to
    K, so the label is scale invariant and never rests on rounding noise;
    ``rank_tol = 0`` means machine precision, as everywhere in the package.
    """
    report = optimal_bounds(ksys, rank_tol=rank_tol)
    c = ksys.k_lower(rank_tol)

    is_g = ksys.s_support(rank_tol).all()
    # K = 0 has no finite bound, yet every A > 0 serves: the inclusion decides
    is_kg = report.kg_lower_opt is not None or range_condition_holds(ksys, rank_tol)
    tight_g = is_g and _is_scalar(report.bessel_upper_opt, report.g_lower_opt)

    if is_g and tight_g:
        label = Classification.TIGHT_G_FRAME
    elif is_g:
        label = Classification.G_FRAME
    elif is_kg and report.tight_kg:
        label = Classification.TIGHT_KG_FRAME
    elif is_kg:
        label = Classification.KG_FRAME
    else:
        label = Classification.G_BESSEL_ONLY

    implied = bool(c > 0.0 and is_kg)
    return ClassificationReport(label, c, implied, report)
