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
from dataclasses import dataclass, field

import numpy as np

from . import linops
from .errors import DimMismatchError
from .linops import DEFAULT_RANK_TOL

# Relative residual below which range(K) counts as contained in range(S).
RANGE_INCLUSION_RTOL = 1e-8
# Relative Frobenius distance below which a system counts as tight.
TIGHT_RTOL = 1e-8


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
    """A g-system together with the square ambient operator ``K``."""

    system: GSystem
    k: np.ndarray

    def __post_init__(self) -> None:
        k = linops.as_operator(self.k)
        n = self.system.ambient_dim
        if k.shape != (n, n):
            raise DimMismatchError(f"K has shape {k.shape}, expected ({n}, {n})")
        object.__setattr__(self, "k", _frozen(k))

    @property
    def ambient_dim(self) -> int:
        return self.system.ambient_dim

    @functools.cached_property
    def spectrum(self) -> "KGSpectrum":
        """The spectral factorization of this system, computed on first use.

        Instances are immutable, so the cached factorization never goes stale.
        """
        return KGSpectrum.of(self)


@dataclass(frozen=True, eq=False)
class KGSpectrum:
    """One eigendecomposition of S and one reduced SVD of K.

    ``s_evals`` (ascending) and ``s_evecs`` are the eigenpairs of the frame
    operator S. ``k_svals`` (descending) are the singular values of K and
    ``k_range_basis`` its leading left singular vectors, one per singular
    value above the machine-precision cutoff (``tol = 0``). Everything else
    (ranks, range bases, S^+, P_K, the S^{+/2} K norm) depends on a
    tolerance and is derived per call, so no n x n operator besides the
    eigenvectors of S is kept alive.
    """

    s_evals: np.ndarray
    s_evecs: np.ndarray
    k_svals: np.ndarray
    k_range_basis: np.ndarray

    @classmethod
    def of(cls, ksys: KGSystem) -> "KGSpectrum":
        u, sv, _ = np.linalg.svd(ksys.k, full_matrices=False)
        rank = np.count_nonzero(sv > linops.rank_cutoff(float(sv[0]), sv.size, 0.0))
        basis = np.array(u[:, :rank])  # a copy, so the rest of U is freed
        sv.setflags(write=False)
        basis.setflags(write=False)
        return cls(*_frozen_eigh(frame_operator(ksys.system)), sv, basis)

    def _with_rows(self, matrix: np.ndarray) -> "KGSpectrum":
        """The spectrum of the system whose stacked rows are ``matrix``, with this K.

        One ``eigh`` of the Gram of ``matrix``; the factorization of K is
        shared, not copied or recomputed.
        """
        return KGSpectrum(*_frozen_eigh(_gram(matrix)), self.k_svals, self.k_range_basis)

    def s_support(self, tol: float) -> np.ndarray:
        """Mask of the eigenvalues of S above ``tol`` times the largest: range(S)."""
        top = max(float(self.s_evals[-1]), 0.0)
        return self.s_evals > linops.rank_cutoff(top, self.s_evals.size, tol)

    @property
    def k_norm(self) -> float:
        """||K||, the largest singular value of K."""
        return float(self.k_svals[0])

    def k_rank(self, tol: float) -> int:
        """Numerical rank of K at the relative cutoff."""
        cutoff = linops.rank_cutoff(self.k_norm, self.k_svals.size, tol)
        return int(np.count_nonzero(self.k_svals > cutoff))

    def k_range(self, tol: float) -> np.ndarray:
        """Orthonormal basis of range(K) at the cutoff, one vector per column.

        A cutoff below machine precision gives the machine-precision basis.
        """
        return self.k_range_basis[:, : self.k_rank(tol)]

    def k_lower(self, tol: float) -> float:
        """The lower bound of K^* (smallest singular value of K).

        Reported as 0.0 when it lies below the rank cutoff, i.e. when K is
        numerically singular.
        """
        return float(self.k_svals[-1]) if self.k_rank(tol) == self.k_svals.size else 0.0

    def k_rows(self, rows=slice(None)) -> np.ndarray:
        """The given rows of K, up to a unitary on the right, in the eigenbasis V of S.

        Computed as (V^* U) diag(sigma) from the SVD K = U diag(sigma) W^*
        over the kept range basis, so row i is the component of K along the
        i-th eigenvector of S.
        """
        basis = self.k_range_basis
        return (self.s_evecs[:, rows].conj().T @ basis) * self.k_svals[: basis.shape[1]]


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

    ``kg_lower_opt`` is None when range(K) is not contained in range(S) at
    the working tolerance (no positive lower bound relative to K exists).
    ``tight_kg`` records whether S equals ``kg_lower_opt * K K^*`` up to a
    relative Frobenius tolerance, with the constant in ``tightness_constant``.
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

        Every g-frame qualifies, since the ordinary lower bound dominates
        the K-relative one after dividing by ``||K||^2``.
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
    """M^* M, symmetrized: the frame operator of the stacked rows ``m``."""
    s = m.conj().T @ m
    return (s + s.conj().T) / 2.0


def _frozen_eigh(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenvalues (ascending) and eigenvectors of the Hermitian ``s``."""
    w, v = np.linalg.eigh(s)
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def _range_holds(outside: np.ndarray, k_norm: float, range_rtol: float) -> bool:
    """Whether ||(I - P_S) K|| <= range_rtol ||K||.

    ``outside`` holds the rows of K (in the eigenbasis of S) along the kernel
    of S. Their Frobenius norm bounds the operator norm from above, so the
    dense norm is taken only when that bound alone does not decide.
    """
    if k_norm == 0.0:
        return True
    limit = range_rtol * k_norm
    return float(np.linalg.norm(outside)) <= limit or linops.op_norm(outside) <= limit


def range_condition_holds(
    ksys: KGSystem,
    rank_tol: float = DEFAULT_RANK_TOL,
    range_rtol: float = RANGE_INCLUSION_RTOL,
) -> bool:
    """Whether range(K) is contained in range(S) at the working tolerance."""
    spec = ksys.spectrum
    return _range_holds(spec.k_rows(~spec.s_support(rank_tol)), spec.k_norm, range_rtol)


def optimal_bounds(
    ksys: KGSystem,
    rank_tol: float = DEFAULT_RANK_TOL,
    range_rtol: float = RANGE_INCLUSION_RTOL,
    tight_rtol: float = TIGHT_RTOL,
) -> BoundReport:
    """Compute the optimal frame constants of a K-g-system.

    Parameters
    ----------
    ksys : KGSystem
        System under analysis.
    rank_tol : float
        Relative singular-value cutoff for every rank decision.
    range_rtol : float
        Relative residual for the range(K) in range(S) test.
    tight_rtol : float
        Relative Frobenius tolerance for the tightness test.

    Returns
    -------
    BoundReport
        The optimal upper bound is the largest eigenvalue of S and the
        optimal g-frame lower bound the smallest. The optimal lower bound
        relative to K is ``1 / ||S^{+/2} K||^2``, valid exactly when
        range(K) lies inside range(S); otherwise the field is None.
        Everything comes from the cached :attr:`KGSystem.spectrum`; the
        one dense computation per call is the norm of S^{+/2} K.
    """
    return _spectral_bounds(ksys.spectrum, rank_tol, range_rtol, tight_rtol)


def _spectral_bounds(
    spec: KGSpectrum, rank_tol: float, range_rtol: float, tight_rtol: float
) -> BoundReport:
    """The optimal frame constants read off a spectrum (see :func:`optimal_bounds`)."""
    w = spec.s_evals
    bessel = max(float(w[-1]), 0.0)
    g_lower = max(float(w[0]), 0.0)

    # K in the eigenbasis of S: S^{+/2} K is its support rows over sqrt(w)
    y = spec.k_rows()
    support = spec.s_support(rank_tol)
    kg_lower: float | None = None
    if spec.k_norm > 0.0 and _range_holds(y[~support], spec.k_norm, range_rtol):
        denom = linops.op_norm(y[support] / np.sqrt(w[support])[:, np.newaxis])
        if denom > 0.0:
            kg_lower = 1.0 / (denom * denom)

    tight = False
    constant: float | None = None
    if kg_lower is not None:
        # S - A K K^* in the same basis is diag(w) - A y y^*; ||S||_F = ||w||
        # and ||K K^*||_F = ||sigma^2||
        diff = -kg_lower * (y @ y.conj().T)
        diff[np.diag_indices_from(diff)] += w
        scale = max(float(np.linalg.norm(w)), kg_lower * float(np.linalg.norm(spec.k_svals**2)))
        if scale > 0.0 and float(np.linalg.norm(diff)) <= tight_rtol * scale:
            tight = True
            constant = kg_lower
    return BoundReport(bessel, g_lower, kg_lower, tight, constant)


def classify(ksys: KGSystem, tol: float = DEFAULT_RANK_TOL) -> ClassificationReport:
    """Classify a K-g-system along the frame and tightness axes.

    The label reports the strongest property that holds: a g-frame wins over
    a plain K-g-frame, and within each strength the tight variant wins.
    ``tol`` scales the positivity threshold for the lower bound (relative to
    the upper bound, so the decision is scale invariant).
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    report = optimal_bounds(ksys, rank_tol=tol)
    c = ksys.spectrum.k_lower(tol)

    is_g = report.g_lower_opt > tol * report.bessel_upper_opt
    is_kg = report.kg_lower_opt is not None
    tight_g = is_g and (report.bessel_upper_opt - report.g_lower_opt) <= TIGHT_RTOL * report.bessel_upper_opt

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
