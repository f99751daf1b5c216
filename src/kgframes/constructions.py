"""Builders for K-g-systems: reference examples, random instances, rescaling,
and composition with vector frames chosen inside each coefficient space. The
flattening and the spanning check also serve the lift in :mod:`kgframes.duals`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linops
from .errors import (
    BadDimError,
    DimMismatchError,
    GenerationFailedError,
    NotAFrameError,
    NotTightError,
    ZeroWeightError,
)
from .gsystem import GSystem, KGSystem, _is_scalar, classify, range_condition_holds

__all__ = ["ScaledSystem", "SubspaceFrameFamily", "TightRelationReport", "compose",
           "corner_projection_system", "overlap_chain_system", "random_frame_family",
           "random_kg_system", "scale_weights", "tight_relation_check"]

_MAX_GENERATION_ATTEMPTS = 10
# random_frame_family draws this many vectors per dimension of each space.
FRAME_OVERSAMPLE = 2


def overlap_chain_system(n: int) -> KGSystem:
    """Chain system with two-dimensional blocks overlapping on consecutive axes.

    Block j (for j = 0 .. n-2) sends f to the pair of identical coordinates
    ``f[j] + f[j+1]``, i.e. it analyses f against the vector e_j + e_{j+1}
    and reproduces it along both of that vector's axes. K maps e_j to
    e_j + e_{j+1} for j = 0 .. n-2 and annihilates the last basis vector.
    The resulting frame operator is singular (the alternating-sign vector is
    in its kernel), so the family is a frame relative to K but never a
    g-frame.

    Parameters
    ----------
    n : int
        Ambient dimension, at least 3.
    """
    if n < 3:
        raise BadDimError(f"ambient dimension must be >= 3, got {n}")
    blocks = []
    for j in range(n - 1):
        b = np.zeros((2, n), dtype=np.complex128)
        b[0, j] = b[0, j + 1] = 1.0
        b[1, j] = b[1, j + 1] = 1.0
        blocks.append(b)
    k = np.zeros((n, n), dtype=np.complex128)
    for j in range(n - 1):
        k[j, j] += 1.0
        k[j + 1, j] += 1.0
    return KGSystem(GSystem(n, tuple(blocks)), k)


def corner_projection_system(n: int) -> KGSystem:
    """Block system whose only nonzero block projects onto the first three axes.

    The ambient dimension must be a multiple of 3 and at least 6. Block 0 is
    the coordinate projection onto span{e_0, e_1, e_2}; all other blocks are
    zero operators into three-dimensional coefficient spaces. K keeps the
    first two coordinates and kills the rest, so both optimal bounds relative
    to K equal exactly 1 while the frame operator stays singular.
    """
    if n < 6 or n % 3 != 0:
        raise BadDimError(f"ambient dimension must be a multiple of 3 and >= 6, got {n}")
    blocks = []
    first = np.zeros((3, n), dtype=np.complex128)
    first[0, 0] = first[1, 1] = first[2, 2] = 1.0
    blocks.append(first)
    for _ in range(n // 3 - 1):
        blocks.append(np.zeros((3, n), dtype=np.complex128))
    k = np.zeros((n, n), dtype=np.complex128)
    k[0, 0] = 1.0
    k[1, 1] = 1.0
    return KGSystem(GSystem(n, tuple(blocks)), k)


def _complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_kg_system(n: int, dims, rank_k: int, seed: int) -> KGSystem:
    """Draw a random K-g-system with blocks of the given dimensions.

    Entries come from a seeded standard complex Gaussian, so repeated calls
    with the same arguments return bit-identical systems. K is drawn with
    the prescribed rank. The draw is retried until range(K) lies inside the
    range of the frame operator; after 10 failures GenerationFailedError is
    raised.
    """
    dims = tuple(int(d) for d in dims)
    if n < 1:
        raise BadDimError(f"ambient dimension must be >= 1, got {n}")
    if not dims or any(d < 0 for d in dims):
        raise BadDimError("block dimensions must be a non-empty list of non-negatives")
    if not 1 <= rank_k <= n:
        raise BadDimError(f"rank of K must lie in [1, {n}], got {rank_k}")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_GENERATION_ATTEMPTS):
        blocks = tuple(_complex_gaussian(rng, (d, n)) for d in dims)
        k = _complex_gaussian(rng, (n, rank_k)) @ _complex_gaussian(rng, (rank_k, n))
        ksys = KGSystem(GSystem(n, blocks), k)
        if range_condition_holds(ksys):
            return ksys
    raise GenerationFailedError(
        f"could not satisfy the range condition in {_MAX_GENERATION_ATTEMPTS} draws"
    )


@dataclass(frozen=True, eq=False)
class ScaledSystem:
    """A reweighted system plus the modulus witnesses used in bound estimates.

    ``weight_lower`` and ``weight_upper`` are the smallest and largest
    weight moduli; valid frame bounds of the original system scale by their
    squares.
    """

    system: KGSystem
    weight_lower: float
    weight_upper: float


def scale_weights(ksys: KGSystem, weights) -> ScaledSystem:
    """Multiply every block by a nonzero scalar weight, keeping K fixed."""
    w = np.asarray(weights, dtype=np.complex128)
    if w.ndim != 1 or w.shape[0] != ksys.system.num_blocks:
        raise DimMismatchError(
            f"expected {ksys.system.num_blocks} weights, got shape {w.shape}"
        )
    moduli = np.abs(w)
    if w.size == 0 or float(moduli.min()) == 0.0:
        raise ZeroWeightError("every weight must be nonzero")
    sys = ksys.system
    scaled = KGSystem(sys.with_matrix(np.repeat(w, sys.block_dims)[:, None] * sys.matrix), ksys.k)
    return ScaledSystem(scaled, float(moduli.min()), float(moduli.max()))


@dataclass(frozen=True, eq=False)
class SubspaceFrameFamily:
    """One vector frame per coefficient space, with uniform bound witnesses.

    ``families[j]`` stores the vectors of the j-th family as rows of a
    ``(count_j, d_j)`` matrix. ``lower`` and ``upper`` are the infimum and
    supremum of the per-family frame bounds; construction through
    :meth:`from_vectors` guarantees ``lower > 0`` (every family spans its
    space).
    """

    families: tuple[np.ndarray, ...]
    lower: float
    upper: float

    @staticmethod
    def frame_operator_of(family: np.ndarray) -> np.ndarray:
        """Frame operator sum_i f_i f_i^* of one vector family (rows f_i)."""
        fam = linops.as_operator(family)
        return fam.T @ fam.conj()

    @classmethod
    def from_vectors(cls, families, rank_tol: float = linops.DEFAULT_RANK_TOL) -> "SubspaceFrameFamily":
        fams = tuple(linops.as_operator(raw) for raw in families)
        if not fams:
            raise NotAFrameError("family list is empty")
        bounds = [_spanning_bounds(cls.frame_operator_of(f), j, rank_tol) for j, f in enumerate(fams)]
        lowers, uppers = zip(*bounds)
        return cls(fams, float(min(lowers)), float(max(uppers)))


def _spanning_bounds(fam_op: np.ndarray, j: int, rank_tol: float) -> tuple[float, float]:
    """Bounds of family j from its frame operator; NotAFrameError unless it spans at ``rank_tol``."""
    if fam_op.shape[0] < 1:
        raise NotAFrameError(f"family {j} lives in a zero-dimensional space")
    evals = linops.hermitian_eigvals(fam_op)
    top = max(float(evals[-1]), 0.0)
    bottom = float(evals[0])
    if bottom <= linops.rank_cutoff(top, evals.size, rank_tol):
        raise NotAFrameError(f"family {j} does not span its space")
    return bottom, top


def _canonical_duals(families, rank_tol: float) -> tuple[np.ndarray, ...]:
    """Canonical dual rows S_j^{-1} f of each family; NotAFrameError unless all span at ``rank_tol``."""
    ops = [SubspaceFrameFamily.frame_operator_of(fam) for fam in families]
    for j, fam_op in enumerate(ops):
        _spanning_bounds(fam_op, j, rank_tol)
    return tuple(np.linalg.solve(fam_op, fam.T).T for fam_op, fam in zip(ops, families))


def random_frame_family(block_dims, seed: int) -> SubspaceFrameFamily:
    """Random spanning vector family for each coefficient space."""
    rng = np.random.default_rng(seed)
    families = [
        _complex_gaussian(rng, (max(FRAME_OVERSAMPLE * d, d + 1), d)) for d in block_dims
    ]
    return SubspaceFrameFamily.from_vectors(families)


def compose(ksys: KGSystem, fams: SubspaceFrameFamily) -> KGSystem:
    """Flatten a K-g-system against vector frames of its coefficient spaces.

    Each block L_j combines with each frame vector f of the j-th family into
    a rank-one block ``f^* L_j`` (a single row). The composed system keeps
    ambient dimension and K; its optimal bounds are sandwiched between the
    original ones scaled by the family bound witnesses.
    """
    return KGSystem(_flatten(ksys.system, fams.families), ksys.k)


def _flatten(system: GSystem, families) -> GSystem:
    """The one-row blocks ``f^* L_j``, for each block L_j and each row f of ``families[j]``."""
    if len(families) != system.num_blocks:
        raise DimMismatchError(f"expected {system.num_blocks} families, got {len(families)}")
    rows = [np.zeros((0, system.ambient_dim), dtype=np.complex128)]  # also covers no blocks
    for j, (fam, block) in enumerate(zip(families, system.blocks)):
        if fam.shape[1] != block.shape[0]:
            raise DimMismatchError(
                f"family {j} has vectors of length {fam.shape[1]}, block needs {block.shape[0]}"
            )
        rows.append(fam.conj() @ block)
    # every row of the stacked products is a block of its own
    return GSystem(system.ambient_dim, tuple(np.concatenate(rows)[:, np.newaxis]))


@dataclass(frozen=True)
class TightRelationReport:
    """Relation between tightness relative to K and plain g-tightness.

    For a system that is tight relative to K with constant ``kg_constant``,
    being a tight g-frame (constant ``g_constant``) is equivalent to
    ``K K^*`` being the scalar ``g_constant / kg_constant`` times the
    identity. Both directions are evaluated: ``ratio_deviation`` is the
    operator-norm distance of K K^* from that scalar multiple (when the
    system is a tight g-frame), ``kk_star_scalar`` is the mean eigenvalue c
    of K K^* when K K^* counts as scalar on its own, and ``iff_consistent``
    records that the two sides of the equivalence agreed.
    """

    kg_constant: float
    is_tight_g: bool
    g_constant: float | None
    ratio_deviation: float | None
    kk_star_scalar: float | None
    iff_consistent: bool


def tight_relation_check(ksys: KGSystem) -> TightRelationReport:
    """Evaluate, for a tight K-g-frame, the equivalence with tight g-frames.

    Every test is relative to ``linops.TIGHT_RTOL``, and K K^* counts as scalar by the
    rule ``classify`` applies to S: ``sigma_max^2 - sigma_min^2 <= TIGHT_RTOL sigma_max^2``.
    """
    rtol = linops.TIGHT_RTOL
    classes = classify(ksys)
    report = classes.bounds
    if not report.tight_kg or report.tightness_constant is None:
        raise NotTightError("system is not tight relative to K")
    a1 = report.tightness_constant
    is_tight_g = classes.is_tight_g_frame
    a2 = report.bessel_upper_opt if is_tight_g else None

    # K K^* = U diag(sigma^2) U^* with U unitary, so its distance from c I is max |sigma^2 - c|
    kk_evals = ksys.k_svals**2
    kk_norm = float(kk_evals[0])
    c = float(kk_evals.sum()) / ksys.ambient_dim
    kk_is_scalar = _is_scalar(kk_norm, float(kk_evals[-1]))
    kk_scalar = c if kk_is_scalar else None

    ratio_dev: float | None = None
    forward_ok = True
    if is_tight_g and a2 is not None:
        ratio_dev = float(np.abs(kk_evals - a2 / a1).max())
        forward_ok = ratio_dev <= rtol * max(a2 / a1, kk_norm)

    # converse: a scalar K K^* forces S = (c * a1) I, i.e. g-tightness
    converse_ok = True
    if kk_is_scalar:
        converse_ok = is_tight_g and a2 is not None and abs(a2 - c * a1) <= rtol * a2

    consistent = bool((is_tight_g == kk_is_scalar) and forward_ok and converse_ok)
    return TightRelationReport(a1, is_tight_g, a2, ratio_dev, kk_scalar, consistent)
