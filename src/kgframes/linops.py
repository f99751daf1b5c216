"""Dense complex operator algebra: adjoints, pseudo-inverses, norms, projectors.

Every function accepts array-likes and works on ``complex128`` matrices; inner
products are linear in the first argument. Every decision that a singular
value or eigenvalue is zero, here and in the rest of the package, is made by
:func:`rank_cutoff` (default tolerance :data:`DEFAULT_RANK_TOL`), and every
tolerance, the CLI's included, must satisfy ``0 <= tol < inf`` (:func:`_checked_tol`).
All seven thresholds of the package are bound here alone (:data:`THRESHOLDS`, the
two defaults first), and every decision reads its fixed threshold here when it runs.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import NotPSDError

DEFAULT_RANK_TOL = 1e-10
# Defect at or below this value certifies an exact dual: the default ``exact_tol``.
DUAL_EXACT_TOL = 1e-9
# Relative residual below which range(K) lies in range(S), and a vector in range(K).
RANGE_INCLUSION_RTOL = 1e-8
# Relative distance below which a system counts as tight and an operator as scalar.
TIGHT_RTOL = 1e-8
# Neumann reconstruction stops once its error is at most this, relative to the target's norm.
NEUMANN_STOP_RTOL = 1e-12
# Removed blocks must have operator norm 1, and K at most 1, within this tolerance.
UNIT_NORM_TOL = 1e-9
# A reduced system survives brute force when its lower bound A relative to K
# has A * ||K||^2 > SURVIVAL_TOL * B, B the full system's Bessel bound.
SURVIVAL_TOL = 1e-10
THRESHOLDS = ("DEFAULT_RANK_TOL", "DUAL_EXACT_TOL", "RANGE_INCLUSION_RTOL", "TIGHT_RTOL",
              "NEUMANN_STOP_RTOL", "UNIT_NORM_TOL", "SURVIVAL_TOL")


def as_operator(m) -> np.ndarray:
    """Coerce ``m`` to a 2-D complex128 matrix, rejecting non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix contains NaN or Inf entries")
    return a


def as_vector(v) -> np.ndarray:
    """Coerce ``v`` to a 1-D complex128 vector, rejecting non-finite entries."""
    a = np.asarray(v, dtype=np.complex128)
    if a.ndim != 1:
        raise ValueError(f"expected a vector, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("vector contains NaN or Inf entries")
    return a


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_operator(m).conj().T.copy()


def inner(f, g) -> complex:
    """Inner product sum(f * conj(g)), linear in the first argument."""
    return complex(np.vdot(as_vector(g), as_vector(f)))


def op_norm(m) -> float:
    """Operator (spectral) norm, the largest singular value."""
    a = as_operator(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def svd_values(m) -> np.ndarray:
    """Singular values in descending order (empty for zero-size input)."""
    a = as_operator(m)
    if a.size == 0:
        return np.zeros(0)
    return np.linalg.svd(a, compute_uv=False)


def hermitian_eigvals(m) -> np.ndarray:
    """Eigenvalues of a (numerically) Hermitian matrix, ascending."""
    a = as_operator(m)
    if a.size == 0:
        return np.zeros(0)
    return np.linalg.eigvalsh((a + a.conj().T) / 2.0)


def rank_cutoff(top: float, dim: int, tol: float) -> float:
    """The cutoff below which a singular value or eigenvalue counts as zero.

    ``top`` is the largest one and ``dim`` the larger matrix dimension. The
    cutoff is ``max(tol, dim * eps) * top``: a tolerance below machine
    precision, 0 included, means machine precision. Raises ``ValueError``
    unless ``0 <= tol < inf``.
    """
    return max(_checked_tol(tol), dim * sys.float_info.epsilon) * top


def _checked_tol(tol: float, name: str = "rank tolerance") -> float:
    """``tol`` itself; raises ``ValueError`` naming ``name`` unless ``0 <= tol < inf``.

    Called first by the functions that return early on a zero or empty
    matrix, so a bad tolerance raises there too.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {tol}")
    return tol


def _sv_cutoff(s: np.ndarray, shape: tuple[int, int], tol: float) -> float:
    return rank_cutoff(float(s[0]) if s.size else 0.0, max(shape), tol)


def numerical_rank(m, tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above the relative cutoff."""
    a = as_operator(m)
    s = svd_values(a)
    return int(np.count_nonzero(s > _sv_cutoff(s, a.shape, tol)))


def pinv(m, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with a relative singular-value cutoff.

    Parameters
    ----------
    m : array_like
        Matrix to invert, any shape.
    tol : float
        Singular values at or below :func:`rank_cutoff` of ``sigma_max`` are
        treated as zero.

    Returns
    -------
    numpy.ndarray
        The pseudo-inverse, with shape transposed relative to ``m``.
    """
    _checked_tol(tol)
    a = as_operator(m)
    if a.size == 0 or not np.any(a):
        return np.zeros((a.shape[1], a.shape[0]), dtype=np.complex128)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    cutoff = _sv_cutoff(s, a.shape, tol)
    s_inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (vh.conj().T * s_inv) @ u.conj().T


def range_basis(m, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the column space of ``m``, one vector per column.

    The columns are the leading left singular vectors; their number is the
    numerical rank of ``m`` at the given relative cutoff (zero for a zero or
    empty matrix).
    """
    _checked_tol(tol)
    a = as_operator(m)
    if a.size == 0 or not np.any(a):
        return np.zeros((a.shape[0], 0), dtype=np.complex128)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, : int(np.count_nonzero(s > _sv_cutoff(s, a.shape, tol)))]


def range_projector(m, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthogonal projector onto the column space of ``m``.

    The result is Hermitian and idempotent; its trace equals the numerical
    rank of ``m`` at the given relative cutoff.
    """
    basis = range_basis(m, tol)
    p = basis @ basis.conj().T
    return (p + p.conj().T) / 2.0


def psd_sqrt_pinv(m, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Pseudo-inverse square root of a Hermitian positive semidefinite matrix.

    Parameters
    ----------
    m : array_like
        Square matrix, Hermitian PSD within the tolerance.
    tol : float
        Relative cutoff used both to test definiteness and to drop the
        numerically zero part of the spectrum.

    Returns
    -------
    numpy.ndarray
        ``Q`` with ``Q @ Q @ m`` equal to the range projector of ``m``.

    Raises
    ------
    NotPSDError
        If ``m`` is not Hermitian or has an eigenvalue below ``-tol * |m|``,
        both relative to the largest entry ``|m|`` of ``m`` itself, so the
        verdict does not change when ``m`` is rescaled.
    """
    _checked_tol(tol)
    a = as_operator(m)
    if a.shape[0] != a.shape[1]:
        raise NotPSDError(f"matrix is not square: {a.shape}")
    if a.size == 0:
        return a.copy()
    scale = float(np.abs(a).max())
    tol = rank_cutoff(1.0, a.shape[0], tol)
    if float(np.abs(a - a.conj().T).max()) > tol * scale:
        raise NotPSDError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    top = max(float(w[-1]), 0.0)
    if float(w[0]) < -tol * max(top, scale):
        raise NotPSDError(f"matrix has a negative eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    cutoff = tol * top
    inv_sqrt = np.where(w > cutoff, 1.0 / np.sqrt(np.where(w > cutoff, w, 1.0)), 0.0)
    q = (v * inv_sqrt) @ v.conj().T
    return (q + q.conj().T) / 2.0
