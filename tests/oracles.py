"""Independent oracles, instance generators and a failing stream shared by
the test suite.

Everything here sticks to plain numpy so the quantities under test
(pseudoinverse factors, Douglas-style bounds, survival flags) are checked
against a second, structurally different computation.
"""

from __future__ import annotations

import errno
import io
import os

import numpy as np

from kgframes import (
    GSystem,
    KGSystem,
    random_kg_system,
)


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    v = complex_gaussian(rng, n)
    return v / np.linalg.norm(v)


def random_range_vector(rng: np.random.Generator, k: np.ndarray) -> np.ndarray:
    """A vector of range(K) with norm of order one."""
    v = k @ complex_gaussian(rng, k.shape[1])
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ValueError("K is zero; no nonzero range vector exists")
    return v / nrm


def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])


def bisect_kg_lower_bound(
    s: np.ndarray,
    k: np.ndarray,
    psd_tol: float = 1e-10,
    rel_precision: float = 1e-11,
) -> float:
    """sup{A >= 0 : S - A K K^* is positive semidefinite}, by bisection.

    Acceptance of a trial A uses the smallest eigenvalue of the pencil with
    an absolute slack of ``psd_tol`` times the scale of S. Independent of
    any pseudoinverse computation.
    """
    kk = k @ k.conj().T
    scale = max(1.0, float(np.linalg.norm(s, 2)))

    def feasible(a: float) -> bool:
        return _min_eig(s - a * kk) >= -psd_tol * scale

    if float(np.linalg.norm(kk)) == 0.0:
        raise ValueError("K is zero; the supremum is unbounded")
    if not feasible(0.0):
        return 0.0
    hi = 1.0
    while feasible(hi):
        hi *= 2.0
        if hi > 1e12:
            return float("inf")
    lo = 0.0
    while hi - lo > rel_precision * max(1.0, hi):
        mid = (lo + hi) / 2.0
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def range_inclusion_oracle(s: np.ndarray, k: np.ndarray, rtol: float = 1e-8) -> bool:
    """range(K) inside range(S), decided through a least-squares residual."""
    k_norm = float(np.linalg.norm(k))
    if k_norm == 0.0:
        return True
    x, *_ = np.linalg.lstsq(s, k, rcond=None)
    return float(np.linalg.norm(s @ x - k)) <= rtol * k_norm


def oracle_is_kg_frame(s: np.ndarray, k: np.ndarray, tol: float = 1e-10) -> bool:
    """Ground-truth survival: range inclusion plus a positive pencil bound."""
    if not range_inclusion_oracle(s, k):
        return False
    return bisect_kg_lower_bound(s, k) > tol


def frame_operator_of(sys: GSystem) -> np.ndarray:
    """Plain-numpy frame operator, independent of the library routine."""
    n = sys.ambient_dim
    out = np.zeros((n, n), dtype=np.complex128)
    for b in sys.blocks:
        out += b.conj().T @ b
    return out


def invertibility_norms_of(ksys: KGSystem, removed) -> tuple[float, float]:
    """||T^{-1}|| and ||K^* T^{-1}|| for T = I - S^{-1} S_I, by plain inverses and SVD norms."""
    s = frame_operator_of(ksys.system)
    s_removed = sum(ksys.system.blocks[j].conj().T @ ksys.system.blocks[j] for j in removed)
    t_inv = np.linalg.inv(np.eye(ksys.ambient_dim) - np.linalg.inv(s) @ s_removed)
    return float(np.linalg.norm(t_inv, 2)), float(np.linalg.norm(ksys.k.conj().T @ t_inv, 2))


def mixed_operator_of(system: GSystem, candidate: GSystem) -> np.ndarray:
    """Plain-numpy sum_j L_j^* T_j, one block at a time."""
    n = system.ambient_dim
    out = np.zeros((n, n), dtype=np.complex128)
    for lb, tb in zip(system.blocks, candidate.blocks):
        out += lb.conj().T @ tb
    return out


def analysis_of(sys: GSystem, f: np.ndarray) -> list[np.ndarray]:
    """The parts L_j f, one block at a time."""
    return [b @ f for b in sys.blocks]


def synthesis_of(sys: GSystem, parts) -> np.ndarray:
    """sum_j L_j^* g_j, one block at a time."""
    out = np.zeros(sys.ambient_dim, dtype=np.complex128)
    for b, g in zip(sys.blocks, parts):
        out += b.conj().T @ g
    return out


def neumann_iterates_of(
    system: GSystem, candidate: GSystem, k: np.ndarray, f: np.ndarray, num_steps: int
) -> list[np.ndarray]:
    """Partial sums of the projected Neumann series, applying the mixed
    operator block by block and projecting with P = K pinv(K)."""
    p = k @ np.linalg.pinv(k, rcond=1e-10)

    def apply_mixed(v):
        return synthesis_of(system, analysis_of(candidate, v))

    term = p @ apply_mixed(f)
    iterates = [term.copy()]
    for _ in range(num_steps):
        term = p @ (term - apply_mixed(term))
        iterates.append(iterates[-1] + term)
    return iterates


def power_iteration_norm(m: np.ndarray, iters: int = 500, seed: int = 0) -> float:
    """Largest singular value via power iteration on M^* M."""
    rng = np.random.default_rng(seed)
    if m.size == 0:
        return 0.0
    gram = m.conj().T @ m
    v = complex_gaussian(rng, gram.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = gram @ v
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
    return float(np.sqrt(np.real(np.vdot(v, gram @ v))))


def random_instance(seed: int, n_max: int = 12) -> KGSystem:
    """Seeded random K-g-frame with spanning blocks and a low-rank K."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, n_max + 1))
    num_blocks = int(rng.integers(2, 6))
    dims = [int(rng.integers(1, 4)) for _ in range(num_blocks)]
    while sum(dims) < n + 1:
        dims[int(rng.integers(0, num_blocks))] += 1
    rank_k = int(rng.integers(1, n + 1))
    return random_kg_system(n, dims, rank_k, seed=int(rng.integers(0, 2**31)))


def full_rank_instance(seed: int, n_max: int = 8, m_max: int = 8):
    """Instance with invertible S and invertible K, for erasure equivalence.

    Block dimensions are drawn so that some single or pair removals drop the
    remaining rows below the ambient dimension (certain death) while others
    keep a spanning family (generic survival).
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, n_max + 1))
    num_blocks = int(rng.integers(3, m_max + 1))
    dims = [int(rng.integers(1, 4)) for _ in range(num_blocks)]
    total = sum(dims)
    if total < n + 1:
        dims[0] += n + 1 - total
    return random_kg_system(n, dims, n, seed=int(rng.integers(0, 2**31)))


def unit_norm_instance(seed: int):
    """K-g-frame whose blocks all have operator norm one and sigma_max(K) = 1.

    At least three blocks are unitary, which forces the optimal lower bound
    relative to K to be at least three; K keeps its smallest singular value
    well above 0.8, so removing one or two blocks stays inside the counting
    criterion's guarantee zone.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    blocks = []
    for _ in range(3):
        q, _ = np.linalg.qr(complex_gaussian(rng, (n, n)))
        blocks.append(q)
    for _ in range(int(rng.integers(1, 3))):
        d = int(rng.integers(1, n))
        g = complex_gaussian(rng, (d, n))
        blocks.append(g / np.linalg.svd(g, compute_uv=False)[0])
    order = rng.permutation(len(blocks))
    blocks = [blocks[i] for i in order]

    c_min = float(rng.uniform(0.85, 0.98))
    u, _ = np.linalg.qr(complex_gaussian(rng, (n, n)))
    v, _ = np.linalg.qr(complex_gaussian(rng, (n, n)))
    svals = np.linspace(1.0, c_min, n)
    k = u @ np.diag(svals.astype(np.complex128)) @ v.conj().T
    return KGSystem(GSystem(n, tuple(blocks)), k)


def projector_of(k: np.ndarray) -> np.ndarray:
    """The n x n orthogonal projector P = K pinv(K) onto range(K)."""
    return k @ np.linalg.pinv(k, rcond=1e-10)


def projector_defects_of(system: GSystem, candidate: GSystem, k: np.ndarray):
    """The defect pair from full n x n projectors: ||(I - M) P|| and ||P (I - M^*) P||."""
    m = mixed_operator_of(system, candidate)
    p = projector_of(k)
    eye = np.eye(m.shape[0])
    return (float(np.linalg.norm((eye - m) @ p, 2)),
            float(np.linalg.norm(p @ (eye - m.conj().T) @ p, 2)))


def projector_exactify_factor_of(system: GSystem, candidate: GSystem, k: np.ndarray) -> np.ndarray:
    """pinv(P M P), the factor that makes a candidate an exact dual."""
    m = mixed_operator_of(system, candidate)
    p = projector_of(k)
    return np.linalg.pinv(p @ m @ p, rcond=1e-10)


def projector_neumann_factor_of(
    system: GSystem, candidate: GSystem, k: np.ndarray, num_terms: int
) -> np.ndarray:
    """sum_{n=0..N} (P - P M P)^n P, the truncated Neumann correction factor."""
    m = mixed_operator_of(system, candidate)
    p = projector_of(k)
    q = p - p @ m @ p
    term = p.copy()
    acc = p.copy()
    for _ in range(num_terms):
        term = q @ term
        acc += term
    return acc


class FullStream(io.TextIOBase):
    """A text stream on a full device: every write fails with ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
