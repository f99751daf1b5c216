"""Tests for the dense linear-algebra helpers and the tolerance policy."""

import re
from pathlib import Path

import numpy as np
import pytest

from kgframes import (
    FloatRangeError,
    NotPSDError,
    adjoint,
    hermitian_eigvals,
    inner,
    numerical_rank,
    op_norm,
    pinv,
    psd_sqrt_pinv,
    range_projector,
    svd_values,
)
from kgframes import cli, constructions, duals, gsystem, linops, redundancy
from kgframes.linops import as_operator, as_vector

from oracles import complex_gaussian, power_iteration_norm, random_unit_vector


@pytest.mark.parametrize("module", (gsystem, duals, redundancy, constructions, cli))
def test_every_threshold_is_bound_in_linops_alone(module):
    assert all(isinstance(getattr(linops, name), float) for name in linops.THRESHOLDS)
    assert [name for name in linops.THRESHOLDS if hasattr(module, name)] == []


def test_the_readme_tolerance_table_lists_the_linops_thresholds():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([A-Z_]+)` \| ([^|]+) \|", section, flags=re.MULTILINE)
    assert {name: float(value) for name, value in rows} == {
        name: getattr(linops, name) for name in linops.THRESHOLDS}
    assert len(rows) == len(linops.THRESHOLDS)


def test_the_decomposition_recorder_sees_each_factorization_and_no_plain_norm(linalg_calls):
    m = complex_gaussian(np.random.default_rng(0), (4, 3))
    s = m @ m.conj().T
    op_norm(m)
    svd_values(m)
    pinv(m)
    hermitian_eigvals(s)
    psd_sqrt_pinv(s)
    np.linalg.solve(s + np.eye(4), np.ones(4))
    np.linalg.inv(s + np.eye(4))
    np.linalg.norm(m)  # Frobenius
    np.linalg.norm(m[:, 0])  # a vector
    np.linalg.norm(np.stack([m, m]), 2, axis=(-2, -1))
    assert linalg_calls == [
        ("eigvalsh", (3, 3), None), ("svd", (4, 3), False), ("svd", (4, 3), True),
        ("eigvalsh", (4, 4), None), ("eigh", (4, 4), None), ("solve", (4, 4), None),
        ("inv", (4, 4), None), ("norm", (2, 4, 3), None),
    ]


def test_as_operator_rejects_non_finite():
    with pytest.raises(ValueError):
        as_operator(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        as_vector(np.array([1.0, np.inf]))


def test_as_operator_coerces_to_complex():
    m = as_operator([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)


def test_adjoint_is_involution():
    rng = np.random.default_rng(11)
    m = complex_gaussian(rng, (5, 3))
    assert np.array_equal(adjoint(adjoint(m)), m)


def test_adjoint_moves_across_inner_products():
    rng = np.random.default_rng(12)
    m = complex_gaussian(rng, (5, 3))
    for _ in range(20):
        f = complex_gaussian(rng, 3)
        g = complex_gaussian(rng, 5)
        lhs = inner(m @ f, g)
        rhs = inner(f, adjoint(m) @ g)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_inner_is_linear_in_first_argument():
    rng = np.random.default_rng(13)
    f, g, h = (complex_gaussian(rng, 4) for _ in range(3))
    a = 2.0 - 1.5j
    assert abs(inner(a * f + g, h) - (a * inner(f, h) + inner(g, h))) < 1e-12


def test_op_norm_trivial_cases():
    assert op_norm(np.zeros((3, 4))) == 0.0
    assert op_norm(np.zeros((0, 4))) == 0.0
    assert abs(op_norm(np.diag([3.0, -7.0, 2.0])) - 7.0) < 1e-12


def test_op_norm_matches_adjoint():
    rng = np.random.default_rng(14)
    for _ in range(10):
        m = complex_gaussian(rng, (6, 4))
        assert abs(op_norm(m) - op_norm(adjoint(m))) <= 1e-10


def test_op_norm_dominates_random_directions():
    rng = np.random.default_rng(15)
    m = complex_gaussian(rng, (7, 7))
    nrm = op_norm(m)
    best = 0.0
    for _ in range(10_000):
        v = random_unit_vector(rng, 7)
        best = max(best, float(np.linalg.norm(m @ v)))
        assert best <= nrm + 1e-6
    # random probing should get reasonably close to the supremum
    assert best >= 0.5 * nrm


def test_op_norm_agrees_with_power_iteration():
    rng = np.random.default_rng(16)
    for trial in range(5):
        m = complex_gaussian(rng, (8, 5))
        assert abs(op_norm(m) - power_iteration_norm(m, seed=trial)) <= 1e-6


def _with_singular_values(rng, shape, svals) -> np.ndarray:
    """A complex matrix of ``shape`` with the singular values ``svals`` in random bases."""
    u = np.linalg.qr(complex_gaussian(rng, (shape[0], len(svals))))[0]
    v = np.linalg.qr(complex_gaussian(rng, (shape[1], len(svals))))[0]
    return (u * svals) @ v.conj().T


def _mp_sigma_max(a: np.ndarray) -> float:
    """The largest singular value of ``a``'s float entries, by a 40-digit mpmath SVD."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        rows = [[mpmath.mpc(z.real, z.imag) for z in row] for row in a.tolist()]
        return float(max(mpmath.svd_c(mpmath.matrix(rows), compute_uv=False)))


@pytest.mark.parametrize("shape, sigma_max, cond", [
    ((40, 12), 1.0, 10.0), ((12, 40), 1.0, 10.0), ((16, 16), 1.0, 10.0),
    ((40, 12), 1.0, 1e12), ((12, 40), 3.0, 1e12), ((16, 16), 1.0, 1e12),
    ((40, 12), 1e-15, 1e3), ((12, 40), 1e-300, 1e3), ((16, 16), 1e200, 1e3),
], ids=["tall", "wide", "square", "ill_tall", "ill_wide", "ill_square",
        "tiny_1e-15", "tiny_1e-300", "huge_1e200"])
def test_op_norm_is_within_a_few_eps_of_an_extended_precision_svd(shape, sigma_max, cond):
    rng = np.random.default_rng(int(np.log10(cond)) + 7 * shape[0])
    r = min(shape)
    m = _with_singular_values(rng, shape, sigma_max * np.geomspace(1.0, 1.0 / cond, r))
    want = _mp_sigma_max(m)
    assert abs(op_norm(m) - want) <= 4 * np.finfo(float).eps * np.sqrt(r) * want


def test_stacked_and_single_gram_tops_are_the_same_bits():
    rng = np.random.default_rng(18)
    for shape in [(6, 24, 8), (5, 8, 24), (4, 7, 7), (3, 1, 5)]:
        # a different scale per matrix: each gets its own power of two
        stack = complex_gaussian(rng, shape) * 10.0 ** rng.integers(-200, 200, shape[0])[:, None, None]
        lam, e = linops.gram_top(stack)
        for i, m in enumerate(stack):
            assert linops.gram_top(m) == (lam[i], e[i])
            assert op_norm(m) == np.ldexp(np.sqrt(lam[i]), e[i])


def test_op_norm_scales_exactly_by_powers_of_two():
    rng = np.random.default_rng(19)
    for shape in [(6, 4), (4, 6), (5, 5)]:
        m = complex_gaussian(rng, shape)  # entries near 1: every scaled copy stays normal
        base = op_norm(m)
        for k in range(-500, 501):
            assert op_norm(np.ldexp(1.0, k) * m) == np.ldexp(base, k), (shape, k)


def test_op_norm_takes_no_svd_and_overflows_to_a_typed_error(linalg_calls):
    # sqrt(6) 1e300, though the unscaled Gram's entries would overflow
    assert abs(op_norm(np.full((2, 3), 1e300)) / 1e300 - np.sqrt(6.0)) <= 1e-15
    assert [name for name, _, _ in linalg_calls] == ["eigvalsh"]
    with pytest.raises(FloatRangeError, match="the operator norm"):
        op_norm(np.full((2, 2), 1e308))


def test_svd_values_descending_and_eigvals_ascending():
    rng = np.random.default_rng(17)
    m = complex_gaussian(rng, (6, 4))
    s = svd_values(m)
    assert np.all(np.diff(s) <= 0)
    h = m.conj().T @ m
    e = hermitian_eigvals(h)
    assert np.all(np.diff(e) >= 0)
    # eigenvalues of M^* M are squared singular values
    assert np.allclose(np.sort(e)[::-1], s**2, atol=1e-9)


def test_numerical_rank_on_constructed_matrices():
    rng = np.random.default_rng(18)
    left = complex_gaussian(rng, (9, 4))
    right = complex_gaussian(rng, (4, 7))
    # a tolerance below machine precision means machine precision, not rank 7
    for tol in (1e-10, 0.0, 1e-300):
        assert numerical_rank(left @ right, tol) == 4
    assert numerical_rank(np.zeros((5, 5))) == 0
    assert numerical_rank(np.eye(6)) == 6


def test_pinv_on_diagonal():
    got = pinv(np.diag([2.0, 0.0]))
    assert np.allclose(got, np.diag([0.5, 0.0]), atol=1e-14)


def test_pinv_penrose_identities():
    rng = np.random.default_rng(19)
    shapes = [(4, 4), (8, 5), (5, 8), (32, 32)]
    for idx, (r, c) in enumerate(shapes):
        if idx % 2 == 0:
            m = complex_gaussian(rng, (r, 3)) @ complex_gaussian(rng, (3, c))
        else:
            m = complex_gaussian(rng, (r, c))
        g = pinv(m)
        scale = 1e-9 * max(1.0, op_norm(m))
        assert op_norm(m @ g @ m - m) <= scale
        assert op_norm(g @ m @ g - g) <= scale * max(1.0, op_norm(g))
        assert op_norm(adjoint(m @ g) - m @ g) <= scale
        assert op_norm(adjoint(g @ m) - g @ m) <= scale


def test_pinv_matches_numpy_on_well_conditioned():
    rng = np.random.default_rng(20)
    m = complex_gaussian(rng, (6, 6)) + 3.0 * np.eye(6)
    assert np.allclose(pinv(m), np.linalg.inv(m), atol=1e-10)


def test_range_projector_properties():
    rng = np.random.default_rng(21)
    m = complex_gaussian(rng, (7, 3)) @ complex_gaussian(rng, (3, 7))
    p = range_projector(m)
    assert op_norm(p @ p - p) <= 1e-10
    assert op_norm(adjoint(p) - p) <= 1e-10
    assert abs(np.trace(p).real - 3.0) <= 1e-9
    # the projector fixes the columns of m
    assert op_norm(p @ m - m) <= 1e-9


def test_range_projector_of_zero_matrix():
    assert np.array_equal(range_projector(np.zeros((4, 4))), np.zeros((4, 4)))


@pytest.mark.parametrize("shape", [(4, 2), (3, 0), (0, 3)])
def test_range_projector_of_a_zero_or_empty_matrix_is_the_square_zero(shape):
    p = range_projector(np.zeros(shape))
    assert p.shape == (shape[0], shape[0]) and p.dtype == np.complex128 and not p.any()


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
@pytest.mark.parametrize("fn", [pinv, range_projector, numerical_rank, psd_sqrt_pinv])
def test_unusable_tolerance_raises_on_zero_and_empty_matrices(fn, tol):
    # these return early on such matrices; the tolerance is checked first
    for m in (np.zeros((2, 2)), np.zeros((0, 3))):
        with pytest.raises(ValueError):
            fn(m, tol)


def test_psd_sqrt_pinv_squares_to_pseudoinverse():
    rng = np.random.default_rng(22)
    half = complex_gaussian(rng, (6, 4))
    s = half @ half.conj().T  # PSD of rank 4
    q = psd_sqrt_pinv(s)
    # q is PSD and q @ q @ s equals the range projector applied to s, i.e. s's
    # pseudoinverse square root: q @ q == pinv(s)
    assert op_norm(q @ q - pinv(s)) <= 1e-8 * max(1.0, op_norm(pinv(s)))
    assert op_norm(adjoint(q) - q) <= 1e-10


def test_psd_sqrt_pinv_identity():
    q = psd_sqrt_pinv(np.eye(5))
    assert np.allclose(q, np.eye(5), atol=1e-12)


def test_psd_sqrt_pinv_rejects_indefinite():
    with pytest.raises(NotPSDError):
        psd_sqrt_pinv(np.diag([1.0, -1.0]))
    with pytest.raises(NotPSDError):
        psd_sqrt_pinv(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("scale", [1.0, 1e-12])
def test_psd_sqrt_pinv_verdict_does_not_depend_on_scale(scale):
    with pytest.raises(NotPSDError, match="negative eigenvalue"):
        psd_sqrt_pinv(scale * np.diag([1.0, -0.5]))
    with pytest.raises(NotPSDError, match="not Hermitian"):
        psd_sqrt_pinv(scale * np.array([[1.0, 0.3], [0.0, 1.0]]))
    # the same matrices made PSD are accepted at both scales
    q = psd_sqrt_pinv(scale * np.diag([1.0, 0.5]))
    assert np.allclose(q * np.sqrt(scale), np.diag([1.0, np.sqrt(2.0)]), atol=1e-12)
