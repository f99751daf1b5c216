"""Replay the corpus of command-line runs in ``tests/corpus`` against its expected reports.

Strings, ints, booleans, nulls and key sets must match exactly. A float
``got`` passes against ``want`` when |got - want| <= max(rtol |want|, atol),
with rtol = FLOAT_RTOL and atol = 0 unless the quantity's rounding is
measured on a larger scale than its own magnitude:

- an entry of an array (a vector, a matrix, an error sequence) against
  the array's largest entry, so atol = FLOAT_RTOL times that magnitude;
- a defect or residual, a dimensionless norm of a difference that sits at
  rounding level for an exact dual, within RESIDUAL_ATOL;
- ``g_lower_opt``, the smallest eigenvalue of S, which is rounding noise
  when S is singular, against the largest, ``bessel_upper_opt``;
- a case in CASE_RTOL, whose floats are ill-conditioned, at its own rtol.

These scales were set by replaying the corpus under other OpenBLAS kernels
(``OPENBLAS_CORETYPE`` Prescott, Nehalem, Sandybridge, Haswell and Zen)
and on inputs moved by two ulps, which moved 2,000-odd floats and no
verdict. A written system file is compared entry by entry, the same way,
and its report's sha256 must be the digest of the bytes written. To check
that a change keeps the corpus exactly, run ``tests/corpus/regen.py`` and
find the diff empty.
"""

import hashlib
import json
import math
import shutil

import pytest

from corpus.regen import CASES, INPUTS, run_case

FLOAT_RTOL = 1e-12
# the kernels above moved these by up to 1.1e-14
RESIDUAL_ATOL = 1e-13
RESIDUALS = {"defect", "interchange_defect", "residual"}
# erase_invert: an invertibility norm of 1.9e3 moved its floats by up to 7.5e-12 relative
CASE_RTOL = {"erase_invert": 1e-10}

_CORPUS = json.loads(CASES.read_text())["cases"]


def _floats(x) -> list[float]:
    """Every float in a nested list."""
    if isinstance(x, list):
        return [f for v in x for f in _floats(v)]
    return [x] if isinstance(x, float) else []


def _mismatch(got, want, where: str = "$", rtol: float = FLOAT_RTOL, atol: float = 0.0) -> str | None:
    """Where ``got`` first differs from ``want`` beyond the corpus tolerance, or None."""
    if type(got) is not type(want):
        return f"{where}: {got!r} is not {want!r}"
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return f"{where}: keys {sorted(got)} are not {sorted(want)}"
        atols = {key: atol for key in want}
        atols.update({key: RESIDUAL_ATOL for key in RESIDUALS & want.keys()})
        if "g_lower_opt" in want and "bessel_upper_opt" in want:
            atols["g_lower_opt"] = rtol * want["bessel_upper_opt"]
        return next(filter(None, (_mismatch(got[k], want[k], f"{where}.{k}", rtol, atols[k]) for k in want)), None)
    if isinstance(want, list):
        if len(got) != len(want):
            return f"{where}: length {len(got)} is not {len(want)}"
        atol = max([atol] + [rtol * abs(f) for f in _floats(want)])
        return next(filter(None, (_mismatch(g, w, f"{where}[{i}]", rtol, atol)
                                  for i, (g, w) in enumerate(zip(got, want)))), None)
    if isinstance(want, float):
        close = math.isclose(got, want, rel_tol=rtol, abs_tol=atol)
        return None if close else f"{where}: {got!r} is not {want!r}"
    return None if got == want else f"{where}: {got!r} is not {want!r}"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One directory holding the corpus inputs, shared by the cases in order."""
    path = tmp_path_factory.mktemp("corpus")
    for src in INPUTS.iterdir():
        shutil.copy(src, path)
    return path


@pytest.mark.parametrize("case", _CORPUS, ids=[case["name"] for case in _CORPUS])
def test_corpus_case(case, workdir):
    got = run_case(case["argv"], workdir)
    if case["written"] is not None:
        payload = got["stdout"]["payload"]
        assert payload["sha256"] == hashlib.sha256((workdir / payload["path"]).read_bytes()).hexdigest()
        # the bytes follow the floats, which are compared one by one
        payload["sha256"] = case["stdout"]["payload"]["sha256"]
    assert _mismatch(got, {key: case[key] for key in got}, rtol=CASE_RTOL.get(case["name"], FLOAT_RTOL)) is None


def test_corpus_covers_every_command_and_exit_code():
    from kgframes import cli

    assert {case["argv"][0] for case in _CORPUS} == set(cli._COMMANDS)
    assert {case["exit"] for case in _CORPUS} == {0, 1, 2}
