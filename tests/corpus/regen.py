"""Regenerate the corpus of command-line runs: its input files and every expected report.

Run from the repository root as ``PYTHONPATH=src python tests/corpus/regen.py``.
It rewrites ``tests/corpus/inputs/`` and ``tests/corpus/cases.json``. A
change meant to move results regenerates the corpus, so that the diff shows
every changed number and verdict; a change meant to keep them finds the
diff empty. ``tests/test_corpus.py`` replays the cases against the stored
expectations.

Inputs come from ``kgframes gen``, a ``d_j = 0`` block among them, and
from a few hand-made systems: K = 0, a singular S, unit-norm blocks and
blocks scaled by 1e160, past the float range.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import kgframes as kg
from kgframes import cli

CORPUS = Path(__file__).resolve().parent
INPUTS = CORPUS / "inputs"
CASES = CORPUS / "cases.json"

# Input files written by ``kgframes gen``, by name.
GENERATED = {
    "chain.json": ["example1", "--n", "8"],
    "corner.json": ["example2", "--n", "6"],
    "sys.json": ["random", "--n", "12", "--dims", "3,3,3,3,3", "--rank-k", "5", "--seed", "1"],
    "low.json": ["random", "--n", "8", "--dims", "2,2,2,2,2", "--rank-k", "3", "--seed", "2"],
    # a d_j = 0 block among mixed dims, so removals keep several row counts
    "mixed.json": ["random", "--n", "6", "--dims", "2,1,0,3,1,2", "--rank-k", "2", "--seed", "17"],
}


def _unitary(rng) -> np.ndarray:
    return np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]


def _hand_made(workdir: Path) -> None:
    """Write the inputs that ``kgframes gen`` cannot, built from those it wrote."""
    ksys = kg.load_system(workdir / "sys.json")
    # an approximate dual of defect 0.5, so that Neumann steps run
    kg.save_system(kg.KGSystem(kg.perturbed_dual(ksys, 0.5, seed=0), ksys.k), workdir / "pert.json")
    kg.save_vector(ksys.k @ np.ones(12), workdir / "vec.json")
    kg.save_frame_family(kg.random_frame_family(ksys.system.block_dims, seed=3), workdir / "fams.json")
    rng = np.random.default_rng(0)
    kg.save_system(kg.KGSystem(kg.GSystem(5, (rng.standard_normal((2, 5)),)), np.zeros((5, 5))),
                   workdir / "zerok.json")
    # four rows in dimension 6: S is singular, and K = L^* X maps into range(S)
    rows = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    kg.save_system(kg.KGSystem(kg.GSystem(6, (rows[:2], rows[2:])), rows.conj().T @ rng.standard_normal((4, 6))),
                   workdir / "singular.json")
    # blocks x 1e160: S is past the float range
    small = kg.random_kg_system(4, [2, 1, 2], 2, 3)
    kg.save_system(kg.KGSystem(small.system.with_matrix(1e160 * small.system.matrix), small.k),
                   workdir / "big.json")
    # three unitary blocks and ||K|| = 1/2: the norm-count criterion applies
    blocks = (_unitary(rng), _unitary(rng), _unitary(rng))
    kg.save_system(kg.KGSystem(kg.GSystem(4, blocks), 0.5 * _unitary(rng)), workdir / "unit.json")


# Each case: a name and a command line, run in a directory holding the inputs.
COMMANDS = [
    ("gen_chain", ["gen", "example1", "--n", "8", "-o", "out_chain.json"]),
    ("bounds_corner", ["bounds", "corner.json"]),
    ("classify_chain_tol", ["classify", "chain.json", "--tol-rank", "1e-18"]),
    ("classify_singular_s", ["classify", "singular.json"]),
    ("bounds_zero_k", ["bounds", "zerok.json"]),
    ("classify_zero_k", ["classify", "zerok.json"]),
    ("dual", ["dual", "sys.json", "-o", "out_dual.json"]),
    ("defect", ["defect", "sys.json", "pert.json"]),
    ("exactify", ["exactify", "sys.json", "pert.json", "-o", "out_exact.json"]),
    ("neumann_dual", ["neumann-dual", "sys.json", "pert.json", "--N", "8", "-o", "out_neumann.json"]),
    ("reconstruct", ["reconstruct", "sys.json", "pert.json", "--vec", "vec.json", "--N", "12"]),
    ("lift", ["lift", "sys.json", "pert.json", "--frames", "fams.json"]),
    ("erase_search_empty_block", ["erase", "mixed.json", "--max-remove", "2", "--criterion", "brute"]),
    ("erase_brute", ["erase", "sys.json", "--indices", "1", "--criterion", "brute"]),
    ("erase_invert", ["erase", "low.json", "--indices", "0", "--criterion", "invert"]),
    ("erase_norm", ["erase", "unit.json", "--indices", "0", "--criterion", "norm"]),
    ("erase_invert_singular_s", ["erase", "singular.json", "--indices", "0", "--criterion", "invert"]),
    ("bounds_float_range", ["bounds", "big.json"]),
    ("bounds_nan_tol", ["bounds", "sys.json", "--tol-rank", "nan"]),
    ("bounds_missing_file", ["bounds", "missing.json"]),
]


def _report(text: str) -> dict | None:
    """The JSON report in ``text`` without its ``wall_time_s``, or None for no text."""
    if not text:
        return None
    report = json.loads(text)
    report.pop("wall_time_s", None)
    return report


def run_case(argv: list[str], workdir: Path) -> dict:
    """Run ``kgframes argv`` in-process with ``workdir`` as the working directory.

    Returns the exit code, the stdout and stderr reports without
    ``wall_time_s``, and the system file the command wrote, parsed, when
    its report names one.
    """
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(here)
    stdout = _report(out.getvalue())
    written = None
    if stdout is not None and "sha256" in stdout["payload"]:
        written = json.loads((workdir / stdout["payload"]["path"]).read_text())
    return {"exit": code, "stdout": stdout, "stderr": _report(err.getvalue()), "written": written}


def main() -> None:
    shutil.rmtree(INPUTS, ignore_errors=True)
    INPUTS.mkdir()
    for name, args in GENERATED.items():
        if run_case(["gen", *args, "-o", name], INPUTS)["exit"] != 0:
            raise SystemExit(f"kgframes gen {' '.join(args)} failed")
    _hand_made(INPUTS)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for path in INPUTS.iterdir():
            shutil.copy(path, workdir)
        cases = [{"name": name, "argv": argv, **run_case(argv, workdir)} for name, argv in COMMANDS]
    header = {"python": platform.python_version(), "numpy": np.__version__,
              "note": "expected reports without wall_time_s; floats from this environment"}
    CASES.write_text(json.dumps({"header": header, "cases": cases}, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {CASES}", file=sys.stderr)


if __name__ == "__main__":
    main()
