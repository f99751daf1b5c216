"""A seeded fuzz property of the command-line driver.

Starting from small valid input files and command lines, either one input
file's JSON or the command line itself is mutated. Whatever the mutation, ``main``
returns 0, 1 or 2; on 0 it writes one report, and on 1 or 2 it writes
nothing to stdout and one error report naming a library error to stderr.
Every example that succeeds runs again with each of stdout and stderr
closed (None) and failing every write, and one in four of the others with
one of these: the exit code is still the one the error's type sets, and a
report that stdout cannot take is an InputError. Numbers put into files
stay within +-1e6: how the numerics behave at extreme magnitudes is a
separate question.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgframes import (
    KGSystem,
    errors,
    perturbed_dual,
    random_frame_family,
    random_kg_system,
    save_frame_family,
    save_system,
    save_vector,
)
from kgframes import cli
from kgframes.serialization import REPORT_FILE_SCHEMA, REPORT_SCHEMA_VERSION
from oracles import FullStream

jsonschema = pytest.importorskip("jsonschema")

INPUTS = ("SYS", "CAND", "VEC", "FAMS")

# A valid command line per command and erasure criterion, over the files above;
# OUT is a path nothing exists at.
COMMAND_LINES = (
    ("gen", "random", "--n", "4", "--dims", "2,1,2", "--rank-k", "2", "--seed", "1", "-o", "OUT"),
    ("gen", "example2", "--n", "4", "-o", "OUT"),
    ("bounds", "SYS"),
    ("classify", "SYS", "-o", "OUT"),
    ("dual", "SYS", "-o", "OUT"),
    ("defect", "SYS", "CAND", "--tol-dual", "1e-9"),
    ("exactify", "SYS", "CAND", "-o", "OUT"),
    ("neumann-dual", "SYS", "CAND", "--N", "2", "-o", "OUT"),
    ("reconstruct", "SYS", "CAND", "--vec", "VEC", "--N", "3"),
    ("lift", "SYS", "CAND", "--frames", "FAMS"),
    ("erase", "SYS", "--indices", "0", "--criterion", "brute"),
    ("erase", "SYS", "--indices", "1", "--criterion", "invert", "--tol-rank", "1e-12"),
    ("erase", "SYS", "--indices", "2", "--criterion", "norm"),
    ("erase", "SYS", "--max-remove", "2", "--criterion", "brute"),
)
# Tokens an argv mutation puts in. None is "-h" or a prefix of "--help": help
# exits 0 by design. DIR is a directory; MISSING names nothing.
TOKENS = (
    *INPUTS, "OUT", "DIR", "MISSING", "gen", "bounds", "dual", "erase", "random", "example1",
    "brute", "invert", "norm", "--tol-rank", "--tol-dual", "-o", "--N", "--vec", "--frames",
    "--indices", "--max-remove", "--criterion", "--n", "--dims", "--rank-k", "--seed", "--bogus",
    "0", "1", "2", "-1", "0.5", "1e-3", "nan", "inf", "x", "2,1,2", "-1,6", "",
)
UNOFFERED = (("--tol-dual", "1e-6"), ("--tol-rank", "0.5"), ("--bogus",), ("--N", "2"))
# A stream that fails: full (every write raises OSError) or closed (None).
FAULTS = tuple((name, how) for name in ("stdout", "stderr") for how in ("full", "closed"))

VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6), st.floats(-1e6, 1e6),
    st.sampled_from([math.nan, math.inf, -math.inf]), st.text(max_size=3),
    st.lists(st.floats(-1e6, 1e6), max_size=3), st.just({}),
)


@pytest.fixture(scope="module")
def base_texts(tmp_path_factory) -> dict:
    """The text of each valid input file: a system, an approximate dual of
    it, a target in range(K) and frame families for its blocks."""
    tmp = tmp_path_factory.mktemp("fuzz")
    ksys = random_kg_system(4, [2, 1, 2], 2, 3)
    paths = {key: tmp / f"{key.lower()}.json" for key in INPUTS}
    save_system(ksys, paths["SYS"])
    save_system(KGSystem(perturbed_dual(ksys, 0.3, seed=1), ksys.k), paths["CAND"])
    save_vector(ksys.k @ np.ones(4), paths["VEC"])
    save_frame_family(random_frame_family(ksys.system.block_dims, seed=2), paths["FAMS"])
    return {key: path.read_text() for key, path in paths.items()}


def _nodes(value, path=()):
    """The key/index path of every value below the root of a JSON document."""
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from _nodes(item, path + (key,))


def _mutate_json(doc, data):
    """``doc`` with one value deleted, duplicated in its list, or replaced."""
    path = data.draw(st.sampled_from(list(_nodes(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = data.draw(st.sampled_from(["delete", "duplicate", "replace"]))
    if action == "delete":
        del parent[key]
    elif action == "duplicate" and isinstance(parent, list):
        parent.insert(key, parent[key])
    else:
        parent[key] = data.draw(VALUES)
    return doc


def _mutate_argv(argv, data):
    """``argv`` with one token dropped, duplicated or replaced, or with a flag
    that the command may not offer added at the end."""
    action = data.draw(st.sampled_from(["drop", "duplicate", "replace", "flag"]))
    if action == "flag":
        return [*argv, *data.draw(st.sampled_from(UNOFFERED))]
    if not argv:
        return argv
    i = data.draw(st.integers(0, len(argv) - 1))
    if action == "drop":
        return argv[:i] + argv[i + 1:]
    if action == "duplicate":
        return argv[:i + 1] + argv[i:]
    return argv[:i] + [data.draw(st.sampled_from(TOKENS))] + argv[i + 1:]


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_every_outcome_is_a_report_or_one_typed_error_report(base_texts, data):
    # either one input file, and a command line that reads it, or the command line
    mutated = data.draw(st.sampled_from((None, *INPUTS)))
    argv = list(data.draw(st.sampled_from([line for line in COMMAND_LINES
                                           if mutated is None or mutated in line])))
    texts = dict(base_texts)
    if mutated is None:
        for _ in range(data.draw(st.integers(1, 2))):
            argv = _mutate_argv(argv, data)
    else:
        texts[mutated] = json.dumps(_mutate_json(json.loads(texts[mutated]), data), indent=1)

    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: str(Path(tmp) / f"{key.lower()}.json") for key in (*INPUTS, "OUT", "MISSING")}
        paths["DIR"] = tmp
        argv = [paths.get(token, token) for token in argv]

        def run(fault):
            """Exit code, stdout and stderr of ``main`` on fresh input files."""
            for key in INPUTS:
                Path(paths[key]).write_text(texts[key])
            for key in ("OUT", "MISSING"):
                Path(paths[key]).unlink(missing_ok=True)
            streams = {"stdout": io.StringIO(), "stderr": io.StringIO()}
            if fault is not None:
                streams[fault[0]] = FullStream() if fault[1] == "full" else None
            with contextlib.redirect_stdout(streams["stdout"]), \
                    contextlib.redirect_stderr(streams["stderr"]):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    raise AssertionError(f"SystemExit({exc.code}) left main for {argv}") from exc
            return code, *(s.getvalue() if isinstance(s, io.StringIO) else None
                           for s in streams.values())

        code, out, err = run(None)
        assert code in (0, 1, 2), argv
        if code == 0:
            assert err == ""
            args = cli.build_parser().parse_args(argv)
            if args.output is None or cli._COMMANDS[args.command][4]:
                text = out
            else:
                assert out == ""
                text = Path(args.output).read_text()
            jsonschema.validate(json.loads(text), REPORT_FILE_SCHEMA)
        else:
            assert out == ""
            _check_error_report(err, code, argv)
        # a run that succeeded runs again with each failing stream, any other one time in four
        faults = FAULTS if code == 0 else (data.draw(st.sampled_from((None,) * 12 + FAULTS)),)
        for fault in filter(None, faults):
            faulty_code, faulty_out, faulty_err = run(fault)
            if fault[0] == "stdout" and code == 0 and out:
                assert faulty_code == 2, argv
                message = _check_error_report(faulty_err, faulty_code, argv)["error"]["message"]
                assert message.startswith("cannot write stdout: "), (argv, message)
            else:
                assert faulty_code == code, (argv, fault)
                if fault[0] == "stdout":  # nothing was written to stdout
                    assert faulty_err == err, argv
                else:
                    assert (faulty_out == "") == (out == ""), argv


def _check_error_report(err: str, code: int, argv) -> dict:
    """``err`` is one error document whose error type sets exit ``code``."""
    report = json.loads(err)
    assert err == json.dumps(report, indent=1) + "\n"  # one document
    assert report["version"] == REPORT_SCHEMA_VERSION
    kind = getattr(errors, report["error"]["type"], None)
    expected = errors.InputError if code == 2 else errors.ComputationError
    assert isinstance(kind, type) and issubclass(kind, expected), (argv, report)
    return report
