"""End-to-end tests for the command-line driver."""

import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from kgframes import (
    GSystem,
    KGSystem,
    SubspaceFrameFamily,
    canonical_kg_dual,
    corner_projection_system,
    load_system,
    neumann_reconstruct,
    optimal_bounds,
    perturbed_dual,
    random_frame_family,
    random_kg_system,
    save_frame_family,
    save_system,
    save_vector,
)
from kgframes import cli, constructions, linops
from kgframes.cli import main
from kgframes.linops import DEFAULT_RANK_TOL, DUAL_EXACT_TOL
from kgframes.serialization import REPORT_FILE_SCHEMA

from oracles import FullStream, complex_gaussian, random_instance, random_range_vector

jsonschema = pytest.importorskip("jsonschema")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_report(out: str) -> dict:
    return json.loads(out)


def test_gen_bounds_round_trip_matches_library(tmp_path, capsys):
    path = tmp_path / "ex2.json"
    code, out, _ = run_cli(capsys, "gen", "example2", "--n", "6", "-o", str(path))
    assert code == 0
    payload = read_report(out)["payload"]
    assert payload["kind"] == "generate"
    assert payload["ambient_dim"] == 6

    code, out, _ = run_cli(capsys, "bounds", str(path))
    assert code == 0
    report = read_report(out)
    jsonschema.validate(report, REPORT_FILE_SCHEMA)
    rep = optimal_bounds(corner_projection_system(6))
    assert report["payload"]["bessel_upper_opt"] == rep.bessel_upper_opt
    assert report["payload"]["kg_lower_opt"] == rep.kg_lower_opt
    assert report["payload"]["tight_kg"] == rep.tight_kg
    assert "system" in report["inputs"]
    assert len(report["inputs"]["system"]["sha256"]) == 64


def test_gen_random_needs_dims_and_rank(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "random", "--n", "5", "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "InputError"


def test_gen_random_is_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "gen", "random", "--n", "5", "--dims", "2,2,2",
            "--rank-k", "3", "--seed", "11", "-o", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_classify_payload(tmp_path, capsys):
    path = tmp_path / "ex1.json"
    run_cli(capsys, "gen", "example1", "--n", "8", "-o", str(path))
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    payload = read_report(out)["payload"]
    assert payload["kind"] == "classify"
    assert payload["label"] == "tight_kg_frame"
    assert payload["k_star_lower_bound"] == 0.0
    assert payload["bounds"]["kg_lower_opt"] == pytest.approx(2.0, abs=1e-9)


def test_dual_writes_loadable_exact_dual(tmp_path, capsys):
    sys_path = tmp_path / "sys.json"
    dual_path = tmp_path / "dual.json"
    save_system(random_instance(101), sys_path)
    code, out, _ = run_cli(capsys, "dual", str(sys_path), "-o", str(dual_path))
    assert code == 0
    report = read_report(out)
    assert report["payload"]["certificate"]["is_exact_dual"] is True
    ksys = load_system(sys_path)
    dual = load_system(dual_path)
    expected = canonical_kg_dual(ksys)
    assert all(np.array_equal(a, b) for a, b in zip(dual.system.blocks, expected.blocks))


def test_defect_of_zero_candidate_reports_one(tmp_path, capsys):
    ksys = random_instance(102)
    sys_path = tmp_path / "sys.json"
    theta_path = tmp_path / "theta.json"
    save_system(ksys, sys_path)
    zero = GSystem(ksys.ambient_dim, tuple(np.zeros_like(b) for b in ksys.system.blocks))
    save_system(KGSystem(zero, ksys.k), theta_path)
    code, out, _ = run_cli(capsys, "defect", str(sys_path), str(theta_path))
    assert code == 0
    payload = read_report(out)["payload"]
    assert payload["defect"] == pytest.approx(1.0, abs=1e-9)
    assert payload["is_exact_dual"] is False

    code, _, err = run_cli(capsys, "exactify", str(sys_path), str(theta_path),
                           "-o", str(tmp_path / "fixed.json"))
    assert code == 1
    assert json.loads(err)["error"]["type"] == "NotApproxDualError"


def test_exactify_and_neumann_dual_write_certified_outputs(tmp_path, capsys):
    ksys = random_instance(103)
    cand = perturbed_dual(ksys, 0.5, seed=1)
    sys_path, cand_path = tmp_path / "sys.json", tmp_path / "cand.json"
    save_system(ksys, sys_path)
    save_system(KGSystem(cand, ksys.k), cand_path)

    code, out, _ = run_cli(capsys, "exactify", str(sys_path), str(cand_path),
                           "-o", str(tmp_path / "fixed.json"))
    assert code == 0
    assert read_report(out)["payload"]["certificate"]["defect"] <= 1e-9

    code, out, _ = run_cli(capsys, "neumann-dual", str(sys_path), str(cand_path),
                           "--N", "3", "-o", str(tmp_path / "trunc.json"))
    assert code == 0
    payload = read_report(out)["payload"]
    assert payload["num_terms"] == 3
    assert payload["certificate"]["defect"] <= 0.5**4 + 1e-9


def test_reconstruct_payload_matches_library_trace(tmp_path, capsys):
    ksys = random_instance(104)
    cand = perturbed_dual(ksys, 0.4, seed=2)
    rng = np.random.default_rng(3)
    f = random_range_vector(rng, ksys.k)
    sys_path, cand_path, vec_path = (
        tmp_path / "sys.json", tmp_path / "cand.json", tmp_path / "vec.json")
    save_system(ksys, sys_path)
    save_system(KGSystem(cand, ksys.k), cand_path)
    save_vector(f, vec_path)

    code, out, _ = run_cli(capsys, "reconstruct", str(sys_path), str(cand_path),
                           "--vec", str(vec_path), "--N", "10")
    assert code == 0
    payload = read_report(out)["payload"]
    trace = neumann_reconstruct(ksys.system, cand, ksys.k, f, num_steps=10)
    assert payload["errors"] == list(trace.errors)
    assert payload["predicted_bound"] == list(trace.predicted_bound)
    assert payload["errors"][-1] <= payload["errors"][0]


def test_reconstruct_rejects_vector_outside_range(tmp_path, capsys):
    ksys = corner_projection_system(6)
    sys_path, vec_path = tmp_path / "sys.json", tmp_path / "vec.json"
    dual_path = tmp_path / "dual.json"
    save_system(ksys, sys_path)
    run_cli(capsys, "dual", str(sys_path), "-o", str(dual_path))
    bad = np.zeros(6)
    bad[4] = 1.0
    save_vector(bad, vec_path)
    code, _, err = run_cli(capsys, "reconstruct", str(sys_path), str(dual_path),
                           "--vec", str(vec_path), "--N", "5")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "NotInRangeError"


def test_lift_command(tmp_path, capsys):
    ksys = random_instance(105)
    dual = canonical_kg_dual(ksys)
    fams = random_frame_family(ksys.system.block_dims, seed=7)
    sys_path, dual_path, fam_path = (
        tmp_path / "sys.json", tmp_path / "dual.json", tmp_path / "fams.json")
    save_system(ksys, sys_path)
    save_system(KGSystem(dual, ksys.k), dual_path)
    save_frame_family(fams, fam_path)
    code, out, _ = run_cli(capsys, "lift", str(sys_path), str(dual_path),
                           "--frames", str(fam_path))
    assert code == 0
    payload = read_report(out)["payload"]
    assert payload["residual"] <= 1e-9
    assert payload["restricted_defect"] <= 1e-8
    assert len(payload["vectors_e"]) == len(payload["vectors_f"])


def _ill_conditioned_lift_inputs(tmp_path):
    """A system, its canonical dual, and families whose first member is
    diag(1, 1e-6): its frame operator has eigenvalue ratio 1e-12."""
    ksys = random_kg_system(6, (2, 2, 2), 3, seed=4)
    paths = tuple(tmp_path / name for name in ("sys.json", "dual.json", "fams.json"))
    save_system(ksys, paths[0])
    save_system(KGSystem(canonical_kg_dual(ksys), ksys.k), paths[1])
    families = random_frame_family(ksys.system.block_dims, seed=4).families
    save_frame_family(SubspaceFrameFamily((np.diag([1.0, 1e-6]), *families[1:]), 1e-12, 1.0), paths[2])
    return paths


def test_lift_judges_frame_families_at_the_rank_tolerance(tmp_path, capsys):
    sys_path, dual_path, fam_path = _ill_conditioned_lift_inputs(tmp_path)
    lift = ("lift", str(sys_path), str(dual_path), "--frames", str(fam_path))
    code, out, _ = run_cli(capsys, *lift, "--tol-rank", "1e-14")
    assert code == 0
    assert read_report(out)["payload"]["residual"] <= 1e-9
    code, _, err = run_cli(capsys, *lift)
    assert code == 1
    assert json.loads(err)["error"]["type"] == "NotAFrameError"


def test_erase_invert_removing_every_block_does_not_survive(tmp_path, capsys):
    # T = I - S^{-1} S is rounding noise: judged on the scale of I, not on its own
    path = tmp_path / "sys.json"
    run_cli(capsys, "gen", "random", "--n", "12", "--dims", "3,3,3,3,3",
            "--rank-k", "5", "--seed", "1", "-o", str(path))
    code, out, _ = run_cli(capsys, "erase", str(path), "--indices", "0", "1", "2", "3", "4",
                           "--criterion", "invert")
    assert code == 0
    payload = read_report(out)["payload"]
    assert payload["survives"] is False
    assert payload["predicted_lower_bound"] is None
    assert payload["actual_lower_bound"] is None


def test_erase_single_and_search(tmp_path, capsys):
    path = tmp_path / "ex2.json"
    run_cli(capsys, "gen", "example2", "--n", "6", "-o", str(path))

    code, out, _ = run_cli(capsys, "erase", str(path), "--indices", "0",
                           "--criterion", "brute")
    assert code == 0
    payload = read_report(out)["payload"]
    assert payload["survives"] is False
    assert payload["criterion"] == "bruteForce"

    code, out, _ = run_cli(capsys, "erase", str(path), "--max-remove", "1",
                           "--criterion", "brute")
    assert code == 0
    payload = read_report(out)["payload"]
    assert payload["kind"] == "erase_search"
    assert [tuple(r["removed"]) for r in payload["reports"]] == [(), (0,), (1,)]

    # criterion preconditions fail mathematically on this system
    code, _, err = run_cli(capsys, "erase", str(path), "--indices", "1",
                           "--criterion", "invert")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "FrameOperatorSingularError"
    code, _, err = run_cli(capsys, "erase", str(path), "--indices", "1",
                           "--criterion", "norm")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "KStarNotBoundedBelowError"


def test_erase_argument_validation(tmp_path, capsys):
    path = tmp_path / "ex2.json"
    run_cli(capsys, "gen", "example2", "--n", "6", "-o", str(path))
    code, _, err = run_cli(capsys, "erase", str(path), "--criterion", "brute")
    assert code == 2
    code, _, err = run_cli(capsys, "erase", str(path), "--indices", "0",
                           "--max-remove", "1", "--criterion", "brute")
    assert code == 2
    code, _, err = run_cli(capsys, "erase", str(path), "--max-remove", "1",
                           "--criterion", "norm")
    assert code == 2


def test_erase_invertibility_on_healthy_system(tmp_path, capsys):
    path = tmp_path / "sys.json"
    save_system(random_instance(106), path)
    code, out, _ = run_cli(capsys, "erase", str(path), "--indices", "0",
                           "--criterion", "invert")
    assert code == 0
    payload = read_report(out)["payload"]
    assert payload["criterion"] == "invertibility"
    assert isinstance(payload["survives"], bool)


@pytest.mark.parametrize("index, survives", [(0, False), (1, True)])
def test_erase_invert_on_a_g_frame_with_zero_k(tmp_path, capsys, index, survives):
    # every A > 0 serves for K = 0: the criterion answers, and guarantees no bound
    r = np.random.default_rng(0)
    g = lambda d: r.standard_normal((d, 4)) + 1j * r.standard_normal((d, 4))
    path = tmp_path / "sys.json"
    save_system(KGSystem(GSystem(4, (g(4), g(2))), np.zeros((4, 4))), path)
    code, out, err = run_cli(capsys, "erase", str(path), "--indices", str(index), "--criterion", "invert")
    assert code == 0, err
    payload = read_report(out)["payload"]
    assert payload["survives"] is survives
    assert payload["predicted_lower_bound"] is None
    assert (payload["predicted_lower_bound_stated"] is not None) == survives


def test_erase_honours_tol_rank(tmp_path, capsys):
    # S = diag(1, 1e-4): invertible at the default rank tolerance, not at 1e-3
    blocks = (np.array([[1.0, 0.0]]), np.array([[0.0, 1e-2]]), np.zeros((1, 2)))
    path = tmp_path / "sys.json"
    save_system(KGSystem(GSystem(2, blocks), np.eye(2)), path)
    erase = ("erase", str(path), "--indices", "2", "--criterion")
    code, out, _ = run_cli(capsys, *erase, "brute")
    assert code == 0 and read_report(out)["payload"]["survives"] is True
    code, out, _ = run_cli(capsys, *erase, "brute", "--tol-rank", "1e-3")
    assert code == 0 and read_report(out)["payload"]["survives"] is False
    code, out, _ = run_cli(capsys, *erase, "invert")
    assert code == 0 and read_report(out)["payload"]["survives"] is True
    code, _, err = run_cli(capsys, *erase, "invert", "--tol-rank", "1e-3")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "FrameOperatorSingularError"
    search = ("erase", str(path), "--max-remove", "0", "--criterion", "brute")
    code, out, _ = run_cli(capsys, *search, "--tol-rank", "1e-3")
    assert [r["survives"] for r in read_report(out)["payload"]["reports"]] == [False]
    # S = diag(1, 1 + 1e-4) is invertible at 1e-3, but removing block 1 gives
    # T = diag(1, ~1e-4): the invertibility criterion cuts T's rank at the
    # same tolerance, so it agrees with brute force on either side of 1e-4
    blocks = (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.array([[0.0, 1e-2]]))
    save_system(KGSystem(GSystem(2, blocks), np.eye(2)), path)
    erase = ("erase", str(path), "--indices", "1", "--criterion")
    for tol, survives in (("1e-10", True), ("1e-3", False)):
        for criterion in ("brute", "invert"):
            code, out, _ = run_cli(capsys, *erase, criterion, "--tol-rank", tol)
            assert code == 0 and read_report(out)["payload"]["survives"] is survives


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("bounds", "SYS", "--tol-rank", "nan"), "--tol-rank"),
        (("reconstruct", "SYS", "SYS", "--vec", "VEC", "--tol-rank", "inf"), "--tol-rank"),
        (("classify", "SYS", "--tol-rank", "-1"), "--tol-rank"),
        (("defect", "SYS", "SYS", "--tol-dual", "nan"), "--tol-dual"),
        (("defect", "SYS", "SYS", "--tol-dual=-1e-9"), "--tol-dual"),
        (("neumann-dual", "SYS", "SYS", "--N", "-1", "-o", "OUT"), "--N"),
        (("reconstruct", "SYS", "SYS", "--vec", "VEC", "--N", "-3"), "--N"),
    ],
)
def test_unusable_tolerances_and_step_counts_are_input_errors(tmp_path, capsys, argv, flag):
    # the input files do not exist: the arguments are rejected before any read
    paths = {"SYS": str(tmp_path / "sys.json"), "VEC": str(tmp_path / "v.json"),
             "OUT": str(tmp_path / "out.json")}
    code, out, err = run_cli(capsys, *(paths.get(a, a) for a in argv))
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "InputError"
    assert error["message"].startswith(flag)
    assert not (tmp_path / "out.json").exists()


# One run of each command over files from _command_files, the tolerances it
# reads (--tol-rank everywhere but gen, --tol-dual where a dual is certified)
# and the fixed thresholds its path reads.
_TOLERANCE_CASES = {
    "gen": (("gen", "example1", "--n", "8", "-o", "OUT"), (), ("range_inclusion",)),
    "bounds": (("bounds", "SYS"), ("rank",), ("range_inclusion", "tight")),
    "classify": (("classify", "SYS"), ("rank",), ("range_inclusion", "tight")),
    "dual": (("dual", "SYS", "-o", "OUT"), ("rank", "dual"), ("range_inclusion",)),
    "defect": (("defect", "SYS", "CAND"), ("rank", "dual"), ()),
    "exactify": (("exactify", "SYS", "CAND", "-o", "OUT"), ("rank", "dual"), ()),
    "neumann-dual": (("neumann-dual", "SYS", "CAND", "--N", "2", "-o", "OUT"), ("rank", "dual"), ()),
    "reconstruct": (("reconstruct", "SYS", "CAND", "--vec", "VEC"), ("rank",), ("range_inclusion", "neumann_stop")),
    "lift": (("lift", "SYS", "CAND", "--frames", "FAMS"), ("rank",), ()),
    "erase": (("erase", "SYS", "--indices", "0", "--criterion", "brute"), ("rank",),
              ("range_inclusion", "survival", "unit_norm")),
}


def _command_files(tmp_path) -> dict:
    ksys = random_instance(104)
    paths = {key: str(tmp_path / f"{key.lower()}.json")
             for key in ("SYS", "CAND", "VEC", "FAMS", "OUT")}
    save_system(ksys, paths["SYS"])
    save_system(KGSystem(perturbed_dual(ksys, 0.4, seed=2), ksys.k), paths["CAND"])
    save_vector(random_range_vector(np.random.default_rng(3), ksys.k), paths["VEC"])
    save_frame_family(random_frame_family(ksys.system.block_dims, seed=7), paths["FAMS"])
    return paths


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_each_command_offers_checks_and_reports_only_the_tolerances_it_reads(
        tmp_path, capsys, monkeypatch, command):
    argv, reads, thresholds = _TOLERANCE_CASES[command]
    assert cli._COMMANDS[command][3] == reads
    assert cli._COMMANDS[command][5] == thresholds
    assert {case[1] for case in _THRESHOLD_CASES if case[0][0] == command} == set(thresholds)
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    help_text = capsys.readouterr().out
    for tol in ("rank", "dual"):
        assert (f"--tol-{tol}" in help_text) == (tol in reads)

    paths = _command_files(tmp_path)
    argv = [paths.get(a, a) for a in argv]
    for tol in {"rank", "dual"} - set(reads):
        # a flag the command does not offer is a usage error, before any write
        code, out, err = run_cli(capsys, *argv, f"--tol-{tol}", {"rank": "0.5", "dual": "1e-6"}[tol])
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "InputError"
        assert not os.path.exists(paths["OUT"])

    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    report = read_report(out)
    jsonschema.validate(report, REPORT_FILE_SCHEMA)
    defaults = {"rank": DEFAULT_RANK_TOL, "dual": DUAL_EXACT_TOL}
    assert report["tolerances"] == {tol: defaults[tol] for tol in reads}
    assert list(report) == ["version", "command", "inputs", "tolerances", "thresholds", "payload", "wall_time_s"]
    assert report["thresholds"] == {name: getattr(linops, cli._THRESHOLDS[name]) for name in thresholds}

    # a threshold the command does not list changes nothing in its payload;
    # DEFAULT_RANK_TOL and DUAL_EXACT_TOL still move the defaults of its flags
    for name in set(linops.THRESHOLDS) - {cli._THRESHOLDS[t] for t in thresholds}:
        for factor in (1e4, 1e-4):
            with monkeypatch.context() as m:
                m.setattr(linops, name, getattr(linops, name) * factor)
                code, out, err = run_cli(capsys, *argv)
            assert code == 0, (name, factor, err)
            assert read_report(out)["payload"] == report["payload"], (name, factor)


def _unitary(seed: int, n: int) -> np.ndarray:
    return np.linalg.qr(complex_gaussian(np.random.default_rng(seed), (n, n)))[0]


def _threshold_files(tmp_path) -> dict:
    """Seeded systems, each near one threshold, in a unitary basis; vectors; and an output path."""
    paths = {key: str(tmp_path / f"{key.lower()}.json")
             for key in ("NEAR", "TIGHT", "N3", "WEAK", "UNIT", "LOW", "LOWDUAL", "LOWPERT", "IN", "OFF", "OUT")}
    u = _unitary(31, 2)
    # range(K) = C^2, range(S) = span(e1): K's part outside range(S) is 1e-6 ||K||
    save_system(KGSystem(GSystem(2, (np.eye(2)[:1] @ u,)), u.conj().T @ np.diag([1.0, 1e-6]) @ u), paths["NEAR"])
    # S = diag(1, 1 + 1e-6) and K = I: tight at a relative distance of 1e-6
    save_system(KGSystem(GSystem(2, (np.diag([1.0, np.sqrt(1 + 1e-6)]) @ u,)), np.eye(2)), paths["TIGHT"])
    # dropping blocks 1 and 2 leaves a kernel e3 on which K's component is 0.05 ||K||
    u3 = _unitary(6, 3)
    rows = (np.eye(3)[:2], np.eye(3)[2:], np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2.0))
    save_system(KGSystem(GSystem(3, tuple(r @ u3 for r in rows)), u3.conj().T @ np.diag([1.0, 1.0, 0.05]) @ u3),
                paths["N3"])
    # dropping the zero block leaves S = diag(1, 1e-4): lower bound 1e-4 B
    weak = (np.eye(2)[:1] @ u, np.diag([0.0, 1e-2])[1:] @ u, np.zeros((1, 2)))
    save_system(KGSystem(GSystem(2, weak), np.eye(2)), paths["WEAK"])
    # unitary blocks, K = I, and block 0 of norm 1 + 1e-6
    unit = tuple((1 + 1e-6 if j == 0 else 1.0) * _unitary(40 + j, 2) for j in range(4))
    save_system(KGSystem(GSystem(2, unit), np.eye(2)), paths["UNIT"])
    low = random_kg_system(3, [2, 2], 2, seed=5)
    save_system(low, paths["LOW"])
    save_system(KGSystem(canonical_kg_dual(low), low.k), paths["LOWDUAL"])
    save_system(KGSystem(perturbed_dual(low, 0.5, seed=0), low.k), paths["LOWPERT"])
    left, _, _ = np.linalg.svd(np.asarray(low.k))
    target = left[:, :2] @ np.array([1.0, 2.0])
    save_vector(target, paths["IN"])
    # 1e-6 ||f|| outside range(K)
    save_vector(target + 1e-6 * np.linalg.norm(target) * left[:, 2], paths["OFF"])
    return paths


# For each command and each fixed threshold it lists: a command line over the
# files of _threshold_files, a value of the threshold that moves its verdict,
# and the payload field holding the verdict (None: the exit code).
_THRESHOLD_CASES = [
    # K's part outside range(S) is at most ||K||, so 1 admits the first draw
    (("gen", "random", "--n", "3", "--dims", "1,1", "--rank-k", "1", "-o", "OUT"), "range_inclusion", 1.0, None),
    (("bounds", "NEAR"), "range_inclusion", 1e-5, "kg_lower_opt"),
    (("bounds", "TIGHT"), "tight", 1e-5, "tight_kg"),
    (("classify", "NEAR"), "range_inclusion", 1e-5, "label"),
    (("classify", "TIGHT"), "tight", 1e-5, "label"),
    (("dual", "NEAR", "-o", "OUT"), "range_inclusion", 1e-5, None),
    (("reconstruct", "LOW", "LOWDUAL", "--vec", "OFF"), "range_inclusion", 1e-5, None),
    (("reconstruct", "LOW", "LOWPERT", "--vec", "IN"), "neumann_stop", 1e-3, "steps"),
    (("erase", "N3", "--indices", "1", "2", "--criterion", "brute"), "range_inclusion", 0.1, "survives"),
    (("erase", "WEAK", "--indices", "2", "--criterion", "brute"), "survival", 1e-3, "survives"),
    (("erase", "UNIT", "--indices", "0", "--criterion", "norm"), "unit_norm", 1e-5, None),
]


@pytest.mark.parametrize("argv, threshold, moved, field", _THRESHOLD_CASES,
                         ids=[f"{case[0][0]}-{case[1]}" for case in _THRESHOLD_CASES])
def test_each_listed_threshold_moves_a_verdict_of_its_command(tmp_path, capsys, monkeypatch,
                                                              argv, threshold, moved, field):
    paths = _threshold_files(tmp_path)
    argv = [paths.get(a, a) for a in argv]
    name = cli._THRESHOLDS[threshold]
    verdicts = []
    for value in (getattr(linops, name), moved):
        monkeypatch.setattr(linops, name, value)
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 1), err
        if code == 0:
            assert read_report(out)["thresholds"][threshold] == value
        verdicts.append(code if field is None else read_report(out)["payload"][field])
    assert verdicts[0] != verdicts[1], verdicts


def test_zero_rank_tolerance_means_machine_precision(tmp_path, capsys):
    path = tmp_path / "chain.json"
    run_cli(capsys, "gen", "example1", "--n", "8", "-o", str(path))
    payloads = []
    for tol in ("0", "1e-300"):
        code, out, _ = run_cli(capsys, "classify", str(path), "--tol-rank", tol)
        assert code == 0
        payloads.append(read_report(out)["payload"])
    assert payloads[0] == payloads[1]
    assert payloads[0]["label"] == "tight_kg_frame"


def test_zero_dual_tolerance_and_zero_steps_are_accepted(tmp_path, capsys):
    ksys = random_instance(104)
    sys_path, dual_path, vec_path = (tmp_path / name for name in ("sys.json", "dual.json", "v.json"))
    save_system(ksys, sys_path)
    save_system(KGSystem(canonical_kg_dual(ksys), ksys.k), dual_path)
    save_vector(random_range_vector(np.random.default_rng(0), ksys.k), vec_path)
    code, out, _ = run_cli(capsys, "defect", str(sys_path), str(dual_path), "--tol-dual", "0")
    assert code == 0
    code, out, _ = run_cli(capsys, "reconstruct", str(sys_path), str(dual_path),
                           "--vec", str(vec_path), "--N", "0")
    assert code == 0
    assert read_report(out)["payload"]["steps"] == 0


@pytest.mark.parametrize(
    "argv, needle",
    [
        (("gen", "random", "--n", "8", "--dims", "2,2,2,2,2", "--rank-k", "3",
          "-o", "MISSING/x.json"), "cannot write"),
        (("bounds", "SYS", "-o", "MISSING/r.json"), "cannot write"),
        (("gen", "random", "--n", "8", "--dims", "a,b", "--rank-k", "3", "-o", "OUT"), "--dims"),
        (("gen", "random", "--n", "8", "--dims", "2,2,2,2,2", "--rank-k", "3",
          "--seed", "-5", "-o", "OUT"), "--seed"),
    ],
)
def test_unwritable_outputs_and_malformed_gen_arguments_are_input_errors(
    tmp_path, capsys, argv, needle
):
    sys_path = tmp_path / "sys.json"
    save_system(random_instance(109), sys_path)
    paths = {"SYS": str(sys_path), "OUT": str(tmp_path / "out.json")}
    argv = [paths.get(a, a.replace("MISSING", str(tmp_path / "missing"))) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "InputError"
    assert error["message"].startswith(needle)
    assert not (tmp_path / "out.json").exists()
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("option", ["--dims", "--dim"])
def test_a_dims_value_with_a_leading_minus_is_checked_like_any_other(tmp_path, capsys, option):
    # argparse reads a spaced "-1,6" as an option, not as the value of --dims
    out_path = str(tmp_path / "x.json")
    tail = ("--rank-k", "2", "-o", out_path)
    code, out, spaced = run_cli(capsys, "gen", "random", "--n", "4", option, "-1,6", *tail)
    assert code == 2 and out == ""
    spaced = json.loads(spaced)
    assert spaced["error"] == {"type": "InputError", "message": "argument --dims: expected one argument"}
    assert spaced["command"][4:6] == [option, "-1,6"]  # the command as given
    code, out, joined = run_cli(capsys, "gen", "random", "--n", "4", f"{option}=-1,6", *tail)
    assert code == 2 and out == ""
    assert json.loads(joined)["error"]["type"] == "BadDimError"
    assert not (tmp_path / "x.json").exists()


def test_input_digest_is_of_the_file_read_when_the_output_replaces_it(tmp_path, capsys):
    path = tmp_path / "sys.json"
    save_system(random_instance(110), path)
    read = hashlib.sha256(path.read_bytes()).hexdigest()
    code, out, _ = run_cli(capsys, "dual", str(path), "-o", str(path))
    assert code == 0
    report = read_report(out)
    written = hashlib.sha256(path.read_bytes()).hexdigest()
    assert written != read
    assert report["inputs"]["system"]["sha256"] == read
    assert report["payload"]["sha256"] == written


def test_an_input_too_large_for_memory_is_one_input_error_document(tmp_path, capsys, monkeypatch):
    def system_text(n):
        return json.dumps({"version": "kgframes.system/1", "ambient_dim": n, "field": "complex", "blocks": []})

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 GiB")

    huge, small, out_path = tmp_path / "huge.json", tmp_path / "small.json", tmp_path / "out.json"
    huge.write_text(system_text(10**9))  # numpy refuses its identity K before allocating
    small.write_text(system_text(3))
    code, out, err = run_cli(capsys, "bounds", str(huge))
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "ParseError" and "ambient_dim 1000000000" in error["message"]
    with monkeypatch.context() as m:
        m.setattr(np, "eye", no_memory)
        code, out, err = run_cli(capsys, "bounds", str(small))
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "ParseError" and "ambient_dim 3" in error["message"]
    monkeypatch.setattr(constructions, "overlap_chain_system", no_memory)
    code, out, err = run_cli(capsys, "gen", "example1", "--n", "8", "-o", str(out_path))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"type": "InputError", "message": "not enough memory: Unable to allocate 8.00 GiB"}
    assert not out_path.exists()


def test_missing_input_file_is_an_input_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "bounds", str(tmp_path / "absent.json"))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("edit, needle", [
    (lambda text: text.encode().replace(b'"complex"', b'"compl\xe9x"'), "not UTF-8"),
    (lambda text: ("[" * 100000).encode(), "nested too deeply"),
    (lambda text: text.replace('"ambient_dim": 3', '"ambient_dim": 2.7').encode(), "ambient_dim"),
    (lambda text: text.replace('"ambient_dim": 3', '"ambient_dim": "3"').encode(), "ambient_dim"),
    (lambda text: text.replace('"rows": 2', '"rows": 1.9').replace('"cols": 3', '"cols": "3"', 1)
     .encode(), "rows/cols"),
], ids=["not-utf8", "too-deep", "float-dim", "string-dim", "float-and-string-rows-cols"])
def test_malformed_input_files_are_parse_errors(tmp_path, capsys, edit, needle):
    path = tmp_path / "sys.json"
    save_system(KGSystem(GSystem(3, (np.ones((2, 3)),)), np.eye(3)), path)
    path.write_bytes(edit(path.read_text()))
    code, out, err = run_cli(capsys, "bounds", str(path))
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ParseError"
    assert needle in error["message"]
    assert err == json.dumps(json.loads(err), indent=1) + "\n"


def test_reports_and_written_files_are_the_stdlib_encoders_bytes(tmp_path, capsys):
    ksys = random_instance(108)
    sys_path, dual_path, vec_path, out_path = (
        tmp_path / name for name in ("sys.json", "dual.json", "vec.json", "report.json"))
    save_system(ksys, sys_path)
    save_vector(random_range_vector(np.random.default_rng(4), ksys.k), vec_path)
    code, out, _ = run_cli(capsys, "dual", str(sys_path), "-o", str(dual_path))
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=1) + "\n"
    text = dual_path.read_text()
    assert text == json.dumps(json.loads(text), indent=1) + "\n"
    code, out, _ = run_cli(capsys, "reconstruct", str(sys_path), str(dual_path),
                           "--vec", str(vec_path), "--N", "3", "-o", str(out_path))
    assert code == 0 and out == ""
    text = out_path.read_text()
    assert json.loads(text)["payload"]["iterates"]
    assert text == json.dumps(json.loads(text), indent=1) + "\n"


def test_unknown_subcommand_exits_two(capsys):
    code, out, err = run_cli(capsys, "frobnicate")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "InputError"


@pytest.mark.parametrize("argv", [
    ("bounds", "SYS", "--tol-dual", "1e-6"),
    ("gen", "example1", "-o", "OUT"),
    ("erase", "SYS", "--criterion", "foo", "--indices", "0"),
    ("frobnicate", "SYS"),
    (),
    ("neumann-dual", "SYS", "SYS", "--N", "x", "-o", "OUT"),
    ("erase", "SYS", "--indices", "0", "--max-remove", "1", "--criterion", "brute"),
    ("erase", "SYS", "--criterion", "brute", "-o", "OUT"),
    ("gen", "random", "--n", "4", "--dims", "-1,6", "--rank-k", "2", "-o", "OUT"),
], ids=["unoffered-flag", "missing-required", "bad-choice", "unknown-command", "no-command",
        "non-integer-N", "indices-and-max-remove", "neither-indices-nor-max-remove", "spaced-dims"])
def test_usage_errors_are_json_input_error_reports(tmp_path, capsys, argv):
    sys_path = tmp_path / "sys.json"
    save_system(random_instance(111), sys_path)
    paths = {"SYS": str(sys_path), "OUT": str(tmp_path / "out.json")}
    argv = [paths.get(a, a) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    report = json.loads(err)
    assert err == json.dumps(report, indent=1) + "\n"  # exactly one document
    assert report["version"] == "kgframes.report/1" and report["command"] == argv
    assert report["error"]["type"] == "InputError"
    assert not (tmp_path / "out.json").exists()


def test_a_report_that_cannot_be_written_to_stdout_is_an_input_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "sys.json"
    save_system(random_instance(112), path)
    monkeypatch.setattr(sys, "stdout", FullStream())
    code = main(["bounds", str(path)])
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "InputError"
    assert error["message"].startswith("cannot write stdout: ")


def _cli_process(*argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "kgframes.cli", *argv],
                          capture_output=True, timeout=60, **kwargs)


def _cli_process_with_a_failing_stream(fd, fault, *argv):
    """Run the CLI with descriptor ``fd`` (1 or 2) on /dev/full, on a pipe whose
    reader has gone, or closed, and the other one piped. stdout is
    block-buffered, as in a shell: the bytes it held must not be flushed again
    at exit, which would print a second message and exit 120."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if fault == "closed pipe":
        read_end, target = os.pipe()
        os.close(read_end)
    else:  # a "closed" descriptor is os.devnull until the child closes it, before the CLI starts
        target = os.open(fault if fault == "/dev/full" else os.devnull, os.O_WRONLY)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    streams["stdout" if fd == 1 else "stderr"] = target
    try:
        return subprocess.run([sys.executable, "-m", "kgframes.cli", *argv], env=env, timeout=60,
                              preexec_fn=(lambda: os.close(fd)) if fault == "closed" else None,
                              **streams)
    finally:
        os.close(target)


@pytest.mark.parametrize("fault", ["/dev/full", "closed pipe", "closed"])
def test_a_process_whose_stdout_fails_exits_two_with_one_error_document(tmp_path, fault):
    path = tmp_path / "sys.json"
    save_system(random_instance(112), path)
    proc = _cli_process_with_a_failing_stream(1, fault, "bounds", str(path))
    assert proc.returncode == 2, proc.stderr
    report = json.loads(proc.stderr)
    assert proc.stderr.decode() == json.dumps(report, indent=1) + "\n"  # exactly one document
    assert report["error"]["type"] == "InputError"
    assert report["error"]["message"].startswith("cannot write stdout: ")


@pytest.mark.parametrize("fault", ["/dev/full", "closed"])
def test_a_process_whose_stderr_fails_still_exits_by_the_error_type(tmp_path, fault):
    proc = _cli_process_with_a_failing_stream(2, fault, "bounds", str(tmp_path / "missing.json"))
    assert proc.returncode == 2
    assert proc.stdout == b""


def test_a_report_to_stderr_s_own_file_follows_what_the_file_held(tmp_path):
    # as `kgframes bounds sys.json -o /dev/stderr 2>> log`: a new open would truncate log
    sys_path, log = tmp_path / "sys.json", tmp_path / "log"
    save_system(random_instance(115), sys_path)
    log.write_text("an earlier line\n")
    stderr = os.open(log, os.O_WRONLY | os.O_APPEND)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kgframes.cli", "bounds", str(sys_path), "-o", "/dev/stderr"],
            stdout=subprocess.PIPE, stderr=stderr, timeout=60)
    finally:
        os.close(stderr)
    assert proc.returncode == 0 and proc.stdout == b""
    earlier, text = log.read_text().split("\n", 1)
    assert earlier == "an earlier line"
    assert json.loads(text)["payload"]["kind"] == "bounds"


def test_a_report_to_an_inherited_descriptor_follows_what_its_file_held(tmp_path):
    # as `kgframes bounds sys.json -o /dev/fd/3 3>> log`: a new open would truncate log
    sys_path, log = tmp_path / "sys.json", tmp_path / "log"
    save_system(random_instance(116), sys_path)
    log.write_text("an earlier line\n")
    fd = os.open(log, os.O_WRONLY | os.O_APPEND)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kgframes.cli", "bounds", str(sys_path), "-o", f"/dev/fd/{fd}"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=(fd,), timeout=60)
    finally:
        os.close(fd)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b""
    earlier, text = log.read_text().split("\n", 1)
    assert earlier == "an earlier line"
    assert json.loads(text)["payload"]["kind"] == "bounds"


def test_a_descriptor_past_any_c_int_is_a_path_that_cannot_be_written(tmp_path):
    path = tmp_path / "sys.json"
    save_system(random_instance(117), path)
    target = "/dev/fd/" + "9" * 20
    proc = _cli_process("bounds", str(path), "-o", target)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == b""
    report = json.loads(proc.stderr)
    assert proc.stderr.decode() == json.dumps(report, indent=1) + "\n"  # exactly one document
    assert report["error"]["type"] == "InputError"
    assert report["error"]["message"].startswith(f"cannot write {target}: ")


def test_a_system_written_to_stdout_is_digested_from_the_bytes_written(tmp_path):
    # the file is never read back: a pipe read back would be drained and then block
    path = tmp_path / "sys.json"
    save_system(random_instance(113), path)
    proc = _cli_process("dual", str(path), "-o", "/dev/stdout")
    assert proc.returncode == 0, proc.stderr
    text = proc.stdout.decode()
    _, end = json.JSONDecoder().raw_decode(text)
    system, report = text[:end + 1], json.loads(text[end + 1:])
    assert json.loads(system)["version"] == "kgframes.system/1"
    assert report["payload"]["sha256"] == hashlib.sha256(system.encode()).hexdigest()


@pytest.mark.parametrize("output, redirect", [
    ("/dev/stdout", ">"), ("/dev/stdout", ">>"), ("out.txt", ">"),
], ids=["dev_stdout_truncate", "dev_stdout_append", "same_file"])
def test_an_output_that_is_stdout_s_own_file_gets_the_system_then_the_report(
        tmp_path, output, redirect):
    # as `kgframes dual sys.json -o <output> <redirect> out.txt` in a shell, whose
    # stdout is block-buffered: a second open of the file would start at offset 0
    sys_path, out = tmp_path / "sys.json", tmp_path / "out.txt"
    save_system(random_instance(115), sys_path)
    out.write_text("an earlier line\n")
    flags = os.O_WRONLY | (os.O_APPEND if redirect == ">>" else os.O_TRUNC)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    stdout = os.open(out, flags)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kgframes.cli", "dual", str(sys_path),
             "-o", str(tmp_path / output) if output == "out.txt" else output],
            stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(stdout)
    assert proc.returncode == 0, proc.stderr
    text = out.read_text()
    earlier = "an earlier line\n" if redirect == ">>" else ""
    assert text.startswith(earlier)
    text = text[len(earlier):]
    system, end = json.JSONDecoder().raw_decode(text)
    report = json.loads(text[end + 1:])
    assert system["version"] == "kgframes.system/1"
    assert report["payload"]["kind"] == "dual"
    assert report["payload"]["sha256"] == hashlib.sha256(text[:end + 1].encode()).hexdigest()


@pytest.mark.parametrize("command, svds, eighs", [
    ("bounds", 1, 1), ("classify", 1, 1), ("dual", 1, 1), ("defect", 1, 0),
    ("exactify", 1, 0), ("neumann-dual", 1, 0), ("reconstruct", 1, 0),
])
def test_each_command_factors_k_once_and_s_only_if_it_reads_it(
        tmp_path, capsys, linalg_calls, command, svds, eighs):
    ksys = random_kg_system(8, [3, 3, 3, 3], 4, seed=1)
    sys_path, cand, vec, out = (str(tmp_path / f"{name}.json") for name in ("sys", "cand", "vec", "out"))
    save_system(ksys, sys_path)
    save_system(KGSystem(perturbed_dual(ksys, 0.5, seed=0), ksys.k), cand)
    save_vector(np.array(ksys.k) @ np.ones(8), vec)
    argv = {
        "bounds": [sys_path], "classify": [sys_path], "dual": [sys_path, "-o", out],
        "defect": [sys_path, cand], "exactify": [sys_path, cand, "-o", out],
        "neumann-dual": [sys_path, cand, "--N", "3", "-o", out],
        "reconstruct": [sys_path, cand, "--vec", vec],
    }[command]
    linalg_calls.clear()
    code, _, err = run_cli(capsys, command, *argv)
    assert code == 0, err
    factored = [call for call in linalg_calls if call[0] in ("svd", "eigh")]
    assert sorted(factored) == sorted([("svd", (8, 8), True)] * svds + [("eigh", (8, 8), None)] * eighs)


def test_an_input_that_is_not_a_regular_file_is_rejected(tmp_path):
    path = tmp_path / "sys.json"
    save_system(random_instance(114), path)
    data = path.read_bytes()
    piped = _cli_process("bounds", "/dev/stdin", input=data)
    assert piped.returncode == 2 and piped.stdout == b""
    error = json.loads(piped.stderr)["error"]
    assert error == {"type": "InputError",
                     "message": "/dev/stdin: not a regular file, so its digest cannot be taken"}
    with open(path, "rb") as fh:
        redirected = _cli_process("bounds", "/dev/stdin", stdin=fh)
    assert redirected.returncode == 0, redirected.stderr
    digest = json.loads(redirected.stdout)["inputs"]["system"]["sha256"]
    assert digest == hashlib.sha256(data).hexdigest()


def test_blocks_near_1e_minus_156_have_a_bound_and_an_invert_error(tmp_path, capsys):
    path = tmp_path / "tiny.json"
    save_system(KGSystem(GSystem(2, (1e-156 * np.eye(2), 1e-156 * np.eye(2))), np.eye(2)), path)
    code, out, err = run_cli(capsys, "bounds", str(path))
    assert code == 0, err
    payload = read_report(out)["payload"]
    assert payload["kg_lower_opt"] == payload["g_lower_opt"] > 0.0
    code, out, err = run_cli(capsys, "erase", str(path), "--indices", "1", "--criterion", "invert")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["type"] == "FloatRangeError"


@pytest.mark.parametrize("scale", [1e-160, 1e-200])
def test_a_bound_past_the_float_range_exits_one(tmp_path, capsys, scale):
    ksys = random_kg_system(4, [2, 1, 2], 2, 3)
    path = tmp_path / "smallk.json"
    save_system(KGSystem(ksys.system, scale * ksys.k), path)
    code, out, err = run_cli(capsys, "bounds", str(path))
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["type"] == "FloatRangeError"


def test_a_canonical_dual_past_the_float_range_exits_one(tmp_path, capsys):
    # blocks x 1e-160 leave S subnormal, and S^+ B overflows
    ksys = random_kg_system(4, [2, 1, 2], 2, 3)
    path = tmp_path / "tinyblocks.json"
    save_system(KGSystem(ksys.system.with_matrix(1e-160 * ksys.system.matrix), ksys.k), path)
    code, out, err = run_cli(capsys, "dual", str(path), "-o", str(tmp_path / "dual.json"))
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["type"] == "FloatRangeError"
    assert not (tmp_path / "dual.json").exists()


def _save_scaled_by_1e160(path) -> None:
    ksys = random_kg_system(4, [2, 1, 2], 2, 3)
    save_system(KGSystem(GSystem(4, tuple(1e160 * b for b in ksys.system.blocks)), ksys.k), path)


def test_bounds_of_a_system_scaled_by_1e160(tmp_path, capsys):
    path = tmp_path / "big.json"
    _save_scaled_by_1e160(path)
    code, out, err = run_cli(capsys, "bounds", str(path))
    assert (code, out) == (1, ""), err
    assert json.loads(err)["error"]["type"] == "FloatRangeError"


@pytest.mark.parametrize("args", [
    ("classify",), ("dual", "-o", "dual.json"), ("erase", "--max-remove", "1", "--criterion", "brute"),
    ("erase", "--indices", "0", "--criterion", "invert"),
], ids=["classify", "dual", "erase_brute", "erase_invert"])
def test_commands_on_a_system_scaled_by_1e160_report_a_float_range_error(tmp_path, capsys, args):
    path = tmp_path / "big.json"
    _save_scaled_by_1e160(path)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (1, ""), err
    assert json.loads(err)["error"]["type"] == "FloatRangeError"
    assert not (tmp_path / "dual.json").exists()


def test_neumann_dual_with_a_huge_term_cap_stops_with_the_bytes_of_a_small_one(tmp_path, capsys):
    ksys = random_kg_system(12, [3] * 5, 5, 1)
    sys_path, cand_path = tmp_path / "sys.json", tmp_path / "pert.json"
    save_system(ksys, sys_path)
    save_system(KGSystem(perturbed_dual(ksys, 0.5, seed=0), ksys.k), cand_path)
    outs = []
    for cap in ("5000", "100000000"):
        outs.append(tmp_path / f"nd_{cap}.json")
        code, _, err = run_cli(capsys, "neumann-dual", str(sys_path), str(cand_path), "--N", cap,
                               "-o", str(outs[-1]))
        assert code == 0, err
    assert outs[0].read_bytes() == outs[1].read_bytes()


def _strip_wall_time(text: str) -> str:
    return re.sub(r'^\s*"wall_time_s":.*$', "", text, flags=re.MULTILINE)


def test_reports_are_deterministic_modulo_wall_time(tmp_path, capsys):
    path = tmp_path / "ex1.json"
    run_cli(capsys, "gen", "example1", "--n", "8", "-o", str(path))
    _, out1, _ = run_cli(capsys, "bounds", str(path))
    _, out2, _ = run_cli(capsys, "bounds", str(path))
    assert _strip_wall_time(out1) == _strip_wall_time(out2)


def test_report_redirect_to_file(tmp_path, capsys):
    sys_path = tmp_path / "sys.json"
    out_path = tmp_path / "report.json"
    save_system(random_instance(107), sys_path)
    code, out, _ = run_cli(capsys, "bounds", str(sys_path), "-o", str(out_path))
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text())
    jsonschema.validate(report, REPORT_FILE_SCHEMA)


def test_console_script_end_to_end(tmp_path):
    path = tmp_path / "chain.json"
    gen = subprocess.run(
        [sys.executable, "-m", "kgframes.cli", "gen", "example1", "--n", "8",
         "-o", str(path)],
        capture_output=True, text=True,
    )
    assert gen.returncode == 0, gen.stderr
    bounds = subprocess.run(
        [sys.executable, "-m", "kgframes.cli", "bounds", str(path)],
        capture_output=True, text=True,
    )
    assert bounds.returncode == 0, bounds.stderr
    report = json.loads(bounds.stdout)
    assert report["payload"]["kg_lower_opt"] == pytest.approx(2.0, abs=1e-9)
