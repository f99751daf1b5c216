"""The four benchmark workloads: inputs from the seed, one request, its checks.

Each workload is one client sending requests in a closed loop. Request ``i``
uses input variant ``i % cycle``, so every run of a seed sees the same
inputs, and per-request means taken over whole cycles repeat exactly.

Every request is checked twice: against independent plain-numpy oracles
computed once per run (``check``), and, for the pinned seeds, against the
reference values kept in ``references.json`` (``summary``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from kgframes import constructions, duals, gsystem, redundancy, serialization
from tracer import load_spans

NUM_STEPS = 50
PERTURB_DEFECT = 0.5
# The neumann_stream candidate is the canonical dual scaled by this factor,
# which makes the defect exactly 1 - 0.05 = 0.95 and every error geometric.
STREAM_SCALE = 0.05
MAX_REMOVE = 2

# Tolerances of the checks. The bisection oracle runs with a tighter PSD
# slack and precision than its defaults, which would leave a relative error
# of 2e-4 on the small bounds of reduced erasure systems; what remains is
# below 3e-7 there, hence the looser relative tolerance for kg_lower.
BISECT = {"psd_tol": 1e-13, "rel_precision": 1e-15}
EIG_RTOL = 1e-9
KG_RTOL = 1e-5
DEFECT_ATOL = 1e-8
EXACT_DEFECT = 1e-8
ENVELOPE_SLACK = 1e-9
GEOMETRIC_RTOL = 1e-6
PIN_RTOL = 1e-6

SIZES = {
    "full": {
        "cli_files": (128, [8] * 32, 64),
        "lib_analyze": (128, [8] * 32, 64),
        "erasure_sweep": (24, [2] * 13, 8),
        "neumann_stream": (64, [1] * 256, 32),
    },
    "tiny": {
        "cli_files": (16, [8] * 4, 8),
        "lib_analyze": (16, [8] * 4, 8),
        "erasure_sweep": (6, [2] * 4, 2),
        "neumann_stream": (8, [1] * 16, 4),
    },
}


def _range_vector(rng: np.random.Generator, k: np.ndarray) -> np.ndarray:
    """Unit vector of range(K)."""
    n = k.shape[1]
    v = k @ ((rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0))
    return v / np.linalg.norm(v)


class SystemOracle:
    """Plain-numpy reference quantities of one K-g-system."""

    def __init__(self, ksys, oracles) -> None:
        s = oracles.frame_operator_of(ksys.system)
        k = np.array(ksys.k)
        evals = np.linalg.eigvalsh(s)
        self.bessel = float(evals[-1])
        self.g_lower = float(evals[0])
        self.kg_lower = oracles.bisect_kg_lower_bound(s, k, **BISECT)
        self.projector = k @ np.linalg.pinv(k, rcond=1e-10)
        self.stacked = np.vstack(ksys.system.blocks)
        is_g = self.g_lower > 1e-10 * self.bessel
        tight_g = is_g and self.bessel - self.g_lower <= 1e-8 * self.bessel
        if is_g:
            self.label = "tight_g_frame" if tight_g else "g_frame"
        elif oracles.range_inclusion_oracle(s, k):
            kk = k @ k.conj().T
            tight = np.linalg.norm(s - self.kg_lower * kk) <= 1e-6 * np.linalg.norm(s)
            self.label = "tight_kg_frame" if tight else "kg_frame"
        else:
            self.label = "g_bessel_only"

    def defect(self, candidate) -> float:
        """||(I - L^* T) P|| from the stacked blocks, without the library."""
        m = self.stacked.conj().T @ np.vstack(candidate.blocks)
        eye = np.eye(m.shape[0])
        return float(np.linalg.norm((eye - m) @ self.projector, 2))

    def bound_problems(self, bessel, g_lower, kg_lower, where: str) -> list[str]:
        out = []
        if not _close(bessel, self.bessel, EIG_RTOL):
            out.append(f"{where}: bessel {bessel!r} != oracle {self.bessel!r}")
        if not _close(g_lower, self.g_lower, EIG_RTOL, atol=EIG_RTOL * self.bessel):
            out.append(f"{where}: g_lower {g_lower!r} != oracle {self.g_lower!r}")
        if kg_lower is None or not _close(kg_lower, self.kg_lower, KG_RTOL):
            out.append(f"{where}: kg_lower {kg_lower!r} != oracle {self.kg_lower!r}")
        return out


def _close(a, b, rtol: float, atol: float = 0.0) -> bool:
    return a is not None and abs(a - b) <= atol + rtol * abs(b)


def _envelope_problems(errors, predicted) -> list[str]:
    """For a unit target: errors stay under the geometric envelope, and the
    iteration stops early only once the error is below 1e-12."""
    out = []
    for n, (err, bound) in enumerate(zip(errors, predicted)):
        if err > bound * (1 + ENVELOPE_SLACK) + ENVELOPE_SLACK:
            out.append(f"error {err!r} above predicted_bound {bound!r} at step {n}")
            break
    steps = len(errors) - 1
    if steps < NUM_STEPS and errors[-1] > 1e-12:
        out.append(f"stopped after {steps} steps with error {errors[-1]!r}")
    return out


class Workload:
    """Base class: ``setup`` builds the inputs, ``request`` is timed."""

    name = ""
    cycle = 1
    warmup = (0,)
    # Set-up is repeated, spread over the timed phase, and its fastest repeat
    # reported, which a slow stretch of the host moves least; nine repeats for
    # a sub-second set-up, three bound the CLI's run time.
    setup_repeats = 9

    def __init__(self, seed: int, scale: str, workdir: Path, oracles) -> None:
        self.seed = seed
        self.size = SIZES[scale][self.name]
        self.workdir = workdir
        self.oracles = oracles
        self.tracer = None

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Compute the oracle values the checks compare against (untimed)."""

    def request(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> list[str]:
        raise NotImplementedError

    def summary(self, i: int, result) -> dict:
        raise NotImplementedError

    def cli_metrics(self, requests) -> dict:
        return {"cli.startup_ms": 0.0, "cli.report_bytes": 0.0}

    def _system(self, sub_seed: int):
        n, dims, rank = self.size
        return constructions.random_kg_system(n, dims, rank, sub_seed)


class LibAnalyze(Workload):
    """Bounds, the three dual constructions and a reconstruction, in-process."""

    name = "lib_analyze"
    cycle = 4
    POOL = 2

    def setup(self) -> None:
        self.systems = [self._system(self.POOL * self.seed + j) for j in range(self.POOL)]
        self.targets = [
            _range_vector(np.random.default_rng([self.seed, r]), self.systems[r % self.POOL].k)
            for r in range(self.cycle)
        ]

    def prepare_checks(self) -> None:
        self.oracle = [SystemOracle(ks, self.oracles) for ks in self.systems]

    def request(self, i: int):
        r = i % self.cycle
        ksys = self.systems[r % self.POOL]
        cls = gsystem.classify(ksys)
        dual = duals.canonical_kg_dual(ksys)
        pert = duals.perturbed_dual(ksys, PERTURB_DEFECT, seed=r)
        cert = duals.approx_defect(ksys.system, pert, ksys.k)
        exact = duals.exactify_dual(ksys.system, pert, ksys.k)
        trace = duals.neumann_reconstruct(
            ksys.system, pert, ksys.k, self.targets[r], num_steps=NUM_STEPS)
        return cls, dual, pert, cert, exact, trace

    def check(self, i: int, result) -> list[str]:
        cls, dual, pert, cert, exact, trace = result
        oracle = self.oracle[i % self.cycle % self.POOL]
        b = cls.bounds
        out = oracle.bound_problems(b.bessel_upper_opt, b.g_lower_opt, b.kg_lower_opt, "classify")
        if cls.label.value != oracle.label:
            out.append(f"label {cls.label.value} != oracle {oracle.label}")
        if oracle.defect(dual) > EXACT_DEFECT:
            out.append(f"canonical dual defect {oracle.defect(dual)!r}")
        want = oracle.defect(pert)
        if abs(cert.defect - want) > DEFECT_ATOL:
            out.append(f"defect {cert.defect!r} != oracle {want!r}")
        if cert.is_exact_dual or not cert.is_approx_dual:
            out.append(f"certificate flags exact={cert.is_exact_dual} approx={cert.is_approx_dual}")
        if oracle.defect(exact) > EXACT_DEFECT:
            out.append(f"exactified defect {oracle.defect(exact)!r}")
        out += _envelope_problems(trace.errors, trace.predicted_bound)
        return out

    def summary(self, i: int, result) -> dict:
        cls, _, _, cert, _, trace = result
        return {
            "label": cls.label.value,
            "bessel": cls.bounds.bessel_upper_opt,
            "g_lower": cls.bounds.g_lower_opt,
            "kg_lower": cls.bounds.kg_lower_opt,
            "defect": cert.defect,
            "is_exact_dual": cert.is_exact_dual,
            "is_approx_dual": cert.is_approx_dual,
            "steps": len(trace.errors) - 1,
        }


class ErasureSweep(Workload):
    """Every removal of up to two blocks from a low-redundancy system."""

    name = "erasure_sweep"
    cycle = 4
    # Every system of the pool: one search is short, and its cost depends on
    # which system it runs on.
    warmup = tuple(range(cycle))

    def setup(self) -> None:
        self.systems = [self._system(self.cycle * self.seed + j) for j in range(self.cycle)]

    def prepare_checks(self) -> None:
        m = self.systems[0].system.num_blocks
        self.subsets = [c for r in range(MAX_REMOVE + 1)
                        for c in itertools.combinations(range(m), r)]
        self.expected = []
        for ksys in self.systems:
            k = np.array(ksys.k)
            survivors = {}
            for removed in self.subsets:
                kept = [b for j, b in enumerate(ksys.system.blocks) if j not in removed]
                s = self.oracles.frame_operator_of(gsystem.GSystem(ksys.ambient_dim, kept))
                if self.oracles.oracle_is_kg_frame(s, k):
                    survivors[removed] = self.oracles.bisect_kg_lower_bound(s, k, **BISECT)
            self.expected.append(survivors)

    def request(self, i: int):
        return redundancy.brute_force_erasure_search(self.systems[i % self.cycle], MAX_REMOVE)

    def check(self, i: int, reports) -> list[str]:
        expected = self.expected[i % self.cycle]
        if [r.removed for r in reports] != self.subsets:
            return [f"{len(reports)} reports not in enumeration order"]
        got = {r.removed for r in reports if r.survives}
        if got != set(expected):
            return [f"survivors {sorted(got)} != oracle {sorted(expected)}"]
        out = []
        for r in reports:
            if r.survives and not _close(r.actual_lower_bound, expected[r.removed], KG_RTOL):
                out.append(f"{r.removed}: bound {r.actual_lower_bound!r} != oracle {expected[r.removed]!r}")
        return out

    def summary(self, i: int, reports) -> dict:
        return {
            "survivors": [list(r.removed) for r in reports if r.survives],
            "survivor_bounds": [r.actual_lower_bound for r in reports if r.survives],
        }


class NeumannStream(Workload):
    """Fifty Neumann steps over many one-row blocks, per fresh target."""

    name = "neumann_stream"
    cycle = 1

    def setup(self) -> None:
        self.ksys = self._system(self.seed)
        dual = duals.canonical_kg_dual(self.ksys)
        self.candidate = gsystem.GSystem(
            self.ksys.ambient_dim, tuple(STREAM_SCALE * b for b in dual.blocks))

    def _target(self, i: int) -> np.ndarray:
        return _range_vector(np.random.default_rng([self.seed, i]), self.ksys.k)

    def request(self, i: int):
        return duals.neumann_reconstruct(
            self.ksys.system, self.candidate, self.ksys.k, self._target(i), num_steps=NUM_STEPS)

    def check(self, i: int, trace) -> list[str]:
        if len(trace.errors) != NUM_STEPS + 1:
            return [f"{len(trace.errors) - 1} steps, expected {NUM_STEPS}"]
        rate = 1.0 - STREAM_SCALE
        for n, (err, bound) in enumerate(zip(trace.errors, trace.predicted_bound)):
            want = rate ** (n + 1)
            if not (_close(err, want, GEOMETRIC_RTOL) and _close(bound, want, GEOMETRIC_RTOL)):
                return [f"step {n}: error {err!r}, bound {bound!r}, expected {want!r}"]
        return []

    def summary(self, i: int, trace) -> dict:
        return {"steps": len(trace.errors) - 1, "final_error": trace.errors[-1]}


class CliFiles(Workload):
    """One ``kgframes`` process per request over one seeded set of files."""

    name = "cli_files"
    # One file set, so that each command recurs every fourth request and its
    # fastest request over a run is taken from as many samples as possible.
    COMMANDS = ("bounds", "dual", "defect", "reconstruct")
    FILES = {key: f"{key}.json" for key in ("system", "candidate", "vector", "dual")}
    cycle = len(COMMANDS)
    warmup = tuple(range(cycle))
    setup_repeats = 3

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.launcher = Path(__file__).resolve().parent / "launch.py"
        self.startup_ns: dict[int, int] = {}
        self.report_bytes: dict[int, int] = {}

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        f = self.FILES
        self.ksys = self._system(self.seed)
        self.candidate = duals.perturbed_dual(self.ksys, PERTURB_DEFECT, seed=0)
        target = _range_vector(np.random.default_rng([self.seed, 0]), self.ksys.k)
        serialization.save_system(self.ksys, self.workdir / f["system"])
        serialization.save_system(gsystem.KGSystem(self.candidate, self.ksys.k),
                                  self.workdir / f["candidate"])
        serialization.save_vector(target, self.workdir / f["vector"])

    def prepare_checks(self) -> None:
        import jsonschema

        self.validate = jsonschema.Draft202012Validator(serialization.REPORT_FILE_SCHEMA).validate
        self.oracle = SystemOracle(self.ksys, self.oracles)
        self.oracle.candidate_defect = self.oracle.defect(self.candidate)
        self.digests = {key: _sha256(self.workdir / path)
                        for key, path in self.FILES.items() if key != "dual"}

    def argv(self, i: int) -> list[str]:
        f = self.FILES
        command = self.COMMANDS[i % self.cycle]
        if command == "bounds":
            return ["bounds", f["system"]]
        if command == "dual":
            return ["dual", f["system"], "-o", f["dual"]]
        if command == "defect":
            return ["defect", f["system"], f["candidate"]]
        return ["reconstruct", f["system"], f["candidate"], "--vec", f["vector"],
                "--N", str(NUM_STEPS)]

    def request(self, i: int):
        env = dict(os.environ)
        spans_path = self.workdir / f"spans{i % self.cycle}.jsonl"
        if self.tracer is not None:
            env["PERFBENCH_SPANS"] = str(spans_path)
        spawn_ns = time.monotonic_ns()
        proc = subprocess.run([sys.executable, str(self.launcher), *self.argv(i)],
                              cwd=self.workdir, env=env, capture_output=True)
        if self.tracer is not None and proc.returncode == 0:
            imported_ns, *spans = load_spans(spans_path)
            self.startup_ns[i] = imported_ns - spawn_ns
            self.tracer.add_child_spans(spans, i)
        self.report_bytes[i] = len(proc.stdout)
        return proc

    def check(self, i: int, proc) -> list[str]:
        if proc.returncode != 0:
            return [f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"]
        report = json.loads(proc.stdout)
        self.validate(report)
        oracle = self.oracle
        out = [f"input {key} digest mismatch" for key, entry in report["inputs"].items()
               if entry["sha256"] != self.digests[key]]
        p = report["payload"]
        kind = p["kind"]
        if kind == "bounds":
            out += oracle.bound_problems(p["bessel_upper_opt"], p["g_lower_opt"],
                                         p["kg_lower_opt"], "bounds")
        elif kind == "dual":
            if p["sha256"] != _sha256(self.workdir / self.FILES["dual"]):
                out.append("dual file digest differs from the report")
            if not p["certificate"]["is_exact_dual"]:
                out.append(f"canonical dual not exact: {p['certificate']}")
        elif kind == "defect":
            if abs(p["defect"] - oracle.candidate_defect) > DEFECT_ATOL:
                out.append(f"defect {p['defect']!r} != oracle {oracle.candidate_defect!r}")
            if p["is_exact_dual"] or not p["is_approx_dual"]:
                out.append(f"certificate flags {p}")
        elif kind == "reconstruct":
            if len(p["iterates"]) != p["steps"] + 1:
                out.append("iterate count differs from steps + 1")
            out += _envelope_problems(p["errors"], p["predicted_bound"])
        else:
            out.append(f"unexpected payload kind {kind!r}")
        return out

    def summary(self, i: int, proc) -> dict:
        p = json.loads(proc.stdout)["payload"]
        if p["kind"] == "bounds":
            return {key: p[key] for key in ("bessel_upper_opt", "g_lower_opt", "kg_lower_opt", "tight_kg")}
        if p["kind"] == "dual":
            cert = p["certificate"]
            return {key: cert[key] for key in ("is_exact_dual", "is_approx_dual")}
        if p["kind"] == "defect":
            return {key: p[key] for key in ("defect", "is_exact_dual", "is_approx_dual")}
        return {"steps": p["steps"]}

    def cli_metrics(self, requests) -> dict:
        r = max(len(requests), 1)
        return {
            "cli.startup_ms": sum(self.startup_ns.get(i, 0) for i in requests) / r / 1e6,
            "cli.report_bytes": sum(self.report_bytes.get(i, 0) for i in requests) / r,
        }


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


WORKLOADS = {w.name: w for w in (CliFiles, LibAnalyze, ErasureSweep, NeumannStream)}


def compare_pinned(actual, expected, where: str = "") -> list[str]:
    """Exact comparison except for floats, which match to ``PIN_RTOL``."""
    if isinstance(expected, float) and not isinstance(actual, bool) and isinstance(actual, (int, float)):
        return [] if math.isclose(actual, expected, rel_tol=PIN_RTOL, abs_tol=1e-12) else [
            f"{where}: {actual!r} != pinned {expected!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict) and expected.keys() == actual.keys():
        return [p for key in expected for p in compare_pinned(actual[key], expected[key], f"{where}.{key}")]
    if isinstance(expected, list) and isinstance(actual, list) and len(expected) == len(actual):
        return [p for n, (a, e) in enumerate(zip(actual, expected))
                for p in compare_pinned(a, e, f"{where}[{n}]")]
    return [] if actual == expected and type(actual) is type(expected) else [
        f"{where}: {actual!r} != pinned {expected!r}"]
