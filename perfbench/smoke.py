"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

Usage, from the root of a checkout: ``python3 perfbench/smoke.py``

It checks that
- every workload's untraced run emits every end-to-end metric of
  BENCHMARK.json with its unit, and no request fails;
- every workload's traced run emits every per-layer metric with its unit,
  and two traced runs of one seed give identical count metrics;
- a deliberately wrong pinned value makes requests fail (``failed`` > 0,
  ``correct`` false) without aborting the run, which tests the checker.
It exits 0 when all of this holds and prints what failed otherwise.
"""

import copy
import json
import subprocess
import sys

import run

SECONDS = "1"
# Per-layer metrics that are exact counts over whole input cycles.
EXACT = ("linops.decompositions", "linops.decomp_per_bounds", "duals.neumann_steps",
         "redundancy.subsets", "redundancy.survivor_ratio", "constructions.attempts_per_system",
         "serialization.bytes_read", "serialization.bytes_written")


def bench(workload: str, trace: int, references=run.REFERENCES) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", SECONDS, "--trace", str(trace), "--scale", "tiny",
         "--references", str(references)],
        capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def corrupt(value):
    """A pinned value the benchmark must reject."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 1.01 + 1
    if isinstance(value, str):
        return value + "_wrong"
    if isinstance(value, list):
        return [*value, value[0] if value else 0]
    return {key: corrupt(v) for key, v in value.items()}


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}
    references = json.loads(run.REFERENCES.read_text())
    wrong = copy.deepcopy(references)
    for name in run.WORKLOAD_NAMES:
        first = wrong[name]["tiny"][str(run.DEFAULT_SEED)][0]
        key = next(iter(first))
        first[key] = corrupt(first[key])
    run.WORK.mkdir(exist_ok=True)
    wrong_path = run.WORK / "references_wrong.json"
    wrong_path.write_text(json.dumps(wrong))

    problems = []
    for name in run.WORKLOAD_NAMES:
        try:
            plain = bench(name, 0)
            traced = [bench(name, 1), bench(name, 1)]
            broken = bench(name, 0, wrong_path)
        except (AssertionError, subprocess.TimeoutExpired, ValueError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        for kind, result in (("end_to_end", plain), ("per_layer", traced[0])):
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != units[kind]:
                problems.append(f"{name}: {kind} metrics or units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name}: {result['failed']} of {result['attempted']} requests failed")
        for key in units["per_layer"]:
            if key.endswith(".calls") or key in EXACT:
                a, b = (t["metrics"][key]["value"] for t in traced)
                if a != b:
                    problems.append(f"{name}: count metric {key} differs between traced runs: {a} vs {b}")
        if broken["correct"] or broken["failed"] == 0:
            problems.append(f"{name}: a wrong pinned value was not detected")
        print(f"{name}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
