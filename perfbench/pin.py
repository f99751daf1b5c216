"""Regenerate references.json, the pinned per-request reference values.

Usage, from the root of a checkout: ``python3 perfbench/pin.py``

For every workload it runs one whole input cycle at the default seed and
the held-out seed (full sizes) and at the default seed (tiny sizes), checks
each result against the oracles, and stores the summaries the benchmark
compares later requests with. Re-pin only when a change is meant to alter
results, and say so where the change is described.
"""

import json
import sys

import run


def main() -> int:
    loaded = run.bootstrap()
    if loaded is None:
        return 2
    workloads, _, oracles = loaded
    pinned: dict = {}
    for scale, seeds in (("full", (run.DEFAULT_SEED, run.HELD_OUT_SEED)), ("tiny", (run.DEFAULT_SEED,))):
        for name in run.WORKLOAD_NAMES:
            for seed in seeds:
                wl = workloads.WORKLOADS[name](seed, scale, run.WORK / name, oracles)
                wl.setup()
                wl.prepare_checks()
                summaries = []
                for i in range(wl.cycle):
                    result = wl.request(i)
                    problems = wl.check(i, result)
                    if problems:
                        print(f"{name} {scale} seed {seed} request {i}: {problems}", file=sys.stderr)
                        return 1
                    summaries.append(wl.summary(i, result))
                pinned.setdefault(name, {}).setdefault(scale, {})[str(seed)] = summaries
    run.REFERENCES.write_text(json.dumps(pinned, indent=1) + "\n")
    print(f"wrote {run.REFERENCES.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
