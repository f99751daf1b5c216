"""Span recorder for the traced run, and the per-layer metrics built from it.

The tracer wraps the public functions of every kgframes module from the
outside. A module that bound a function by name at import time (for
example ``duals.analysis`` or ``redundancy.optimal_bounds``) holds its own
reference, so every attribute of every loaded ``kgframes`` module that is
the original function object is replaced, not only the defining one.
``GSystem``, ``KGSystem`` and ``BlockSequence`` construction is traced
through their ``__post_init__``, which holds the copy and the freeze.

A span is the list ``[name, start_ns, end_ns, parent, request, extra]``:
``parent`` is the index of the enclosing span in the same list (-1 for a
root), ``request`` the request id current when the span opened (None during
set-up) and ``extra`` a small dict of counts taken from the call. Spans stay
in memory and are written out once, at the end of the run. Times come from
``time.monotonic_ns``, which is CLOCK_MONOTONIC on Linux and therefore
comparable between a parent process and the CLI processes it spawns.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

import numpy as np

# Public functions wrapped per module. as_operator/as_vector are left out:
# they are argument coercions called once per block, and wrapping them would
# cost more than the work they do.
LAYERS = {
    "cli": ["main"],
    "serialization": [
        "load_system", "save_system", "load_vector", "save_vector",
        "load_frame_family", "save_frame_family", "file_digest",
    ],
    "gsystem": [
        "frame_operator", "optimal_bounds", "range_condition_holds", "classify",
        "analysis", "synthesis",
    ],
    "linops": [
        "adjoint", "inner", "op_norm", "svd_values", "hermitian_eigvals",
        "numerical_rank", "pinv", "range_projector", "psd_sqrt_pinv",
    ],
    "duals": [
        "mixed_operator", "canonical_kg_dual", "approx_defect", "is_kg_dual",
        "exactify_dual", "truncated_neumann_dual", "neumann_reconstruct",
        "perturbed_dual", "lift_to_vector_frames",
    ],
    "redundancy": [
        "partial_frame_operator", "reduced_system", "erasure_norm_count",
        "erasure_invertibility", "erasure_brute_report", "brute_force_erasure_search",
    ],
    "constructions": [
        "overlap_chain_system", "corner_projection_system", "random_kg_system",
        "scale_weights", "random_frame_family", "compose", "tight_relation_check",
    ],
}
CONSTRUCTED = ("GSystem", "KGSystem", "BlockSequence")
# Each call evaluates one erasure subset.
SUBSET_REPORTS = ("redundancy.erasure_brute_report", "redundancy.erasure_norm_count",
                  "redundancy.erasure_invertibility")


def _has_entries(args, kwargs) -> bool:
    a = np.asarray(args[0] if args else next(iter(kwargs.values())))
    return a.size > 0


def _has_nonzero(args, kwargs) -> bool:
    a = np.asarray(args[0] if args else next(iter(kwargs.values())))
    return a.size > 0 and bool(np.any(a))


# A call counts as one dense SVD or eigendecomposition when it reaches the
# numpy routine: every leaf below does exactly one, except on the empty (and,
# for pinv/range_projector, the all-zero) input, which returns early.
# numerical_rank is not listed because it decomposes through svd_values.
_DECOMPOSES = {
    "linops.op_norm": _has_entries,
    "linops.svd_values": _has_entries,
    "linops.hermitian_eigvals": _has_entries,
    "linops.psd_sqrt_pinv": _has_entries,
    "linops.pinv": _has_nonzero,
    "linops.range_projector": _has_nonzero,
}


def _path_arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _extra(name: str):
    """The function recording counts for a span, or None."""
    if name in _DECOMPOSES:
        test = _DECOMPOSES[name]
        return lambda args, kwargs, result: {"decomp": 1} if test(args, kwargs) else None
    if name in ("serialization.load_system", "serialization.load_vector",
                "serialization.load_frame_family", "serialization.file_digest"):
        return lambda args, kwargs, result: {
            "bytes_read": os.path.getsize(_path_arg(args, kwargs, 0, "path"))}
    if name in ("serialization.save_system", "serialization.save_vector",
                "serialization.save_frame_family"):
        return lambda args, kwargs, result: {
            "bytes_written": os.path.getsize(_path_arg(args, kwargs, 1, "path"))}
    if name == "duals.neumann_reconstruct":
        return lambda args, kwargs, result: {"steps": len(result.errors) - 1}
    if name in SUBSET_REPORTS:
        return lambda args, kwargs, result: {"survives": int(result.survives)}
    return None


class Tracer:
    """Records spans around kgframes calls while installed and enabled."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = None
        self.enabled = True
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        extra = _extra(name)
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.monotonic_ns()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function at every kgframes import site."""
        for layer in LAYERS:
            importlib.import_module(f"kgframes.{layer}")
        modules = [m for key, m in sys.modules.items()
                   if key == "kgframes" or key.startswith("kgframes.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"kgframes.{layer}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, orig))
        gsystem = sys.modules["kgframes.gsystem"]
        for cls_name in CONSTRUCTED:
            cls = getattr(gsystem, cls_name)
            orig = cls.__dict__["__post_init__"]
            cls.__post_init__ = self._wrap("gsystem.construct", orig)
            self._undo.append((cls, "__post_init__", orig))

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()

    def add_child_spans(self, child: list[list], request) -> None:
        """Append spans recorded by another process, re-basing parent indices."""
        base = len(self.spans)
        for name, start, end, parent, _, extra in child:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                               request, extra])

    def dump(self, path, header=()) -> None:
        """Write the ``header`` values, then the spans, one JSON value a line."""
        with open(path, "w") as fh:
            for value in header:
                fh.write(json.dumps(value) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def load_spans(path) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def per_layer_metrics(spans: list[list], requests: set) -> dict:
    """Per-request means of counts and self times over the given requests.

    Set-up spans (request None) feed only the ``constructions`` metrics,
    which are means per generated system. ``cli.startup_ms`` and
    ``cli.report_bytes`` are measured by the caller and not included here.
    """
    child_ns = [0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_ns[rec[3]] += rec[2] - rec[1]

    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    totals = {"decomp": 0, "bytes_read": 0, "bytes_written": 0, "steps": 0,
              "survives": 0, "subsets": 0, "subset_ns": 0, "linops_self_ns": 0,
              "bounds": 0, "decomp_in_bounds": 0, "neumann_apply_ns": 0,
              "neumann_applies": 0}
    gen_calls = gen_self_ns = gen_attempts = 0

    for i, (name, start, end, parent, request, extra) in enumerate(spans):
        own = end - start - child_ns[i]
        if request is None:
            if name == "constructions.random_kg_system":
                gen_calls += 1
                gen_self_ns += own
            elif (name == "gsystem.range_condition_holds" and parent >= 0
                    and spans[parent][0] == "constructions.random_kg_system"):
                gen_attempts += 1
            continue
        if request not in requests:
            continue
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own
        if name.startswith("linops."):
            totals["linops_self_ns"] += own
        if extra:
            for key, value in extra.items():
                totals[key] += value
            if "decomp" in extra and _has_ancestor(spans, i, "gsystem.optimal_bounds"):
                totals["decomp_in_bounds"] += 1
        if name == "gsystem.optimal_bounds":
            totals["bounds"] += 1
        elif name in SUBSET_REPORTS:
            totals["subsets"] += 1
            totals["subset_ns"] += end - start
        elif name == "duals.neumann_reconstruct":
            totals["neumann_apply_ns"] += end - start
            totals["neumann_applies"] += extra["steps"] + 1
        # Time per Neumann step: the reconstruct span minus its set-up
        # children (the defect certificate and the range projector), per
        # application of the mixed operator (one per step plus the first).
        if (name in ("duals.approx_defect", "linops.range_projector") and parent >= 0
                and spans[parent][0] == "duals.neumann_reconstruct"):
            totals["neumann_apply_ns"] -= end - start

    r = max(len(requests), 1)

    def n_calls(name):
        return calls.get(name, 0) / r

    def ms(name):
        return self_ns.get(name, 0) / r / 1e6

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    return {
        "cli.main.self_ms": ms("cli.main"),
        "serialization.load_system.calls": n_calls("serialization.load_system"),
        "serialization.load_system.self_ms": ms("serialization.load_system"),
        "serialization.save_system.calls": n_calls("serialization.save_system"),
        "serialization.save_system.self_ms": ms("serialization.save_system"),
        "serialization.load_vector.self_ms": ms("serialization.load_vector"),
        "serialization.file_digest.self_ms": ms("serialization.file_digest"),
        "serialization.bytes_read": totals["bytes_read"] / r,
        "serialization.bytes_written": totals["bytes_written"] / r,
        "gsystem.frame_operator.calls": n_calls("gsystem.frame_operator"),
        "gsystem.frame_operator.self_ms": ms("gsystem.frame_operator"),
        "gsystem.optimal_bounds.calls": n_calls("gsystem.optimal_bounds"),
        "gsystem.optimal_bounds.self_ms": ms("gsystem.optimal_bounds"),
        "gsystem.range_condition_holds.calls": n_calls("gsystem.range_condition_holds"),
        "gsystem.classify.self_ms": ms("gsystem.classify"),
        "gsystem.analysis.calls": n_calls("gsystem.analysis"),
        "gsystem.analysis.self_ms": ms("gsystem.analysis"),
        "gsystem.synthesis.self_ms": ms("gsystem.synthesis"),
        "gsystem.construct.calls": n_calls("gsystem.construct"),
        "gsystem.construct.self_ms": ms("gsystem.construct"),
        "linops.decompositions": totals["decomp"] / r,
        "linops.self_ms": totals["linops_self_ns"] / r / 1e6,
        "linops.decomp_per_bounds": ratio(totals["decomp_in_bounds"], totals["bounds"]),
        "linops.op_norm.calls": n_calls("linops.op_norm"),
        "linops.range_projector.calls": n_calls("linops.range_projector"),
        "linops.pinv.calls": n_calls("linops.pinv"),
        "linops.psd_sqrt_pinv.calls": n_calls("linops.psd_sqrt_pinv"),
        "duals.mixed_operator.calls": n_calls("duals.mixed_operator"),
        "duals.mixed_operator.self_ms": ms("duals.mixed_operator"),
        "duals.approx_defect.calls": n_calls("duals.approx_defect"),
        "duals.approx_defect.self_ms": ms("duals.approx_defect"),
        "duals.canonical_kg_dual.self_ms": ms("duals.canonical_kg_dual"),
        "duals.perturbed_dual.self_ms": ms("duals.perturbed_dual"),
        "duals.exactify_dual.self_ms": ms("duals.exactify_dual"),
        "duals.neumann_reconstruct.self_ms": ms("duals.neumann_reconstruct"),
        "duals.neumann_steps": totals["steps"] / r,
        "duals.neumann_step_us": ratio(totals["neumann_apply_ns"], totals["neumann_applies"], 1e-3),
        "redundancy.subsets": totals["subsets"] / r,
        "redundancy.subset_us": ratio(totals["subset_ns"], totals["subsets"], 1e-3),
        "redundancy.reduced_system.self_ms": ms("redundancy.reduced_system"),
        "redundancy.survivor_ratio": ratio(totals["survives"], totals["subsets"]),
        "constructions.random_kg_system.self_ms": ratio(gen_self_ns, gen_calls, 1e-6),
        "constructions.attempts_per_system": ratio(gen_attempts, gen_calls),
    }


def _has_ancestor(spans, i: int, name: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
