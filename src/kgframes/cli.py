"""Command-line driver emitting machine-readable JSON reports.

Exit codes: 0 on success, 1 when a mathematical precondition fails
(ComputationError), 2 on malformed input, a usage error or an input that
needs more memory than the process gets (InputError).
Reports go to stdout, and each failure's one JSON error report to stderr;
commands that produce a system write it to ``-o`` and report-only commands
accept ``-o`` to redirect the report instead.

Each command is declared once, in ``_COMMANDS``, and each input file kind
in ``_INPUTS``; ``build_parser``, ``_run`` and ``main`` all read these two
tables, and only the options of a single command are added by hand. A command
offers, checks and reports only the tolerance flags it reads, and reports beside
them the fixed :mod:`~kgframes.linops` thresholds any of its paths may read.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from dataclasses import asdict

from . import constructions, duals, gsystem, linops, redundancy, serialization
from .errors import ComputationError, InputError


def _gen(args) -> dict:
    extra = ()
    if args.kind == "random":
        if args.dims is None or args.rank_k is None:
            raise InputError("random generation needs --dims and --rank-k")
        try:
            dims = [int(d) for d in args.dims.split(",") if d != ""]
        except ValueError:
            raise InputError(f"--dims must be comma-separated integers, got {args.dims!r}") from None
        extra = (dims, args.rank_k, args.seed)
    ksys = getattr(constructions, _GENERATORS[args.kind])(args.n, *extra)
    return {
        "kind": "generate",
        "path": str(args.output),
        "ambient_dim": ksys.ambient_dim,
        "num_blocks": ksys.system.num_blocks,
        "sha256": serialization.save_system(ksys, args.output),
    }


def _bounds(args, ksys) -> dict:
    return {"kind": "bounds", **asdict(gsystem.optimal_bounds(ksys, rank_tol=args.tol_rank))}


def _classify(args, ksys) -> dict:
    rep = gsystem.classify(ksys, rank_tol=args.tol_rank)
    return {
        "kind": "classify",
        "label": rep.label.value,
        "k_star_lower_bound": rep.k_star_lower_bound,
        "g_frame_implied": rep.g_frame_implied,
        "bounds": asdict(rep.bounds),
    }


def _certificate(args, ksys, family: gsystem.GSystem) -> dict:
    cert = duals.approx_defect(
        ksys.system, family, ksys.k, exact_tol=args.tol_dual, rank_tol=args.tol_rank
    )
    return asdict(cert)


def _saved_dual(args, ksys, family: gsystem.GSystem, kind: str, **extra) -> dict:
    """Write ``family`` with the system's K to ``-o``, then certify it."""
    return {
        "kind": kind,
        **extra,
        "path": str(args.output),
        "sha256": serialization.save_system(gsystem.KGSystem(family, ksys.k), args.output),
        "certificate": _certificate(args, ksys, family),
    }


def _dual(args, ksys) -> dict:
    return _saved_dual(args, ksys, duals.canonical_kg_dual(ksys, rank_tol=args.tol_rank), "dual")


def _defect(args, ksys, cand) -> dict:
    return {"kind": "defect", **_certificate(args, ksys, cand.system)}


def _exactify(args, ksys, cand) -> dict:
    fixed = duals.exactify_dual(ksys.system, cand.system, ksys.k, rank_tol=args.tol_rank)
    return _saved_dual(args, ksys, fixed, "exactify")


def _neumann_dual(args, ksys, cand) -> dict:
    trunc = duals.truncated_neumann_dual(
        ksys.system, cand.system, ksys.k, args.num_terms, rank_tol=args.tol_rank
    )
    return _saved_dual(args, ksys, trunc, "neumann_dual", num_terms=args.num_terms)


def _reconstruct(args, ksys, cand, target) -> dict:
    trace = duals.neumann_reconstruct(
        ksys.system, cand.system, ksys.k, target, num_steps=args.num_steps, rank_tol=args.tol_rank
    )
    return {
        "kind": "reconstruct",
        "steps": len(trace.errors) - 1,
        "errors": list(trace.errors),
        "predicted_bound": list(trace.predicted_bound),
        "iterates": trace.iterates,
    }


def _lift(args, ksys, cand, fams) -> dict:
    result = duals.lift_to_vector_frames(
        ksys.system, cand.system, fams, k=ksys.k, rank_tol=args.tol_rank
    )
    return {
        "kind": "lift",
        "residual": result.residual,
        "operator_defect": result.operator_defect,
        "vector_defect": result.vector_defect,
        "restricted_defect": result.restricted_defect,
        "vectors_e": result.vectors_e,
        "vectors_f": result.vectors_f,
    }


def _erase(args, ksys) -> dict:
    if args.max_remove is not None:
        if args.criterion != "brute":
            raise InputError("--max-remove requires --criterion brute")
        reports = redundancy.brute_force_erasure_search(ksys, args.max_remove, args.tol_rank)
        return {
            "kind": "erase_search",
            "max_remove": args.max_remove,
            "reports": [asdict(r) for r in reports],
        }
    criterion = getattr(redundancy, _CRITERIA[args.criterion])
    return {"kind": "erase", **asdict(criterion(ksys, args.indices, args.tol_rank))}


# Library functions are named in the tables below and looked up on their module
# at call time, so that a wrapper installed on a module after import sees them.
_GENERATORS = {"example1": "overlap_chain_system", "example2": "corner_projection_system",
               "random": "random_kg_system"}
_CRITERIA = {"norm": "erasure_norm_count", "invert": "erasure_invertibility",
             "brute": "erasure_brute_report"}
_THRESHOLDS = {name.rsplit("_", 1)[0].lower(): name for name in linops.THRESHOLDS}  # by report key
# Each command: help text, handler, inputs in load order (the handler gets them
# after the parsed arguments), tolerances read (flag ``--tol-<name>``), whether
# -o names the system file it writes (otherwise -o redirects the report), and
# the fixed thresholds any of its paths may read (keys of _THRESHOLDS).
_COMMANDS = {
    "gen": ("generate a system file", _gen, (), (), True, ("range_inclusion",)),
    "bounds": ("optimal frame constants", _bounds, ("system",), ("rank",), False, ("range_inclusion", "tight")),
    "classify": ("frame classification", _classify, ("system",), ("rank",), False, ("range_inclusion", "tight")),
    "dual": ("canonical dual family", _dual, ("system",), ("rank", "dual"), True, ("range_inclusion",)),
    "defect": ("duality defect of a candidate", _defect, ("system", "candidate"), ("rank", "dual"), False, ()),
    "exactify": ("correct an approximate dual", _exactify, ("system", "candidate"), ("rank", "dual"), True, ()),
    "neumann-dual": ("truncated series dual", _neumann_dual, ("system", "candidate"), ("rank", "dual"), True, ()),
    "reconstruct": ("iterative reconstruction", _reconstruct, ("system", "candidate", "vector"), ("rank",),
                    False, ("range_inclusion", "neumann_stop")),
    "lift": ("lift a dual pair to vector frames", _lift, ("system", "candidate", "frames"), ("rank",), False, ()),
    "erase": ("erasure survival analysis", _erase, ("system",), ("rank",), False,
              ("range_inclusion", "survival", "unit_norm")),
}
# Each input: its loader on ``serialization`` and, for an input passed by a
# required option rather than by position, the option's flag and help text.
_INPUTS = {
    "system": ("load_system", None),
    "candidate": ("load_system", None),
    "vector": ("load_vector", ("--vec", "vector file with the target")),
    "frames": ("load_frame_family", ("--frames", "frame-family file")),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser, and its subparsers, raising usage errors as InputErrors."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kgframes",
        description="Frame bounds, duals, reconstruction, and erasure analysis "
        "for operator-valued frame systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (help_text, _, inputs, tolerances, writes_system, _) in _COMMANDS.items():
        p = parsers[name] = sub.add_parser(name, help=help_text)
        if "rank" in tolerances:
            p.add_argument("--tol-rank", type=float, default=linops.DEFAULT_RANK_TOL,
                           help="relative singular-value cutoff for rank decisions (default %(default)g)")
        if "dual" in tolerances:
            p.add_argument("--tol-dual", type=float, default=linops.DUAL_EXACT_TOL,
                           help="defect threshold certifying an exact dual (default %(default)g)")
        o_help = "system file to write" if writes_system else "report file (default stdout)"
        p.add_argument("-o", "--output", required=writes_system, help=o_help)
        # usage and help list options and positionals apart, each group in order
        for key in inputs:
            option = _INPUTS[key][1]
            if option is None:
                p.add_argument(key)
            else:
                p.add_argument(option[0], required=True, dest=key, help=option[1])

    p = parsers["gen"]
    p.add_argument("kind", choices=list(_GENERATORS))
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--dims", type=str, default=None, help="comma-separated block dims (random)")
    p.add_argument("--rank-k", type=int, default=None, help="rank of K (random)")
    p.add_argument("--seed", type=int, default=0, help="random seed (random)")
    parsers["neumann-dual"].add_argument("--N", type=int, required=True, dest="num_terms")
    parsers["reconstruct"].add_argument(
        "--N", type=int, default=duals.NEUMANN_DEFAULT_STEPS, dest="num_steps")
    parsers["erase"].add_argument("--criterion", choices=list(_CRITERIA), required=True)
    p = parsers["erase"].add_mutually_exclusive_group(required=True)
    p.add_argument("--indices", type=int, nargs="+")
    p.add_argument("--max-remove", type=int, help="enumerate all removals up to this size (brute only)")
    return parser


def _run(args: argparse.Namespace) -> tuple[dict, dict]:
    """Dispatch one parsed command; returns (payload, input digests).

    The arguments and input paths are checked before any input is read, and
    every input is loaded and digested before the handler runs, so a digest
    is that of the file read even when the handler writes over it.
    """
    _, handler, inputs, tolerances, _, _ = _COMMANDS[args.command]
    for tol in tolerances:
        try:
            linops._checked_tol(getattr(args, f"tol_{tol}"), f"--tol-{tol}")
        except ValueError as exc:
            raise InputError(str(exc)) from None
    for dest, flag in (("num_terms", "--N"), ("num_steps", "--N"), ("seed", "--seed")):
        if getattr(args, dest, 0) < 0:
            raise InputError(f"{flag} must be non-negative, got {getattr(args, dest)}")
    paths = {key: getattr(args, key) for key in inputs}
    for path in paths.values():
        if os.path.exists(path) and not os.path.isfile(path):
            raise InputError(f"{path}: not a regular file, so its digest cannot be taken")
    loaded = [getattr(serialization, _INPUTS[key][0])(path) for key, path in paths.items()]
    digests = {key: {"path": str(path), "sha256": serialization.file_digest(path)}
               for key, path in paths.items()}
    return handler(args, *loaded), digests


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    head = {"version": serialization.REPORT_SCHEMA_VERSION, "command": argv}
    try:
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        _, _, _, tolerances, writes_system, thresholds = _COMMANDS[args.command]
        payload, inputs = _run(args)
        report = {
            **head,
            "inputs": inputs,
            "tolerances": {tol: getattr(args, f"tol_{tol}") for tol in tolerances},
            "thresholds": {name: getattr(linops, _THRESHOLDS[name]) for name in thresholds},
            "payload": payload,
            "wall_time_s": time.perf_counter() - started,
        }
        serialization._write_json(report, sys.stdout if writes_system or args.output is None else args.output)
    except (InputError, ComputationError, MemoryError) as exc:
        if isinstance(exc, MemoryError):  # an input that asks for more memory than the process gets
            exc = InputError(f"not enough memory: {exc}")
        error = {"type": type(exc).__name__, "message": str(exc)}
        with contextlib.suppress(InputError):  # stderr closed or unwritable: the exit code still tells
            serialization._write_json({**head, "error": error}, sys.stderr)
        return 2 if isinstance(exc, InputError) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
