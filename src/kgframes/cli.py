"""Command-line driver emitting machine-readable JSON reports.

Exit codes: 0 on success, 1 when a mathematical precondition fails
(ComputationError), 2 on malformed input (InputError or bad arguments).
Reports go to stdout; commands that produce a system write it to ``-o``
and report-only commands accept ``-o`` to redirect the report instead.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import asdict

from . import constructions, duals, gsystem, redundancy, serialization
from .errors import ComputationError, InputError
from .linops import DEFAULT_RANK_TOL


# Commands whose -o names the system file they write; the others print their
# report, or write it to -o when given.
_SYSTEM_WRITERS = {"gen", "dual", "exactify", "neumann-dual"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgframes",
        description="Frame bounds, duals, reconstruction, and erasure analysis "
        "for operator-valued frame systems.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol-rank",
        type=float,
        default=DEFAULT_RANK_TOL,
        help="relative singular-value cutoff for rank decisions (default %(default)g)",
    )
    common.add_argument(
        "--tol-dual",
        type=float,
        default=duals.DUAL_EXACT_TOL,
        help="defect threshold certifying an exact dual (default %(default)g)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, *files: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help_text)
        for f in files:
            p.add_argument(f)
        if name in _SYSTEM_WRITERS:
            p.add_argument("-o", "--output", required=True, help="system file to write")
        else:
            p.add_argument("-o", "--output", default=None, help="report file (default stdout)")
        return p

    p = command("gen", "generate a system file")
    p.add_argument("kind", choices=["example1", "example2", "random"])
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("--dims", type=str, default=None, help="comma-separated block dims (random)")
    p.add_argument("--rank-k", type=int, default=None, help="rank of K (random)")
    p.add_argument("--seed", type=int, default=0, help="random seed (random)")
    command("bounds", "optimal frame constants", "system")
    command("classify", "frame classification", "system")
    command("dual", "canonical dual family", "system")
    command("defect", "duality defect of a candidate", "system", "candidate")
    command("exactify", "correct an approximate dual", "system", "candidate")
    p = command("neumann-dual", "truncated series dual", "system", "candidate")
    p.add_argument("--N", type=int, required=True, dest="num_terms")
    p = command("reconstruct", "iterative reconstruction", "system", "candidate")
    p.add_argument("--vec", required=True, dest="vector", help="vector file with the target")
    p.add_argument("--N", type=int, default=duals.NEUMANN_DEFAULT_STEPS, dest="num_steps")
    p = command("lift", "lift a dual pair to vector frames", "system", "candidate")
    p.add_argument("--frames", required=True, help="frame-family file")
    p = command("erase", "erasure survival analysis", "system")
    p.add_argument("--indices", type=int, nargs="+", default=None)
    p.add_argument("--criterion", choices=["norm", "invert", "brute"], required=True)
    p.add_argument("--max-remove", type=int, default=None,
                   help="enumerate all removals up to this size (brute only)")
    return parser


def _digest_entry(path: str) -> dict:
    return {"path": str(path), "sha256": serialization.file_digest(path)}


def _gen(args) -> dict:
    if args.kind == "example1":
        ksys = constructions.overlap_chain_system(args.n)
    elif args.kind == "example2":
        ksys = constructions.corner_projection_system(args.n)
    else:
        if args.dims is None or args.rank_k is None:
            raise InputError("random generation needs --dims and --rank-k")
        try:
            dims = [int(d) for d in args.dims.split(",") if d != ""]
        except ValueError:
            raise InputError(f"--dims must be comma-separated integers, got {args.dims!r}") from None
        ksys = constructions.random_kg_system(args.n, dims, args.rank_k, args.seed)
    serialization.save_system(ksys, args.output)
    return {
        "kind": "generate",
        "path": str(args.output),
        "ambient_dim": ksys.ambient_dim,
        "num_blocks": ksys.system.num_blocks,
        "sha256": serialization.file_digest(args.output),
    }


def _bounds(args, ksys) -> dict:
    return {"kind": "bounds", **asdict(gsystem.optimal_bounds(ksys, rank_tol=args.tol_rank))}


def _classify(args, ksys) -> dict:
    rep = gsystem.classify(ksys, tol=args.tol_rank)
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
    """Write ``family`` with the system's K to ``-o`` and certify it."""
    serialization.save_system(gsystem.KGSystem(family, ksys.k), args.output)
    return {
        "kind": kind,
        **extra,
        "path": str(args.output),
        "sha256": serialization.file_digest(args.output),
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
    if (args.indices is None) == (args.max_remove is None):
        raise InputError("pass exactly one of --indices or --max-remove")
    if args.max_remove is not None:
        if args.criterion != "brute":
            raise InputError("--max-remove requires --criterion brute")
        reports = redundancy.brute_force_erasure_search(ksys, args.max_remove, args.tol_rank)
        return {
            "kind": "erase_search",
            "max_remove": args.max_remove,
            "reports": [asdict(r) for r in reports],
        }
    criterion = {
        "norm": redundancy.erasure_norm_count,
        "invert": redundancy.erasure_invertibility,
        "brute": redundancy.erasure_brute_report,
    }[args.criterion]
    return {"kind": "erase", **asdict(criterion(ksys, args.indices, args.tol_rank))}


# Each command's handler and the input files it reads, in the order they are
# loaded; the handler receives the loaded inputs after the parsed arguments.
_COMMANDS = {
    "gen": (_gen, ()),
    "bounds": (_bounds, ("system",)),
    "classify": (_classify, ("system",)),
    "dual": (_dual, ("system",)),
    "defect": (_defect, ("system", "candidate")),
    "exactify": (_exactify, ("system", "candidate")),
    "neumann-dual": (_neumann_dual, ("system", "candidate")),
    "reconstruct": (_reconstruct, ("system", "candidate", "vector")),
    "lift": (_lift, ("system", "candidate", "frames")),
    "erase": (_erase, ("system",)),
}
# Loader names, looked up on ``serialization`` at call time so that a wrapper
# installed on the module after import sees every load.
_LOADERS = {
    "system": "load_system",
    "candidate": "load_system",
    "vector": "load_vector",
    "frames": "load_frame_family",
}


def _check_arguments(args: argparse.Namespace) -> None:
    """Reject tolerances and step counts that no computation can use."""
    if not (math.isfinite(args.tol_rank) and args.tol_rank > 0.0):
        raise InputError(f"--tol-rank must be finite and positive, got {args.tol_rank}")
    if not (math.isfinite(args.tol_dual) and args.tol_dual >= 0.0):
        raise InputError(f"--tol-dual must be finite and non-negative, got {args.tol_dual}")
    for dest in ("num_terms", "num_steps"):
        if getattr(args, dest, 0) < 0:
            raise InputError(f"--N must be non-negative, got {getattr(args, dest)}")
    if getattr(args, "seed", 0) < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")


def _run(args: argparse.Namespace) -> tuple[dict, dict]:
    """Dispatch one parsed command; returns (payload, input digests).

    The arguments are checked before any input file is read, and every
    input is loaded and digested before the handler runs, so a digest is
    that of the file read even when the handler writes over it.
    """
    _check_arguments(args)
    handler, inputs = _COMMANDS[args.command]
    loaded = [getattr(serialization, _LOADERS[key])(getattr(args, key)) for key in inputs]
    digests = {key: _digest_entry(getattr(args, key)) for key in inputs}
    return handler(args, *loaded), digests


def _join_negative_dims(argv: list[str]) -> list[str]:
    """``argv`` with ``--dims -1,6`` written as ``--dims=-1,6``.

    argparse takes a token such as ``-1,6`` for an option rather than for
    the value of the option before it; joined, the value reaches the same
    dimension check as any other. Abbreviations such as ``--dim`` are
    joined too, since argparse accepts them.
    """
    out: list[str] = []
    for token in argv:
        if (out and len(out[-1]) > 2 and "--dims".startswith(out[-1])
                and token[:1] == "-" and token[1:2].isdigit()):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_join_negative_dims(argv))
    started = time.perf_counter()
    try:
        payload, inputs = _run(args)
        report = {
            "version": serialization.REPORT_SCHEMA_VERSION,
            "command": argv,
            "inputs": inputs,
            "tolerances": {"rank": args.tol_rank, "dual": args.tol_dual},
            "payload": payload,
            "wall_time_s": time.perf_counter() - started,
        }
        output = getattr(args, "output", None)
        if output is not None and args.command not in _SYSTEM_WRITERS:
            serialization._write_json(report, output)
        else:
            serialization._dump_json(report, sys.stdout)
    except InputError as exc:
        _emit_error(argv, exc)
        return 2
    except ComputationError as exc:
        _emit_error(argv, exc)
        return 1
    return 0


def _emit_error(argv: list[str], exc: Exception) -> None:
    doc = {
        "version": serialization.REPORT_SCHEMA_VERSION,
        "command": argv,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }
    serialization._dump_json(doc, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
