"""Command-line front end.

Subcommands: ``poly`` (zero forcing polynomial of a graph), ``forts``
(fort listing and minimum cover), ``check`` (theorem/conjecture suites),
``eval`` (exact polynomial evaluation).  Output is JSON unless ``--pretty``
is given.  Exit codes: 0 success, 1 suite failure, 2 parse error, 3 size cap
exceeded, 4 method/graph mismatch.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Callable

from . import closed_forms, sweeps
from .forts import enumerate_forts, min_fort_cover
from .graphs import (
    Graph,
    GraphFormatError,
    SizeCapError,
    complete,
    complete_multipartite,
    cycle,
    cycle_plus_chord,
    empty,
    from_edge_list_text,
    from_graph6,
    path,
    star,
    threshold_from_string,
    vertices_of,
    wheel,
)
from .polynomial import zf_polynomial, zf_polynomial_by_components

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_METHOD = 4


class MethodMismatchError(ValueError):
    """Requested method cannot handle the given graph."""


def _ints(args: list[str]) -> tuple:
    return tuple(int(a) for a in args)


def _int_list(args: list[str]) -> tuple:
    return ([int(a) for a in args[0].split(",")],)


def _text(args: list[str]) -> tuple:
    return tuple(args)


# --family NAME:ARGS -> (argument count, argument parser, graph builder,
# closed form or None)
FAMILIES = {
    "path": (1, _ints, path, closed_forms.poly_path),
    "cycle": (1, _ints, cycle, closed_forms.poly_cycle),
    "complete": (1, _ints, complete, closed_forms.poly_complete),
    "empty": (1, _ints, empty, None),
    "star": (1, _ints, star, None),
    "wheel": (1, _ints, wheel, closed_forms.poly_wheel),
    "multipartite": (1, _int_list, complete_multipartite, closed_forms.poly_multipartite),
    "threshold": (1, _text, threshold_from_string, closed_forms.poly_threshold),
    "cycle-chord": (3, _ints, cycle_plus_chord, None),
}


def _family(spec: str) -> tuple[str, tuple, Callable, Callable | None]:
    """(name, parsed arguments, builder, closed form) of a family spec."""
    name, _, rest = spec.partition(":")
    if name not in FAMILIES:
        raise GraphFormatError(f"unknown family {name!r}")
    arity, parse, build, closed = FAMILIES[name]
    args = rest.split(":") if rest else []
    if len(args) != arity:
        raise GraphFormatError(f"family {name!r} takes {arity} argument(s), got {len(args)} in {spec!r}")
    return name, parse(args), build, closed


def _load_graph(args: argparse.Namespace) -> Graph:
    sources = [s for s in (args.edge_list, args.graph6, args.family) if s is not None]
    if len(sources) != 1:
        raise GraphFormatError("give exactly one of --edge-list, --graph6, --family")
    if args.edge_list is not None:
        with open(args.edge_list, "r", encoding="ascii") as fh:
            return from_edge_list_text(fh.read())
    if args.graph6 is not None:
        text = args.graph6
        if os.path.exists(text):
            with open(text, "r", encoding="ascii") as fh:
                lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
            if not lines:
                raise GraphFormatError(f"no graph6 line in {text}")
            text = lines[0]
        return from_graph6(text)
    _, params, build, _ = _family(args.family)
    return build(*params)


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--edge-list", metavar="FILE", help="edge-list file: 'n m' header then 'u v' lines")
    parser.add_argument("--graph6", metavar="STR_OR_FILE", help="graph6 string, or a file containing one")
    parser.add_argument(
        "--family",
        metavar="NAME:ARGS",
        help=f"one of {', '.join(FAMILIES)}, e.g. path:7, multipartite:2,3, "
             "threshold:11011, cycle-chord:6:0:2",
    )


def _cmd_poly(args: argparse.Namespace) -> int:
    if args.method == "closed":
        if args.family is None:
            raise MethodMismatchError("--method closed requires a --family input")
        name, params, build, closed = _family(args.family)
        if closed is None:
            raise MethodMismatchError(f"no closed form for family {name!r}")
        try:
            poly = closed(*params)
        except ValueError as exc:
            # only on failure: the closed form needs no graph and has no
            # vertex cap; arguments the builder rejects too stay parse errors,
            # and a graph past the builder's cap is well formed
            try:
                build(*params)
            except SizeCapError:
                pass
            raise MethodMismatchError(f"the {name} closed form does not cover {args.family!r}: {exc}") from exc
    else:
        g = _load_graph(args)
        if args.method == "components":
            poly = zf_polynomial_by_components(g)
        else:
            poly = zf_polynomial(g)
    if args.pretty:
        print(poly.pretty())
    else:
        print(poly.to_json())
    return EXIT_OK


def _cmd_forts(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    payload = enumerate_forts(g).to_json_dict()
    if args.min_cover:
        size, witness = min_fort_cover(g)
        payload["min_cover"] = {"size": size, "witness": vertices_of(witness)}
    print(json.dumps(payload))
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    try:
        at = Fraction(args.at)
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphFormatError(f"--at expects an exact rational, got {args.at!r}") from exc
    print(zf_polynomial(g).evaluate(at))
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    cpus = os.cpu_count() or 1
    if not 1 <= args.jobs <= cpus:
        print(f"--jobs must be between 1 and the {cpus} available CPUs, got {args.jobs}", file=sys.stderr)
        return EXIT_PARSE
    report = sweeps.run_suite(args.suite, max_n=args.max_n, seed=args.seed, jobs=args.jobs)
    for rec in report["failures"]:
        print(json.dumps({"record": "failure", **rec}))
    for rec in report["warnings"]:
        print(json.dumps({"record": "warning", **rec}))
    summary = {"record": "summary", **{k: report[k] for k in ("suite", "max_n", "seed", "jobs", "graphs_checked")},
               "failures": len(report["failures"]), "warnings": len(report["warnings"]),
               "passed": report["passed"], "elapsed_s": report["elapsed_s"]}
    print(json.dumps(summary))
    return EXIT_OK if report["passed"] else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zfpoly", description="Zero forcing polynomial toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="compute a zero forcing polynomial")
    _add_graph_source(p_poly)
    p_poly.add_argument("--method", choices=("brute", "closed", "components"), default="brute")
    p_poly.add_argument("--pretty", action="store_true", help="print 'a x^i + ...' instead of JSON")
    p_poly.set_defaults(func=_cmd_poly)

    p_forts = sub.add_parser("forts", help="list forts; optionally solve the minimum cover")
    _add_graph_source(p_forts)
    p_forts.add_argument("--min-cover", action="store_true", help="also solve the fort-cover program")
    p_forts.set_defaults(func=_cmd_forts)

    p_check = sub.add_parser("check", help="run a theorem/conjecture suite")
    p_check.add_argument("--suite", required=True, help=f"one of: {', '.join(sweeps.SUITES)}")
    p_check.add_argument("--max-n", type=int, default=None)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--jobs", type=int, default=1)
    p_check.set_defaults(func=_cmd_check)

    p_eval = sub.add_parser("eval", help="evaluate the polynomial at an exact rational")
    _add_graph_source(p_eval)
    p_eval.add_argument("--at", required=True, metavar="X", help="rational point, e.g. 1 or 3/2")
    p_eval.set_defaults(func=_cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except MethodMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_METHOD
    except (GraphFormatError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
