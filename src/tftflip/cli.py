"""Command-line front-end.

Subcommands: count, graph, distance, diameter, antipode, verify,
render.  Exit status is 0 on success, 1 on a verification failure and
2 on usage and I/O errors.  Set ``TFT_COLOR=1`` to colorize the verify table.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import checks, flipgraph, geometry
from . import representatives as reps
from .render import render_svg

# (n+4) * 2^n has about 0.3 n digits: Python refuses to print over
# 4,300, and for a huge n the power alone would exhaust memory
_MAX_COUNT_N = 10_000

_GREEN = "\033[32m"
_RED = "\033[31m"
_RESET = "\033[0m"


def _use_color() -> bool:
    return os.environ.get("TFT_COLOR", "0") == "1"


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _add_n(parser, minimum):
    parser.add_argument("-n", type=int, required=True, help=f"size parameter, n >= {minimum}")


def cmd_count(args) -> int:
    # (n+4) * 2^n by construction of the (center, bits) parametrization;
    # the ``counting`` check enumerates and validates them
    if args.n > _MAX_COUNT_N:
        raise ValueError(f"count supports n <= {_MAX_COUNT_N}")
    total = (args.n + 4) * 2**args.n
    print(f"CTFT={total} TFT={total // 2}")
    return 0


def cmd_graph(args) -> int:
    g = flipgraph.build_graph(args.n)
    flipgraph.write_export(g, args.format, args.output)
    print(f"wrote {args.format} export of {len(g.steps[0])} vertices to {args.output}")
    return 0


def cmd_distance(args) -> int:
    n = args.n
    r = reps.parse_rep(getattr(args, "from"), n)
    s = reps.parse_rep(args.to, n)
    method = args.method
    if n < 3 and method != "bfs":
        # nothing is proved about the closed form below n = 3
        method = "bfs"
    results = {}
    if method in ("formula", "both"):
        results["formula"] = flipgraph.distance_formula(r, s, n)
    if method in ("bfs", "both"):
        results["bfs"] = flipgraph.bfs_distance(n, r, s)
    if method == "both":
        if results["formula"] != results["bfs"]:
            return _fail(
                f"formula {results['formula']} != bfs {results['bfs']} "
                f"for {reps.format_rep(r)} -> {reps.format_rep(s)}"
            )
        print(f"{results['formula']} (formula=bfs)")
    else:
        print(next(iter(results.values())))
    return 0


def cmd_diameter(args) -> int:
    d = flipgraph.diameter(args.n)
    if args.verify:
        name = "diameter-bfs" if args.verify == "bfs" else "diameter-scan"
        check = next(c for c in checks.SUITES if c.name == name)
        if args.n > check.max_n:
            raise ValueError(f"--verify {args.verify} supports n <= {check.max_n}")
        ok, detail = check.run(args.n)
        if not ok:
            return _fail(detail)
        print(f"{d} verified")
    else:
        print(d)
    return 0


def cmd_antipode(args) -> int:
    kind = {"reverse": "color_reversal", "rotate": "rotation"}[args.kind]
    r = reps.parse_rep(args.rep, args.n)
    print(reps.format_rep(flipgraph.antipode(r, args.n, kind)))
    return 0


def cmd_verify(args) -> int:
    color = _use_color()
    failed = False
    for name, status, detail in checks.run_suite(args.n, args.suite, args.max_n):
        shown = status
        if color and status == "ok":
            shown = f"{_GREEN}{status}{_RESET}"
        elif color and "FAIL" in status:
            shown = f"{_RED}{status}{_RESET}"
        print(f"{name:24s} {shown:8s} {detail}")
        if status == "FAIL":
            if not failed:
                failed = name
    if failed:
        print(f"FAILED: {failed}", file=sys.stderr)
        return 1
    return 0


def cmd_render(args) -> int:
    v = geometry.parse_phi(args.phi, args.n)
    svg = render_svg(geometry.phi_inv(v))
    with open(args.output, "w") as fh:
        fh.write(svg)
    print(f"wrote {args.output}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line and exit status 2; subparsers
    are built from the same class."""

    def error(self, message):
        self.exit(2, f"tft: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tft",
        description="Colored triangle-free triangulations and their flip graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count triangulations")
    _add_n(p, 1)
    p.set_defaults(func=cmd_count, min_n=1)

    p = sub.add_parser("graph", help="export the flip graph")
    _add_n(p, 2)
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_graph, min_n=2)

    p = sub.add_parser("distance", help="flip distance between representatives")
    _add_n(p, 2)
    p.add_argument("--from", required=True, metavar="REP")
    p.add_argument("--to", required=True, metavar="REP")
    p.add_argument("--method", choices=("formula", "bfs", "both"), default="both")
    p.set_defaults(func=cmd_distance, min_n=2)

    p = sub.add_parser("diameter", help="diameter of the flip graph")
    _add_n(p, 3)
    p.add_argument("--verify", choices=("bfs", "formula-scan"))
    p.set_defaults(func=cmd_diameter, min_n=3)

    p = sub.add_parser("antipode", help="vertex at maximal distance")
    _add_n(p, 3)
    p.add_argument("--rep", required=True)
    p.add_argument("--kind", choices=("reverse", "rotate"), default="reverse")
    p.set_defaults(func=cmd_antipode, min_n=3)

    p = sub.add_parser("verify", help="run the invariant suites")
    _add_n(p, 2)
    p.add_argument("--suite", choices=["all"] + checks.suite_names(), default="all")
    p.add_argument(
        "--max-n", type=int, default=None,
        help="raise the per-check n-caps (expensive checks run by default "
        "only up to their documented n)",
    )
    p.set_defaults(func=cmd_verify, min_n=2)

    p = sub.add_parser("render", help="render a triangulation as SVG")
    _add_n(p, 1)
    p.add_argument("--phi", required=True, metavar="A:BITS")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_render, min_n=1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n < args.min_n:
        parser.error(f"{args.command} requires -n >= {args.min_n}")
    try:
        return args.func(args)
    except ValueError as exc:
        parser.error(str(exc))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
