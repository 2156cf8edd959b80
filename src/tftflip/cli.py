"""Command-line front-end.

Subcommands: count, graph, distance, diameter, antipode, verify,
render, one row each of ``_SUBCOMMANDS``.  ``main`` builds the parser
anew on each call, with only the subparser that its first argument
names; help, no argument or an unknown name get all seven, so every
text is the same either way.  Exit status is 0 on success, 1 on a
verification failure and 2 on usage and I/O errors.
"""

from __future__ import annotations

import argparse
import sys

from . import checks, flipgraph, geometry
from . import representatives as reps
from .render import render_svg

# (n+4) * 2^n has about 0.3 n digits: Python refuses to print over
# 4,300, and for a huge n the power alone would exhaust memory
_MAX_COUNT_N = 10_000


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


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
    print(f"wrote {args.format} export of {(args.n + 4) << args.n} vertices to {args.output}")
    return 0


def cmd_distance(args) -> int:
    n = args.n
    r = reps.parse_rep(getattr(args, "from"), n)
    s = reps.parse_rep(args.to, n)
    if args.method == "bfs" or n < 3:
        # nothing is proved about the closed form below n = 3
        print(flipgraph.bfs_distance(n, r, s))
        return 0
    formula = flipgraph.distance_formula(r, s, n)
    if args.method == "formula":
        print(formula)
        return 0
    bfs = flipgraph.bfs_distance(n, r, s)
    if formula != bfs:
        return _fail(
            f"formula {formula} != bfs {bfs} "
            f"for {reps.format_rep(r)} -> {reps.format_rep(s)}"
        )
    print(f"{formula} (formula=bfs)")
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
    failed = False
    for name, status, detail in checks.run_suite(args.n, args.suite):
        print(f"{name:24s} {status:8s} {detail}")
        if status == "FAIL" and not failed:
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


# One row per subcommand: name, handler, the floor of its required -n,
# help, and its other arguments as (flags, keywords) pairs
_SUBCOMMANDS = (
    ("count", cmd_count, 1, "count triangulations", ()),
    ("graph", cmd_graph, 2, "export the flip graph", (
        (("--format",), {"choices": ("dot", "json"), "default": "json"}),
        (("-o", "--output"), {"required": True}),
    )),
    ("distance", cmd_distance, 2, "flip distance between representatives", (
        (("--from",), {"required": True, "metavar": "REP"}),
        (("--to",), {"required": True, "metavar": "REP"}),
        (("--method",), {"choices": ("formula", "bfs", "both"), "default": "both"}),
    )),
    ("diameter", cmd_diameter, 3, "diameter of the flip graph", (
        (("--verify",), {"choices": ("bfs", "formula-scan")}),
    )),
    ("antipode", cmd_antipode, 3, "vertex at maximal distance", (
        (("--rep",), {"required": True}),
        (("--kind",), {"choices": ("reverse", "rotate"), "default": "reverse"}),
    )),
    ("verify", cmd_verify, 2, "run the invariant suites", (
        (("--suite",), {"choices": ["all"] + checks.suite_names(), "default": "all"}),
    )),
    ("render", cmd_render, 1, "render a triangulation as SVG", (
        (("--phi",), {"required": True, "metavar": "A:BITS"}),
        (("-o", "--output"), {"required": True}),
    )),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``tft`` parser with the subparser of ``command`` alone, or
    with all of them when ``command`` names none.  Each subcommand's
    required ``-n`` states its floor, which ``main`` enforces."""
    parser = _Parser(
        prog="tft",
        description="Colored triangle-free triangulations and their flip graph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rows = [row for row in _SUBCOMMANDS if row[0] == command] or _SUBCOMMANDS
    for name, func, min_n, help, arguments in rows:
        p = sub.add_parser(name, help=help)
        p.add_argument("-n", type=int, required=True, help=f"size parameter, n >= {min_n}")
        for flags, keywords in arguments:
            p.add_argument(*flags, **keywords)
        p.set_defaults(func=func, min_n=min_n)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if args.n < args.min_n:
        parser.error(f"{args.command} requires -n >= {args.min_n}")
    try:
        return args.func(args)
    except ValueError as exc:
        parser.error(str(exc))
    except RuntimeError as exc:
        return _fail(str(exc))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
