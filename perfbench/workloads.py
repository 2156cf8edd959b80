"""The three benchmark workloads: seeded inputs, the call each input
makes into ``tftflip`` and an independent check of each answer.

Every workload is a closed loop with one client: the next operation
is sent only after the previous one returned.  Inputs are generated
from the seed before timing starts and are cycled round by round.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

EXPECTED_VERIFY = Path(__file__).with_name("expected_verify.json")


@dataclass(frozen=True)
class Op:
    """One operation: ``args`` is an argv list for CLI workloads and
    ``(r, s)`` for closed-form pairs; ``data`` is what the check needs
    besides the output (input rep of an antipode, export path)."""

    kind: str
    n: int
    args: tuple
    data: object = None


@dataclass
class Plan:
    rounds: list  # list[list[Op]], cycled during the timed loop
    warmup: list  # list[Op], run during set-up and not counted
    trace_rounds: int  # rounds in the fixed batch of a traced run


class Failed:
    """Output of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.exc = exc


def diameter(n: int) -> int:
    return (n + 1) * (n + 4) // 2


def vertex_count(n: int) -> int:
    return (n + 4) * 2**n


def random_rep(rng: random.Random, n: int) -> tuple:
    return tuple(rng.randint(0, 1) for _ in range(n)) + (rng.randrange(n + 4),)


def rep_text(r) -> str:
    return ",".join(map(str, r))


def run_cli(pkg, argv) -> tuple[int, str]:
    """``tft <argv>`` in-process: (exit status, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = pkg.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            status = exc.code
    return status, out.getvalue()


# -- verify ---------------------------------------------------------


def verify_rows(text: str) -> list[str]:
    """``"<check> <status>"`` for each row printed by ``tft verify``."""
    return [" ".join(line.split(None, 2)[:2]) for line in text.splitlines()]


class Verify:
    """The whole check registry through ``tft verify -n k``."""

    fresh_heap = True  # see run_loop
    ns = (3, 5, 6)
    small_ns = (2,)

    def __init__(self):
        with open(EXPECTED_VERIFY) as fh:
            self.expected = json.load(fh)

    def generate(self, seed, tmpdir, small=False) -> Plan:
        rng = random.Random(seed)
        ns = self.small_ns if small else self.ns
        rounds = [
            [self._op(k) for k in rng.sample(ns, len(ns))] for _ in range(8)
        ]
        return Plan(rounds=rounds, warmup=[self._op(2)], trace_rounds=1)

    @staticmethod
    def _op(k):
        return Op("verify", k, ("verify", "-n", str(k)))

    def execute(self, pkg, op):
        return run_cli(pkg, op.args)

    def check(self, pkg, op, out) -> bool:
        status, text = out
        return status == 0 and verify_rows(text) == self.expected[str(op.n)]


# -- cli-graph ------------------------------------------------------


class CliGraph:
    """A seeded stream of ``tft`` commands that each rebuild the graph.

    Each round holds this fixed mix, in seeded order.  Sorted by
    latency the kinds fall into bands (antipode < count < distance <
    graph exports < diameter), and the mix puts p50 in the middle of
    the distance band (20-80 %) and p90 in the middle of the
    JSON-export band (85-95 %), away from any step between kinds.
    """

    fresh_heap = True  # see run_loop
    MIX = (
        ("antipode", 2),
        ("count", 2),
        ("distance", 12),
        ("graph-dot", 1),
        ("graph-json", 2),
        ("diameter", 1),
    )
    sizes = {"antipode": 8, "count": 8, "distance": 8, "graph-dot": 8,
             "graph-json": 8, "diameter": 7}
    small_sizes = dict.fromkeys(sizes, 4)
    distance_line = re.compile(r"(\d+) \(formula=bfs\)")
    dot_vertex_line = re.compile(r'  "[0-9,]+";')

    def generate(self, seed, tmpdir, small=False) -> Plan:
        rng = random.Random(seed)
        sizes = self.small_sizes if small else self.sizes
        rounds = []
        for index in range(12):
            ops = [
                self._op(rng, kind, sizes[kind], Path(tmpdir) / f"export-{index}-{j}")
                for kind, count in self.MIX
                for j in range(count)
            ]
            rng.shuffle(ops)
            rounds.append(ops)
        warm_rng = random.Random(seed + 1)
        warmup = [
            self._op(warm_rng, kind, 4, Path(tmpdir) / "warmup") for kind, _ in self.MIX
        ]
        return Plan(rounds=rounds, warmup=warmup, trace_rounds=2)

    @staticmethod
    def _op(rng, kind, n, stem):
        if kind == "antipode":
            r = random_rep(rng, n)
            how = rng.choice(("reverse", "rotate") if n % 2 == 0 else ("reverse",))
            argv = ("antipode", "-n", str(n), "--rep", rep_text(r), "--kind", how)
            return Op(kind, n, argv, r)
        if kind == "count":
            return Op(kind, n, ("count", "-n", str(n)))
        if kind == "distance":
            r, s = random_rep(rng, n), random_rep(rng, n)
            argv = ("distance", "-n", str(n), "--from", rep_text(r), "--to",
                    rep_text(s), "--method", "both")
            return Op(kind, n, argv)
        if kind == "diameter":
            return Op(kind, n, ("diameter", "-n", str(n), "--verify", "bfs"))
        fmt = kind.split("-")[1]
        path = f"{stem}.{fmt}"
        return Op(kind, n, ("graph", "-n", str(n), "--format", fmt, "-o", path), path)

    def execute(self, pkg, op):
        return run_cli(pkg, op.args)

    def check(self, pkg, op, out) -> bool:
        status, text = out
        if status != 0:
            return False
        text = text.strip()
        n = op.n
        if op.kind == "distance":
            match = self.distance_line.fullmatch(text)
            return match is not None and int(match.group(1)) <= diameter(n)
        if op.kind == "diameter":
            return text == f"{diameter(n)} verified"
        if op.kind == "count":
            return text == f"CTFT={vertex_count(n)} TFT={vertex_count(n) // 2}"
        if op.kind == "antipode":
            target = tuple(int(tok) for tok in text.split(","))
            return pkg.flipgraph.distance_formula(op.data, target, n) == diameter(n)
        with open(op.data) as fh:
            exported = fh.read()
        if op.kind == "graph-json":
            return len(json.loads(exported)["vertices"]) == vertex_count(n)
        vertices = [l for l in exported.splitlines() if self.dot_vertex_line.fullmatch(l)]
        return len(vertices) == vertex_count(n)


# -- closed-forms ---------------------------------------------------


class ClosedForms:
    """Random pairs of representatives fed straight to the O(n)
    library calls, with no oracle and no graph.

    Per round, 70 pairs at n=12 and 30 at n=64: an n=64 pair costs
    several times an n=12 pair, so p50 lies inside the n=12 band and
    p90 inside the n=64 band.
    """

    fresh_heap = False  # one library user making call after call
    MIX = ((12, 70), (64, 30))
    SMALL_MIX = ((5, 7), (9, 3))

    def generate(self, seed, tmpdir, small=False) -> Plan:
        rng = random.Random(seed)
        mix = self.SMALL_MIX if small else self.MIX
        rounds = []
        for _ in range(20):
            ops = [self._op(rng, n) for n, count in mix for _ in range(count)]
            rng.shuffle(ops)
            rounds.append(ops)
        warm_rng = random.Random(seed + 1)
        warmup = [self._op(warm_rng, n) for n, _ in mix for _ in range(5)]
        return Plan(rounds=rounds, warmup=warmup, trace_rounds=4)

    @staticmethod
    def _op(rng, n):
        return Op("pair", n, (random_rep(rng, n), random_rep(rng, n)))

    def execute(self, pkg, op):
        reps, fg = pkg.representatives, pkg.flipgraph
        n = op.n
        r, s = op.args
        a = fg.antipode(r, n)
        m, j = reps.meet(r, s, n), reps.join(r, s, n)
        return {
            "d_rs": fg.distance_formula(r, s, n),
            "d_sr": fg.distance_formula(s, r, n),
            "d_ra": fg.distance_formula(r, a, n),
            "meet": m,
            "join": j,
            "order": (reps.leq(m, r), reps.leq(m, s), reps.leq(r, j), reps.leq(s, j)),
            "dual_dual": reps.dual(reps.dual(r, n), n),
            "lengths": tuple(reps.rep_length(x) for x in (r, s, m, j)),
            "twice": [
                reps.apply_generator(i, reps.apply_generator(i, r, n).rep, n).rep
                for i in range(n + 1)
            ],
        }

    def check(self, pkg, op, out) -> bool:
        n = op.n
        r, s = op.args
        m, j = out["meet"], out["join"]

        def length(x):
            return sum((k + 1) * e for k, e in enumerate(x))

        def below(x, y):  # dominance of suffix sums
            pairs = zip(accumulate(reversed(x)), accumulate(reversed(y)))
            return all(a <= b for a, b in pairs)

        lengths = tuple(length(x) for x in (r, s, m, j))
        return (
            out["d_rs"] == out["d_sr"] <= diameter(n)
            and out["d_ra"] == diameter(n)
            and out["lengths"] == lengths
            and lengths[2] + lengths[3] == lengths[0] + lengths[1]
            and out["order"] == (True, True, True, True)
            and below(m, r) and below(m, s) and below(r, j) and below(s, j)
            and out["dual_dual"] == r
            and out["twice"] == [r] * (n + 1)
        )


WORKLOADS = {"verify": Verify, "cli-graph": CliGraph, "closed-forms": ClosedForms}
