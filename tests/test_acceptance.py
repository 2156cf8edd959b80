"""Acceptance gate: one test (and one printed verdict line) per
quantitative claim the library reproduces.  Every comparison is exact.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict
lines, or execute the file directly.
"""

import random
import sys
import time

from tftflip import checks, coxeter, flipgraph, geometry
from tftflip import representatives as reps

_MAX_SECONDS = {1: 10.0, 10: 60.0}

# one line per criterion; echoed by the terminal-summary hook in
# conftest.py so they appear in plain ``pytest -v`` output too
VERDICTS = []


def _say(line):
    VERDICTS.append(line)
    print(line, flush=True)


def _report(number, title, results):
    """results: list of (n, ok, detail).  Prints one verdict line."""
    failures = [(n, detail) for n, ok, detail in results if not ok]
    verdict = "FAIL" if failures else "PASS"
    ns = ",".join(str(n) for n, _, _ in results)
    line = f"{verdict} criterion {number:2d} ({title}; n={ns})"
    if failures:
        line += f" -- first failure at n={failures[0][0]}: {failures[0][1]}"
    _say(line)
    assert not failures, line


def _timed(number, results, started):
    elapsed = time.monotonic() - started
    budget = _MAX_SECONDS[number]
    results.append((f"time<{budget:.0f}s", elapsed < budget, f"took {elapsed:.1f}s"))


def test_criterion_01_counting():
    started = time.monotonic()
    results = [(n, *checks.check_counting(n)) for n in range(1, 9)]
    _timed(1, results, started)
    _report(1, "enumeration count and 2 colorings each", results)


def test_criterion_02_short_chords():
    results = [(n, *checks.check_short_chords(n)) for n in range(1, 9)]
    _report(2, "exactly 2 short chords", results)


def test_criterion_03_relations():
    results = [(n, *checks.check_relations(n)) for n in range(2, 7)]
    _report(3, "defining relations as maps and on vectors", results)


def test_criterion_04_stabilizer():
    results = [(n, *checks.check_stabilizer(n)) for n in range(2, 7)]
    _report(4, "transitive action, stabilizer fixes base", results)


def test_criterion_05_volumes():
    results = [(n, *checks.check_volumes(n)) for n in range(2, 11)]
    _report(5, "exact Gram determinants and volume ratio", results)


def test_criterion_06_lengths():
    results = [(n, *checks.check_rep_lengths(n)) for n in range(2, 6)]
    _report(6, "rep length equals hyperplane oracle", results)


def test_criterion_07_lattice():
    results = []
    for n in range(2, 5):
        for fn in (
            checks.check_order_closure,
            checks.check_meet_join,
            checks.check_modularity,
        ):
            ok, detail = fn(n)
            results.append((n, ok, f"{fn.__name__}: {detail}"))
    _report(7, "order closure, glb/lub formulas, modularity", results)


def test_criterion_08_graph_description():
    results = [(n, *checks.check_graph_description(n)) for n in range(2, 6)]
    _report(8, "edges are Hasse covers plus wraps", results)


def test_criterion_09_distance():
    results = []
    for n in (3, 4):  # all pairs
        results.append((n, *checks.check_distance_formula(n)))
    for n in (5, 6):  # >= 10^4 random pairs
        steps = flipgraph.step_tables(n)
        rs = reps.all_reps(n)
        rng = random.Random(100 + n)
        pairs = 0
        ok, detail = True, ""
        by_source = {}
        while pairs < 10_000 and ok:
            u = rng.randrange(len(rs))
            v = rng.randrange(len(rs))
            if u not in by_source:
                by_source[u] = flipgraph.bfs_distances(steps, u)
            r, s = rs[u], rs[v]
            if flipgraph.distance_formula(r, s, n) != by_source[u][v]:
                ok, detail = False, f"formula != BFS at {r}, {s}"
            pairs += 1
        results.append((n, ok, detail or f"{pairs} random pairs agree"))
    _report(9, "closed-form distance equals BFS", results)


def test_criterion_10_diameter():
    started = time.monotonic()
    results = []
    for n, expected in zip(range(3, 7), (14, 20, 27, 35)):
        ok, detail = checks.check_diameter(n)
        stated = flipgraph.diameter(n) == expected
        results.append((n, ok and stated, detail))
    _timed(10, results, started)
    _report(10, "BFS diameter equals (n+1)(n+4)/2", results)


def test_criterion_11_antipodes():
    results = [(n, *checks.check_antipodes(n)) for n in range(3, 7)]
    # range 3..6 covers the required cases: color reversal for 3..5
    # and rotation for 4 and 6 (check_antipodes tests rotation iff even)
    _report(11, "antipodes realize the diameter", results)


def test_criterion_12_bipartition():
    results = [(n, *checks.check_bipartition(n)) for n in range(3, 7)]
    _report(12, "sign bipartition with equal classes", results)


def test_criterion_13_shortest_representatives():
    results = [(n, *checks.check_shortest_representatives(n)) for n in range(3, 6)]
    _report(13, "shortest words realize Schreier distances", results)


def test_criterion_14_rank_polynomial():
    results = [(n, *checks.check_rank_polynomial(n)) for n in range(2, 7)]
    _report(14, "rank polynomial product formula and degree", results)


def test_findings():
    """Property-based substitutes: reported, not assumed."""
    for name, fn in (
        ("s_0 sign convention", checks.finding_s0_direction),
        ("self-duality identity", checks.finding_self_duality),
    ):
        ok, detail = fn(3)
        verdict = "FINDING" if ok else "FINDING-FAIL"
        _say(f"{verdict} ({name}): {detail}")
        assert ok, detail


if __name__ == "__main__":
    failed = False
    for key, fn in sorted(globals().items()):
        if key.startswith("test_"):
            try:
                fn()
            except AssertionError:
                failed = True
    sys.exit(1 if failed else 0)
