"""The colored flip graph as a Schreier graph on representatives.

A vertex is an exponent-vector representative, and its id is its index
in the lexicographic order of ``all_reps(n)``: bits * (n+4) + e_n, where
bits reads e_0 .. e_{n-1} with e_0 the most significant bit.  The graph
is one step table per generator color, ``steps[i][v]`` the id of s_i v,
built by bit operations on ids; a generator that fixes a vertex maps it
to itself and contributes no edge.  The simple underlying graph is the
Hasse diagram of the dominance lattice plus one "wrap" edge per choice
of the first n-1 bits, and carries an exact distance formula and
closed-form diameter, both cross-checked against breadth-first search
over the tables.
"""

from __future__ import annotations

from array import array
from typing import Iterator, NamedTuple

from . import representatives as reps
from .representatives import Rep

__all__ = [
    "FlipGraph",
    "build_graph",
    "vertex_id",
    "vertex_rep",
    "colored_edges",
    "rotation_defect",
    "bfs_distances",
    "bfs_distance",
    "distance_formula",
    "diameter",
    "bfs_diameter",
    "antipode",
    "sign",
    "shortest_representatives",
    "wrap_edges",
    "dot_lines",
    "json_lines",
    "write_export",
]


# The step tables take 4 bytes per vertex and color (18 MiB at n = 14),
# and the exports stream from them.  Measured at n = 14, one process each
# (2 vCPU, Python 3.11): build_graph 0.4 s / 33 MiB; tft graph --format
# json 4.7 s / 35 MiB for a 98 MB file, --format dot 2.4 s / 59 MiB (it
# keeps one label per vertex).  Time, file and labels double per step
# of n, so n = 20 would write a JSON file of over 6 GB.
MAX_GRAPH_N = 14


class FlipGraph(NamedTuple):
    """The flip graph: ``steps[i][v]`` is the id of s_i v."""

    n: int
    steps: list[array]


def build_graph(n: int) -> FlipGraph:
    """One step table per generator color, built on ids.

    s_0 toggles e_0, the top bit of the id's bits; s_i for 0 < i < n
    swaps e_{i-1} and e_i when they differ; s_n toggles e_{n-1}, the
    low bit, and steps e_n by +1 when it clears the bit and by -1 when
    it sets it, modulo n+4.  Bounded by ``MAX_GRAPH_N`` to fit in memory.
    """
    if not 2 <= n <= MAX_GRAPH_N:
        raise ValueError(f"graph construction supports 2 <= n <= {MAX_GRAPH_N}")
    m = n + 4
    steps = []
    for i in range(n + 1):
        step = array("i")
        for bits in range(1 << n):
            if i == n:
                start = (bits ^ 1) * m
                turn = 1 if bits & 1 else m - 1
                step.extend(start + (e + turn) % m for e in range(m))
                continue
            low = n - 1 - i  # the bit of e_i; e_{i-1} sits one above it
            if i == 0:
                other = bits ^ (1 << low)
            elif (bits >> low ^ bits >> (low + 1)) & 1:
                other = bits ^ (3 << low)
            else:
                other = bits
            step.extend(range(other * m, other * m + m))
        steps.append(step)
    return FlipGraph(n, steps)


def vertex_id(r: Rep, n: int) -> int:
    """The index of ``r`` in ``all_reps(n)``."""
    reps.check_rep(r, n)
    bits = 0
    for e in r[:n]:
        bits = bits << 1 | e
    return bits * (n + 4) + r[n]


def vertex_rep(v: int, n: int) -> Rep:
    """The representative with id ``v``: the inverse of ``vertex_id``."""
    bits, last = divmod(v, n + 4)
    return tuple(bits >> j & 1 for j in range(n - 1, -1, -1)) + (last,)


def colored_edges(g: FlipGraph) -> Iterator[tuple[int, int, int]]:
    """Every colored edge (u, v, color), u < v, in sorted order."""
    for u in range(len(g.steps[0])):
        ups = sorted((step[u], i) for i, step in enumerate(g.steps) if step[u] > u)
        for v, color in ups:
            yield u, v, color


def rotation_defect(g: FlipGraph) -> tuple[int, int] | None:
    """The first (color, id) at which stepping e_n by +1 modulo n+4
    does not commute with the step table, or None when the rotation is
    an automorphism of the colored graph."""
    m = g.n + 4
    rot = [v + 1 if v % m < m - 1 else v + 1 - m for v in range(len(g.steps[0]))]
    for i, step in enumerate(g.steps):
        after = [step[v] for v in rot]
        before = [rot[v] for v in step]
        if after != before:
            return i, next(v for v, (a, b) in enumerate(zip(after, before)) if a != b)
    return None


def wrap_edges(n: int) -> set[tuple[Rep, Rep]]:
    """The non-Hasse edges: (v, v a_{n-1} a_n^{n+3}) over all v built
    from the first n-1 exponents."""
    from itertools import product

    out = set()
    for bits in product((0, 1), repeat=n - 1):
        u = bits + (0, 0)
        v = bits + (1, n + 3)
        out.add((u, v))
    return out


# -- metrics --------------------------------------------------------


def bfs_distances(g: FlipGraph, source: int) -> list[int]:
    """Distances from id ``source`` to every id, by breadth-first
    search over the step tables."""
    steps = g.steps
    dist = [-1] * len(steps[0])  # a list indexes faster than array("h")
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        reached = []
        for step in steps:
            for u in frontier:
                v = step[u]
                if dist[v] < 0:
                    dist[v] = d
                    reached.append(v)
        frontier = reached
    if min(dist) < 0:
        raise RuntimeError("flip graph is disconnected: invariant violated")
    return dist


def bfs_distance(n: int, r: Rep, s: Rep) -> int:
    """Flip distance from ``r`` to ``s`` by one breadth-first search."""
    return bfs_distances(build_graph(n), vertex_id(r, n))[vertex_id(s, n)]


def distance_formula(r: Rep, s: Rep, n: int) -> int:
    """Exact flip distance between two representatives, n >= 3.

    Both vertices are rotated so that one lands in the zero fiber;
    the distance is then the smaller of the two rank spreads around
    the fiber cycle.  Equals BFS distance (oracle-checked).
    """
    if n < 3:
        raise ValueError("the closed-form distance requires n >= 3")
    reps.check_rep(r, n)
    reps.check_rep(s, n)
    return _distance(r, s, n)


def _distance(r: Rep, s: Rep, n: int) -> int:
    """The body of :func:`distance_formula`, for checked arguments."""
    delta = (r[n] - s[n]) % (n + 4)
    d1, d2 = delta, n + 4 - delta  # the terms for the empty suffix
    x = 0  # sum of (r_i - s_i) for i = j..n-1, j = n-1 down to 0
    for i in range(n - 1, -1, -1):
        x += r[i] - s[i]
        d1 += abs(delta + x)
        d2 += abs(n + 4 - delta - x)
    return min(d1, d2)


def diameter(n: int) -> int:
    """Closed form (n+1)(n+4)/2, valid for n >= 3."""
    if n < 3:
        raise ValueError("the closed-form diameter requires n >= 3")
    return (n + 1) * (n + 4) // 2


def bfs_diameter(n: int) -> int:
    """Largest eccentricity over all vertices.

    Rotating e_n is first checked to be an automorphism of the colored
    graph, so one BFS source per rotation orbit, the vertices with
    e_n = 0, reaches every eccentricity.
    """
    g = build_graph(n)
    defect = rotation_defect(g)
    if defect is not None:
        raise RuntimeError(
            f"rotating e_n does not commute with s_{defect[0]} at vertex {defect[1]}"
        )
    return max(max(bfs_distances(g, u)) for u in range(0, len(g.steps[0]), n + 4))


def formula_scan_diameter(n: int) -> int:
    """Largest closed-form distance over all pairs of vertices."""
    if n < 3:
        raise ValueError("the closed-form distance requires n >= 3")
    rs = reps.all_reps(n)
    return max(_distance(r, s, n) for i, r in enumerate(rs) for s in rs[i + 1 :])


# -- antipodes, sign ------------------------------------------------


def antipode(r: Rep, n: int, kind: str = "color_reversal") -> Rep:
    """A vertex at distance exactly the diameter from r.

    ``color_reversal`` reverses the chord coloring (any n); ``rotation``
    rotates the polygon by half a turn (even n only).
    """
    reps.check_rep(r, n)
    if kind == "color_reversal":
        m = (2 + sum(r)) % (n + 4)
        return tuple(1 - r[n - 1 - i] for i in range(n)) + (m,)
    if kind == "rotation":
        if n % 2:
            raise ValueError("the rotation antipode requires even n")
        return r[:n] + ((r[n] + (n + 4) // 2) % (n + 4),)
    raise ValueError(f"unknown antipode kind {kind!r}")


def sign(r: Rep) -> int:
    """+1 on even-length representatives, -1 on odd ones."""
    return -1 if reps.rep_length(r) % 2 else 1


# -- shortest coset representatives ---------------------------------


def shortest_representatives(n: int) -> list[tuple[Rep, tuple[int, ...]]]:
    """For every coset, a word of minimum group length representing it.

    Representatives no longer than the diameter keep their own word;
    the rest are shortened by the stabilizer element g_n^{-1}.  The
    resulting word length equals the graph distance from the base
    vertex (oracle-checked in the tests).
    """
    from .coxeter import AffineMap, gn_word, left_descents, word_to_affine

    if n < 3:
        raise ValueError("shortest representatives require n >= 3")
    cutoff = diameter(n)
    gn_inverse = gn_word(n)[::-1]
    generators = [AffineMap.generator(n, i) for i in range(n + 1)]
    out = []
    for r in reps.all_reps(n):
        word = reps.rep_to_word(r)
        if reps.rep_length(r) > cutoff:
            # r a_n^{-(n+4)} is shorter; re-reduce the concatenation by
            # peeling left descents off the realized element
            m = word_to_affine(n, word + gn_inverse)
            word = []
            while not m.is_identity():
                descents = left_descents(m)
                if not descents:
                    raise RuntimeError("no descent found: oracle broken")
                word.append(descents[0])
                m = generators[descents[0]].compose(m)
            word = tuple(word)
        out.append((r, word))
    return out


# -- exports --------------------------------------------------------


def dot_lines(g: FlipGraph) -> Iterator[str]:
    """DOT text with representative labels and generator-colored edges."""
    labels = [reps.format_rep(vertex_rep(v, g.n)) for v in range(len(g.steps[0]))]
    yield f"graph flipgraph_n{g.n} {{\n"
    for label in labels:
        yield f'  "{label}";\n'
    for u, v, color in colored_edges(g):
        yield f'  "{labels[u]}" -- "{labels[v]}" [label="color={color}"];\n'
    yield "}\n"


def json_lines(g: FlipGraph) -> Iterator[str]:
    """Format-1 JSON, laid out as ``json.dumps(doc, indent=1)``."""
    yield f'{{\n "format": 1,\n "n": {g.n},\n "vertices": [\n'
    sep = "  {"
    for v in range(len(g.steps[0])):
        r = vertex_rep(v, g.n)
        yield (
            f'{sep}\n   "rep": "{reps.format_rep(r)}",\n'
            f'   "phi": "{reps.rep_to_phi(r, g.n)}",\n   "length": {reps.rep_length(r)}\n'
        )
        sep = "  },\n  {"
    yield '  }\n ],\n "edges": [\n'
    sep = "  {"
    for u, v, color in colored_edges(g):
        yield f'{sep}\n   "u": {u},\n   "v": {v},\n   "color": {color}\n'
        sep = "  },\n  {"
    yield "  }\n ]\n}\n"


def write_export(g: FlipGraph, fmt: str, path: str) -> None:
    lines = {"dot": dot_lines, "json": json_lines}.get(fmt)
    if lines is None:
        raise ValueError(f"unknown export format {fmt!r}")
    with open(path, "w") as fh:
        fh.writelines(lines(g))
