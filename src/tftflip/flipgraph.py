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

import json
from array import array
from dataclasses import dataclass

from . import representatives as reps
from .representatives import Rep

__all__ = [
    "FlipGraph",
    "build_graph",
    "step_tables",
    "vertex_id",
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
    "export_dot",
    "export_json",
    "graph_from_json",
]


# The step tables take 4 bytes per vertex and color (18 MiB at n = 14).
# Peak RSS of build_graph about doubles per step of n: 50 MiB at
# n = 12, 190 MiB (and 1.4 s) at n = 14, so n = 20 would need ~12 GiB.
MAX_GRAPH_N = 14


@dataclass(frozen=True)
class FlipGraph:
    """Export view of the flip graph: the (n+4)*2^n representatives in
    id order and the sorted colored edges."""

    n: int
    vertices: tuple[Rep, ...]
    edges: tuple[tuple[int, int, int], ...]  # (u, v, color), u < v


def build_graph(n: int) -> FlipGraph:
    """The export view, read off the step tables."""
    steps = step_tables(n)
    ids = list(range(len(steps[0])))  # the edges share one int per id
    edges = sorted(
        (u, ids[v], i) for i, step in enumerate(steps) for u, v in zip(ids, step) if u < v
    )
    return FlipGraph(n, tuple(reps.all_reps(n)), tuple(edges))


def step_tables(n: int) -> list[array]:
    """One table per generator color: ``steps[i][v]`` is the id of s_i v.

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
    return steps


def vertex_id(r: Rep, n: int) -> int:
    """The index of ``r`` in ``all_reps(n)``."""
    reps.check_rep(r, n)
    bits = 0
    for e in r[:n]:
        bits = bits << 1 | e
    return bits * (n + 4) + r[n]


def rotation_defect(steps: list[array], n: int) -> tuple[int, int] | None:
    """The first (color, id) at which stepping e_n by +1 modulo n+4
    does not commute with the step table, or None when the rotation is
    an automorphism of the colored graph."""
    m = n + 4
    rot = [v + 1 if v % m < m - 1 else v + 1 - m for v in range(len(steps[0]))]
    for i, step in enumerate(steps):
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


def bfs_distances(steps: list[array], source: int) -> list[int]:
    """Distances from id ``source`` to every id, by breadth-first
    search over the step tables."""
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
    return bfs_distances(step_tables(n), vertex_id(r, n))[vertex_id(s, n)]


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
    steps = step_tables(n)
    defect = rotation_defect(steps, n)
    if defect is not None:
        raise RuntimeError(
            f"rotating e_n does not commute with s_{defect[0]} at vertex {defect[1]}"
        )
    return max(max(bfs_distances(steps, u)) for u in range(0, len(steps[0]), n + 4))


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


def export_dot(g: FlipGraph) -> str:
    """DOT text with representative labels and generator-colored edges."""
    lines = [f"graph flipgraph_n{g.n} {{"]
    for r in g.vertices:
        lines.append(f'  "{reps.format_rep(r)}";')
    for u, v, color in g.edges:
        lines.append(
            f'  "{reps.format_rep(g.vertices[u])}" -- '
            f'"{reps.format_rep(g.vertices[v])}" [label="color={color}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: FlipGraph) -> str:
    """Stable machine-readable form (format 1), deterministically ordered."""
    doc = {
        "format": 1,
        "n": g.n,
        "vertices": [
            {
                "rep": reps.format_rep(r),
                "phi": str(reps.rep_to_phi(r, g.n)),
                "length": reps.rep_length(r),
            }
            for r in g.vertices
        ],
        "edges": [{"u": u, "v": v, "color": c} for u, v, c in g.edges],
    }
    return json.dumps(doc, indent=1) + "\n"


def _field(record, key: str, kind: type):
    """``record[key]``, required to exist and to have type ``kind``."""
    value = record.get(key) if isinstance(record, dict) else None
    if type(value) is not kind:
        raise ValueError(f"{key!r} must be a JSON {kind.__name__}: {record!r:.80}")
    return value


def graph_from_json(text: str) -> FlipGraph:
    """Rebuild a graph from its JSON export.

    Raises ``ValueError`` on anything but a well-formed format-1
    export: edge endpoints must index the vertex list, u < v, and
    colors lie in 0..n.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("graph document nested too deeply") from None
    if _field(doc, "format", int) != 1:
        raise ValueError(f"unsupported format {doc['format']!r}")
    n = _field(doc, "n", int)
    vertices = tuple(
        reps.parse_rep(_field(rec, "rep", str), n) for rec in _field(doc, "vertices", list)
    )
    if len(set(vertices)) != len(vertices):
        raise ValueError("duplicate vertices")
    edges = []
    for e in _field(doc, "edges", list):
        u, v, color = (_field(e, key, int) for key in ("u", "v", "color"))
        if not (0 <= u < v < len(vertices) and 0 <= color <= n):
            raise ValueError(f"edge {e} out of range for {len(vertices)} vertices, n={n}")
        edges.append((u, v, color))
    return FlipGraph(n, vertices, tuple(sorted(edges)))


def write_export(g: FlipGraph, fmt: str, path: str) -> None:
    if fmt == "dot":
        text = export_dot(g)
    elif fmt == "json":
        text = export_json(g)
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)
