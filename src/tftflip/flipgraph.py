"""The colored flip graph as a Schreier graph on representatives.

Vertices are the exponent-vector representatives in lexicographic
order; a generator that moves a vertex to a different coset contributes
a colored edge.  The simple underlying graph is the Hasse diagram of
the dominance lattice plus one "wrap" edge per choice of the first n-1
bits, and carries an exact distance formula and closed-form diameter,
both cross-checked against breadth-first search.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from . import representatives as reps
from .representatives import Rep

__all__ = [
    "FlipGraph",
    "build_graph",
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


# Peak RSS of build_graph about doubles per step of n: 112 MiB at
# n = 12, 464 MiB (and 30 s) at n = 14, so n = 20 would need ~30 GiB.
MAX_GRAPH_N = 14


@dataclass(frozen=True)
class FlipGraph:
    """Schreier graph on the (n+4)*2^n coset representatives.

    ``edges`` keeps the generator colors; ``adjacency`` is the simple
    underlying graph used for all metrics.  A generator that fixes a
    vertex contributes no edge, so the colors missing at a vertex are
    exactly its fixed generators.
    """

    n: int
    vertices: tuple[Rep, ...]
    index: dict[Rep, int] = field(hash=False)
    edges: tuple[tuple[int, int, int], ...]  # (u, v, color), u < v
    adjacency: tuple[tuple[int, ...], ...] = field(hash=False)

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])


def build_graph(n: int) -> FlipGraph:
    """Materialize the flip graph by sweeping every generator over
    every vertex.  Bounded by ``MAX_GRAPH_N`` to fit in memory."""
    if not 2 <= n <= MAX_GRAPH_N:
        raise ValueError(f"graph construction supports 2 <= n <= {MAX_GRAPH_N}")
    vertices = tuple(reps.all_reps(n))
    index = {r: i for i, r in enumerate(vertices)}
    edges = set()
    for u, r in enumerate(vertices):
        for i in range(n + 1):
            res = reps.apply_generator(i, r, n)
            if res.moved:
                v = index[res.rep]
                edges.add((min(u, v), max(u, v), i))
    return _graph(n, vertices, index, edges)


def _graph(n: int, vertices: tuple[Rep, ...], index: dict[Rep, int], edges) -> FlipGraph:
    """The one constructor: sorted colored edges plus adjacency."""
    adjacency = [set() for _ in vertices]
    for u, v, _ in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return FlipGraph(
        n=n,
        vertices=vertices,
        index=index,
        edges=tuple(sorted(edges)),
        adjacency=tuple(tuple(sorted(a)) for a in adjacency),
    )


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
    dist = [-1] * len(g.vertices)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    if min(dist) < 0:
        raise RuntimeError("flip graph is disconnected: invariant violated")
    return dist


def bfs_distance(g: FlipGraph, u: Rep, v: Rep) -> int:
    return bfs_distances(g, g.index[u])[g.index[v]]


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


def bfs_diameter(g: FlipGraph) -> int:
    """Largest eccentricity, one BFS source at a time."""
    return max(max(bfs_distances(g, u)) for u in range(len(g.vertices)))


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
    index = {r: i for i, r in enumerate(vertices)}
    if len(index) != len(vertices):
        raise ValueError("duplicate vertices")
    edges = []
    for e in _field(doc, "edges", list):
        u, v, color = (_field(e, key, int) for key in ("u", "v", "color"))
        if not (0 <= u < v < len(vertices) and 0 <= color <= n):
            raise ValueError(f"edge {e} out of range for {len(vertices)} vertices, n={n}")
        edges.append((u, v, color))
    return _graph(n, vertices, index, edges)


def write_export(g: FlipGraph, fmt: str, path: str) -> None:
    if fmt == "dot":
        text = export_dot(g)
    elif fmt == "json":
        text = export_json(g)
    else:
        raise ValueError(f"unknown export format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)
