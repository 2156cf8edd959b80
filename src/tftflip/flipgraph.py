"""The colored flip graph as a Schreier graph on representatives.

A vertex is an exponent-vector representative, and its id is its index
in the lexicographic order of ``all_reps(n)``: bits * (n+4) + e_n, where
bits reads e_0 .. e_{n-1} with e_0 the most significant bit.  The ids
that share their bits form a fiber, F*m .. F*m + m-1 with m = n+4, and
stepping e_n by +1 mod m is an automorphism of the graph, so the graph
is stored as the derived graph of a Z/m voltage graph on the 2^n fibers
(Gross & Tucker, *Topological Graph Theory*, ch. 2): per generator
color, the image fiber and turn of each fiber, read off the generator
action of ``representatives``.  The per-vertex step tables, ``steps[i][v]``
the id of s_i v, are derived from them on first use; a generator that
fixes a vertex maps it to itself and contributes no edge.  The simple
underlying graph is the Hasse diagram of the dominance lattice plus one
"wrap" edge per choice of the first n-1 bits, and carries an exact
distance formula and closed-form diameter, both cross-checked against
breadth-first search over the graph.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, product
from operator import or_
from typing import Iterable, Iterator

from . import representatives as reps
from .coxeter import reduced_word, word_to_affine
from .representatives import Rep

__all__ = [
    "FlipGraph",
    "build_graph",
    "vertex_id",
    "vertex_rep",
    "colored_edges",
    "bfs_distances",
    "bfs_distance",
    "distance_formula",
    "diameter",
    "bfs_diameter",
    "formula_scan_diameter",
    "antipode",
    "sign",
    "shortest_representatives",
    "wrap_edges",
    "dot_lines",
    "json_lines",
    "write_export",
]


# The voltages take 5 bytes per fiber and color (1.2 MiB at n = 14), and
# the exports stream from them alone; the step tables that the per-vertex
# readers derive take 4 bytes per vertex and color (18 MiB at n = 14).
# Measured at n = 14, one process each (2 vCPU, Python 3.11): tft graph
# --format json 1.0-1.1 s / 21 MiB for a 98 MB file, --format dot
# 0.8-1.0 s / 22 MiB for a 122 MB file; bfs_distance to the antipode
# 0.8 s / 38-39 MiB.  Time and file size double per step of n, so n = 20
# would write a JSON file of over 6 GB.
MAX_GRAPH_N = 14


@dataclass(frozen=True)
class FlipGraph:
    """The flip graph as a voltage graph: ``images[i] = (heads, turns)``,
    2^n entries each, says that s_i sends id F*m + e (m = n+4) to
    heads[F]*m + (turns[F] + e) mod m."""

    n: int
    images: list[tuple[array, bytes]]

    @cached_property
    def steps(self) -> list[array]:
        """``steps[i][v]``, the id of s_i v, derived on first use for the
        per-vertex readers (breadth-first search, ``colored_edges``, the
        checks that read single ids): each fiber appends its image fiber's
        block of ``array("i")`` bytes, or two slices of it where the turn is
        not 0.  The fiber readers (the exports, ``bfs_diameter`` and the
        ``relations`` check) never build it."""
        m, width = self.n + 4, struct.calcsize("i")
        # struct packs a range about 2.5 times faster than array("i") reads it
        data = struct.pack(f"{m << self.n}i", *range(m << self.n))
        blocks = [data[v : v + m * width] for v in range(0, len(data), m * width)]
        steps = []
        for heads, turns in self.images:
            step = array("i")
            for h, t in zip(heads, turns):
                block = blocks[h]
                if t:
                    step.frombytes(block[t * width :])
                    block = block[: t * width]
                step.frombytes(block)
            steps.append(step)
        return steps


def build_graph(n: int) -> FlipGraph:
    """The image fiber and turn of each color and fiber, read off
    ``representatives._apply_generator`` at the fiber's head, its
    e_n = 0 vertex, in ``product`` order.  No s_i reads e_n and s_n steps
    it by +-1 modulo n+4, so s_i maps a fiber onto one fiber turned by
    the image of its head: the head itself (a fixed coset), another head
    (turn 0), or a turned fiber's vertex.  Guarded by the per-vertex sweep
    ``TestStepTables::test_tables_equal_the_generator_sweep`` and by
    ``action-vs-geometry`` and ``rotation-automorphism``.  Bounded by
    ``MAX_GRAPH_N`` to fit in memory.
    """
    if not 2 <= n <= MAX_GRAPH_N:
        raise ValueError(f"graph construction supports 2 <= n <= {MAX_GRAPH_N}")
    heads = [bits + (0,) for bits in product((0, 1), repeat=n)]
    index = {head: f for f, head in enumerate(heads)}
    fixed = array("i", range(len(heads)))
    images = []
    for i in range(n + 1):
        targets, turns = fixed[:], bytearray(len(heads))
        for f, head in enumerate(heads):
            s = reps._apply_generator(i, head, n)
            if s is not head:
                h = index.get(s)
                if h is None:
                    h, turns[f] = index[s[:n] + (0,)], s[n]
                targets[f] = h
        images.append((targets, bytes(turns)))
    return FlipGraph(n, images)


def vertex_id(r: Rep, n: int) -> int:
    """The index of ``r`` in ``all_reps(n)``."""
    reps.check_rep(r, n)
    bits = 0
    for e in r[:n]:
        bits = bits << 1 | e
    return bits * (n + 4) + r[n]


def vertex_rep(v: int, n: int) -> Rep:
    """The representative with id ``v``: the inverse of ``vertex_id``."""
    if n < 2:
        raise ValueError("representatives require n >= 2")
    if not 0 <= v < (n + 4) << n:
        raise ValueError(f"vertex id {v} out of range 0..{((n + 4) << n) - 1}")
    bits, last = divmod(v, n + 4)
    return tuple(bits >> j & 1 for j in range(n - 1, -1, -1)) + (last,)


def colored_edges(g: FlipGraph) -> Iterator[tuple[int, int, int]]:
    """Every colored edge (u, v, color), u < v, in sorted order: each
    fiber's ids with its up-colors from ``_edge_runs``, which raises
    ``RuntimeError`` at the first ``next()`` on a refused table.  Guarded
    by the per-vertex sort in
    ``TestStepTables::test_export_edges_equal_the_generator_sweep`` and
    ``TestExports::test_unusual_tables_*``."""
    m = g.n + 4
    for f, colors in _edge_runs(g):
        for u in range(f * m, f * m + m):
            for c in colors:
                yield u, g.steps[c][u], c


def _fiber_images(g: FlipGraph) -> list[tuple[array, bytes]]:
    """The one checked reader of the voltages: ``g.images`` once every
    color is an involution, else ``RuntimeError``.  s_i s_i sends F*m + e
    to F''*m + (t + t'' + e) mod m, so it fixes the fiber (F'' = F,
    t + t'' = 0 mod m) exactly when it fixes F*m, the first id it moves."""
    m = g.n + 4
    for i, (heads, turns) in enumerate(g.images):
        for f, (h, t) in enumerate(zip(heads, turns)):
            if heads[h] != f or (t + turns[h]) % m:
                raise RuntimeError(f"s_{i} is not an involution at vertex {f * m}")
    return g.images


def _edge_runs(g: FlipGraph) -> list[tuple[int, tuple[int, ...]]]:
    """Each fiber F with up edges, and their colors by target fiber: all
    ids F*m + e have the edges (u, s_c u, c) in that order, unless a
    color turns F within itself (up only for e < m - t) or two colors
    send F to one fiber (their order changes with e).  ``build_graph``
    makes neither, as s_0 and s_n always change a bit and a middle s_i
    swaps two bits or fixes the coset, so the exports refuse both."""
    runs = []
    for f, images in enumerate(zip(*[zip(*image) for image in _fiber_images(g)])):
        ups = sorted((h, c) for c, (h, t) in enumerate(images) if (h, t) > (f, 0))
        # F itself, or one target twice, leaves fewer targets than colors
        if len({f, *(h for h, _ in ups)}) <= len(ups):
            raise RuntimeError(f"a color turns fiber {f} within itself or shares its target fiber")
        if ups:
            runs.append((f, tuple(c for _, c in ups)))
    return runs


def wrap_edges(n: int) -> set[tuple[Rep, Rep]]:
    """The non-Hasse edges: (v, v a_{n-1} a_n^{n+3}) over all v built
    from the first n-1 exponents."""
    if n < 2:
        raise ValueError("representatives require n >= 2")
    return {(bits + (0, 0), bits + (1, n + 3)) for bits in product((0, 1), repeat=n - 1)}


# -- metrics --------------------------------------------------------


def _levels(g: FlipGraph, source: int, dist: list[int]) -> Iterator[int]:
    """Breadth-first search over the step tables from id ``source``:
    fills ``dist`` (-1 where unreached) one level at a time and yields
    each level d once every id at distance d is set, level 0 first."""
    steps = g.steps
    dist[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        yield d
        d += 1
        reached = []
        for step in steps:
            for u in frontier:
                v = step[u]
                if dist[v] < 0:
                    dist[v] = d
                    reached.append(v)
        frontier = reached


def bfs_distances(g: FlipGraph, source: int) -> list[int]:
    """Distances from id ``source`` to every id: ``_levels`` run to the
    end.  Raises ``RuntimeError`` if some id stays unreached, so every
    caller also checks that the graph is connected."""
    dist = [-1] * len(g.steps[0])  # a list indexes faster than array("h")
    for _ in _levels(g, source, dist):
        pass
    if min(dist) < 0:
        raise RuntimeError("flip graph is disconnected: invariant violated")
    return dist


def bfs_distance(n: int, r: Rep, s: Rep) -> int:
    """Flip distance from ``r`` to ``s`` by breadth-first search from
    ``r``, stopped at the first level that reaches ``s``.

    A target that the search cannot reach raises the disconnection
    ``RuntimeError``, so the answer is always exact.  The guard is
    narrower than ``bfs_distances``': a disconnection that leaves ``r``
    and ``s`` in one component goes unnoticed here, and the
    ``stabilizer``, ``distance-formula``, ``diameter-bfs`` and
    ``shortest-reps`` checks of ``tft verify`` still report it.
    """
    g = build_graph(n)
    source, target = vertex_id(r, n), vertex_id(s, n)
    dist = [-1] * len(g.steps[0])
    for _ in _levels(g, source, dist):
        if dist[target] >= 0:
            return dist[target]
    raise RuntimeError("flip graph is disconnected: invariant violated")


def distance_formula(r: Rep, s: Rep, n: int) -> int:
    """Exact flip distance between two representatives, n >= 3.

    Both vertices are rotated so that one lands in the zero fiber;
    the distance is then the smaller of the two rank spreads around
    the fiber cycle, read in O(n) off the term table ``_terms(n)`` that
    ``formula_scan_diameter`` reads too.  Equals BFS distance
    (oracle-checked).
    """
    if n < 3:
        raise ValueError("the closed-form distance requires n >= 3")
    reps.check_rep(r, n)
    reps.check_rep(s, n)
    return _distance(r, s, n)


@lru_cache(maxsize=16)
def _terms(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two terms a point k of ``_distance``'s walk adds, |k| to d1
    and |n+4-k| to d2, as two columns over k = -n..2n+3, the points a
    walk of n moves from 0..n+3 can reach; a negative k indexes from
    the end."""
    ks = [*range(2 * n + 4), *range(-n, 0)]
    return tuple(map(abs, ks)), tuple(abs(n + 4 - k) for k in ks)


def _distance(r: Rep, s: Rep, n: int) -> int:
    """The body of :func:`distance_formula`, for checked arguments: a
    walk from k = (r_n - s_n) mod (n+4) that moves by r_i - s_i for
    i = n-1 down to 0, each point adding its ``_terms``."""
    near, far = _terms(n)
    k = (r[n] - s[n]) % (n + 4)
    d1, d2 = near[k], far[k]
    for i in range(n - 1, -1, -1):
        k += r[i] - s[i]
        d1 += near[k]
        d2 += far[k]
    return min(d1, d2)


def diameter(n: int) -> int:
    """Closed form (n+1)(n+4)/2, valid for n >= 3."""
    if n < 3:
        raise ValueError("the closed-form diameter requires n >= 3")
    return (n + 1) * (n + 4) // 2


def bfs_diameter(g: FlipGraph) -> int:
    """Largest eccentricity over all vertices of ``g``.

    Rotating e_n is an automorphism of the voltage graph, so one source
    per rotation orbit (e_n = 0) reaches every eccentricity, and each
    color is checked to be an involution, so a level may pull from
    neighbours.  All sources run in one sweep with one integer per fiber
    F (ids F*m + e, m = n+4): bit e*2^n + k of ``seen[F]`` says that the
    source with id k*m has reached id F*m + e.  s_i sends F*m + e to
    F'*m + (t + e) mod m, so a color pulls ``seen[F']`` rotated right by
    t fields of 2^n bits, F' and t read off ``_fiber_images``.  Guarded
    by ``reference_bfs_diameter``, the per-vertex sweep, in the tests."""
    m, width = g.n + 4, 1 << g.n
    total = m * width
    by_turn = [(t * width, (1 << t * width) - 1, total - t * width) for t in range(m)]
    pulls = []
    for heads, turns in _fiber_images(g):
        # a color that turns no fiber pulls its fields in place
        turn = tuple(zip(*map(by_turn.__getitem__, turns))) if any(turns) else None
        pulls.append((tuple(heads), turn))
    full = (1 << total) - 1
    seen = [1 << f for f in range(width)]
    levels = 0
    while seen.count(full) < width:
        reached = seen
        for heads, turn in pulls:
            pull = map(seen.__getitem__, heads)
            reached = map(or_, reached, pull if turn is None else map(_turn, pull, *turn))
        reached = list(reached)
        if reached == seen:
            raise RuntimeError("flip graph is disconnected: invariant violated")
        seen, levels = reached, levels + 1
    return levels


def _turn(x: int, shift: int, mask: int, left: int) -> int:
    """``x`` rotated right by ``shift`` of its ``shift + left`` bits;
    ``mask`` keeps the ``shift`` bits that wrap round to the top."""
    return (x >> shift) | ((x & mask) << left)


_D2 = (1 << 32) - 1  # a point of the scan packs its sums as d1 << 32 | d2


def formula_scan_diameter(n: int) -> int:
    """Largest closed-form distance over all pairs of vertices, by one
    dynamic program over ``_distance``'s walk: every start 0..n+3 and
    move in {-1, 0, 1} is some pair's, and what a walk adds from a point
    k on depends on k alone.  So each k keeps only the (d1, d2) sums no
    other walk to k matches or beats in both (``_pareto``), and the
    largest min(d1, d2) at the end is the maximum over all pairs.  Each
    last point attaining it is walked back to a pair, on which
    ``_distance`` must agree, else ``RuntimeError``.  Guarded by the
    scan of one pair per difference class in the tests."""
    if n < 3:
        raise ValueError("the closed-form distance requires n >= 3")
    near, far = _terms(n)
    fronts = [{k: array("q", [near[k] << 32 | far[k]]) for k in range(n + 4)}]
    for j in range(1, n + 1):
        last, front = fronts[-1], {}
        for k in range(-j, n + 4 + j):
            add = near[k] << 32 | far[k]
            points = chain(last.get(k - 1, ()), last.get(k, ()), last.get(k + 1, ()))
            front[k] = array("q", _pareto([p + add for p in points]))
        fronts.append(front)
    best = max(min(p >> 32, p & _D2) for points in fronts[-1].values() for p in points)
    for k, points in fronts[-1].items():
        for p in points:
            if min(p >> 32, p & _D2) == best:
                r, s = _walk_back(fronts, k, p, n)
                d = _distance(r, s, n)
                if d != best:
                    raise RuntimeError(
                        f"formula gives {d} at {r}, {s}, a pair the scan puts at {best}"
                    )
    return best


def _walk_back(fronts: list[dict[int, array]], k: int, p: int, n: int) -> tuple[Rep, Rep]:
    """A pair whose walk ends at k with sums p: each step back takes off
    k's terms and finds the rest at a neighbour h one step earlier, the
    move h -> k being r_i - s_i; the start is delta = r_n, with s_n = 0."""
    near, far = _terms(n)
    r, s = [0] * n, [0] * n
    for j in range(n, 0, -1):
        p -= near[k] << 32 | far[k]
        h = next(h for h in (k - 1, k, k + 1) if p in fronts[j - 1].get(h, ()))
        r[n - j], s[n - j], k = int(k > h), int(k < h), h
    return (*r, k), (*s, 0)


def _pareto(points: Iterable[int]) -> list[int]:
    """The packed points that no other point matches or beats in both
    sums, d1 descending."""
    front, top = [], -1
    for p in sorted(points, reverse=True):
        if p & _D2 > top:
            front.append(p)
            top = p & _D2
    return front


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

    Representatives no longer than the diameter keep their own word.
    A longer r is shortened by the stabilizer element a_n^{n+4}, where
    a_n^{-1} = s_0 s_1 ... s_n: the e_n copies of a_n that end r cancel
    in r a_n^{-(n+4)}, whose short word is that of (e_0, ..., e_{n-1}, 0)
    followed by (s_0 ... s_n)^{n+4-e_n}.  The long reps of a fiber are
    its last ones, so only the first is realized from its letters; each
    later one is the one before it times a_n.  ``coxeter.reduced_word``
    re-reduces each map.  The resulting word length equals the graph
    distance from the base vertex (oracle-checked in the tests).
    """
    if n < 3:
        raise ValueError("shortest representatives require n >= 3")
    cutoff = diameter(n)
    a_n = word_to_affine(n, tuple(range(n, -1, -1)))
    out = []
    shortened = None  # the map of the previous rep, while it was long
    for r in reps.all_reps(n):
        if reps.rep_length(r) <= cutoff:  # as every fiber's head is
            shortened = None
            out.append((r, reps.rep_to_word(r)))
            continue
        if shortened is None:
            word = reps.rep_to_word(r[:n] + (0,)) + tuple(range(n + 1)) * (n + 4 - r[n])
            shortened = word_to_affine(n, word)
        else:
            shortened = shortened.compose(a_n)
        out.append((r, reduced_word(shortened)))
    return out


# -- exports --------------------------------------------------------


def _fiber_heads(n: int) -> Iterator[tuple[Rep, str]]:
    """The e_n = 0 vertex of each fiber in id order, with its label
    less the final "0": a fiber's labels are that head followed by e_n."""
    for bits in product((0, 1), repeat=n):
        r = bits + (0,)
        yield r, reps.format_rep(r)[:-1]


def dot_lines(g: FlipGraph) -> Iterator[str]:
    """DOT text with representative labels and generator-colored edges,
    one fiber at a time.

    The label of id v is its fiber's head (``_fiber_heads``) followed by
    e_n = v mod (n+4), so ``format_rep`` runs once per fiber.  A fiber's
    vertex lines, and its edges in ``_edge_runs`` order, are one
    ``%``-template each with the head labels built in, repeated once per
    id and filled from turned ``range(n+4)`` columns.  A refused table
    raises ``RuntimeError`` before the first line.  Guarded by
    ``TestExports::test_streamed_export_equals_the_reference``,
    ``test_unusual_tables_*`` and
    ``test_exports_read_the_library_once_per_fiber``, and at n = 12 by
    ``TestGraph::test_n12_dot_export_streams_in_small_memory``.
    """
    m = g.n + 4
    runs = _edge_runs(g)
    heads = [head for _, head in _fiber_heads(g.n)]
    turned = tuple(range(m)) * 2
    yield f"graph flipgraph_n{g.n} {{\n"
    for head in heads:
        yield f'  "{head}%d";\n' * m % turned[:m]
    for f, colors in runs:
        unit, columns = "", []
        for c in colors:
            h, t = g.images[c][0][f], g.images[c][1][f]
            unit += f'  "{heads[f]}%d" -- "{heads[h]}%d" [label="color={c}"];\n'
            columns += turned[:m], turned[t : t + m]
        yield unit * m % tuple(chain.from_iterable(zip(*columns)))
    yield "}\n"


_NEXT = "  },\n  {"  # closes one JSON record and opens the next


def json_lines(g: FlipGraph) -> Iterator[str]:
    """Format-1 JSON, laid out as ``json.dumps(doc, indent=1)``, one
    fiber at a time.

    The library is read once per fiber, at its e_n = 0 vertex r: raising
    e_n to e appends e to the label, moves the phi center from a to
    (a - e) mod (n+4) and adds (n+1)*e to the length, one a_n factor per
    step.  So a fiber's vertex records are one ``%``-template, repeated
    n+4 times and filled from ``range`` and tuple-slice columns, and its
    edge records one from ``range`` columns, each target column two of
    them off the image fiber and turn, colors in ``_edge_runs`` order;
    no edges give ``"edges": []``.  A refused table
    raises ``RuntimeError`` before the first line.  Guarded as
    ``dot_lines``, by ``test_exports_of_a_table_without_edges``, and at
    n = 12 by ``TestGraph::test_n12_json_export_streams_in_small_memory``.
    """
    n, m = g.n, g.n + 4
    runs = _edge_runs(g)
    centers = tuple(range(m - 1, -1, -1)) * 2  # (a - e) mod m from index m-1-a
    yield f'{{\n "format": 1,\n "n": {n},\n "vertices": [\n'
    sep = "  {"
    for r, head in _fiber_heads(n):
        phi, length = reps.rep_to_phi(r, n), reps.rep_length(r)
        bits = str(phi).partition(":")[2]
        record = f'\n   "rep": "{head}%d",\n   "phi": "%d:{bits}",\n   "length": %d\n'
        columns = range(m), centers[m - 1 - phi.a :], range(length, length + (n + 1) * m, n + 1)
        yield sep + _NEXT.join([record] * m) % tuple(chain.from_iterable(zip(*columns)))
        sep = _NEXT
    yield '  }\n ],\n "edges": ['
    sep = "\n  {"
    for f, colors in runs:
        unit = _NEXT.join(f'\n   "u": %d,\n   "v": %d,\n   "color": {c}\n' for c in colors)
        template = _NEXT.join([unit] * m)
        u0, columns = f * m, []
        for c in colors:
            v0, t = g.images[c][0][f] * m, g.images[c][1][f]
            columns += range(u0, u0 + m), chain(range(v0 + t, v0 + m), range(v0, v0 + t))
        yield sep + template % tuple(chain.from_iterable(zip(*columns)))
        sep = _NEXT
    yield "  }\n ]\n}\n" if sep == _NEXT else "]\n}\n"


def write_export(g: FlipGraph, fmt: str, path: str) -> None:
    """Writes the export; its first chunk is taken before ``path`` is
    opened, so a table that the readers refuse leaves no file."""
    lines = {"dot": dot_lines, "json": json_lines}.get(fmt)
    if lines is None:
        raise ValueError(f"unknown export format {fmt!r}")
    chunks = lines(g)
    first = next(chunks)
    with open(path, "w") as fh:
        fh.write(first)
        fh.writelines(chunks)
