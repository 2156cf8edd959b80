import json
import random
import tracemalloc
from array import array
from collections import Counter, defaultdict, deque
from itertools import product

import pytest

from tftflip import flipgraph
from tftflip import representatives as reps
from tftflip.checks import run_suite
from tftflip.cli import main
from tftflip.coxeter import AffineMap, coxeter_length, gn_word, left_descents, word_to_affine
from tftflip.flipgraph import (
    FlipGraph,
    _distance,
    antipode,
    bfs_diameter,
    bfs_distance,
    bfs_distances,
    build_graph,
    colored_edges,
    diameter,
    distance_formula,
    dot_lines,
    formula_scan_diameter,
    json_lines,
    shortest_representatives,
    sign,
    vertex_id,
    vertex_rep,
    wrap_edges,
    write_export,
)
from tftflip.geometry import phi_inv
from tftflip.representatives import (
    all_reps,
    apply_generator,
    covers,
    format_rep,
    identity_rep,
    longest_rep,
    rep_length,
    rep_to_phi,
)


def fixed_generators(r, n):
    return [i for i in range(n + 1) if not apply_generator(i, r, n).moved]


# -- reference graph, kept apart from the library's step tables ------


def reference_steps(n):
    """``steps[i][u]``, the index of s_i u, by sweeping the public
    ``apply_generator`` over every vertex through an index dict."""
    vertices = all_reps(n)
    index = {r: u for u, r in enumerate(vertices)}
    return [[index[apply_generator(i, r, n).rep] for r in vertices] for i in range(n + 1)]


def reference_edges(ref):
    """The colored edges (u, v, color), u < v, of a reference table."""
    return {
        (min(u, v), max(u, v), i)
        for i, step in enumerate(ref)
        for u, v in enumerate(step)
        if u != v
    }


def reference_adjacency(ref):
    """Sorted neighbour lists built from the reference edges."""
    neighbours = [set() for _ in ref[0]]
    for u, v, _ in reference_edges(ref):
        neighbours[u].add(v)
        neighbours[v].add(u)
    return [sorted(vs) for vs in neighbours]


def reference_bfs(adjacency, source):
    """Queue-driven breadth-first search over ``reference_adjacency``."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def reference_dot(n, steps=None):
    """The DOT export built whole from ``all_reps`` and the sorted edges
    of ``steps`` (by default the reference tables)."""
    vertices = all_reps(n)
    lines = [f"graph flipgraph_n{n} {{"]
    for r in vertices:
        lines.append(f'  "{format_rep(r)}";')
    for u, v, color in sorted(reference_edges(steps or reference_steps(n))):
        lines.append(
            f'  "{format_rep(vertices[u])}" -- '
            f'"{format_rep(vertices[v])}" [label="color={color}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_json(n, steps=None):
    """The format-1 JSON export built whole as a document and encoded
    by ``json.dumps``, with the edges of ``steps`` (by default the
    reference tables)."""
    doc = {
        "format": 1,
        "n": n,
        "vertices": [
            {"rep": format_rep(r), "phi": str(rep_to_phi(r, n)), "length": rep_length(r)}
            for r in all_reps(n)
        ],
        "edges": [
            {"u": u, "v": v, "color": c}
            for u, v, c in sorted(reference_edges(steps or reference_steps(n)))
        ],
    }
    return json.dumps(doc, indent=1) + "\n"


def reference_bfs_diameter(g):
    """The per-vertex sweep: bit k of ``seen[v]`` says that the source
    with id k*(n+4) has reached id v, and each level ORs in the sets of
    every vertex's neighbours, one color at a time."""
    m = g.n + 4
    full = (1 << (1 << g.n)) - 1
    seen = [1 << (v // m) if v % m == 0 else 0 for v in range(len(g.steps[0]))]
    levels = 0
    while seen.count(full) < len(seen):
        reached = seen
        for step in g.steps:
            reached = [a | seen[v] for a, v in zip(reached, step)]
        if reached == seen:
            raise RuntimeError("flip graph is disconnected: invariant violated")
        seen, levels = reached, levels + 1
    return levels


def reference_derived_steps(g):
    """The step tables of ``g``'s voltages, one id at a time: v = F*m + e
    goes to heads[F]*m + (turns[F] + e) mod m."""
    m = g.n + 4
    return [
        [heads[v // m] * m + (turns[v // m] + v % m) % m for v in range(m << g.n)]
        for heads, turns in g.images
    ]


def reference_walk(steps, word, ids):
    """The ids that ``word`` sends ``ids`` to through the per-vertex step
    tables, rightmost letter first: one table lookup per letter and id."""
    for letter in reversed(word):
        row = steps[letter]
        ids = [row[u] for u in ids]
    return list(ids)


def rewired(g, color, heads, turns):
    """``g`` with the image fibers and turns of color ``color`` replaced."""
    images = list(g.images)
    images[color] = (array("i", heads), bytes(turns))
    return FlipGraph(g.n, images)


def turned(n, color, turn, half=False):
    """``build_graph(n)`` with color ``color`` rewired: each fiber it moves
    lands ``turn`` ids further round its image fiber, and its image fiber
    ``turn`` ids back, so the color stays an involution.  ``half`` turns
    each fiber it fixes by (n+4)/2."""
    g, m = build_graph(n), n + 4
    heads, turns = g.images[color]
    fixed = m // 2 if half else 0
    turns = [
        (t + (fixed if h == f else turn if f < h else -turn)) % m
        for f, (h, t) in enumerate(zip(heads, turns))
    ]
    g = rewired(g, color, heads, turns)
    step = g.steps[color]
    assert all(step[step[v]] == v for v in range(len(step)))
    return g


def shared_target(n, turn=3):
    """``build_graph(n)`` with s_2 also joining fiber 0 (bits 0...0) to
    s_0's image of it, fiber 2^(n-1) (bits 10...0), turned by ``turn``:
    s_2 fixes both fibers, so the color stays an involution, and two
    colors send fiber 0 to one fiber."""
    g, m, b = build_graph(n), n + 4, 1 << (n - 1)
    step = g.steps[2]
    assert (step[0], step[b * m], g.steps[0][0]) == (0, b * m, b * m)
    heads, turns = array("i", g.images[2][0]), bytearray(g.images[2][1])
    heads[0], turns[0], heads[b], turns[b] = b, turn, 0, m - turn
    g = rewired(g, 2, heads, turns)
    # which of s_0 and s_2 reaches the lower id changes at e_n = m - turn
    edges = sorted(reference_edges(g.steps))
    order = [[c for u, _, c in edges if u == e and c in (0, 2)] for e in range(m)]
    assert order == [[0, 2]] * (m - turn) + [[2, 0]] * turn
    return g


def without_edges():
    """Voltages in which every generator fixes every vertex at n = 3."""
    return FlipGraph(3, [(array("i", range(8)), bytes(8))] * 4)


def with_turns(g, turn):
    """``g`` with each fiber's turn t replaced by ``turn(t) mod (n+4)``."""
    return FlipGraph(g.n, [(h, bytes(turn(t) % (g.n + 4) for t in ts)) for h, ts in g.images])


def freeze_ends(g):
    """``g`` with s_0 and s_n fixing every vertex: no generator left
    changes the number of ones, so id 0 is alone in its orbit."""
    fixed = (array("i", range(1 << g.n)), bytes(1 << g.n))
    return FlipGraph(g.n, [fixed, *g.images[1 : g.n], fixed])


def cut_off(g, f):
    """``g`` with fiber ``f`` and each of its image fibers fixed by that
    color, so that no generator joins ``f`` to another fiber."""
    images = []
    for heads, turns in g.images:
        heads, turns, h = array("i", heads), bytearray(turns), heads[f]
        heads[f], heads[h], turns[f], turns[h] = f, h, 0, 0
        images.append((heads, bytes(turns)))
    return FlipGraph(g.n, images)


# voltages and the orbit size of id 0 under them: the true graph is
# transitive, zero turns keep each fiber's id e, even turns keep e's
# parity, and a fiber cut off loses its n+4 ids
ORBITS = {
    "true": (lambda g: g, lambda n: (n + 4) << n),
    "zero-turns": (lambda g: with_turns(g, lambda t: 0), lambda n: 1 << n),
    "doubled-turns": (lambda g: with_turns(g, lambda t: 2 * t), lambda n: (n + 4) << n - 1),
    "frozen-ends": (freeze_ends, lambda n: 1),
    "cut-off": (lambda g: cut_off(g, (1 << g.n) - 1), lambda n: ((1 << n) - 1) * (n + 4)),
}


def bottom_to_top(n=3):
    """``build_graph(n)`` with s_0 sending fiber 0 (bits 0...0) to the
    last fiber (bits 1...1), turn kept: s_0 s_0 then moves id 0."""
    g = build_graph(n)
    heads, turns = g.images[0]
    return rewired(g, 0, [(1 << n) - 1, *heads[1:]], turns)


# voltages that build_graph never makes: the fibers that s_c moves turned
# by +-2, each fiber's edges still in one order
UNUSUAL_TABLES = [
    (f"turn2-n{n}-s{c}", n, lambda n=n, c=c: turned(n, c, 2)) for n in (3, 5) for c in range(n + 1)
]
# and tables with a fiber whose edges change order with e_n: the fibers
# that s_c fixes turned within themselves by half a turn, and two colors
# sending a fiber to one fiber
SPLIT_TABLES = (
    [(f"half-n{n}-s{c}", n, lambda n=n, c=c: turned(n, c, 1, half=True))
     for n in (4, 6) for c in range(1, n)]
    + [(f"shared-n{n}", n, lambda n=n: shared_target(n)) for n in (3, 5)]
)


def reference_split_fiber(g):
    """The first fiber F whose ids F*m + e do not all have their up
    edges in one color order, by the per-vertex edge sort."""
    m, order = g.n + 4, defaultdict(list)
    for u, _, c in sorted(reference_edges(g.steps)):
        order[u].append(c)
    return next(f for f in range(1 << g.n) if len({tuple(order[f * m + e]) for e in range(m)}) > 1)


def outcome(call, *args):
    """What ``call(*args)`` returns, or the text of its ``RuntimeError``."""
    try:
        return call(*args)
    except RuntimeError as exc:
        return str(exc)


def reference_scan_diameter(n):
    """Largest closed-form distance, one formula call per pair."""
    rs = all_reps(n)
    return max(_distance(r, s, n) for i, r in enumerate(rs) for s in rs[i + 1 :])


def reference_class_scan(n):
    """Largest closed-form distance, one formula call per class in
    {-1,0,1}^n x Z_{n+4}: the formula reads only r_i - s_i (i < n) and
    (r_n - s_n) mod (n+4), so one pair per class covers every value."""
    pairs = (
        (tuple(int(d > 0) for d in diffs), tuple(int(d < 0) for d in diffs) + (0,))
        for diffs in product((-1, 0, 1), repeat=n)
    )
    return max(_distance(r + (delta,), s, n) for r, s in pairs for delta in range(n + 4))


def scan_row(n):
    """The ``(status, detail)`` of the ``diameter-scan`` row at ``n``."""
    return next((st, detail) for c, st, detail in run_suite(n, "graph") if c == "diameter-scan")


@pytest.fixture(scope="module")
def g3():
    return build_graph(3)


@pytest.fixture(scope="module")
def edges3(g3):
    return list(colored_edges(g3))


class TestStructure:
    def test_vertex_count(self, g3):
        assert g3.n == 3
        assert len(g3.steps) == 4
        assert all(len(step) == 56 for step in g3.steps)

    def test_degrees(self, edges3):
        degree = Counter(w for u, v, _ in edges3 for w in (u, v))
        for u, r in enumerate(all_reps(3)):
            assert degree[u] + len(fixed_generators(r, 3)) == 4

    def test_loops_are_equal_adjacent_bits(self, edges3):
        colors = [set() for _ in range(56)]
        for u, v, c in edges3:
            colors[u].add(c)
            colors[v].add(c)
        for u, r in enumerate(all_reps(3)):
            expected = {i for i in range(1, 3) if r[i - 1] == r[i]}
            assert set(fixed_generators(r, 3)) == expected
            assert set(range(4)) - colors[u] == expected

    def test_edges_are_covers_plus_wraps(self, edges3):
        rs = all_reps(3)
        undirected = {frozenset((rs[u], rs[v])) for u, v, _ in edges3}
        expected = set()
        for r in rs:
            for s in covers(r, 3):
                expected.add(frozenset((r, s)))
        for u, v in wrap_edges(3):
            expected.add(frozenset((u, v)))
        assert undirected == expected

    def test_wrap_edges(self):
        assert ((0, 0, 0, 0), (0, 0, 1, 6)) in wrap_edges(3)
        assert len(wrap_edges(3)) == 4

    @pytest.mark.parametrize("n", range(2, 7))
    def test_wrap_edges_are_not_covers(self, n):
        # the length test alone keeps a wrap of s_n out of ``covers``
        for u, v in wrap_edges(n):
            assert v not in covers(u, n)
            assert u not in covers(v, n)

    def test_connected(self):
        bfs_distances(build_graph(3), 0)  # raises if disconnected
        g = build_graph(3)
        g.steps[0] = g.steps[1]  # no generator changes e_0 any more
        with pytest.raises(RuntimeError):
            bfs_distances(g, 0)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            build_graph(1)
        with pytest.raises(ValueError):
            build_graph(25)

    def test_above_the_cap_is_refused_before_anything_is_built(self, monkeypatch):
        # one fiber head per 2^n would take megabytes at n = 17
        calls = []
        monkeypatch.setattr(reps, "_apply_generator", lambda *args: calls.append(args))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"n <= {flipgraph.MAX_GRAPH_N}$"):
                build_graph(flipgraph.MAX_GRAPH_N + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (calls, peak < 1 << 16) == ([], True)


class TestStepTables:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_tables_equal_the_generator_sweep(self, n):
        assert [list(step) for step in build_graph(n).steps] == reference_steps(n)

    def test_tables_follow_the_one_generator_action(self, monkeypatch):
        # s_1 now fixes the fiber 1,0,1 (every e_n) that it would move:
        # the tables follow, one call per color and fiber, and the
        # geometric oracle catches it
        n, act, calls = 3, reps._apply_generator, []
        before = [list(step) for step in build_graph(n).steps]

        def patched(i, r, n):
            calls.append(i)
            return r if i == 1 and r[:n] == (1, 0, 1) else act(i, r, n)

        monkeypatch.setattr(reps, "_apply_generator", patched)
        after = [list(step) for step in build_graph(n).steps]
        assert len(calls) == (n + 1) * 2**n
        assert after == reference_steps(n) != before
        rows = {name: status for name, status, _ in run_suite(n, "coxeter")}
        assert rows["action-vs-geometry"] == "FAIL"

    def test_tables_follow_a_turning_generator(self, monkeypatch):
        # s_1 now turns the fiber 1,0,1 by +2 instead of moving it to the
        # head 0,1,1, so a colour other than s_n takes the two-slice path
        n, act, calls = 3, reps._apply_generator, []

        def patched(i, r, n):
            calls.append(i)
            if i == 1 and r[:n] == (1, 0, 1):
                return r[:n] + ((r[n] + 2) % (n + 4),)
            return act(i, r, n)

        monkeypatch.setattr(reps, "_apply_generator", patched)
        after = [list(step) for step in build_graph(n).steps]
        assert len(calls) == (n + 1) * 2**n
        v = 5 * (n + 4)  # the id of 1,0,1,0
        assert after[1][v : v + n + 4] == [*range(v + 2, v + n + 4), v, v + 1]
        assert after == reference_steps(n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_export_edges_equal_the_generator_sweep(self, n):
        edges = list(colored_edges(build_graph(n)))
        assert edges == sorted(reference_edges(reference_steps(n)))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_bfs_equals_reference_bfs(self, n):
        g, adjacency = build_graph(n), reference_adjacency(reference_steps(n))
        sources = range(len(adjacency))
        if n >= 7:
            sources = random.Random(n).sample(sources, 4)
        eccentricities = []
        for u in sources:
            dist = bfs_distances(g, u)
            assert dist == reference_bfs(adjacency, u)
            eccentricities.append(max(dist))
        if n <= 6:
            # every source ran: the orbit sources must find the same maximum
            assert bfs_diameter(g) == max(eccentricities)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_vertex_id_is_the_lex_index(self, n):
        rs = all_reps(n)
        assert [vertex_id(r, n) for r in rs] == list(range(len(rs)))
        assert [vertex_rep(v, n) for v in range(len(rs))] == rs

    def test_vertex_rep_refuses_ids_out_of_range(self):
        assert vertex_rep(0, 3) == (0, 0, 0, 0)
        assert vertex_rep(55, 3) == (1, 1, 1, 6)
        for v in (-1, 56, 10**6):
            with pytest.raises(ValueError, match="out of range 0..55"):
                vertex_rep(v, 3)

    @pytest.mark.parametrize("v", [2.0, 2.5, True, False])
    def test_vertex_rep_refuses_an_id_that_is_no_int(self, v):
        # a float id used to raise a bare TypeError, and True gave id 1
        with pytest.raises(ValueError, match=f"vertex id {v!r} out of range 0..55"):
            vertex_rep(v, 3)

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_vertex_helpers_refuse_n_below_2(self, n):
        for call in (lambda: vertex_rep(0, n), lambda: wrap_edges(n)):
            with pytest.raises(ValueError, match="representatives require n >= 2"):
                call()

    @pytest.mark.parametrize(
        "graph",
        [lambda n=n: build_graph(n) for n in range(2, 10)]
        + [case[2] for case in UNUSUAL_TABLES + SPLIT_TABLES]
        + [without_edges],
        ids=[f"n{n}" for n in range(2, 10)]
        + [case[0] for case in UNUSUAL_TABLES + SPLIT_TABLES]
        + ["without-edges"],
    )
    def test_derived_tables_equal_the_per_vertex_reading(self, graph):
        g = graph()
        assert [list(step) for step in g.steps] == reference_derived_steps(g)

    @pytest.mark.parametrize(
        "graph",
        [lambda n=n: build_graph(n) for n in range(2, 9)]
        + [case[2] for case in UNUSUAL_TABLES + SPLIT_TABLES]
        + [bottom_to_top],
        ids=[f"n{n}" for n in range(2, 9)]
        + [case[0] for case in UNUSUAL_TABLES + SPLIT_TABLES]
        + ["bottom-to-top"],
    )
    def test_walk_equals_the_per_vertex_walk(self, graph):
        # random words, the empty one included, from every id at once; some
        # cases read their own step tables, so walk a copy without them
        built = graph()
        g = FlipGraph(built.n, built.images)
        rng, ids = random.Random(g.n), range((g.n + 4) << g.n)
        words = [tuple(rng.choices(range(g.n + 1), k=k)) for k in (0, 1, 2, 3, 7, 12, 30)]
        walked = [g.walk(word, ids) for word in words]
        assert "steps" not in vars(g)
        assert walked == [reference_walk(g.steps, word, ids) for word in words]

    @pytest.mark.parametrize("word, ids", [((-1,), [0]), ((4,), [0]), ((0,), [-1]), ((0,), [56])])
    def test_walk_refuses_a_letter_or_id_out_of_range(self, word, ids):
        # a letter -1 would read the last color's row, an id -1 the last
        # fiber's, and id V would raise a bare IndexError
        g = build_graph(3)
        with pytest.raises(ValueError, match="out"):
            g.walk(word, ids)

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("case", ORBITS)
    def test_orbit_size_equals_the_per_vertex_search(self, case, n):
        breakage, expected = ORBITS[case]
        g = breakage(build_graph(n))
        dist = reference_bfs(reference_adjacency(reference_derived_steps(g)), 0)
        assert g.orbit_size() == sum(d >= 0 for d in dist) == expected(n)
        assert "steps" not in vars(g)

    def test_orbit_size_refuses_a_table_that_is_not_an_involution(self):
        with pytest.raises(RuntimeError, match="s_0 is not an involution at vertex 0"):
            bottom_to_top().orbit_size()

    @pytest.mark.parametrize("n", [3, 8])
    def test_fiber_readers_never_build_the_step_tables(self, monkeypatch, tmp_path, n):
        g = build_graph(n)
        for fmt in ("json", "dot"):  # through dot_lines and json_lines
            write_export(g, fmt, str(tmp_path / f"g.{fmt}"))
        assert bfs_diameter(g) == diameter(n)
        assert "steps" not in vars(g)
        # nor does tft graph, which counts the vertices without them
        built = []

        def recorded(n):
            built.append(build_graph(n))
            return built[-1]

        monkeypatch.setattr(flipgraph, "build_graph", recorded)
        assert main(["graph", "-n", str(n), "-o", str(tmp_path / "g.dot")]) == 0
        assert len(built) == 1 and "steps" not in vars(built[0])
        g.steps  # a per-vertex reader builds them once, on the graph itself
        assert "steps" in vars(g)


class TestDistance:
    def test_examples(self, g3):
        ident = identity_rep(3)
        assert distance_formula(ident, longest_rep(3), 3) == 4
        assert bfs_distance(3, ident, longest_rep(3)) == 4
        assert distance_formula(ident, (1, 1, 1, 2), 3) == 14
        assert distance_formula(ident, ident, 3) == 0
        assert distance_formula(ident, (1, 0, 0, 0), 3) == 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_point_query_equals_the_full_search(self, n):
        # every pair up to n = 4; above, seeded pairs, each source also
        # paired with itself and with its neighbours one flip away
        g, rs = build_graph(n), all_reps(n)
        if n <= 4:
            pairs = {r: rs for r in rs}
        else:
            rng = random.Random(n)
            pairs = {
                r: [rng.choice(rs), r] + [rs[step[vertex_id(r, n)]] for step in g.steps]
                for r in rng.sample(rs, 6)
            }
        for r, targets in pairs.items():
            dist = bfs_distances(g, vertex_id(r, n))
            for s in targets:
                assert bfs_distance(n, r, s) == dist[vertex_id(s, n)]

    def test_point_query_stops_at_its_target(self, monkeypatch):
        # a pair one flip apart reads one level of the tables; the full
        # search reads all (n+1)(n+4)2^n = 4480 entries at n = 6
        n, reads = 6, []

        class Counted:
            def __init__(self, step):
                self.step = step

            def __len__(self):
                return len(self.step)

            def __getitem__(self, v):
                reads.append(v)
                return self.step[v]

        def counted_graph(n):
            g = build_graph(n)
            g.steps[:] = [Counted(step) for step in g.steps]
            return g

        monkeypatch.setattr("tftflip.flipgraph.build_graph", counted_graph)
        ident = identity_rep(n)
        assert bfs_distance(n, ident, (1,) + ident[1:]) == 1
        assert 0 < len(reads) <= 2 * (n + 1) * (n + 1)

    def test_point_query_raises_on_an_unreachable_target(self, monkeypatch):
        def split_graph(n):
            g = build_graph(n)
            g.steps[0] = g.steps[1]  # no generator changes e_0 any more
            return g

        monkeypatch.setattr("tftflip.flipgraph.build_graph", split_graph)
        assert bfs_distance(3, (0, 0, 0, 0), (0, 0, 1, 6)) == 1  # by s_3
        with pytest.raises(RuntimeError) as raised:
            bfs_distance(3, (0, 0, 0, 0), (1, 0, 0, 0))
        assert str(raised.value) == "flip graph is disconnected: invariant violated"

    def test_symmetry(self):
        rs = all_reps(3)
        rng = random.Random(7)
        for _ in range(200):
            r, s = rng.choice(rs), rng.choice(rs)
            assert distance_formula(r, s, 3) == distance_formula(s, r, 3)

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_bfs_everywhere(self, n):
        g, rs = build_graph(n), all_reps(n)
        for u, r in enumerate(rs):
            dist = bfs_distances(g, u)
            for v, s in enumerate(rs):
                assert distance_formula(r, s, n) == dist[v]

    def test_n5_sampled(self):
        g, rs = build_graph(5), all_reps(5)
        rng = random.Random(11)
        for u in rng.sample(range(len(rs)), 10):
            dist = bfs_distances(g, u)
            r = rs[u]
            for v, s in enumerate(rs):
                assert distance_formula(r, s, 5) == dist[v]

    def test_requires_n3(self):
        with pytest.raises(ValueError):
            distance_formula((0, 0, 0), (1, 1, 0), 2)


class TestDiameter:
    def test_closed_form(self):
        assert [diameter(n) for n in (3, 4, 5, 6)] == [14, 20, 27, 35]

    @pytest.mark.parametrize("n", [3.0, 3.5, True, 2])
    def test_closed_form_refuses_n_that_is_no_integer_n3(self, n):
        # 3.5 used to give 16.0, and 3.0 the float 14.0
        with pytest.raises(ValueError, match=f"requires an integer n >= 3, not {n!r}"):
            diameter(n)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_bfs_agrees(self, n):
        assert bfs_diameter(build_graph(n)) == diameter(n)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_packed_sweep_equals_the_per_vertex_sweep(self, n):
        g = build_graph(n)
        assert bfs_diameter(g) == reference_bfs_diameter(g)

    @pytest.mark.parametrize(
        "n, color, turn, half",
        [
            (5, 1, 2, False),  # a middle color with turns 0, +2 and -2
            (4, 2, 2, True),  # a middle color with turns +2, -2 and 4
            (4, 0, 2, False),  # s_0 turning every fiber by +-2
            (3, 2, 3, False),  # turns 0 and +-3
        ],
    )
    def test_packed_sweep_on_rewired_tables(self, n, color, turn, half):
        g = turned(n, color, turn, half)
        assert g.steps != build_graph(n).steps
        assert bfs_diameter(g) == reference_bfs_diameter(g)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_involution_check_names_the_per_vertex_defect(self, n):
        # 20 seeded rewires per n: one or two fibers of a color sent to a
        # random fiber and turn; the sweep and the edge readers name the
        # first color and id v with step[step[v]] != v, as the per-vertex
        # check does
        rng, m, found = random.Random(200 + n), n + 4, Counter()
        for _ in range(20):
            g = build_graph(n)
            for _ in range(rng.choice((1, 2))):
                c, f = rng.randrange(n + 1), rng.randrange(1 << n)
                heads, turns = array("i", g.images[c][0]), bytearray(g.images[c][1])
                heads[f], turns[f] = rng.randrange(1 << n), rng.randrange(m)
                g = rewired(g, c, heads, turns)
            assert [list(step) for step in g.steps] == reference_derived_steps(g)
            defect = next(
                (f"s_{i} is not an involution at vertex {v}"
                 for i, step in enumerate(g.steps) for v, w in enumerate(step) if step[w] != v),
                None,
            )
            found[defect is None] += 1
            assert outcome(bfs_diameter, g) == (defect or outcome(reference_bfs_diameter, g))
            if defect is not None:
                assert outcome(next, colored_edges(g)) == defect
        assert found[False] > 0

    def test_formula_scan_agrees(self):
        assert formula_scan_diameter(3) == 14

    @pytest.mark.parametrize("n", range(3, 6))
    def test_distance_is_constant_on_difference_classes(self, n):
        rs, m = all_reps(n), n + 4
        classes = defaultdict(set)
        for r in rs:
            for s in rs:
                key = tuple(a - b for a, b in zip(r[:n], s[:n])), (r[n] - s[n]) % m
                classes[key].add(_distance(r, s, n))
        assert len(classes) == 3**n * m
        assert all(len(values) == 1 for values in classes.values())

    @pytest.mark.parametrize("n", range(3, 7))
    def test_class_scan_equals_the_pair_scan(self, n):
        assert reference_class_scan(n) == reference_scan_diameter(n)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_dynamic_program_equals_the_class_scan(self, n):
        assert formula_scan_diameter(n) == reference_class_scan(n)

    @pytest.mark.parametrize("n", [12, 16, 20])
    def test_dynamic_program_reaches_the_closed_form(self, n):
        assert formula_scan_diameter(n) == diameter(n)

    @pytest.mark.parametrize("n", [3, 6])
    def test_scan_row_catches_a_wrong_term(self, monkeypatch, n):
        # both sums +1 at the start of a walk to the antipode of the
        # bottom; _distance reads the same table, so the scan still
        # equals the class scan, and the closed form catches it
        bottom = identity_rep(n)
        top = antipode(bottom, n)
        assert _distance(top, bottom, n) == diameter(n)
        k, terms = top[n], flipgraph._terms
        bump = lambda column: tuple(t + (h == k) for h, t in enumerate(column))
        monkeypatch.setattr(flipgraph, "_terms", lambda n: tuple(map(bump, terms(n))))
        scanned = reference_class_scan(n)
        assert scanned > diameter(n)
        assert scan_row(n) == ("FAIL", f"formula scan {scanned} != closed form {diameter(n)}")

    @pytest.mark.parametrize("n", [3, 6])
    def test_scan_row_catches_a_wrong_distance_at_a_certificate(self, monkeypatch, n):
        calls = []
        distance = flipgraph._distance
        # the scan calls _distance once per certificate, n + 1 of them
        monkeypatch.setattr(
            flipgraph, "_distance", lambda r, s, n: calls.append((r, s)) or distance(r, s, n)
        )
        formula_scan_diameter(n)
        assert len(calls) == n + 1
        r, s = calls[n // 2]
        monkeypatch.setattr(
            flipgraph, "_distance", lambda a, b, n: distance(a, b, n) + ((a, b) == (r, s))
        )
        d = diameter(n)
        detail = f"formula gives {d + 1} at {r}, {s}, a pair the scan puts at {d}"
        assert scan_row(n) == ("FAIL", detail)

    @pytest.mark.parametrize("n", [3, 8])
    def test_scan_row_catches_a_filter_that_drops_a_frontier_point(self, monkeypatch, n):
        # a frontier's point with d1 == d2 is never dominated; the last
        # frontiers' ones attain the maximum
        pareto = flipgraph._pareto
        monkeypatch.setattr(
            flipgraph, "_pareto",
            lambda points: [p for p in pareto(points) if p >> 32 != p & flipgraph._D2],
        )
        scanned = formula_scan_diameter(n)
        assert scanned != reference_class_scan(n)
        assert scan_row(n) == ("FAIL", f"formula scan {scanned} != closed form {diameter(n)}")

    def test_requires_n3(self):
        with pytest.raises(ValueError):
            diameter(2)


class TestAntipodes:
    def test_color_reversal_of_identity(self):
        assert antipode(identity_rep(3), 3) == (1, 1, 1, 2)

    def test_rotation_of_identity(self):
        assert antipode(identity_rep(4), 4, "rotation") == (0, 0, 0, 0, 4)

    @pytest.mark.parametrize("n", [3, 4])
    def test_reversal_realizes_diameter(self, n):
        for r in all_reps(n):
            assert distance_formula(r, antipode(r, n), n) == diameter(n)

    def test_rotation_realizes_diameter(self):
        for r in all_reps(4):
            assert distance_formula(r, antipode(r, 4, "rotation"), 4) == 20

    def test_rotation_needs_even_n(self):
        with pytest.raises(ValueError):
            antipode(identity_rep(3), 3, "rotation")

    def test_reversal_is_geometric(self):
        # the antipode carries the triangulation with reversed colors
        for r in all_reps(3):
            ct = phi_inv(rep_to_phi(r, 3))
            assert rep_to_phi(antipode(r, 3), 3) == ct.reverse_colors().phi()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            antipode(identity_rep(4), 4, "mystery")


class TestBipartition:
    def test_signs(self):
        assert sign(identity_rep(3)) == 1
        assert sign((1, 0, 0, 0)) == -1

    @pytest.mark.parametrize("n", [3, 4])
    def test_proper_two_coloring(self, n):
        rs = all_reps(n)
        edges = colored_edges(build_graph(n))
        assert all(sign(rs[u]) != sign(rs[v]) for u, v, _ in edges)
        half = (n + 4) * 2**n // 2
        assert sum(sign(r) == 1 for r in rs) == half

    def test_wrap_edge_changes_sign(self):
        for u, v in wrap_edges(3):
            assert sign(u) != sign(v)
            assert rep_length(u) % 2 != rep_length(v) % 2


def reference_shortest_representatives(n):
    """The per-letter peel: the long reps' words times a_n^{-(n+4)},
    re-reduced by composing one generator map per smallest left
    descent until the identity is left."""
    gn_inverse = gn_word(n)[::-1]
    generators = [AffineMap.generator(n, i) for i in range(n + 1)]
    out = []
    for r in all_reps(n):
        word = reps.rep_to_word(r)
        if rep_length(r) > diameter(n):
            m = word_to_affine(n, word + gn_inverse)
            word = []
            while not m.is_identity():
                word.append(left_descents(m)[0])
                m = generators[word[-1]].compose(m)
            word = tuple(word)
        out.append((r, word))
    return out


class TestShortestRepresentatives:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_equal_to_the_per_letter_peel(self, n):
        assert shortest_representatives(n) == reference_shortest_representatives(n)

    def test_builds_one_map_per_long_rep(self, monkeypatch):
        # the peel reads one image point, not one AffineMap per letter
        built = []
        check = AffineMap.__post_init__
        monkeypatch.setattr(AffineMap, "__post_init__", lambda m: built.append(check(m)))
        shortest_representatives(5)
        long_reps = sum(rep_length(r) > diameter(5) for r in all_reps(5))
        assert long_reps == 165
        assert 0 < len(built) <= long_reps + 6

    @pytest.mark.parametrize("n", [3, 4])
    def test_word_lengths_equal_graph_distance(self, n):
        dist = bfs_distances(build_graph(n), vertex_id(identity_rep(n), n))
        for r, word in shortest_representatives(n):
            assert len(word) == dist[vertex_id(r, n)]
            assert coxeter_length(word_to_affine(n, word)) == len(word)

    def test_words_represent_their_coset(self):
        from tftflip.coxeter import act_on_phi, base_vector

        for r, word in shortest_representatives(3):
            assert act_on_phi(word, base_vector(3)) == rep_to_phi(r, 3)

    def test_cutoff(self):
        pairs = dict(shortest_representatives(3))
        assert pairs[identity_rep(3)] == ()
        assert len(pairs[longest_rep(3)]) == 4  # shortened through the wrap
        assert len(pairs[(1, 0, 1, 2)]) == 12  # kept as its own word


class TestExports:
    def test_dot(self, g3, edges3):
        text = "".join(dot_lines(g3))
        assert text.startswith("graph flipgraph_n3 {")
        assert text.count(";") == 56 + len(edges3)
        assert '"0,0,0,0" -- "1,0,0,0" [label="color=0"];' in text

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize(
        "lines, reference",
        [(dot_lines, reference_dot), (json_lines, reference_json)],
        ids=["dot", "json"],
    )
    def test_streamed_export_equals_the_reference(self, lines, reference, n):
        text, expected = "".join(lines(build_graph(n))), reference(n)
        assert text == expected
        if lines is json_lines:
            assert json.loads(text) == json.loads(expected)

    @pytest.mark.parametrize(
        "lines, counted",
        [(dot_lines, ["format_rep"]), (json_lines, ["format_rep", "rep_to_phi", "rep_length"])],
        ids=["dot", "json"],
    )
    def test_exports_read_the_library_once_per_fiber(self, monkeypatch, lines, counted):
        # one call per fiber of n = 5 (2^5 = 32); one per vertex would be 288
        calls = Counter()

        def counting(name):
            call = getattr(reps, name)

            def wrapper(*args):
                calls[name] += 1
                return call(*args)

            return wrapper

        for name in ("format_rep", "rep_to_phi", "rep_length"):
            monkeypatch.setattr(reps, name, counting(name))
        "".join(lines(build_graph(5)))
        assert calls == {name: 32 for name in counted}

    @pytest.mark.parametrize(
        "n, tables",
        [case[1:] for case in UNUSUAL_TABLES],
        ids=[case[0] for case in UNUSUAL_TABLES],
    )
    def test_unusual_tables_equal_the_reference(self, n, tables):
        g = tables()
        steps = [list(step) for step in g.steps]
        assert steps != [list(step) for step in build_graph(n).steps]
        assert list(colored_edges(g)) == sorted(reference_edges(steps))
        assert "".join(dot_lines(g)) == reference_dot(n, steps)
        assert "".join(json_lines(g)) == reference_json(n, steps)

    @pytest.mark.parametrize(
        "n, tables",
        [case[1:] for case in SPLIT_TABLES],
        ids=[case[0] for case in SPLIT_TABLES],
    )
    def test_unusual_tables_are_refused(self, n, tables, tmp_path):
        # a fiber whose edges change order with e_n takes more than one
        # template, so every export refuses the table before its first
        # chunk and leaves no file
        g = tables()
        f = reference_split_fiber(g)
        split = f"a color turns fiber {f} within itself or shares its target fiber"
        for lines in (colored_edges, dot_lines, json_lines):
            assert outcome(next, lines(g)) == split
        path = tmp_path / "g.out"
        for fmt in ("dot", "json"):
            assert outcome(write_export, g, fmt, str(path)) == split
            assert not path.exists()

    def test_exports_of_a_table_without_edges(self):
        # every generator fixes every vertex: no edge records at all
        g = without_edges()
        steps = [list(step) for step in g.steps]
        assert list(colored_edges(g)) == []
        assert "".join(dot_lines(g)) == reference_dot(3, steps)
        text = "".join(json_lines(g))
        assert text == reference_json(3, steps)
        assert json.loads(text)["edges"] == []

    def test_json_vertex_records(self, g3):
        doc = json.loads("".join(json_lines(g3)))
        assert doc["format"] == 1
        assert doc["n"] == 3
        first = doc["vertices"][0]
        assert first == {"rep": "0,0,0,0", "phi": "0:000", "length": 0}

    def test_write_export(self, g3, tmp_path):
        path = tmp_path / "g.dot"
        write_export(g3, "dot", str(path))
        assert path.read_text() == "".join(dot_lines(g3))
        with pytest.raises(ValueError):
            write_export(g3, "gml", str(path))
