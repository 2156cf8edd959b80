import json
import random
from collections import Counter, deque

import pytest

from tftflip.coxeter import coxeter_length, word_to_affine
from tftflip.flipgraph import (
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
    rotation_defect,
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


def reference_bfs(ref, source):
    """Queue-driven breadth-first search over the sorted adjacency of
    the reference edges."""
    neighbours = [set() for _ in ref[0]]
    for u, v, _ in reference_edges(ref):
        neighbours[u].add(v)
        neighbours[v].add(u)
    dist = [-1] * len(ref[0])
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in sorted(neighbours[u]):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def reference_dot(n):
    """The DOT export built whole from ``all_reps`` and the sorted
    reference edges."""
    vertices = all_reps(n)
    lines = [f"graph flipgraph_n{n} {{"]
    for r in vertices:
        lines.append(f'  "{format_rep(r)}";')
    for u, v, color in sorted(reference_edges(reference_steps(n))):
        lines.append(
            f'  "{format_rep(vertices[u])}" -- '
            f'"{format_rep(vertices[v])}" [label="color={color}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_json(n):
    """The format-1 JSON export built whole as a document and encoded
    by ``json.dumps``."""
    doc = {
        "format": 1,
        "n": n,
        "vertices": [
            {"rep": format_rep(r), "phi": str(rep_to_phi(r, n)), "length": rep_length(r)}
            for r in all_reps(n)
        ],
        "edges": [
            {"u": u, "v": v, "color": c}
            for u, v, c in sorted(reference_edges(reference_steps(n)))
        ],
    }
    return json.dumps(doc, indent=1) + "\n"


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


class TestStepTables:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_tables_equal_the_generator_sweep(self, n):
        assert [list(step) for step in build_graph(n).steps] == reference_steps(n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_export_edges_equal_the_generator_sweep(self, n):
        edges = list(colored_edges(build_graph(n)))
        assert edges == sorted(reference_edges(reference_steps(n)))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_bfs_equals_reference_bfs(self, n):
        g, ref = build_graph(n), reference_steps(n)
        sources = range(len(ref[0]))
        if n >= 6:
            sources = random.Random(n).sample(sources, 4)
        eccentricities = []
        for u in sources:
            dist = bfs_distances(g, u)
            assert dist == reference_bfs(ref, u)
            eccentricities.append(max(dist))
        if n <= 5:
            # every source ran: the orbit sources must find the same maximum
            assert bfs_diameter(n) == max(eccentricities)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_vertex_id_is_the_lex_index(self, n):
        rs = all_reps(n)
        assert [vertex_id(r, n) for r in rs] == list(range(len(rs)))
        assert [vertex_rep(v, n) for v in range(len(rs))] == rs

    def test_rotation_defect(self):
        g = build_graph(4)
        assert rotation_defect(g) is None
        # s_2 fixes ids 0 and 8 (bits 0000 and 0001, e_4 = 0); join
        # them by an s_2 edge that the rotated vertices 1 and 9 lack
        g.steps[2][0], g.steps[2][8] = 8, 0
        assert rotation_defect(g) == (2, 0)


class TestDistance:
    def test_examples(self, g3):
        ident = identity_rep(3)
        assert distance_formula(ident, longest_rep(3), 3) == 4
        assert bfs_distance(3, ident, longest_rep(3)) == 4
        assert distance_formula(ident, (1, 1, 1, 2), 3) == 14
        assert distance_formula(ident, ident, 3) == 0
        assert distance_formula(ident, (1, 0, 0, 0), 3) == 1

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

    @pytest.mark.parametrize("n", [3, 4])
    def test_bfs_agrees(self, n):
        assert bfs_diameter(n) == diameter(n)

    def test_formula_scan_agrees(self):
        assert formula_scan_diameter(3) == 14

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


class TestShortestRepresentatives:
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
