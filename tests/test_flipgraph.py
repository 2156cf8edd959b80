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
    diameter,
    distance_formula,
    export_dot,
    export_json,
    formula_scan_diameter,
    graph_from_json,
    rotation_defect,
    shortest_representatives,
    sign,
    step_tables,
    vertex_id,
    wrap_edges,
)
from tftflip.geometry import phi_inv
from tftflip.representatives import (
    all_reps,
    apply_generator,
    covers,
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


@pytest.fixture(scope="module")
def g3():
    return build_graph(3)


class TestStructure:
    def test_vertex_count(self, g3):
        assert len(g3.vertices) == 56

    def test_degrees(self, g3):
        degree = Counter(w for u, v, _ in g3.edges for w in (u, v))
        for u, r in enumerate(g3.vertices):
            assert degree[u] + len(fixed_generators(r, 3)) == 4

    def test_loops_are_equal_adjacent_bits(self, g3):
        colors = [set() for _ in g3.vertices]
        for u, v, c in g3.edges:
            colors[u].add(c)
            colors[v].add(c)
        for u, r in enumerate(g3.vertices):
            expected = {i for i in range(1, 3) if r[i - 1] == r[i]}
            assert set(fixed_generators(r, 3)) == expected
            assert set(range(4)) - colors[u] == expected

    def test_edges_are_covers_plus_wraps(self, g3):
        undirected = {
            frozenset((g3.vertices[u], g3.vertices[v])) for u, v, _ in g3.edges
        }
        expected = set()
        for r in g3.vertices:
            for s in covers(r, 3):
                expected.add(frozenset((r, s)))
        for u, v in wrap_edges(3):
            expected.add(frozenset((u, v)))
        assert undirected == expected

    def test_wrap_edges(self):
        assert ((0, 0, 0, 0), (0, 0, 1, 6)) in wrap_edges(3)
        assert len(wrap_edges(3)) == 4

    def test_connected(self):
        bfs_distances(step_tables(3), 0)  # raises if disconnected
        steps = step_tables(3)
        steps[0] = steps[1]  # no generator changes e_0 any more
        with pytest.raises(RuntimeError):
            bfs_distances(steps, 0)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            build_graph(1)
        with pytest.raises(ValueError):
            build_graph(25)


class TestStepTables:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_tables_equal_the_generator_sweep(self, n):
        assert [list(step) for step in step_tables(n)] == reference_steps(n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_export_edges_equal_the_generator_sweep(self, n):
        assert build_graph(n).edges == tuple(sorted(reference_edges(reference_steps(n))))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_bfs_equals_reference_bfs(self, n):
        steps, ref = step_tables(n), reference_steps(n)
        sources = range(len(ref[0]))
        if n >= 6:
            sources = random.Random(n).sample(sources, 4)
        eccentricities = []
        for u in sources:
            dist = bfs_distances(steps, u)
            assert dist == reference_bfs(ref, u)
            eccentricities.append(max(dist))
        if n <= 5:
            # every source ran: the orbit sources must find the same maximum
            assert bfs_diameter(n) == max(eccentricities)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_vertex_id_is_the_lex_index(self, n):
        assert [vertex_id(r, n) for r in all_reps(n)] == list(range((n + 4) * 2**n))

    def test_rotation_defect(self):
        steps = step_tables(4)
        assert rotation_defect(steps, 4) is None
        # s_2 fixes ids 0 and 8 (bits 0000 and 0001, e_4 = 0); join
        # them by an s_2 edge that the rotated vertices 1 and 9 lack
        steps[2][0], steps[2][8] = 8, 0
        assert rotation_defect(steps, 4) == (2, 0)


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
        steps, rs = step_tables(n), all_reps(n)
        for u, r in enumerate(rs):
            dist = bfs_distances(steps, u)
            for v, s in enumerate(rs):
                assert distance_formula(r, s, n) == dist[v]

    def test_n5_sampled(self):
        steps, rs = step_tables(5), all_reps(5)
        rng = random.Random(11)
        for u in rng.sample(range(len(rs)), 10):
            dist = bfs_distances(steps, u)
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
        g = build_graph(n)
        assert all(sign(g.vertices[u]) != sign(g.vertices[v]) for u, v, _ in g.edges)
        half = (n + 4) * 2**n // 2
        assert sum(sign(r) == 1 for r in g.vertices) == half

    def test_wrap_edge_changes_sign(self):
        for u, v in wrap_edges(3):
            assert sign(u) != sign(v)
            assert rep_length(u) % 2 != rep_length(v) % 2


class TestShortestRepresentatives:
    @pytest.mark.parametrize("n", [3, 4])
    def test_word_lengths_equal_graph_distance(self, n):
        dist = bfs_distances(step_tables(n), vertex_id(identity_rep(n), n))
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
    def test_dot(self, g3):
        text = export_dot(g3)
        assert text.startswith("graph flipgraph_n3 {")
        assert text.count(";") == 56 + len(g3.edges)
        assert '"0,0,0,0" -- "1,0,0,0" [label="color=0"];' in text

    def test_json_roundtrip(self, g3):
        text = export_json(g3)
        h = graph_from_json(text)
        assert h == g3
        assert export_json(h) == text

    def test_json_vertex_records(self, g3):
        import json

        doc = json.loads(export_json(g3))
        assert doc["format"] == 1
        assert doc["n"] == 3
        first = doc["vertices"][0]
        assert first == {"rep": "0,0,0,0", "phi": "0:000", "length": 0}

    def test_json_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            graph_from_json('{"format": 2}')

    def test_write_export(self, g3, tmp_path):
        from tftflip.flipgraph import write_export

        path = tmp_path / "g.dot"
        write_export(g3, "dot", str(path))
        assert path.read_text() == export_dot(g3)
        with pytest.raises(ValueError):
            write_export(g3, "gml", str(path))
