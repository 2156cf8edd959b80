import random

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
    shortest_representatives,
    sign,
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


@pytest.fixture(scope="module")
def g3():
    return build_graph(3)


class TestStructure:
    def test_vertex_count(self, g3):
        assert len(g3.vertices) == 56

    def test_degrees(self, g3):
        for u, r in enumerate(g3.vertices):
            assert g3.degree(u) + len(fixed_generators(r, 3)) == 4

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

    def test_connected(self, g3):
        bfs_distances(g3, 0)  # raises if disconnected

    def test_bad_n(self):
        with pytest.raises(ValueError):
            build_graph(1)
        with pytest.raises(ValueError):
            build_graph(25)


class TestDistance:
    def test_examples(self, g3):
        ident = identity_rep(3)
        assert distance_formula(ident, longest_rep(3), 3) == 4
        assert bfs_distance(g3, ident, longest_rep(3)) == 4
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
        g = build_graph(n)
        for u, r in enumerate(g.vertices):
            dist = bfs_distances(g, u)
            for v, s in enumerate(g.vertices):
                assert distance_formula(r, s, n) == dist[v]

    def test_n5_sampled(self):
        g = build_graph(5)
        rng = random.Random(11)
        for u in rng.sample(range(len(g.vertices)), 10):
            dist = bfs_distances(g, u)
            r = g.vertices[u]
            for v, s in enumerate(g.vertices):
                assert distance_formula(r, s, 5) == dist[v]

    def test_requires_n3(self):
        with pytest.raises(ValueError):
            distance_formula((0, 0, 0), (1, 1, 0), 2)


class TestDiameter:
    def test_closed_form(self):
        assert [diameter(n) for n in (3, 4, 5, 6)] == [14, 20, 27, 35]

    @pytest.mark.parametrize("n", [3, 4])
    def test_bfs_agrees(self, n):
        assert bfs_diameter(build_graph(n)) == diameter(n)

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
        g = build_graph(n)
        dist = bfs_distances(g, g.index[identity_rep(n)])
        for r, word in shortest_representatives(n):
            assert len(word) == dist[g.index[r]]
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
