"""The rewritten oracle checks must still fail on wrong answers."""

from array import array

import pytest

from tftflip import checks, coxeter, flipgraph, geometry
from tftflip import representatives as reps


def wrong_at(fn, pair, answer):
    """``fn`` except that it returns ``answer`` at the one ``pair``."""

    def patched(r, s, n):
        return answer if (r, s) == pair else fn(r, s, n)

    return patched


N = 3
BOTTOM, TOP = reps.identity_rep(N), reps.longest_rep(N)


@pytest.mark.parametrize(
    "name, pair, answer",
    [
        ("meet", (TOP, TOP), BOTTOM),  # a lower bound, but not the greatest
        ("meet", (BOTTOM, BOTTOM), TOP),  # not a lower bound
        ("join", (BOTTOM, BOTTOM), TOP),  # an upper bound, but not the least
        ("join", (TOP, TOP), BOTTOM),  # not an upper bound
    ],
)
def test_meet_join_catches_one_wrong_pair(monkeypatch, name, pair, answer):
    assert checks.check_meet_join(N)[0]
    monkeypatch.setattr(reps, name, wrong_at(getattr(reps, name), pair, answer))
    ok, detail = checks.check_meet_join(N)
    assert not ok
    assert f"{name} formula" in detail


def test_meet_join_catches_a_non_representative(monkeypatch):
    monkeypatch.setattr(reps, "meet", wrong_at(reps.meet, (TOP, TOP), (9,) * (N + 1)))
    assert not checks.check_meet_join(N)[0]


def test_shortest_reps_catches_a_padded_word(monkeypatch):
    words = flipgraph.shortest_representatives(N)
    padded = words[:-1] + [(words[-1][0], (0, 0) + words[-1][1])]
    monkeypatch.setattr(flipgraph, "shortest_representatives", lambda n: padded)
    ok, detail = checks.check_shortest_representatives(N)
    assert not ok
    assert "letters" in detail


def test_shortest_reps_catches_a_word_of_another_coset(monkeypatch):
    words = dict(flipgraph.shortest_representatives(N))
    # s_0 and s_n both lead from the base to a neighbour
    swapped = dict(words)
    swapped[(1, 0, 0, 0)] = words[(0, 0, 1, N + 3)]
    monkeypatch.setattr(flipgraph, "shortest_representatives", lambda n: list(swapped.items()))
    ok, detail = checks.check_shortest_representatives(N)
    assert not ok
    assert "another coset" in detail


ATOM = (1, 0, 0, 0)


@pytest.mark.parametrize(
    "check, pair",
    [
        (checks.check_order_closure, (TOP, ATOM)),
        # the first pair in order whose dual pair is the wrong one
        (checks.check_duality, (reps.dual(ATOM, N), BOTTOM)),
    ],
)
def test_order_checks_catch_a_wrong_order(monkeypatch, check, pair):
    leq = reps.leq
    monkeypatch.setattr(reps, "leq", lambda r, s: leq(r, s) or (r, s) == (TOP, ATOM))
    ok, detail = check(N)
    assert not ok
    assert detail.endswith(f"at {pair[0]}, {pair[1]}")


def test_relations_catches_a_non_relation(monkeypatch):
    relation_words = coxeter.relation_words
    # the braid at the end has order 4, so (s_0 s_1)^2 is not the identity
    monkeypatch.setattr(
        coxeter, "relation_words", lambda n: relation_words(n) + [("(s0 s1)^2", (0, 1) * 2)]
    )
    assert checks.check_relations(N) == (
        False, "(s0 s1)^2 not the identity map; (s0 s1)^2 moves vector 0:000"
    )


def wrong_letter(monkeypatch, letter, v, answer):
    """Make ``coxeter.act_on_phi`` send ``v`` to ``answer`` under the
    one-letter word ``(letter,)`` and act correctly everywhere else."""
    act_on_phi = coxeter.act_on_phi

    def patched(word, x):
        return answer if (tuple(word), x) == ((letter,), v) else act_on_phi(word, x)

    monkeypatch.setattr(coxeter, "act_on_phi", patched)


CTS = geometry.enumerate_ctft(N)
VECTORS = geometry.all_phi_vectors(N)


def wrong_flip(monkeypatch, ct, i, answer):
    """Make ``ColoredTriangulation.flip`` return ``answer`` at ``(ct, i)``."""
    flip = geometry.ColoredTriangulation.flip

    def patched(self, j):
        return answer if (self, j) == (ct, i) else flip(self, j)

    monkeypatch.setattr(geometry.ColoredTriangulation, "flip", patched)


def test_flip_involution_catches_a_flip_to_another_triangulation(monkeypatch):
    assert CTS[0].flip(0) == CTS[52]
    wrong_flip(monkeypatch, CTS[0], 0, CTS[5])
    assert checks.check_flip_involution(N) == (
        False, f"flip 0 is not an involution at {CTS[0]}"
    )


def test_flip_involution_catches_a_flip_out_of_the_enumeration(monkeypatch):
    m = N + 4
    # a triangulation of the heptagon with the inner triangle 0, 2, 4
    inner = geometry.ColoredTriangulation(
        N, tuple(geometry.chord(x, y, m) for x, y in ((0, 2), (2, 4), (0, 4), (4, 6)))
    )
    assert inner.violations() == ["inner triangle [0, 2, 4] with three chord sides"]
    wrong_flip(monkeypatch, CTS[0], 0, inner)
    assert checks.check_flip_involution(N) == (
        False, f"flip 0 at {CTS[0]} leaves the enumeration"
    )


def test_flip_involution_catches_a_duplicate_triangulation(monkeypatch):
    monkeypatch.setattr(geometry, "enumerate_ctft", lambda n: CTS + [CTS[3]])
    assert checks.check_flip_involution(N) == (False, f"{CTS[3]} enumerated twice")


def test_action_vs_geometry_catches_one_wrong_letter(monkeypatch):
    v = VECTORS[10]
    assert (str(v), str(coxeter.act_on_phi((1,), v))) == ("1:010", "1:100")
    wrong_letter(monkeypatch, 1, v, coxeter.base_vector(N))
    assert checks.check_action_matches_geometry(N) == (
        False, "generator 1 on 1:010: 0:000 != 1:100"
    )


def test_action_vs_geometry_catches_one_wrong_flip(monkeypatch):
    assert CTS[0].phi() == coxeter.base_vector(N)
    wrong_flip(monkeypatch, CTS[0], 0, CTS[5])
    assert checks.check_action_matches_geometry(N) == (
        False, "generator 0 on 0:000: 6:100 != 0:101"
    )


def counted(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that every call appends its arguments."""
    calls = []
    fn = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_flip_involution_flips_each_triangulation_once_per_color(monkeypatch):
    n = 5
    calls = counted(monkeypatch, geometry.ColoredTriangulation, "flip")
    assert checks.check_flip_involution(n)[0]
    assert len(calls) == (n + 4) * 2**n * (n + 1) == 1728


def test_relations_composes_the_step_tables(monkeypatch):
    # the vector half reads the flip graph's tables, built once, and
    # applies no vector action of its own
    acts = counted(monkeypatch, coxeter, "act_on_phi")
    builds = counted(monkeypatch, flipgraph, "build_graph")
    assert checks.check_relations(5)[0]
    assert (len(acts), builds) == (0, [(5,)])


@pytest.mark.parametrize("n", range(1, 6))
def test_flip_tables_equal_a_linear_search(n):
    cts = geometry.enumerate_ctft(n)
    flips, failure = checks._flip_tables(cts, n)
    assert failure is None
    for i, row in enumerate(flips):
        assert list(row) == [cts.index(ct.flip(i)) for ct in cts]
        assert [row[w] for w in row] == list(range(len(cts)))


def test_stabilizer_catches_a_short_orbit(monkeypatch):
    monkeypatch.setattr(coxeter, "orbit_of_base", lambda n: {coxeter.base_vector(n)})
    assert checks.check_stabilizer(N) == (
        False, "orbit 1 (expected 56); generators not fixing base: []"
    )


def test_bipartition_catches_a_wrong_sign(monkeypatch):
    monkeypatch.setattr(flipgraph, "sign", lambda r: 1)
    assert checks.check_bipartition(N) == (
        False, "84 monochromatic edges, classes (56, 0)"
    )


def broken_tables(monkeypatch, breakage):
    """Make ``flipgraph.build_graph`` return tables changed by ``breakage``."""
    build_graph = flipgraph.build_graph

    def patched(n):
        g = build_graph(n)
        breakage(g.steps, n)
        return g

    monkeypatch.setattr(flipgraph, "build_graph", patched)


def test_relations_catches_a_moved_vector_at_n7(monkeypatch):
    # the vector test composes the step tables, so break one entry: s_1
    # fixes both the last vector and the base, and now sends the last
    # vector to the base; each relation names its smallest moved id
    n = 7
    moved = geometry.all_phi_vectors(n)[-1]
    last = flipgraph.vertex_id(reps.phi_to_rep(moved), n)
    assert reps.phi_to_rep(coxeter.base_vector(n)) == reps.identity_rep(n)  # id 0
    s1 = flipgraph.build_graph(n).steps[1]
    assert (s1[last], s1[0]) == (last, 0)

    def last_to_base(steps, n):
        steps[1][last] = 0

    broken_tables(monkeypatch, last_to_base)
    assert checks.check_relations(n) == (False, "; ".join([
        f"s1^2 moves vector {moved}",
        *(f"(s1 s{j})^2 moves vector {moved}" for j in range(3, 7)),
        "(s1 s7)^2 moves vector 10:1111110",
        f"(s1 s2)^3 moves vector {moved}",
        "(s0 s1)^4 moves vector 1:0011111",
    ]))


def test_one_wrong_step_fails_action_vs_geometry_and_relations(monkeypatch):
    # s_1 sends 1:010 (id 19) to 1:100; send it to the base (id 0)
    # instead, leaving the vector action and the flip as they are
    u = flipgraph.vertex_id(reps.phi_to_rep(VECTORS[10]), N)
    assert (str(VECTORS[10]), u) == ("1:010", 19)

    def to_base(steps, n):
        steps[1][u] = 0

    broken_tables(monkeypatch, to_base)
    assert checks.check_action_matches_geometry(N) == (
        False, "step table 1 on 1:010: 0:000 != 1:100"
    )
    assert checks.check_relations(N) == (False, "; ".join([
        "s1^2 moves vector 1:010",
        "(s1 s3)^2 moves vector 1:011",
        "(s1 s2)^3 moves vector 1:001",
        "(s0 s1)^4 moves vector 2:000",
    ]))


def join_fixed_vertices(steps, n):
    # s_1 fixes ids 0 and n+4 (bits 0...0 and 0...01, e_n = 0); an s_1
    # edge between them has no rotated copy at ids 1 and n+5
    steps[1][0], steps[1][n + 4] = n + 4, 0


@pytest.mark.parametrize(
    "check", [checks.check_diameter, checks.check_rotation_automorphism]
)
def test_graph_checks_catch_a_table_without_rotation_symmetry(monkeypatch, check):
    assert check(N)[0]
    broken_tables(monkeypatch, join_fixed_vertices)
    ok, detail = check(N)
    assert not ok
    assert detail.endswith("does not commute with s_1 at vertex 0")


def test_distance_formula_catches_one_wrong_partner(monkeypatch):
    top = flipgraph.vertex_id(TOP, N)  # distance 4 from the bottom, id 0

    def shortcut(steps, n):
        steps[0][0] = top

    broken_tables(monkeypatch, shortcut)
    ok, detail = checks.check_distance_formula(N)
    assert not ok
    assert detail.startswith(f"formula != BFS at {BOTTOM}, ")


def test_diameter_bfs_catches_a_table_that_is_not_an_involution(monkeypatch):
    def bottom_to_top(steps, n):
        # s_0 sends bits 0...0 to bits 1...1 with the same e_n: still
        # rotation-symmetric, but s_0 s_0 moves id 0
        m = n + 4
        for e in range(m):
            steps[0][e] = ((1 << n) - 1) * m + e

    broken_tables(monkeypatch, bottom_to_top)
    assert checks.check_diameter(N) == (False, "s_0 is not an involution at vertex 0")


def test_diameter_bfs_catches_a_disconnected_table(monkeypatch):
    def freeze_ends(steps, n):
        # without s_0 and s_n no generator changes the number of ones
        for i in (0, n):
            steps[i][:] = array("i", range(len(steps[i])))

    broken_tables(monkeypatch, freeze_ends)
    assert checks.check_diameter(N) == (
        False,
        "flip graph is disconnected: invariant violated",
    )


def test_checks_that_build_the_graph_are_capped_by_it(monkeypatch):
    # build_graph raises ValueError above MAX_GRAPH_N, which would stop
    # tft verify -n <cap> halfway with a usage error
    calls = counted(monkeypatch, flipgraph, "build_graph")
    builders = {}
    for check in checks.SUITES:
        calls.clear()
        assert check.run(N)[0], check.name
        if calls:
            builders[check.name] = check.max_n
    assert {"relations", "action-vs-geometry", "diameter-bfs"} <= builders.keys()
    assert max(builders.values()) <= flipgraph.MAX_GRAPH_N


def test_graph_suite_is_capped_at_n12():
    # this test, not the oracles' cost, holds every graph cap at 11:
    # several graph checks would finish within a minute at n = 12
    rows = list(checks.run_suite(12, "graph"))
    assert rows
    assert {status for _, status, _ in rows} == {"skip"}
