"""The rewritten oracle checks must still fail on wrong answers."""

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


def test_relations_catches_a_moved_vector_at_n7(monkeypatch):
    # the registry's cap is the only cap: under --max-n 7 the vector
    # test still runs, so an action that moves one vector must fail
    act_on_phi = coxeter.act_on_phi
    moved = geometry.all_phi_vectors(7)[-1]
    base = coxeter.base_vector(7)
    monkeypatch.setattr(
        coxeter, "act_on_phi", lambda word, v: base if v == moved else act_on_phi(word, v)
    )
    ok, detail = checks.check_relations(7)
    assert not ok
    assert detail.endswith(f"moves vector {moved}")


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


def test_graph_suite_is_capped_at_n12():
    # the graph oracles would take hours at n = 12
    rows = list(checks.run_suite(12, "graph"))
    assert rows
    assert {status for _, status, _ in rows} == {"skip"}
