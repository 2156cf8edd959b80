"""The rewritten oracle checks must still fail on wrong answers."""

import dataclasses
import random
import time
import weakref
from array import array
from collections import Counter
from functools import cached_property
from itertools import combinations

import pytest

from tftflip import checks, coxeter, flipgraph, geometry
from tftflip import representatives as reps
from tftflip.cli import main


def wrong_at(fn, pair, answer):
    """``fn`` except that it returns ``answer`` at the one ``pair``."""

    def patched(r, s, *rest):
        return answer if (r, s) == pair else fn(r, s, *rest)

    return patched


N = 3
BOTTOM, TOP = reps.identity_rep(N), reps.longest_rep(N)


def row(name, n=N):
    """The ``(status, detail)`` that ``run_suite`` reports for check
    ``name`` at ``n``."""
    suite = next(c.suite for c in checks.SUITES if c.name == name)
    return next((st, detail) for c, st, detail in checks.run_suite(n, suite) if c == name)


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
    # the oracle calls the closed forms' bodies on the reps it enumerated
    assert checks.check_meet_join(N)[0]
    body = f"_{name}"
    monkeypatch.setattr(reps, body, wrong_at(getattr(reps, body), pair, answer))
    ok, detail = checks.check_meet_join(N)
    assert not ok
    assert f"{name} formula" in detail


def test_meet_join_catches_a_non_representative(monkeypatch):
    monkeypatch.setattr(reps, "_meet", wrong_at(reps._meet, (TOP, TOP), (9,) * (N + 1)))
    assert row("meet-join") == ("FAIL", "exponents 0..2 must be bits: (9, 9, 9, 9)")


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
        # the first pair in order that the swapped dual fails to reverse
        (checks.check_duality, ((0, 0, 1, 0), (0, 0, 0, 1))),
    ],
)
def test_order_checks_catch_a_wrong_order(monkeypatch, check, pair):
    # leq puts TOP below ATOM, and dual swaps the images of two
    # incomparable reps of length 3 (and so of their duals), which keeps
    # it an involution that complements length; order-closure reads leq
    # and duality reads dual
    leq, dual = reps.leq, reps.dual
    swap = {(1, 1, 0, 0): (0, 0, 1, 0), (0, 0, 1, 0): (1, 1, 0, 0)}

    def swapped(r, n):
        d = dual(swap.get(r, r), n)
        return swap.get(d, d)

    monkeypatch.setattr(reps, "leq", lambda r, s: leq(r, s) or (r, s) == (TOP, ATOM))
    monkeypatch.setattr(reps, "dual", swapped)
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
        N, tuple(frozenset((x, y)) for x, y in ((0, 2), (2, 4), (0, 4), (4, 6)))
    )
    assert inner.violations() == ["inner triangle [0, 2, 4] with three chord sides"]
    wrong_flip(monkeypatch, CTS[0], 0, inner)
    assert row("flip-involution") == (
        "FAIL", f"flip 0 at {CTS[0]} leaves the enumeration"
    )


def test_flip_involution_catches_a_duplicate_triangulation(monkeypatch):
    monkeypatch.setattr(geometry, "enumerate_ctft", lambda n: CTS + [CTS[3]])
    assert row("flip-involution") == ("FAIL", f"{CTS[3]} enumerated twice")


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


INNER = geometry.ColoredTriangulation(  # the heptagon with the inner triangle 0, 2, 4
    N, tuple(frozenset((x, y)) for x, y in ((0, 2), (2, 4), (0, 4), (4, 6)))
)


@pytest.mark.parametrize(
    "wrong, expected",
    [
        # 1:010 onto 1:011's triangulation, which then has two vectors
        ({VECTORS[10]: CTS[11]},
         f"phi_inv sends 1:010 and 1:011 to {CTS[11]}"),
        ({VECTORS[10]: INNER}, "phi_inv of 1:010 is not enumerated"),
        # 1:010 and 1:011 swapped: each id still has one triangulation, and
        # the flips of the swapped ones disagree with the action
        ({VECTORS[10]: CTS[11], VECTORS[11]: CTS[10]},
         "generator 2 on 1:001: 1:010 != 1:011"),
    ],
    ids=["shared", "outside", "swapped"],
)
def test_action_vs_geometry_catches_a_wrong_phi_inv(monkeypatch, wrong, expected):
    # the enumeration stays right, so only the id order sees phi_inv
    phi_inv = geometry.phi_inv
    monkeypatch.setattr(geometry, "enumerate_ctft", lambda n: CTS)
    monkeypatch.setattr(geometry, "phi_inv", lambda v: wrong.get(v) or phi_inv(v))
    assert row("action-vs-geometry") == ("FAIL", expected)


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


def test_flip_involution_validates_only_the_enumerated_triangulations(monkeypatch):
    # validity is computed once per enumerated triangulation and never on
    # a flipped candidate: every candidate equals an enumerated one, so a
    # second validation would count it twice.  The crossing table is read
    # once per chord pair that shares no end, counted here from the chords
    n = 5
    cts = geometry.enumerate_ctft(n)
    disjoint = sum(not c1 & c2 for ct in cts for c1, c2 in combinations(ct.chords, 2))
    compute, validated = geometry.ColoredTriangulation._violations.func, []

    def counting(ct):
        validated.append(ct)
        return compute(ct)

    prop = cached_property(counting)
    prop.__set_name__(geometry.ColoredTriangulation, "_violations")
    monkeypatch.setattr(geometry.ColoredTriangulation, "_violations", prop)
    pairs = []

    class Lookups(dict):
        def __getitem__(self, chord):
            pairs.append(chord)
            return super().__getitem__(chord)

    table = Lookups(geometry._crossing(n + 4))
    monkeypatch.setattr(geometry, "_crossing", {n + 4: table}.__getitem__)
    assert checks.check_flip_involution(n)[0]
    assert Counter(validated) == dict.fromkeys(cts, 1)
    assert len(pairs) == disjoint < len(cts) * 15


@pytest.mark.parametrize(
    "name", ["relations", "stabilizer", "rep-phi-correspondence", "shortest-reps"]
)
def test_word_checks_walk_the_flip_graph(monkeypatch, name):
    # each word check reads the flip graph, built once, and walks its words
    # with FlipGraph.walk; none applies a vector action of its own
    check = next(c for c in checks.SUITES if c.name == name)
    acts = counted(monkeypatch, coxeter, "act_on_phi")
    builds = counted(monkeypatch, flipgraph, "build_graph")
    walks = counted(monkeypatch, flipgraph.FlipGraph, "walk")
    assert check.run(5)[0]
    assert (len(acts), builds) == (0, [(5,)])
    assert walks


@pytest.mark.parametrize("n", range(1, 6))
def test_flip_tables_equal_a_linear_search(n):
    cts = geometry.enumerate_ctft(n)
    flips = checks._flip_tables(cts, n)
    for i, row in enumerate(flips):
        assert list(row) == [cts.index(ct.flip(i)) for ct in cts]
        assert [row[w] for w in row] == list(range(len(cts)))


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


def broken_images(monkeypatch, breakage):
    """Make ``flipgraph.build_graph`` return voltages changed by
    ``breakage``, from which the step tables are then derived."""
    build_graph = flipgraph.build_graph

    def patched(n):
        g = build_graph(n)
        breakage(g.images, n)
        return g

    monkeypatch.setattr(flipgraph, "build_graph", patched)


def test_relations_catches_a_moved_vector_at_n7(monkeypatch):
    # relations walks the voltages, so rewire them: s_1 fixes the fibers
    # of the base (bits 0...0) and of the last vector (bits 1...1); swap
    # them, which keeps s_1 an involution, and turn s_0's image of the last
    # fiber by 1, which does not keep s_0 one; each relation names its
    # smallest moved id, the first id of the first fiber it moves
    n = 7
    last = (1 << n) - 1
    (s0_heads, s0_turns), (s1_heads, _) = flipgraph.build_graph(n).images[:2]
    assert (s1_heads[0], s1_heads[last], s0_heads[last], s0_turns[last]) == (0, last, 63, 0)

    def swap_and_turn(images, n):
        heads = images[1][0]
        heads[0], heads[last] = last, 0
        heads, turns = images[0]
        images[0] = heads, turns[:last] + b"\1"

    broken_images(monkeypatch, swap_and_turn)
    s0_words = ["s0^2", *(f"(s0 s{j})^2" for j in range(2, 8))]
    assert checks.check_relations(n) == (False, "; ".join([
        *(f"{name} moves vector 5:0111111" for name in s0_words),
        *(f"{name} moves vector 0:0000000" for name in ("(s1 s7)^2", "(s1 s2)^3", "(s0 s1)^4")),
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
    # relations walks the voltages: s_1 sends the fiber of 1:010 (bits
    # 010, fiber 2) to fiber 4 with turn 0; send it to the base's fiber 0
    monkeypatch.undo()
    heads = flipgraph.build_graph(N).images[1][0]
    assert (u // (N + 4), heads[2]) == (2, 4)

    def fiber_to_base(images, n):
        images[1][0][2] = 0

    broken_images(monkeypatch, fiber_to_base)
    assert checks.check_relations(N) == (False, "; ".join([
        "s1^2 moves vector 6:010",
        "(s1 s3)^2 moves vector 5:011",
        "(s1 s2)^3 moves vector 6:001",
        "(s0 s1)^4 moves vector 0:000",
    ]))


def derived_tables(monkeypatch, check, n):
    """Whether each flip graph that ``check(n)``, which must pass, builds
    has derived its step tables."""
    graphs, build_graph = [], flipgraph.build_graph

    def building(n):
        graphs.append(build_graph(n))
        return graphs[-1]

    monkeypatch.setattr(flipgraph, "build_graph", building)
    assert check(n)[0]
    return ["steps" in vars(g) for g in graphs]


@pytest.mark.parametrize("n", [3, 8])
def test_relations_derives_no_step_tables(monkeypatch, n):
    assert derived_tables(monkeypatch, checks.check_relations, n) == [False]


@pytest.mark.parametrize("n", [3, 8])
def test_rep_phi_correspondence_derives_no_step_tables(monkeypatch, n):
    # its words walk the voltages too, so its peak holds no table
    assert derived_tables(monkeypatch, checks.check_rep_phi_correspondence, n) == [False]


@pytest.mark.parametrize("n", [3, 8])
def test_stabilizer_derives_no_step_tables(monkeypatch, n):
    # its orbit is counted on the voltages, not searched per vertex
    assert derived_tables(monkeypatch, checks.check_stabilizer, n) == [False]


def test_coxeter_suite_at_n12_derives_no_step_tables(monkeypatch):
    # relations, stabilizer and rep-phi-correspondence share one graph,
    # and none of them leaves the step tables cached on it
    rows = {}

    def suite(n):
        rows.update((name, status) for name, status, _ in checks.run_suite(n, "coxeter"))
        return (True,)

    assert derived_tables(monkeypatch, suite, 12) == [False]
    ran = {name for name, status in rows.items() if status != "skip"}
    assert ran == {"relations", "stabilizer", "rep-phi-correspondence"}
    assert set(rows.values()) == {"ok", "skip"}


def join_fixed_vertices(steps, n):
    # s_1 fixes ids 0 and n+4 (bits 0...0 and 0...01, e_n = 0); an s_1
    # edge between them has no rotated copy at ids 1 and n+5
    steps[1][0], steps[1][n + 4] = n + 4, 0


@pytest.mark.parametrize("check", [checks.check_rotation_automorphism])
def test_graph_checks_catch_a_table_without_rotation_symmetry(monkeypatch, check):
    # only the derived step tables can hold such an edge; the per-vertex
    # comparison with the generator action finds it
    name = next(c.name for c in checks.SUITES if c.run is check)
    assert row(name)[0] == "ok"
    broken_tables(monkeypatch, join_fixed_vertices)
    assert row(name) == ("FAIL", f"s_1 at vertex 0: table {N + 4} != generator 0")


def bottom_to_top(images, n):
    # s_0 sends bits 0...0 to bits 1...1 with the same e_n, but s_0 s_0
    # moves id 0
    images[0][0][0] = (1 << n) - 1


def test_edge_readers_refuse_a_table_that_is_not_an_involution(monkeypatch, capsys, tmp_path):
    # each edge is read once, from its lower id, so a step that its own
    # color does not undo would be dropped: 7 of the 91 edges at n = 3.
    # Every edge reader raises before its first edge or chunk: no export
    # file is written, tft graph exits 1, and the edge rows FAIL with the
    # same text
    defect = "s_0 is not an involution at vertex 0"
    broken_images(monkeypatch, bottom_to_top)
    for lines in (flipgraph.colored_edges, flipgraph.dot_lines, flipgraph.json_lines):
        with pytest.raises(RuntimeError) as raised:
            next(lines(flipgraph.build_graph(N)))
        assert str(raised.value) == defect
    path = tmp_path / "g.out"
    for fmt in ("json", "dot"):
        with pytest.raises(RuntimeError) as raised:
            flipgraph.write_export(flipgraph.build_graph(N), fmt, str(path))
        assert str(raised.value) == defect
        assert main(["graph", "-n", str(N), "--format", fmt, "-o", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {defect}\n")
        assert not path.exists()
    for name in ("graph-description", "bipartition"):
        assert row(name) == ("FAIL", defect)


def test_rotation_automorphism_holds_the_tables_to_the_generator_action(monkeypatch):
    # build_graph reads the action at e_n = 0 only and the step tables
    # fill each fiber by rotation, so tables that commute with it can
    # still miss that s_1 stops moving the e_n = 3 vertices
    act = reps._apply_generator
    monkeypatch.setattr(
        reps, "_apply_generator",
        lambda i, r, n: r if i == 1 and r[n] == 3 else act(i, r, n),
    )
    # id 17 is (0, 1, 0; 3), which s_1 sends to (1, 0, 0; 3), id 31
    assert row("rotation-automorphism") == (
        "FAIL", "s_1 at vertex 17: table 31 != generator 17"
    )


def test_rotation_automorphism_reports_an_image_that_is_no_rep(monkeypatch):
    # the images' ids come from a dict of the reps; vertex_id names the
    # failure, so check_rep's text is the row's
    act = reps._apply_generator
    monkeypatch.setattr(
        reps, "_apply_generator",
        lambda i, r, n: (9,) * (n + 1) if (i, r) == (2, TOP) else act(i, r, n),
    )
    assert row("rotation-automorphism") == ("FAIL", "exponents 0..2 must be bits: (9, 9, 9, 9)")


def test_distance_formula_catches_one_wrong_partner(monkeypatch):
    top = flipgraph.vertex_id(TOP, N)  # distance 4 from the bottom, id 0

    def shortcut(steps, n):
        steps[0][0] = top

    broken_tables(monkeypatch, shortcut)
    ok, detail = checks.check_distance_formula(N)
    assert not ok
    assert detail.startswith(f"formula != BFS at {BOTTOM}, ")


def test_diameter_bfs_catches_a_table_that_is_not_an_involution(monkeypatch):
    broken_images(monkeypatch, bottom_to_top)
    assert row("diameter-bfs") == ("FAIL", "s_0 is not an involution at vertex 0")


def freeze_ends(images, n):
    # without s_0 and s_n no generator changes the number of ones
    for i in (0, n):
        images[i] = (array("i", range(1 << n)), bytes(1 << n))


@pytest.mark.parametrize("breakage", [bottom_to_top, freeze_ends])
def test_broken_voltages_derive_their_per_vertex_tables(monkeypatch, breakage):
    # s_i sends v = F*m + e to heads[F]*m + (turns[F] + e) mod m
    broken_images(monkeypatch, breakage)
    g, m = flipgraph.build_graph(N), N + 4
    assert [list(step) for step in g.steps] == [
        [heads[v // m] * m + (turns[v // m] + v % m) % m for v in range(m << N)]
        for heads, turns in g.images
    ]


DISCONNECTED = "flip graph is disconnected: invariant violated"


def test_diameter_bfs_catches_a_disconnected_table(monkeypatch):
    broken_images(monkeypatch, freeze_ends)
    assert row("diameter-bfs") == ("FAIL", DISCONNECTED)


def test_a_point_query_leaves_a_split_away_from_its_pair_to_verify(monkeypatch, capsys):
    # bfs_distance stops at its target, so it does not see that the
    # frozen tables split the graph elsewhere: its answer (s_1, then
    # s_2) is still exact, and verify's graph rows catch the split
    broken_images(monkeypatch, freeze_ends)
    argv = ["distance", "-n", str(N), "--from", "1,0,0,0", "--to", "0,0,1,0"]
    assert main(argv + ["--method", "bfs"]) == 0
    assert capsys.readouterr() == ("2\n", "")
    assert main(["verify", "-n", str(N)]) == 1
    rows = verify_rows(capsys.readouterr().out)
    for name in ("stabilizer", "distance-formula", "diameter-bfs", "shortest-reps"):
        assert rows[name] == ["FAIL", DISCONNECTED]


def test_stabilizer_catches_a_short_orbit(monkeypatch):
    broken_images(monkeypatch, freeze_ends)
    assert row("stabilizer") == ("FAIL", DISCONNECTED)


def test_stabilizer_refuses_a_table_that_is_not_an_involution(monkeypatch):
    # the orbit is read off the voltages of involutions only
    broken_images(monkeypatch, bottom_to_top)
    assert row("stabilizer") == ("FAIL", "s_0 is not an involution at vertex 0")


def swap_fixed_fibers(images, n):
    # s_1 fixes fibers 0 and 1 (bits 0...0 and 0...01); swapping them keeps
    # s_1 an involution and the graph connected, but s_1 moves id 0
    heads = images[1][0]
    assert (heads[0], heads[1]) == (0, 1)
    heads[0], heads[1] = 1, 0


def test_stabilizer_catches_a_generator_moving_the_star(monkeypatch):
    broken_images(monkeypatch, swap_fixed_fibers)
    assert row("stabilizer") == ("FAIL", "generators not fixing base: ['1']")


def swap_two_s1_edges(steps, n):
    # s_1 joins ids 14-28 and 15-29; join 14-29 and 15-28 instead, which
    # keeps the table an involution
    s1 = steps[1]
    assert (s1[14], s1[15]) == (28, 29)
    s1[14], s1[29], s1[15], s1[28] = 29, 14, 28, 15


def join_two_vertices_of_one_level(steps, n):
    # s_1 fixes (0, 0, 1; 0) and (1, 1, 0; 0), ids 7 and 42, both of length 3
    steps[1][7], steps[1][42] = 42, 7


def join_the_ends_of_a_wrap_by_s1(steps, n):
    # s_1 fixes ids 0 and 48, whose e_n are 0 and n+3: an s_1 edge
    # between them has the shape of a wrap, but only s_n's are wraps
    steps[1][0], steps[1][48] = 48, 0


@pytest.mark.parametrize(
    "breakage, error",
    [
        (swap_two_s1_edges, "31 join-irreducibles, not the top length 30"),
        (join_two_vertices_of_one_level, "Hasse edge 42-7 joins levels 3 and 3"),
        (join_the_ends_of_a_wrap_by_s1, "31 join-irreducibles, not the top length 30"),
    ],
)
def test_lattice_rows_read_the_step_tables(monkeypatch, breakage, error):
    broken_tables(monkeypatch, breakage)
    for name in ("order-closure", "meet-join", "duality"):
        assert row(name) == ("FAIL", error)


@pytest.mark.parametrize(
    "swap, error",
    [
        # dual(a) = b' and dual(b) = a' for a and b of length 3: lengths
        # still complement, but dual(dual(a)) = b
        ({(1, 1, 0, 0): (0, 0, 1, 0), (0, 0, 1, 0): (1, 1, 0, 0)},
         "dual not an involution at (0, 0, 1, 0)"),
        # dual(bottom) = bottom, an involution there but of length 0
        ({BOTTOM: TOP}, f"dual length complement fails at {BOTTOM}"),
    ],
)
def test_duality_catches_a_wrong_dual(monkeypatch, swap, error):
    dual = reps.dual
    monkeypatch.setattr(reps, "dual", lambda r, n: dual(swap.get(r, r), n))
    assert row("duality") == ("FAIL", error)


def test_each_ideal_has_as_many_members_as_its_rep_has_length():
    for n in range(2, 6):
        ideals = checks._ideals(n)
        assert [i.bit_count() for i in ideals] == list(map(reps.rep_length, reps.all_reps(n)))


def test_rep_phi_correspondence_catches_a_word_left_at_the_base(monkeypatch):
    # the word of (0, 0, 0, 1) is s_3 s_2 s_1 s_0, and with both ends
    # frozen it leaves the identity rep where it is
    broken_images(monkeypatch, freeze_ends)
    assert row("rep-phi-correspondence") == (
        "FAIL", "rep (0, 0, 0, 1): word gives 0:000, closed form 6:000"
    )


# -- the word checks realize each fiber head's word once


@pytest.mark.parametrize("n", range(2, 8))
def test_rep_maps_equal_the_maps_of_the_whole_words(n):
    assert checks._rep_maps(n) == [
        coxeter.word_to_affine(n, reps.rep_to_word(r)) for r in reps.all_reps(n)
    ]


@pytest.mark.parametrize("name", ["rep-lengths", "self-duality"])
def test_word_checks_realize_one_word_per_fiber(monkeypatch, name):
    # one word per fiber of n = 5 (2^5 = 32), a_n's and self-duality's
    # top; one per rep would be 288
    n = 5
    check = next(c for c in checks.SUITES if c.name == name)
    calls = counted(monkeypatch, coxeter, "word_to_affine")
    assert check.run(n)[0]
    assert 2**n < len(calls) <= 2**n + 2


def test_one_wrong_word_inside_a_fiber_fails_every_word_check(monkeypatch):
    # (1, 0, 1, 2) has e_n > 0 and bits != 0, so its fiber head's word
    # and a_n's are right: only the check at every rep catches it
    rep_to_word = reps.rep_to_word

    def dropped(r):
        word = rep_to_word(r)
        return word[1:] if r == (1, 0, 1, 2) else word

    monkeypatch.setattr(reps, "rep_to_word", dropped)
    statuses = {name: st for name, st, _ in checks.run_suite(N)}
    assert {name for name, st in statuses.items() if "FAIL" in st} == {
        "rep-lengths", "rep-phi-correspondence", "self-duality", "shortest-reps"
    }
    assert statuses["self-duality"] == "finding-FAIL"


# -- run_suite shares each input across the suites of one call, and
# drops it after its last reader


@pytest.mark.parametrize(
    "n, owner, name, fault, expected",
    [
        (5, geometry, "enumerate_ctft", lambda fn: lambda n: fn(n)[1:],
         ("counting", "FAIL", "enumerated 287, expected 288")),
        (N, reps, "_meet", lambda fn: wrong_at(fn, (TOP, TOP), BOTTOM),
         ("meet-join", "FAIL", f"meet formula is not the glb at {TOP}, {TOP}")),
    ],
    ids=["enumerate_ctft", "meet"],
)
def test_no_input_outlives_a_run(monkeypatch, n, owner, name, fault, expected):
    assert all(st != "FAIL" for _, st, _ in checks.run_suite(n))
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    assert expected in list(checks.run_suite(n))


def test_one_run_enumerates_once(monkeypatch):
    calls = counted(monkeypatch, geometry, "enumerate_ctft")
    assert all(st != "FAIL" for _, st, _ in checks.run_suite(5))
    assert calls == [(5,)]


def test_one_lattice_run_orders_and_bounds_each_pair_once(monkeypatch):
    calls = [counted(monkeypatch, reps, name) for name in ("leq", "_meet", "_join")]
    assert {st for _, st, _ in checks.run_suite(N, "lattice")} == {"ok"}
    assert [len(c) for c in calls] == [56**2] * 3


def test_the_pair_oracles_check_no_rep_per_pair(monkeypatch):
    # meet-join, modularity and lower-bound call the closed forms' bodies
    # on reps they enumerated, and rotation-automorphism reads each
    # image's id from a dict: the lattice suite checks only duality's
    # dual and id of each rep (2V), not each pair's arguments and results
    calls = counted(monkeypatch, reps, "check_rep")
    assert {st for _, st, _ in checks.run_suite(N, "lattice")} == {"ok"}
    assert len(calls) <= 2 * 56
    calls.clear()
    assert all(st != "FAIL" for _, st, _ in checks.run_suite(N))
    assert len(calls) < 1000


def test_one_run_builds_the_reps_vectors_once(monkeypatch):
    # the id order and action-vs-geometry share one vector per rep; besides
    # those, rep-phi-correspondence takes one per rep and act_on_phi one
    # per rep and letter
    n, vertices = 5, 288
    vectors = counted(monkeypatch, checks, "_vectors")
    calls = counted(monkeypatch, reps, "rep_to_phi")
    assert all(st != "FAIL" for _, st, _ in checks.run_suite(n))
    assert (len(vectors), len(calls)) == (1, (2 + n + 1) * vertices)


def test_one_run_builds_the_step_tables_once(monkeypatch):
    # coxeter, lattice (whose table-reading rows are capped at 4) and
    # graph read one graph
    builds = counted(monkeypatch, flipgraph, "build_graph")
    for n in (3, 5, 6):
        builds.clear()
        assert all(st != "FAIL" for _, st, _ in checks.run_suite(n))
        assert builds == [(n,)]


@pytest.mark.parametrize("n", [3, 5])
def test_one_run_flips_each_triangulation_once(monkeypatch, n):
    # flip-involution builds the flip tables, action-vs-geometry reads them
    tables = counted(monkeypatch, checks, "_flip_tables")
    assert all(st != "FAIL" for _, st, _ in checks.run_suite(n))
    assert len(tables) == 1


def test_one_run_rebuilds_each_triangulation_from_its_vector_twice(monkeypatch):
    # phi_inv runs V times in the enumeration, V in phi-roundtrip, V for
    # the id order that action-vs-geometry and antipodes read, and once in
    # s0-direction; the search from the identity runs once, for
    # shortest-reps, besides distance-formula's 20 sources
    n, vertices = 5, 288
    inverses = counted(monkeypatch, geometry, "phi_inv")
    searches = counted(monkeypatch, flipgraph, "bfs_distances")
    assert all(st != "FAIL" for _, st, _ in checks.run_suite(n))
    assert (len(inverses), len(searches)) == (3 * vertices + 1, 21)


class Held(list):
    """A list that a weak reference can point to."""


def held(monkeypatch, owner, name):
    """Wrap the builder ``owner.name`` so that a weak reference to each
    input it builds is appended to the returned list."""
    build, refs = getattr(owner, name), []

    def building(*args):
        value = build(*args)
        value = Held(value) if isinstance(value, list) else value
        refs.append(weakref.ref(value))
        return value

    monkeypatch.setattr(owner, name, building)
    return refs


@pytest.mark.parametrize(
    "n, owner, builder, name, last",
    [
        (5, geometry, "enumerate_ctft", "triangulations", "antipodes"),
        (6, geometry, "enumerate_ctft", "triangulations", "flip-involution"),
        (5, flipgraph, "build_graph", "graph", "rotation-automorphism"),
        (6, flipgraph, "build_graph", "graph", "bipartition"),
    ],
    ids=["triangulations-n5", "triangulations-n6", "graph-n5", "graph-n6"],
)
def test_an_input_is_dropped_after_its_last_reader(monkeypatch, n, owner, builder, name, last):
    # the builder is monkeypatched, as a fault injection would be: it is
    # still built once, kept up to the last check that runs and reads it,
    # and gone in the row of that check
    running = [c.name for c in checks.SUITES if c.min_n <= n <= c.max_n and name in c.reads]
    assert running[-1] == last
    built, alive = held(monkeypatch, owner, builder), {}
    for check, status, _ in checks.run_suite(n):
        assert status != "FAIL"
        alive[check] = built[0]() is not None if built else None
    assert len(built) == 1
    rows = list(alive)
    first, end = rows.index(running[0]), rows.index(last)
    assert [alive[c] for c in rows[first:]] == [True] * (end - first) + [False] * (len(rows) - end)


def test_an_input_is_dropped_after_a_last_reader_that_failed_before_reading_it(monkeypatch):
    # antipodes asks for the diameter before the triangulations
    def refused(n):
        raise RuntimeError("no diameter")

    built = held(monkeypatch, geometry, "enumerate_ctft")
    monkeypatch.setattr(flipgraph, "diameter", refused)
    rows = checks.run_suite(5)
    assert next(r for r in rows if r[0] == "antipodes") == ("antipodes", "FAIL", "no diameter")
    assert built[0]() is None


def test_the_phi_vectors_are_freed_before_the_flip_tables_are_built(monkeypatch):
    # flip-involution, their last reader, keeps only its fixed-point columns
    refs, flip_tables, alive = held(monkeypatch, checks, "_phis"), checks._flip_tables, []

    def flipping(cts, n):
        alive.append(refs[0]() is not None)
        return flip_tables(cts, n)

    monkeypatch.setattr(checks, "_flip_tables", flipping)
    assert {st for _, st, _ in checks.run_suite(6, "geometry")} == {"ok"}
    assert (len(refs), alive) == (1, [False])


def test_an_input_the_running_check_does_not_list_is_refused(monkeypatch):
    counting = next(c for c in checks.SUITES if c.name == "counting")
    suites = [dataclasses.replace(c, reads=()) if c is counting else c for c in checks.SUITES]
    monkeypatch.setattr(checks, "SUITES", suites)
    with pytest.raises(LookupError, match="counting does not list the input 'triangulations'"):
        list(checks.run_suite(N, "geometry"))


@pytest.mark.parametrize("n", [3, 5, 6])
def test_a_suite_run_alone_gives_the_rows_of_the_whole_run(n):
    # a filtered run builds what its cross-suite readers need itself
    rows = list(checks.run_suite(n))
    suite_of = {c.name: c.suite for c in checks.SUITES}
    for suite in checks.suite_names():
        assert list(checks.run_suite(n, suite)) == [r for r in rows if suite_of[r[0]] == suite]


def test_an_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="unknown suite 'lattices'"):
        list(checks.run_suite(N, "lattices"))


def test_a_check_called_directly_builds_its_own_inputs(monkeypatch):
    calls = counted(monkeypatch, geometry, "enumerate_ctft")
    assert checks.check_counting(5)[0] and checks.check_counting(5)[0]
    assert calls == [(5,), (5,)]
    # also between two rows of a run
    rows = checks.run_suite(5, "geometry")
    assert next(rows)[:2] == ("counting", "ok")
    assert checks.check_counting(5)[0]
    assert calls == [(5,)] * 4
    # and the readers of other suites' triangulations and flip tables
    tables = counted(monkeypatch, checks, "_flip_tables")
    for check in (checks.check_action_matches_geometry, checks.check_antipodes):
        assert check(5)[0] and check(5)[0]
    assert (calls, len(tables)) == ([(5,)] * 8, 2)


# -- a broken oracle is a FAIL row or one error line, never a traceback


def verify_rows(out):
    return {line[:24].rstrip(): line[25:].split(None, 1) for line in out.splitlines()}


def test_verify_reports_every_row_on_a_disconnected_table(monkeypatch, capsys):
    broken_images(monkeypatch, freeze_ends)
    code = main(["verify", "-n", str(N)])
    out, err = capsys.readouterr()
    rows = verify_rows(out)
    assert (code, len(rows)) == (1, len(checks.SUITES))
    for name in ("distance-formula", "diameter-bfs", "shortest-reps"):
        assert rows[name] == ["FAIL", DISCONNECTED]
    assert err.count("FAILED: ") == 1 and err.count("\n") == 1
    assert "Traceback" not in out + err


@pytest.mark.parametrize("method", ["bfs", "both"])
def test_distance_reports_a_disconnected_table_in_one_line(monkeypatch, capsys, method):
    broken_images(monkeypatch, freeze_ends)
    argv = ["distance", "-n", str(N), "--from", "0,0,0,0", "--to", "1,1,1,6"]
    assert main(argv + ["--method", method]) == 1
    assert capsys.readouterr() == ("", f"error: {DISCONNECTED}\n")


def test_verify_reports_a_non_square_volume_as_a_fail_row(monkeypatch, capsys):
    det = coxeter._det
    monkeypatch.setattr(coxeter, "_det", lambda rows: 3 * det(rows))
    code = main(["verify", "-n", str(N)])
    out, err = capsys.readouterr()
    assert code == 1
    assert len(out.splitlines()) == len(checks.SUITES)
    assert f"{'volumes':24s} {'FAIL':8s} 3 is not a rational square\n" in out
    assert err == "FAILED: volumes\n"


def test_verify_reports_a_closed_form_outside_the_interval_as_a_fail_row(
    monkeypatch, capsys
):
    # suffix sums added, not taken the min of: (0,0,0,4) meet (0,0,0,3)
    # has last exponent 7, which check_rep refuses with a ValueError
    pair = ((0, 0, 0, 4), (0, 0, 0, 3))
    meet = reps._meet
    monkeypatch.setattr(
        reps, "_meet",
        lambda r, s: reps._bound(lambda a, b: a + b, r, s) if (r, s) == pair else meet(r, s),
    )
    code = main(["verify", "-n", str(N), "--suite", "lattice"])
    out, err = capsys.readouterr()
    rows = verify_rows(out)
    detail = "last exponent must be in 0..6: (0, 0, 0, 7)"
    assert code == 1
    assert list(rows) == [c.name for c in checks.SUITES if c.suite == "lattice"]
    assert rows.pop("meet-join") == rows.pop("modularity") == ["FAIL", detail]
    assert {st for st, _ in rows.values()} == {"ok"}
    assert err == "FAILED: meet-join\n"


# -- checks that no other test makes fail


LOWER_PAIR = ((0, 0, 1, 1), TOP)  # the first pair lower-bound draws at n = 3


def test_lower_bound_catches_a_distance_below_the_bound(monkeypatch):
    assert flipgraph.distance_formula(*LOWER_PAIR, N) == 5  # the bound is tight
    monkeypatch.setattr(flipgraph, "_distance", wrong_at(flipgraph._distance, LOWER_PAIR, 4))
    assert row("lower-bound") == (
        "FAIL", f"length lower bound violated at {LOWER_PAIR[0]}, {TOP}"
    )


def test_diameter_scan_catches_a_wrong_closed_form(monkeypatch):
    diameter = flipgraph.diameter
    monkeypatch.setattr(flipgraph, "diameter", lambda n: 15 if n == N else diameter(n))
    assert row("diameter-scan") == ("FAIL", "formula scan 14 != closed form 15")


def test_modularity_catches_one_wrong_join(monkeypatch):
    monkeypatch.setattr(reps, "_join", wrong_at(reps._join, (TOP, TOP), BOTTOM))
    assert row("modularity") == ("FAIL", f"modularity fails at {TOP}, {TOP}")


def test_graph_description_catches_a_missing_cover(monkeypatch):
    covers = reps.covers
    monkeypatch.setattr(reps, "covers", lambda r, n: [] if r == BOTTOM else covers(r, n))
    assert row("graph-description") == ("FAIL", "1 extra / 0 missing edges")


def test_antipodes_catches_a_wrong_antipode(monkeypatch):
    antipode = flipgraph.antipode

    def patched(r, n, kind):
        return BOTTOM if (r, kind) == (BOTTOM, "color_reversal") else antipode(r, n, kind)

    monkeypatch.setattr(flipgraph, "antipode", patched)
    assert row("antipodes") == (
        "FAIL", f"color_reversal antipode of {BOTTOM} is not at distance 14"
    )


def test_antipodes_holds_the_rotation_antipode_to_geometry(monkeypatch):
    # at n = 4 the color-reversal antipode of the bottom also lies at the
    # diameter, so only the rotated triangulation tells it apart
    antipode, bottom = flipgraph.antipode, reps.identity_rep(4)

    def patched(r, n, kind):
        kind = "color_reversal" if (r, kind) == (bottom, "rotation") else kind
        return antipode(r, n, kind)

    monkeypatch.setattr(flipgraph, "antipode", patched)
    assert row("antipodes", 4) == (
        "FAIL", f"rotation antipode of {bottom} disagrees with geometry"
    )


def test_rep_phi_correspondence_catches_a_wrong_inverse(monkeypatch):
    phi_to_rep = reps.phi_to_rep
    atom_phi = reps.rep_to_phi(ATOM, N)
    monkeypatch.setattr(
        reps, "phi_to_rep", lambda v: BOTTOM if v == atom_phi else phi_to_rep(v)
    )
    assert row("rep-phi-correspondence") == ("FAIL", f"phi_to_rep not inverse at {ATOM}")


def test_rep_phi_correspondence_catches_two_reps_on_one_vector(monkeypatch):
    # rep -> phi is then not injective, and no left inverse can exist:
    # phi_to_rep sends the shared vector back to the bottom, not ATOM
    rep_to_phi = reps.rep_to_phi
    monkeypatch.setattr(
        reps, "rep_to_phi", lambda r, n: rep_to_phi(BOTTOM if r == ATOM else r, n)
    )
    assert row("rep-phi-correspondence") == ("FAIL", f"phi_to_rep not inverse at {ATOM}")


def test_rep_phi_correspondence_builds_no_vertex_list(monkeypatch):
    # each fiber is built from its head bits, one at a time
    def refused(n):
        raise AssertionError("all_reps called")

    monkeypatch.setattr(reps, "all_reps", refused)
    assert checks.check_rep_phi_correspondence(6)[0]


# -- lower-bound draws vertex ids


def test_lower_bound_draws_the_same_pairs_from_ids(monkeypatch):
    n = 5
    rs = reps.all_reps(n)
    rng = random.Random(2)
    expected = [
        (rs[u], rs[rng.randrange(len(rs))], n)
        for u in random.Random(1).sample(range(len(rs)), 15)
        for _ in range(50)
    ]
    calls = counted(monkeypatch, flipgraph, "_distance")
    assert checks.check_lower_bound(n)[0]
    assert calls == expected


def test_lower_bound_builds_no_vertex_list(monkeypatch):
    builds = counted(monkeypatch, reps, "all_reps")
    start = time.perf_counter()
    assert checks.check_lower_bound(20)[0]
    assert time.perf_counter() - start < 1
    assert builds == []


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


# -- with two seeded defects, each check names the one its vertex-outer,
# colour-inner loop meets first: the lower vertex, though at a higher colour


@pytest.mark.parametrize(
    "defects, expected",
    [
        # flip 3 of CTS[12] goes to CTS[20], not CTS[13], and flip 0 of
        # CTS[40] to CTS[5], not CTS[36]: no longer involutions at 12 and 36
        ([(12, 3, 20), (40, 0, 5)], f"flip 3 is not an involution at {CTS[12]}"),
        # flip 2 sends CTS[7], which it fixes, to CTS[12], which it fixes
        # too: at 7 both tests fail, and the involution test comes first
        ([(7, 2, 12), (30, 0, 30)], f"flip 2 is not an involution at {CTS[7]}"),
        # flip 2 swaps CTS[7] and CTS[12], both fixed by it (bits i-1 and i
        # agree), and flip 0 fixes CTS[30]
        ([(7, 2, 12), (12, 2, 7), (30, 0, 30)], f"flip 2 fixed-point rule fails at {CTS[7]}"),
        # flip 3 fixes CTS[12], and flip 1 swaps CTS[30] and CTS[40]
        ([(12, 3, 12), (30, 1, 40), (40, 1, 30)],
         f"flip 3 fixes {CTS[12]} (short chords never stick)"),
    ],
    ids=["involution", "involution-first", "fixed-point-rule", "fixes"],
)
def test_flip_involution_names_its_first_failure(monkeypatch, defects, expected):
    for u, i, w in defects:
        wrong_flip(monkeypatch, CTS[u], i, CTS[w])
    assert checks.check_flip_involution(N) == (False, expected)


def wrong_steps(*entries):
    """A step-table breakage: ``steps[i][u] = v`` for each (u, i, v)."""

    def breakage(steps, n):
        for u, i, v in entries:
            steps[i][u] = v

    return breakage


REPS = reps.all_reps(N)
PHIS = [reps.rep_to_phi(r, N) for r in REPS]  # of the rep ids


@pytest.mark.parametrize(
    "letter, u, step, expected",
    [
        # s_3 acts wrongly on id 9, and step table 0 is wrong at id 20
        (3, 9, wrong_steps((20, 0, 0)), "generator 3 on 4:001: 0:000 != 4:000"),
        # both at id 33: s_2 acts wrongly, and step table 1 is wrong
        (2, 33, wrong_steps((33, 1, 0)), "step table 1 on 1:100: 0:000 != 1:010"),
    ],
    ids=["generator", "step-table"],
)
def test_action_vs_geometry_names_its_first_failure(monkeypatch, letter, u, step, expected):
    wrong_letter(monkeypatch, letter, PHIS[u], coxeter.base_vector(N))
    broken_tables(monkeypatch, step)
    assert checks.check_action_matches_geometry(N) == (False, expected)


@pytest.mark.parametrize(
    "fixed, steps, expected",
    [
        # two table entries: s_3 at id 10 and s_0 at id 40
        (None, wrong_steps((10, 3, 0), (40, 0, 0)),
         "s_3 at vertex 10: table 0 != generator 4"),
        # s_2 fixes id 17 (e_n = 3, so the tables still move it), and the
        # table of s_1 is wrong at id 33
        ((2, 17), wrong_steps((33, 1, 0)), "s_2 at vertex 17: table 10 != generator 17"),
    ],
    ids=["two-tables", "generator"],
)
def test_rotation_automorphism_names_its_first_failure(monkeypatch, fixed, steps, expected):
    if fixed:
        act, (i, u) = reps._apply_generator, fixed
        monkeypatch.setattr(
            reps, "_apply_generator", lambda j, r, n: r if (j, r) == (i, REPS[u]) else act(j, r, n)
        )
    broken_tables(monkeypatch, steps)
    assert checks.check_rotation_automorphism(N) == (False, expected)


@pytest.mark.parametrize(
    "formula_at, oracle_at, expected",
    [
        # the formula is one too long at id 45, the oracle at id 7
        (45, 7, "rep (0, 0, 1, 0): formula 3 != oracle 4"),
        # the formula at id 12, the oracle at id 30
        (12, 30, "rep (0, 0, 1, 5): formula 24 != oracle 23"),
    ],
    ids=["oracle", "formula"],
)
def test_rep_lengths_names_its_first_failure(monkeypatch, formula_at, oracle_at, expected):
    rep_length, coxeter_length = reps.rep_length, coxeter.coxeter_length
    target = checks._rep_maps(N)[oracle_at]
    monkeypatch.setattr(
        reps, "rep_length", lambda r: rep_length(r) + (r == REPS[formula_at])
    )
    monkeypatch.setattr(
        coxeter, "coxeter_length", lambda m: coxeter_length(m) + (m == target)
    )
    assert checks.check_rep_lengths(N) == (False, expected)


def test_one_wrong_short_length_fails_rep_lengths_and_shortest_reps(monkeypatch):
    # (0, 0, 1, 0), id 7, keeps its own word of 3 letters, and the
    # shortest-reps row reads its hyperplane length from rep-lengths' column
    coxeter_length, target = coxeter.coxeter_length, checks._rep_maps(N)[7]
    monkeypatch.setattr(coxeter, "coxeter_length", lambda m: coxeter_length(m) + (m == target))
    failed = {name: detail for name, st, detail in checks.run_suite(N) if st == "FAIL"}
    assert failed == {
        "rep-lengths": "rep (0, 0, 1, 0): formula 3 != oracle 4",
        "shortest-reps": "shortest word for (0, 0, 1, 0) has 3 letters, length 4, graph distance 3",
    }


@pytest.mark.parametrize(
    "n, pairs",
    [
        # every source in id order: a late target of source 5, and source 9
        (N, [(5, 50), (9, 2)]),
        # sampled sources, 197, 215, 20, ... in that order: 215 is drawn
        # before 20
        (5, [(20, 3), (215, 250)]),
    ],
    ids=["all", "sampled"],
)
def test_distance_formula_names_its_first_failure(monkeypatch, n, pairs):
    rs, distance = reps.all_reps(n), flipgraph._distance
    wrong = {(rs[u], rs[v]) for u, v in pairs}
    monkeypatch.setattr(
        flipgraph, "_distance", lambda r, s, n: distance(r, s, n) + ((r, s) in wrong)
    )
    u, v = pairs[-1] if n > N else pairs[0]
    assert checks.check_distance_formula(n) == (False, f"formula != BFS at {rs[u]}, {rs[v]}")
