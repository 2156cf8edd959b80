"""Invariant suites shared by the CLI ``verify`` subcommand and the
acceptance tests.

Every check returns ``(ok, detail)`` and is exact: no tolerances
anywhere.  An oracle that finds its own invariant broken raises
``RuntimeError``, which ``run_suite`` reports as a FAIL row.  Checks
marked as findings report an observation (a convention comparison or an
unproved identity) without being part of the pass/fail contract; they
still return their outcome honestly.
"""

from __future__ import annotations

import random
from array import array
from collections import defaultdict
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count, product, repeat
from operator import add, eq, itemgetter, ne
from typing import Callable

from . import coxeter, flipgraph, geometry
from . import representatives as reps

__all__ = ["Check", "SUITES", "run_suite", "suite_names"]


@dataclass(frozen=True)
class Check:
    name: str
    suite: str
    max_n: int  # the only n-cap: run_suite skips the check above it
    run: Callable[[int], tuple[bool, str]]
    finding: bool = False
    min_n: int = 2  # smallest n the checked claim is stated for
    reads: tuple[str, ...] = ()  # the names of the run's inputs it may read


_run: ContextVar[tuple] = ContextVar("run")  # (store, check, last reads); set by run_suite


def _shared(name, build, *args):
    """The run's input ``name``, ``build(*args)``, made on first use and
    shared by the checks of one ``run_suite`` call that list ``name`` in
    their ``reads``; the store forgets it as it hands it to its last
    reader.  Raises ``LookupError`` when the running check does not list
    ``name``.  A check called on its own builds its own."""
    run = _run.get(None)
    if run is None:
        return build(*args)
    store, check, last = run
    if name not in check.reads:
        raise LookupError(f"{check.name} does not list the input {name!r}")
    if name not in store:
        store[name] = build(*args)
    return store.pop(name) if name in last else store[name]


def _first_difference(*pairs):
    """The least (u, k) such that the columns of ``pairs[k]`` differ at
    index u, else ``None``, reading each pair up to its first difference."""
    firsts = ((next(compress(count(), map(ne, *pair)), None), k) for k, pair in enumerate(pairs))
    return min((f for f in firsts if f[0] is not None), default=None)


# -- geometry -------------------------------------------------------


def check_counting(n):
    cts = _shared("triangulations", geometry.enumerate_ctft, n)
    expected = (n + 4) * 2**n
    if len(cts) != expected:
        return False, f"enumerated {len(cts)}, expected {expected}"
    invalid = [ct for ct in cts if not ct.is_valid()]
    if invalid:
        return False, f"{len(invalid)} enumerated triangulations invalid"
    if len({ct.chords for ct in cts}) != expected:  # one n: the chords tell them apart
        return False, "duplicate triangulations enumerated"
    # key each chord set by one bit per chord {x, y}, x < y; the chords
    # of a valid triangulation are distinct, so their bits sum exactly
    m = n + 4
    rows = enumerate(geometry._chords(m))
    bit = {c: 1 << (x * m + y) for x, row in rows for y, c in enumerate(row) if x < y and c}
    by_chords = defaultdict(int)
    for ct in cts:
        by_chords[sum(map(bit.__getitem__, ct.chords))] += 1
    wrong = {k: v for k, v in by_chords.items() if v != 2}
    if wrong:
        return False, f"{len(wrong)} uncolored triangulations without 2 colorings"
    return True, f"#CTFT={expected}, #TFT={expected // 2}, 2 colorings each"


def check_short_chords(n):
    for ct in _shared("triangulations", geometry.enumerate_ctft, n):
        shorts = ct.short_chords()
        if len(shorts) != 2:
            return False, f"{ct} has {len(shorts)} short chords"
        if set(shorts) != {ct.chords[0], ct.chords[n]}:
            return False, f"{ct}: short chords not colored 0 and {n}"
    return True, "every triangulation has exactly 2 short chords, colored 0 and n"


def _phis(cts):
    """``ct.phi()`` of each triangulation of ``cts``, in order."""
    return [ct.phi() for ct in cts]


def check_phi_roundtrip(n):
    cts = _shared("triangulations", geometry.enumerate_ctft, n)
    back = (geometry.phi_inv(v).chords for v in _shared("phis", _phis, cts))
    if fail := _first_difference((back, (ct.chords for ct in cts))):
        return False, f"phi roundtrip fails on {cts[fail[0]]}"
    return True, "phi_inv . phi is the identity on all triangulations"


def _index(cts):
    """The position in ``cts`` of each triangulation, by its chords: all of
    cts share n, so their chord tuples tell them apart, and tuples hash
    and compare in C.  Raises ``RuntimeError`` at a duplicate."""
    index = {}
    for u, ct in enumerate(cts):
        if index.setdefault(ct.chords, u) != u:
            raise RuntimeError(f"{ct} enumerated twice")
    return index


def _flip_tables(cts, n):
    """Each flip, applied once per triangulation through the validating
    ``ColoredTriangulation.flip``, as index tables: ``tables[i][u]`` is
    the position in ``cts`` of ``cts[u].flip(i)``.

    Raises ``RuntimeError`` when ``cts`` holds a duplicate or a flip
    leaves it.
    """
    index, tables = _index(cts), []
    for i in range(n + 1):
        row = array("i")
        for ct in cts:
            w = index.get(ct.flip(i).chords)
            if w is None:
                raise RuntimeError(f"flip {i} at {ct} leaves the enumeration")
            row.append(w)
        tables.append(row)
    return tables


def _fixed(phis, n):
    """For each flip i with 0 < i < n, the bytes column that says where
    bits i-1 and i of ``phis`` agree."""
    bits = [v.bits for v in phis]
    return [
        bytes(map(eq, map(itemgetter(i - 1), bits), map(itemgetter(i), bits))) for i in range(1, n)
    ]


def check_flip_involution(n):
    # the phi vectors give up their fixed-point columns before the flip
    # tables are built, so the last reader of the vectors frees them first
    cts = _shared("triangulations", geometry.enumerate_ctft, n)
    fixed = [repeat(0), *_fixed(_shared("phis", _phis, cts), n), repeat(0)]
    flips, pairs = _shared("flips", _flip_tables, cts, n), []
    for i, row in enumerate(flips):
        # flipped twice it returns, and it stays exactly where bits i-1, i agree
        stays = map(eq, row, count())
        pairs += (map(row.__getitem__, row), count()), (stays, fixed[i])
    if fail := _first_difference(*pairs):
        (i, involution), ct = divmod(fail[1], 2), cts[fail[0]]
        if not involution:
            return False, f"flip {i} is not an involution at {ct}"
        if i in (0, n):
            return False, f"flip {i} fixes {ct} (short chords never stick)"
        return False, f"flip {i} fixed-point rule fails at {ct}"
    return True, "flips are involutions; fixed exactly when adjacent bits agree"


# -- coxeter --------------------------------------------------------


def _walk(steps, word, ids):
    """The ids that ``word`` sends ``ids`` to through the flip graph's
    step tables, rightmost letter first."""
    for letter in reversed(word):
        row = steps[letter]
        ids = [row[u] for u in ids]
    return ids


def check_relations(n):
    # each relation as an affine-map identity, and walked on the voltages
    # for all fibers F at once: it fixes every vertex exactly when each F
    # returns with net turn 0 mod m, and an F that does not moves id F*m
    rels, m = coxeter.relation_words(n), n + 4
    images, failures = _shared("graph", flipgraph.build_graph, n).images, []
    for name, word in rels:
        if not coxeter.word_to_affine(n, word).is_identity():
            failures.append(f"{name} not the identity map")
        fibers, turns = range(1 << n), [0] * (1 << n)
        for letter in reversed(word):
            heads, turn = images[letter]
            turns = list(map(add, turns, map(turn.__getitem__, fibers)))
            fibers = list(map(heads.__getitem__, fibers))
        if moved := _first_difference((fibers, count()), (map(m.__rmod__, turns), repeat(0))):
            vector = reps.rep_to_phi(flipgraph.vertex_rep(moved[0] * m, n), n)
            failures.append(f"{name} moves vector {vector}")
    if failures:
        return False, "; ".join(failures)
    return True, f"all {len(rels)} defining relations hold"


def check_stabilizer(n):
    # the stabilizer generators fix the star (the identity rep, id 0), and
    # the step tables reach every vertex from it: the action is transitive
    g = _shared("graph", flipgraph.build_graph, n)
    orbit = len(_shared("distances", flipgraph.bfs_distances, g, 0))  # raises if disconnected
    words = coxeter.stabilizer_generators(n)
    bad = [coxeter.format_word(w) for w in words if _walk(g.steps, w, [0]) != [0]]
    if bad:
        return False, f"generators not fixing base: {bad}"
    return True, f"all {len(words)} stabilizer generators fix the base; orbit size {orbit}"


def check_volumes(n):
    det_a, det_b, ratio = coxeter.gram_and_volumes(n)
    expect_b = Fraction(4 ** (n - 1), n)
    expect_ratio = (n + 4) * 2**n
    if det_a != 1:
        return False, f"det A = {det_a} != 1"
    if det_b != expect_b:
        return False, f"det B = {det_b} != {expect_b}"
    if ratio != expect_ratio:
        return False, f"volume ratio {ratio} != {expect_ratio}"
    return True, f"det A = 1, det B = {det_b}, ratio = {ratio}"


def _id_order(cts, n):
    """The position in ``cts`` of ``phi_inv`` of each rep's vector, in id
    order.  Raises ``RuntimeError`` unless every rep lands on exactly one
    enumerated triangulation."""
    index, ids = _index(cts), {}  # the id at each position reached
    vectors = [reps.rep_to_phi(r, n) for r in reps.all_reps(n)]
    for u, v in enumerate(vectors):
        p = index.get(geometry.phi_inv(v).chords)
        if p is None:
            raise RuntimeError(f"phi_inv of {v} is not enumerated")
        if ids.setdefault(p, u) != u:
            raise RuntimeError(f"phi_inv sends {vectors[ids[p]]} and {v} to {cts[p]}")
    if len(ids) != len(cts):
        raise RuntimeError(f"{len(cts)} triangulations enumerated for {len(ids)} reps")
    return array("i", ids)


def check_action_matches_geometry(n):
    # one letter on one vertex three ways: the vector action and the step
    # table both read _apply_generator, the table adding build_graph's
    # fibers and id layout, and each is checked against the flip; the
    # enumeration's flip tables, read through phi_inv of each id's vector,
    # hold ids of ``vectors`` as both other tables do
    cts = _shared("triangulations", geometry.enumerate_ctft, n)
    order = _shared("id_order", _id_order, cts, n)
    ids = sorted(range(len(order)), key=order.__getitem__)  # the id at each position
    flips = [
        list(map(ids.__getitem__, map(row.__getitem__, order)))
        for row in _shared("flips", _flip_tables, cts, n)
    ]
    vectors = [reps.rep_to_phi(r, n) for r in reps.all_reps(n)]
    steps, pairs = _shared("graph", flipgraph.build_graph, n).steps, []
    for i, (flip, step) in enumerate(zip(flips, steps)):
        acts = map(coxeter.act_on_phi, repeat((i,)), vectors)
        pairs += (acts, map(vectors.__getitem__, flip)), (step, flip)
    if fail := _first_difference(*pairs):
        (i, table), u = divmod(fail[1], 2), fail[0]
        v, via_flip = vectors[u], vectors[flips[i][u]]
        if not table:
            return False, f"generator {i} on {v}: {coxeter.act_on_phi((i,), v)} != {via_flip}"
        return False, f"step table {i} on {v}: {vectors[steps[i][u]]} != {via_flip}"
    return True, "the vector action is the phi-conjugate of the geometric flip"


def check_generator_lengths(n):
    for i in range(n + 1):
        length = coxeter.coxeter_length(coxeter.word_to_affine(n, (i,)))
        if length != 1:
            return False, f"generator {i} has oracle length {length}"
    ident = coxeter.coxeter_length(coxeter.AffineMap.identity(n))
    if ident != 0:
        return False, f"identity has oracle length {ident}"
    return True, "identity has length 0, every generator length 1"


def _a_n(n):
    """The word of a_n = s_n s_{n-1} ... s_0, the factor that steps e_n."""
    return tuple(range(n, -1, -1))


def _fibers(n):
    """The reps of each fiber (the n+4 ids that share e_0..e_{n-1}) in
    id order, with the word of the fiber's head, its rep with e_n = 0.

    Every rep is its fiber head times a_n^{e_n}, so its word is the
    head's word followed by e_n copies of a_n's; raises ``RuntimeError``
    at a rep whose ``rep_to_word`` says otherwise.
    """
    m, a_n = n + 4, _a_n(n)
    for bits in product((0, 1), repeat=n):
        fiber = [bits + (e,) for e in range(m)]
        head = reps.rep_to_word(fiber[0])
        for e, r in enumerate(fiber):
            if reps.rep_to_word(r) != head + a_n * e:
                raise RuntimeError(f"rep {r}: word is not its fiber head's word times a_n^{e}")
        yield fiber, head


def _rep_maps(n):
    """The map of every rep's word, in id order: each fiber head's word
    is realized once, and each later rep of the fiber is the one before
    it composed with a_n's map."""
    a_n = coxeter.word_to_affine(n, _a_n(n))
    maps = []
    for fiber, head in _fibers(n):
        m = coxeter.word_to_affine(n, head)
        maps.append(m)
        for _ in fiber[1:]:
            m = m.compose(a_n)
            maps.append(m)
    return maps


def _lengths(n):
    """The hyperplane length of every rep's map, in id order."""
    return list(map(coxeter.coxeter_length, _shared("rep_maps", _rep_maps, n)))


def check_rep_lengths(n):
    rs, oracle = reps.all_reps(n), _shared("lengths", _lengths, n)
    formula = list(map(reps.rep_length, rs))
    if fail := _first_difference((formula, oracle)):
        u = fail[0]
        return False, f"rep {rs[u]}: formula {formula[u]} != oracle {oracle[u]}"
    return True, f"closed-form length matches the hyperplane oracle on all {(n + 4) * 2**n} reps"


def check_rep_phi_correspondence(n):
    # each rep's word walks the identity rep (id 0) to the rep's own id:
    # a_n's powers walk id 0 to the n+4 start ids once, and each fiber
    # head's word walks all n+4 of them together
    steps, a_n = _shared("graph", flipgraph.build_graph, n).steps, _a_n(n)
    starts = [0]
    for _ in range(n + 3):
        starts += _walk(steps, a_n, starts[-1:])
    walked = chain.from_iterable(
        zip(fiber, _walk(steps, head, starts)) for fiber, head in _fibers(n)
    )
    for u, (r, by_word) in enumerate(walked):
        closed = reps.rep_to_phi(r, n)
        if by_word != u:
            by_word = reps.rep_to_phi(flipgraph.vertex_rep(by_word, n), n)
            return False, f"rep {r}: word gives {by_word}, closed form {closed}"
        if reps.phi_to_rep(closed) != r:
            return False, f"phi_to_rep not inverse at {r}"
    # a left inverse makes rep -> phi injective, and both sides have
    # (n+4)*2^n elements, so it is a bijection
    return True, "closed-form rep<->phi matches full word application, bijectively"


def finding_s0_direction(n):
    v = coxeter.base_vector(n)
    geometric = geometry.phi_inv(v).flip(0).phi().a
    stated = (v.a + 1) % (n + 4)  # the published direction for bit 0
    if geometric == stated:
        return True, "geometric s_0 moves the center by +1 on bit 0, as published"
    return True, (
        "orientation convention: with counterclockwise labels the geometric "
        "s_0 moves the center by -1 on bit 0 (the published formula says +1)"
    )


def finding_self_duality(n):
    top = coxeter.word_to_affine(n, reps.rep_to_word(reps.longest_rep(n)))
    maps = dict(zip(reps.all_reps(n), _shared("rep_maps", _rep_maps, n)))
    for r, m in maps.items():
        if m.compose(top) != maps.get(reps.dual(r, n)):
            return False, f"r * w_o != dual(r) as maps at r = {r}"
    return True, "r * w_o = dual(r) holds as a group identity for every rep"


# -- lattice --------------------------------------------------------


def _ideals(n):
    """Birkhoff's representation of the interval, from the step tables
    alone: bit k of ``ideals[v]`` says that the k-th join-irreducible (a
    vertex with one lower cover) lies below id v.  The Hasse edges are
    the table edges less loops and wraps (s_n moving e_n between 0 and
    n+3), graded by distance from id 0.  Raises ``RuntimeError`` when a
    Hasse edge stays within one level, when the join-irreducibles are
    not as many as the top length, or when two ids (as unreached ones)
    share an ideal."""
    m, rows = n + 4, enumerate(zip(*_shared("graph", flipgraph.build_graph, n).steps))
    hasse = [
        {v for i, v in enumerate(row) if v != u and (i < n or abs(u % m - v % m) != m - 1)}
        for u, row in rows
    ]
    level, order = {0: 0}, [0]
    for u in order:  # breadth-first, so in level order
        for v in hasse[u]:
            if v not in level:
                level[v] = level[u] + 1
                order.append(v)
            elif level[v] == level[u]:
                raise RuntimeError(f"Hasse edge {u}-{v} joins levels {level[u]} and {level[v]}")
    ideals, k = [0] * len(hasse), 0
    for v in order[1:]:  # an ideal is the union of its lower covers' ideals
        lower = [u for u in hasse[v] if level[u] < level[v]]
        for u in lower:
            ideals[v] |= ideals[u]
        if len(lower) == 1:
            ideals[v] |= 1 << k
            k += 1
    top = 3 * (n + 1) * (n + 2) // 2
    if k != top:
        raise RuntimeError(f"{k} join-irreducibles, not the top length {top}")
    if len(set(ideals)) != len(ideals):
        raise RuntimeError("two vertices share an ideal of join-irreducibles")
    return ideals


def _bounds(n):
    """The meets and the joins of all pairs of reps, in ``product`` order;
    a result equal to a rep is kept as that rep's tuple, not a copy."""
    own = {r: r for r in reps.all_reps(n)}
    return tuple(
        [own.get(b, b) for b in (op(r, s, n) for r, s in product(own, own))]
        for op in (reps.meet, reps.join)
    )


def check_order_closure(n):
    rs = reps.all_reps(n)
    for (r, a), (s, b) in product(zip(rs, _shared("ideals", _ideals, n)), repeat=2):
        if reps.leq(r, s) != (a & ~b == 0):
            return False, f"dominance vs ideal inclusion disagree at {r}, {s}"
    return True, "dominance order equals the transitive closure of covers"


def check_meet_join(n):
    # under Birkhoff's representation meet and join are the intersection
    # and the union of ideals, so this also shows the interval distributive
    ideal = dict(zip(reps.all_reps(n), _shared("ideals", _ideals, n)))
    pairs = product(ideal.items(), repeat=2)
    for ((r, a), (s, b)), meet, join in zip(pairs, *_shared("bounds", _bounds, n)):
        if ideal.get(meet) != a & b:
            return False, f"meet formula is not the glb at {r}, {s}"
        if ideal.get(join) != a | b:
            return False, f"join formula is not the lub at {r}, {s}"
    return True, "meet/join formulas equal brute-force glb/lub on all pairs"


def check_modularity(n):
    rs = reps.all_reps(n)
    pairs = product(zip(rs, map(reps.rep_length, rs)), repeat=2)
    for ((r, a), (s, b)), meet, join in zip(pairs, *_shared("bounds", _bounds, n)):
        if reps.rep_length(join) + reps.rep_length(meet) != a + b:
            return False, f"modularity fails at {r}, {s}"
    return True, "rank modularity l(join) + l(meet) = l(r) + l(s) on all pairs"


def check_duality(n):
    rs = reps.all_reps(n)
    top_len = reps.rep_length(reps.longest_rep(n))
    dual = [flipgraph.vertex_id(reps.dual(r, n), n) for r in rs]
    for u, r in enumerate(rs):
        if dual[dual[u]] != u:
            return False, f"dual not an involution at {r}"
        if reps.rep_length(rs[dual[u]]) != top_len - reps.rep_length(r):
            return False, f"dual length complement fails at {r}"
    ideals = _shared("ideals", _ideals, n)
    for (i, r), (j, s) in product(enumerate(rs), repeat=2):
        # I(r) within I(s) against I(dual(s)) within I(dual(r))
        if (ideals[i] & ~ideals[j] == 0) != (ideals[dual[j]] & ~ideals[dual[i]] == 0):
            return False, f"dual does not reverse order at {r}, {s}"
    return True, "dual is an order-reversing, length-complementing involution"


def check_rank_polynomial(n):
    poly = reps.rank_polynomial(n)
    counted = defaultdict(int)
    for bits in product((0, 1), repeat=n):  # all_reps(n), one fiber at a time
        for e in range(n + 4):
            counted[reps.rep_length(bits + (e,))] += 1
    enumerated = [counted[k] for k in range(max(counted) + 1)]
    if poly != enumerated:
        return False, "product formula differs from enumerated length counts"
    degree = len(poly) - 1
    expected_degree = 3 * (n + 2) * (n + 1) // 2
    if degree != expected_degree:
        return False, f"degree {degree} != {expected_degree}"
    if poly != poly[::-1]:
        return False, "rank polynomial is not symmetric"
    return True, f"rank polynomial verified, degree {degree}"


# -- graph ----------------------------------------------------------


def check_graph_description(n):
    rs = reps.all_reps(n)
    edges = flipgraph.colored_edges(_shared("graph", flipgraph.build_graph, n))
    simple = {frozenset((rs[u], rs[v])) for u, v, _ in edges}
    described = {frozenset((r, s)) for r in rs for s in reps.covers(r, n)}
    described |= {frozenset(e) for e in flipgraph.wrap_edges(n)}
    if simple != described:
        extra = simple - described
        missing = described - simple
        return False, f"{len(extra)} extra / {len(missing)} missing edges"
    return True, (
        f"{len(simple)} edges = Hasse covers + {2 ** (n - 1)} wrap edges"
    )


def check_distance_formula(n):
    g = _shared("graph", flipgraph.build_graph, n)
    rs = reps.all_reps(n)
    if n <= 4:
        sources, label = range(len(rs)), "all"
    else:
        sources = random.Random(0).sample(range(len(rs)), 20)
        label = f"{20 * len(rs)} sampled"
    for u in sources:
        dist = flipgraph.bfs_distances(g, u)
        formula = list(map(flipgraph._distance, repeat(rs[u]), rs, repeat(n)))  # valid reps
        if formula != dist:
            return False, f"formula != BFS at {rs[u]}, {rs[_first_difference((formula, dist))[0]]}"
    return True, f"closed-form distance equals BFS on {label} pairs ({len(sources) * len(rs)})"


def check_diameter(n):
    closed = flipgraph.diameter(n)
    by_bfs = flipgraph.bfs_diameter(_shared("graph", flipgraph.build_graph, n))
    if by_bfs != closed:
        return False, f"BFS diameter {by_bfs} != closed form {closed}"
    return True, f"diameter {closed} confirmed by BFS from all {2**n} rotation-orbit sources"


def check_diameter_scan(n):
    closed = flipgraph.diameter(n)
    scanned = flipgraph.formula_scan_diameter(n)
    if scanned != closed:
        return False, f"formula scan {scanned} != closed form {closed}"
    return True, f"diameter {closed} confirmed by scanning the distance formula"


def check_antipodes(n):
    # each antipode lies at the diameter and is its move of the triangulation
    target = flipgraph.diameter(n)
    moves = {"color_reversal": lambda ct: ct.reverse_colors()}
    if n % 2 == 0:
        moves["rotation"] = lambda ct: ct.rotate((n + 4) // 2)
    cts = _shared("triangulations", geometry.enumerate_ctft, n)
    for r, p in zip(reps.all_reps(n), _shared("id_order", _id_order, cts, n)):
        ct = cts[p]  # phi_inv of r's vector
        for kind, move in moves.items():
            a = flipgraph.antipode(r, n, kind)
            if flipgraph.distance_formula(r, a, n) != target:
                return False, f"{kind} antipode of {r} is not at distance {target}"
            if a != reps.phi_to_rep(move(ct).phi()):
                return False, f"{kind} antipode of {r} disagrees with geometry"
    return True, f"antipodes ({', '.join(moves)}) all at distance {target}"


def check_bipartition(n):
    # every edge joins opposite signs, and the two classes are equal
    signs = [flipgraph.sign(r) for r in reps.all_reps(n)]
    edges = flipgraph.colored_edges(_shared("graph", flipgraph.build_graph, n))
    bad = sum(signs[u] == signs[v] for u, v, _ in edges)
    plus = signs.count(1)
    classes = (plus, len(signs) - plus)
    if bad or classes[0] != classes[1]:
        return False, f"{bad} monochromatic edges, classes {classes}"
    return True, f"bipartite with equal classes {classes}"


def check_shortest_representatives(n):
    # a rep that keeps its own word has its hyperplane length in rep-lengths'
    # column; a shortened word's map is realized from its letters
    g = _shared("graph", flipgraph.build_graph, n)
    base = _shared("distances", flipgraph.bfs_distances, g, 0)  # from the identity rep
    lengths = _shared("lengths", _lengths, n)
    for r, word in flipgraph.shortest_representatives(n):
        u = flipgraph.vertex_id(r, n)
        if word == reps.rep_to_word(r):
            oracle = lengths[u]
        else:
            oracle = coxeter.coxeter_length(coxeter.word_to_affine(n, word))
        distance = base[u]
        if not len(word) == oracle == distance:
            return False, (
                f"shortest word for {r} has {len(word)} letters, length "
                f"{oracle}, graph distance {distance}"
            )
        if _walk(g.steps, word, [0]) != [u]:
            return False, f"shortest word for {r} lies in another coset"
    return True, "shortest-representative lengths equal Schreier distances"


def check_lower_bound(n):
    wrap_len = n + (n + 1) * (n + 3)  # length of the wrap connector
    count = (n + 4) * 2**n
    rng = random.Random(2)
    for u in random.Random(1).sample(range(count), 15):
        r = flipgraph.vertex_rep(u, n)
        length = reps.rep_length(r)
        for _ in range(50):
            s = flipgraph.vertex_rep(rng.randrange(count), n)
            gap = abs(reps.rep_length(s) - length)
            bound = min(gap, wrap_len + 1 - gap)
            if flipgraph.distance_formula(r, s, n) < bound:
                return False, f"length lower bound violated at {r}, {s}"
    return True, "length-gap lower bound holds on all sampled pairs"


def check_rotation_automorphism(n):
    # the step tables are derived from one image fiber and turn per color
    # and fiber, so they commute with the rotation by construction: equal
    # to the generator action at every vertex, they make it commute too
    steps, rs = _shared("graph", flipgraph.build_graph, n).steps, reps.all_reps(n)
    act, ids = reps._apply_generator, flipgraph.vertex_id
    gens = (map(ids, map(act, repeat(i), rs, repeat(n)), repeat(n)) for i in range(n + 1))
    if fail := _first_difference(*zip(steps, gens)):
        (u, i), v = fail, ids(act(fail[1], rs[fail[0]], n), n)
        return False, f"s_{i} at vertex {u}: table {steps[i][u]} != generator {v}"
    return True, "right multiplication by a_n is a graph automorphism"


# -- registry -------------------------------------------------------

SUITES: list[Check] = [
    # the triangulations share the chords of one table, and validation
    # reads each disjoint pair off its crossing table; alone in a process
    # (VmHWM, 2 vCPU, Python 3.11), at n = 11, 12 and 13: counting 0.9 s /
    # 36 MiB, 1.3-2.3 s / 56 MiB and 3.2-3.9 s / 102 MiB; short-chords
    # 0.2, 0.45 and 1.2 s; phi-roundtrip 0.35, 1.1-1.3 and 1.8-2.2 s; the
    # whole suite peaks at 58 and 106 MiB at n = 12 and 13. n = 14 is held
    # back by enumerate_ctft alone (170 MiB)
    Check("counting", "geometry", 13, check_counting, reads=("triangulations",)),
    Check("short-chords", "geometry", 13, check_short_chords, reads=("triangulations",)),
    Check("phi-roundtrip", "geometry", 13, check_phi_roundtrip, reads=("triangulations", "phis")),
    # one flip per validated triangulation and colour, read off the dual
    # path and indexed by chord tuple; alone: 1.4 s / 36 MiB at n = 11,
    # 2.9-3.5 s / 57 MiB at n = 12, 6.9-8.0 s / 105 MiB at n = 13; held
    # at 13 as counting
    Check(
        "flip-involution", "geometry", 13, check_flip_involution,
        reads=("triangulations", "phis", "flips"),
    ),
    # each word walked once per fiber on the voltages: alone, 0.28 s /
    # 18 MiB at n = 12, 0.7-0.8 s / 19 MiB at n = 13, 1.5-1.7 s / 21 MiB
    # at n = 14, the largest n build_graph accepts
    Check("relations", "coxeter", 14, check_relations, reads=("graph",)),
    # alone: 0.03-0.05 s / 20 MiB at n = 11
    Check("stabilizer", "coxeter", 11, check_stabilizer, reads=("graph", "distances")),
    Check("volumes", "coxeter", 10, check_volumes),
    # alone, where it enumerates and flips itself: 0.03 s at n = 6,
    # 0.19-0.29 s / 20 MiB at n = 8; held at 5 because a cap of 6 adds an
    # ok row to verify -n 6, which perfbench/expected_verify.json pins
    Check(
        "action-vs-geometry", "coxeter", 5, check_action_matches_geometry,
        reads=("triangulations", "id_order", "flips", "graph"),
    ),
    Check("generator-lengths", "coxeter", 10, check_generator_lengths),
    # the hyperplane count of every rep's map; _rep_maps realizes each
    # fiber head's word once and steps by a_n's map: alone, 0.06 s at
    # n = 7 and 0.33 s / 22 MiB at n = 9; held at 5 as action-vs-geometry
    Check("rep-lengths", "coxeter", 5, check_rep_lengths, reads=("rep_maps", "lengths")),
    # walks a_n's powers from the base once and each fiber head's word
    # once over all n+4 start ids, one fiber at a time; alone (VmHWM):
    # 0.42 s / 19 MiB at n = 11, 0.99 s / 22 MiB at n = 12, 2.5 s /
    # 28 MiB at n = 13, 6.7 s / 41 MiB at n = 14 (MAX_GRAPH_N)
    Check(
        "rep-phi-correspondence", "coxeter", 14, check_rep_phi_correspondence, reads=("graph",)
    ),
    Check("s0-direction", "coxeter", 6, finding_s0_direction, finding=True),
    # reads rep-lengths' maps: alone, 0.06 s at n = 7 and 0.26 s / 22 MiB
    # at n = 9; held at 4 as action-vs-geometry
    Check("self-duality", "coxeter", 4, finding_self_duality, finding=True, reads=("rep_maps",)),
    Check("order-closure", "lattice", 4, check_order_closure, reads=("graph", "ideals")),
    Check("meet-join", "lattice", 4, check_meet_join, reads=("graph", "ideals", "bounds")),
    Check("modularity", "lattice", 4, check_modularity, reads=("bounds",)),
    Check("duality", "lattice", 4, check_duality, reads=("graph", "ideals")),
    # counts lengths one fiber at a time: 17 MiB peak at n = 11-16, but
    # exponential time: 0.04 s at n = 11, 0.53 s at n = 14, 3.1 s at 16
    Check("rank-polynomial", "lattice", 6, check_rank_polynomial),
    Check("graph-description", "graph", 5, check_graph_description, reads=("graph",)),
    # 20 BFS sources over the step tables, each with one column of formula
    # calls: alone, 1.2-1.4 s at n = 11 and 3.1-3.3 s / 33 MiB at n = 12;
    # held below 12, where the whole graph suite is skipped
    Check("distance-formula", "graph", 11, check_distance_formula, min_n=3, reads=("graph",)),
    # one bit-parallel BFS sweep from all rotation orbits, one integer
    # per fiber; alone in a process (VmHWM): 0.13 s / 18 MiB at n = 9,
    # 0.53 s / 22 MiB at n = 10, 1.8-2.2 s / 37 MiB at n = 11, 7.8-9.7 s
    # / 96 MiB at n = 12; test_graph_suite_is_capped_at_n12 holds it at 11
    Check("diameter-bfs", "graph", 11, check_diameter, min_n=3, reads=("graph",)),
    # one dynamic program over the formula's walk and a formula call
    # per maximizing walk: alone, 0.8 ms at n = 6, 2.3 ms at n = 9,
    # 4.0 ms at n = 11, 29 s / 506 MiB at n = 128; held at 11 by that
    # test
    Check("diameter-scan", "graph", 11, check_diameter_scan, min_n=3),
    # alone, where it enumerates itself: 5-6 ms at n = 5, 0.10 s / 19 MiB
    # at n = 8
    Check(
        "antipodes", "graph", 5, check_antipodes, min_n=3, reads=("triangulations", "id_order")
    ),
    # n = 11: 0.20 s / 21 MiB
    Check("bipartition", "graph", 11, check_bipartition, min_n=3, reads=("graph",)),
    # one map and one reduced word per long rep, each fiber's first long
    # rep realized from letters and the later ones by one composition
    # with a_n's map, and one more map per long rep for its length; alone,
    # where it builds rep-lengths' column itself: 0.10-0.11 s at n = 7 and
    # 0.71-0.77 s / 21 MiB at n = 9
    Check(
        "shortest-reps", "graph", 5, check_shortest_representatives, min_n=3,
        reads=("graph", "distances", "rep_maps", "lengths"),
    ),
    Check("lower-bound", "graph", 11, check_lower_bound, min_n=3),  # n = 11: 5-7 ms
    Check("rotation-automorphism", "graph", 5, check_rotation_automorphism, reads=("graph",)),
]


def suite_names() -> list[str]:
    return sorted({c.suite for c in SUITES})


def run_suite(n: int, suite: str = "all"):
    """Run the selected checks at a single n.

    Yields ``(name, status, detail)`` rows with status 'ok', 'FAIL',
    'finding' or 'skip'.  A check is skipped above its n-cap.  An
    oracle's ``RuntimeError``, and a ``ValueError`` that the code under
    test raises inside the cap (a closed form that leaves the interval),
    is a FAIL row (finding-FAIL for a finding) with the exception text
    as detail; the next check runs.
    ``Check.run(n)`` runs one check above its cap, except that a check
    which builds the flip graph raises ``ValueError`` above
    ``flipgraph.MAX_GRAPH_N``.

    The checks of one call share its inputs at n (the triangulations,
    their phi vectors and flip tables, the flip graph and its distances
    from the identity, the maps and lengths of the reps' words, the ideals
    of join-irreducibles, meets and joins), each built on first use and
    dropped once the last check that runs and lists it in ``reads`` has
    read it; ``Check.run`` shares none.  An unknown ``suite`` raises
    ``ValueError``.
    """
    if suite != "all" and suite not in suite_names():
        raise ValueError(f"unknown suite {suite!r}")
    selected = [c for c in SUITES if suite in ("all", c.suite)]
    last = {name: c.name for c in selected if c.min_n <= n <= c.max_n for name in c.reads}
    store = {}
    for check in selected:
        if n > check.max_n:
            yield check.name, "skip", f"n={n} above cap {check.max_n}"
            continue
        if n < check.min_n:
            yield check.name, "skip", f"requires n >= {check.min_n}"
            continue
        done = {name for name, reader in last.items() if reader == check.name}
        token = _run.set((store, check, done))
        try:
            ok, detail = check.run(n)
        except (RuntimeError, ValueError) as exc:
            ok, detail = False, str(exc)
        finally:
            _run.reset(token)
            for name in done:  # also when the check stopped before reading it
                store.pop(name, None)
        if check.finding:
            yield check.name, "finding" if ok else "finding-FAIL", detail
        else:
            yield check.name, "ok" if ok else "FAIL", detail
