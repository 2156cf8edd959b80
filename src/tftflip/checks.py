"""Invariant suites shared by the CLI ``verify`` subcommand and the
acceptance tests.

Every check returns ``(ok, detail)`` and is exact: no tolerances
anywhere.  Checks marked as findings report an observation (a
convention comparison or an unproved identity) without being part of
the pass/fail contract; they still return their outcome honestly.
"""

from __future__ import annotations

import random
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from . import coxeter, flipgraph, geometry
from . import representatives as reps

__all__ = ["Check", "SUITES", "run_suite", "suite_names"]


@dataclass(frozen=True)
class Check:
    name: str
    suite: str
    max_n: int  # default n-cap keeping runtime sane
    run: Callable[[int], tuple[bool, str]]
    finding: bool = False
    min_n: int = 2  # smallest n the checked claim is stated for


# -- geometry -------------------------------------------------------


def check_counting(n):
    cts = geometry.enumerate_ctft(n)
    expected = (n + 4) * 2**n
    if len(cts) != expected:
        return False, f"enumerated {len(cts)}, expected {expected}"
    invalid = [ct for ct in cts if not ct.is_valid()]
    if invalid:
        return False, f"{len(invalid)} enumerated triangulations invalid"
    if len(set(cts)) != expected:
        return False, "duplicate triangulations enumerated"
    by_chords = defaultdict(int)
    for ct in cts:
        by_chords[frozenset(ct.chords)] += 1
    wrong = {k: v for k, v in by_chords.items() if v != 2}
    if wrong:
        return False, f"{len(wrong)} uncolored triangulations without 2 colorings"
    return True, f"#CTFT={expected}, #TFT={expected // 2}, 2 colorings each"


def check_short_chords(n):
    for ct in geometry.enumerate_ctft(n):
        shorts = ct.short_chords()
        if len(shorts) != 2:
            return False, f"{ct} has {len(shorts)} short chords"
        if set(shorts) != {ct.chords[0], ct.chords[n]}:
            return False, f"{ct}: short chords not colored 0 and {n}"
    return True, "every triangulation has exactly 2 short chords, colored 0 and n"


def check_phi_roundtrip(n):
    for ct in geometry.enumerate_ctft(n):
        if geometry.phi_inv(ct.phi()) != ct:
            return False, f"phi roundtrip fails on {ct}"
    return True, "phi_inv . phi is the identity on all triangulations"


def _generator_tables(items, n, label, step):
    """Each generator's action, applied once per item, as index tables:
    ``tables[i][u]`` is the position in ``items`` of ``step(i, items[u])``.

    Returns ``(tables, None)``, or ``(None, detail)`` when ``items``
    holds a duplicate or a step leaves it.
    """
    index = {}
    for u, x in enumerate(items):
        if index.setdefault(x, u) != u:
            return None, f"{x} enumerated twice"
    tables = []
    for i in range(n + 1):
        row = array("i")
        for x in items:
            w = index.get(step(i, x))
            if w is None:
                return None, f"{label} {i} at {x} leaves the enumeration"
            row.append(w)
        tables.append(row)
    return tables, None


def _flip_tables(cts, n):
    """The geometric flip, through the validating ``ColoredTriangulation.flip``."""
    return _generator_tables(cts, n, "flip", lambda i, ct: ct.flip(i))


def _action_tables(vectors, n):
    """The vector action, one letter at a time through ``act_on_phi``."""
    return _generator_tables(
        vectors, n, "generator", lambda i, v: coxeter.act_on_phi((i,), v)
    )


def check_flip_involution(n):
    cts = geometry.enumerate_ctft(n)
    flips, failure = _flip_tables(cts, n)
    if failure:
        return False, failure
    for u, ct in enumerate(cts):
        bits = ct.phi().bits
        for i in range(n + 1):
            w = flips[i][u]
            if flips[i][w] != u:
                return False, f"flip {i} is not an involution at {ct}"
            if i in (0, n) and w == u:
                return False, f"flip {i} fixes {ct} (short chords never stick)"
            fixed = 0 < i < n and bits[i - 1] == bits[i]
            if (w == u) != fixed:
                return False, f"flip {i} fixed-point rule fails at {ct}"
    return True, "flips are involutions; fixed exactly when adjacent bits agree"


# -- coxeter --------------------------------------------------------


def check_relations(n):
    # each relation as an affine-map identity and as the identity
    # permutation of the phi vectors, composed from one-letter tables
    rels = coxeter.relation_words(n)
    vectors = geometry.all_phi_vectors(n)
    acts, failure = _action_tables(vectors, n)
    if failure:
        return False, failure
    failures = []
    for name, word in rels:
        if not coxeter.word_to_affine(n, word).is_identity():
            failures.append(f"{name} not the identity map")
        image = range(len(vectors))
        for letter in reversed(word):
            row = acts[letter]
            image = [row[w] for w in image]
        moved = next((u for u, w in enumerate(image) if w != u), None)
        if moved is not None:
            failures.append(f"{name} moves vector {vectors[moved]}")
    if failures:
        return False, "; ".join(failures)
    return True, f"all {len(rels)} defining relations hold"


def check_stabilizer(n):
    # the stabilizer generators fix the base vector and the action is
    # transitive
    base = coxeter.base_vector(n)
    words = coxeter.stabilizer_generators(n)
    bad = [coxeter.format_word(w) for w in words if coxeter.act_on_phi(w, base) != base]
    orbit = len(coxeter.orbit_of_base(n))
    expected = (n + 4) * 2**n
    if bad or orbit != expected:
        return False, f"orbit {orbit} (expected {expected}); generators not fixing base: {bad}"
    return True, f"all {len(words)} stabilizer generators fix the base; orbit size {orbit}"


def check_volumes(n):
    det_a, det_b, ratio = coxeter.gram_and_volumes(n)
    from fractions import Fraction

    expect_b = Fraction(4 ** (n - 1), n)
    expect_ratio = (n + 4) * 2**n
    if det_a != 1:
        return False, f"det A = {det_a} != 1"
    if det_b != expect_b:
        return False, f"det B = {det_b} != {expect_b}"
    if ratio != expect_ratio:
        return False, f"volume ratio {ratio} != {expect_ratio}"
    return True, f"det A = 1, det B = {det_b}, ratio = {ratio}"


def check_action_matches_geometry(n):
    vectors = geometry.all_phi_vectors(n)
    cts = [geometry.phi_inv(v) for v in vectors]
    acts, failure = _action_tables(vectors, n)
    if not failure:
        flips, failure = _flip_tables(cts, n)
    if failure:
        return False, failure
    phis = [ct.phi() for ct in cts]
    for u, v in enumerate(vectors):
        for i in range(n + 1):
            via_vector = vectors[acts[i][u]]
            via_flip = phis[flips[i][u]]
            if via_vector != via_flip:
                return False, f"generator {i} on {v}: {via_vector} != {via_flip}"
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


def check_rep_lengths(n):
    for r in reps.all_reps(n):
        word = reps.rep_to_word(r)
        oracle = coxeter.coxeter_length(coxeter.word_to_affine(n, word))
        if oracle != reps.rep_length(r):
            return False, f"rep {r}: formula {reps.rep_length(r)} != oracle {oracle}"
    return True, f"closed-form length matches the hyperplane oracle on all {(n + 4) * 2**n} reps"


def check_rep_phi_correspondence(n):
    base = coxeter.base_vector(n)
    seen = set()
    for r in reps.all_reps(n):
        by_word = coxeter.act_on_phi(reps.rep_to_word(r), base)
        closed = reps.rep_to_phi(r, n)
        if by_word != closed:
            return False, f"rep {r}: word gives {by_word}, closed form {closed}"
        if reps.phi_to_rep(closed) != r:
            return False, f"phi_to_rep not inverse at {r}"
        seen.add(closed)
    if len(seen) != (n + 4) * 2**n:
        return False, "rep -> phi is not injective"
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
    for r in reps.all_reps(n):
        lhs = coxeter.word_to_affine(n, reps.rep_to_word(r)).compose(top)
        rhs = coxeter.word_to_affine(n, reps.rep_to_word(reps.dual(r, n)))
        if lhs != rhs:
            return False, f"r * w_o != dual(r) as maps at r = {r}"
    return True, "r * w_o = dual(r) holds as a group identity for every rep"


# -- lattice --------------------------------------------------------


def _order_bitsets(rs):
    """Brute-force ``leq`` over all pairs, as int bitsets over indices
    of ``rs``: bit j of down[i] is leq(rs[j], rs[i]), bit j of up[i]
    is leq(rs[i], rs[j])."""
    down = [0] * len(rs)
    up = [0] * len(rs)
    for i, r in enumerate(rs):
        for j, s in enumerate(rs):
            if reps.leq(r, s):
                up[i] |= 1 << j
                down[j] |= 1 << i
    return down, up


def _closure_leq(n):
    """Reflexive-transitive closure of the cover relation, as int
    bitsets: bit j of reach[i] says rs[j] is reachable from rs[i]."""
    rs = reps.all_reps(n)
    index = {r: i for i, r in enumerate(rs)}
    reach = [0] * len(rs)
    # covers add one to the length, so longest first finds every
    # reach[j] above i already computed
    for i in sorted(range(len(rs)), key=lambda i: -reps.rep_length(rs[i])):
        reach[i] = 1 << i
        for s in reps.covers(rs[i], n):
            reach[i] |= reach[index[s]]
    return rs, reach


def check_order_closure(n):
    rs, reach = _closure_leq(n)
    _, up = _order_bitsets(rs)
    for i, r in enumerate(rs):
        differ = up[i] ^ reach[i]
        if differ:
            j = (differ & -differ).bit_length() - 1
            return False, f"dominance vs cover closure disagree at {r}, {rs[j]}"
    return True, "dominance order equals the transitive closure of covers"


def check_meet_join(n):
    rs = reps.all_reps(n)
    index = {r: i for i, r in enumerate(rs)}
    down, up = _order_bitsets(rs)
    for a, r in enumerate(rs):
        for b, s in enumerate(rs):
            # lowers: every t with t <= r and t <= s; the meet must be
            # one of them and lie above all of them (uppers mirror it)
            lowers = down[a] & down[b]
            m = index.get(reps.meet(r, s, n))
            if m is None or not (lowers >> m & 1 and lowers & ~down[m] == 0):
                return False, f"meet formula is not the glb at {r}, {s}"
            uppers = up[a] & up[b]
            j = index.get(reps.join(r, s, n))
            if j is None or not (uppers >> j & 1 and uppers & ~up[j] == 0):
                return False, f"join formula is not the lub at {r}, {s}"
    return True, "meet/join formulas equal brute-force glb/lub on all pairs"


def check_modularity(n):
    rs = reps.all_reps(n)
    for r in rs:
        for s in rs:
            lhs = reps.rep_length(reps.join(r, s, n)) + reps.rep_length(
                reps.meet(r, s, n)
            )
            if lhs != reps.rep_length(r) + reps.rep_length(s):
                return False, f"modularity fails at {r}, {s}"
    return True, "rank modularity l(join) + l(meet) = l(r) + l(s) on all pairs"


def check_duality(n):
    rs = reps.all_reps(n)
    top_len = reps.rep_length(reps.longest_rep(n))
    for r in rs:
        d = reps.dual(r, n)
        if reps.dual(d, n) != r:
            return False, f"dual not an involution at {r}"
        if reps.rep_length(d) != top_len - reps.rep_length(r):
            return False, f"dual length complement fails at {r}"
    index = {r: i for i, r in enumerate(rs)}
    dual = [index[reps.dual(r, n)] for r in rs]
    _, up = _order_bitsets(rs)
    for i, r in enumerate(rs):
        for j, s in enumerate(rs):
            # leq(r, s) against leq(dual(s), dual(r))
            if up[i] >> j & 1 != up[dual[j]] >> dual[i] & 1:
                return False, f"dual does not reverse order at {r}, {s}"
    return True, "dual is an order-reversing, length-complementing involution"


def check_rank_polynomial(n):
    poly = reps.rank_polynomial(n)
    counted = defaultdict(int)
    for r in reps.all_reps(n):
        counted[reps.rep_length(r)] += 1
    enumerated = [counted[k] for k in range(max(counted) + 1)]
    if poly != enumerated:
        return False, "product formula differs from enumerated length counts"
    degree = len(poly) - 1
    expected_degree = 3 * (n + 2) * (n + 1) // 2
    if degree != expected_degree:
        return False, f"degree {degree} != {expected_degree}"
    if sum(poly) != (n + 4) * 2**n:
        return False, "coefficients do not sum to the vertex count"
    if poly != poly[::-1]:
        return False, "rank polynomial is not symmetric"
    return True, f"rank polynomial verified, degree {degree}"


# -- graph ----------------------------------------------------------


def check_graph_description(n):
    rs = reps.all_reps(n)
    edges = flipgraph.colored_edges(flipgraph.build_graph(n))
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


def _sampled_sources(n, count, seed=0):
    rs = reps.all_reps(n)
    rng = random.Random(seed)
    return rs, rng.sample(range(len(rs)), min(count, len(rs)))


def check_distance_formula(n):
    g = flipgraph.build_graph(n)
    rs, sources = _sampled_sources(n, 20)
    if n <= 4:
        sources = range(len(rs))
        label = "all"
    else:
        label = f"{len(sources) * len(rs)} sampled"
    pairs = 0
    for u in sources:
        dist = flipgraph.bfs_distances(g, u)
        r = rs[u]
        for v, s in enumerate(rs):
            if flipgraph.distance_formula(r, s, n) != dist[v]:
                return False, f"formula != BFS at {r}, {s}"
            pairs += 1
    return True, f"closed-form distance equals BFS on {label} pairs ({pairs})"


def check_diameter(n):
    closed = flipgraph.diameter(n)
    try:
        by_bfs = flipgraph.bfs_diameter(n)
    except RuntimeError as exc:
        return False, str(exc)
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
    target = flipgraph.diameter(n)
    kinds = ["color_reversal"] + (["rotation"] if n % 2 == 0 else [])
    for r in reps.all_reps(n):
        for kind in kinds:
            a = flipgraph.antipode(r, n, kind)
            if flipgraph.distance_formula(r, a, n) != target:
                return False, f"{kind} antipode of {r} is not at distance {target}"
    # the color-reversal antipode must agree with geometric recoloring
    for r in reps.all_reps(n):
        geometric = reps.phi_to_rep(
            geometry.phi_inv(reps.rep_to_phi(r, n)).reverse_colors().phi()
        )
        if geometric != flipgraph.antipode(r, n, "color_reversal"):
            return False, f"color reversal disagrees with geometry at {r}"
    return True, f"antipodes ({', '.join(kinds)}) all at distance {target}"


def check_bipartition(n):
    # every edge joins opposite signs, and the two classes are equal
    signs = [flipgraph.sign(r) for r in reps.all_reps(n)]
    edges = flipgraph.colored_edges(flipgraph.build_graph(n))
    bad = sum(signs[u] == signs[v] for u, v, _ in edges)
    plus = signs.count(1)
    classes = (plus, len(signs) - plus)
    if bad or classes[0] != classes[1]:
        return False, f"{bad} monochromatic edges, classes {classes}"
    return True, f"bipartite with equal classes {classes}"


def check_shortest_representatives(n):
    ident = flipgraph.vertex_id(reps.identity_rep(n), n)
    base = flipgraph.bfs_distances(flipgraph.build_graph(n), ident)
    star = coxeter.base_vector(n)
    for r, word in flipgraph.shortest_representatives(n):
        oracle = coxeter.coxeter_length(coxeter.word_to_affine(n, word))
        distance = base[flipgraph.vertex_id(r, n)]
        if not len(word) == oracle == distance:
            return False, (
                f"shortest word for {r} has {len(word)} letters, length "
                f"{oracle}, graph distance {distance}"
            )
        if coxeter.act_on_phi(word, star) != reps.rep_to_phi(r, n):
            return False, f"shortest word for {r} lies in another coset"
    return True, "shortest-representative lengths equal Schreier distances"


def check_lower_bound(n):
    wrap_len = n + (n + 1) * (n + 3)  # length of the wrap connector
    rs, sources = _sampled_sources(n, 15, seed=1)
    rng = random.Random(2)
    for u in sources:
        for _ in range(50):
            s = rs[rng.randrange(len(rs))]
            r = rs[u]
            gap = abs(reps.rep_length(s) - reps.rep_length(r))
            bound = min(gap, wrap_len + 1 - gap)
            if flipgraph.distance_formula(r, s, n) < bound:
                return False, f"length lower bound violated at {r}, {s}"
    return True, "length-gap lower bound holds on all sampled pairs"


def check_rotation_automorphism(n):
    defect = flipgraph.rotation_defect(flipgraph.build_graph(n))
    if defect is not None:
        i, v = defect
        return False, f"rotating the last exponent does not commute with s_{i} at vertex {v}"
    return True, "right multiplication by a_n is a graph automorphism"


# -- registry -------------------------------------------------------

SUITES: list[Check] = [
    Check("counting", "geometry", 8, check_counting),
    Check("short-chords", "geometry", 8, check_short_chords),
    Check("phi-roundtrip", "geometry", 8, check_phi_roundtrip),
    # one validated flip per triangulation and colour: 8.8 s at n = 9,
    # 23 s / 56 MiB at n = 10, 61 s / 110 MiB at n = 11
    Check("flip-involution", "geometry", 10, check_flip_involution),
    # one act_on_phi call per vector and letter, words composed as
    # tables: 11 s at n = 12, 25 s / 70 MiB at n = 13, 59 s / 135 MiB
    # at n = 14
    Check("relations", "coxeter", 13, check_relations),
    Check("stabilizer", "coxeter", 6, check_stabilizer),
    Check("volumes", "coxeter", 10, check_volumes),
    # 0.54 s at n = 6, 3.7 s at n = 8; held at 5 because a cap of 6
    # adds an ok row to verify -n 6, which perfbench/expected_verify.json
    # pins
    Check("action-vs-geometry", "coxeter", 5, check_action_matches_geometry),
    Check("generator-lengths", "coxeter", 10, check_generator_lengths),
    Check("rep-lengths", "coxeter", 5, check_rep_lengths),
    Check("rep-phi-correspondence", "coxeter", 6, check_rep_phi_correspondence),
    Check("s0-direction", "coxeter", 6, finding_s0_direction, finding=True),
    Check("self-duality", "coxeter", 4, finding_self_duality, finding=True),
    Check("order-closure", "lattice", 4, check_order_closure),
    Check("meet-join", "lattice", 4, check_meet_join),
    Check("modularity", "lattice", 4, check_modularity),
    Check("duality", "lattice", 4, check_duality),
    Check("rank-polynomial", "lattice", 6, check_rank_polynomial),
    Check("graph-description", "graph", 5, check_graph_description),
    # 20 BFS sources over the step tables: 5.7 s at n = 11, 14 s at
    # n = 12, 32 s at n = 13, under 50 MiB; held below 12, where the
    # whole graph suite is skipped
    Check("distance-formula", "graph", 11, check_distance_formula, min_n=3),
    # one bit-parallel BFS sweep from all rotation orbits: 0.41 s /
    # 19 MiB at n = 9, 1.4 s / 24 MiB at n = 10, 4.3 s / 46 MiB at
    # n = 11, 23 s / 139 MiB at n = 12; test_graph_suite_is_capped_at_n12
    # holds it at 11
    Check("diameter-bfs", "graph", 11, check_diameter, min_n=3),
    # one formula call per difference class: 0.51 s at n = 9, 1.6 s at
    # n = 10, 6.9 s at n = 11, 23 s at n = 12, 17 MiB; held at 11 by
    # that test
    Check("diameter-scan", "graph", 11, check_diameter_scan, min_n=3),
    Check("antipodes", "graph", 5, check_antipodes, min_n=3),
    Check("bipartition", "graph", 6, check_bipartition, min_n=3),
    Check("shortest-reps", "graph", 5, check_shortest_representatives, min_n=3),
    Check("lower-bound", "graph", 6, check_lower_bound, min_n=3),
    Check("rotation-automorphism", "graph", 5, check_rotation_automorphism),
]


def suite_names() -> list[str]:
    return sorted({c.suite for c in SUITES})


def run_suite(n: int, suite: str = "all"):
    """Run the selected checks at a single n.

    Yields ``(name, status, detail)`` rows with status 'ok', 'FAIL',
    'finding' or 'skip'.  A check is skipped above its n-cap; call
    ``Check.run(n)`` to run one check at any n.
    """
    for check in SUITES:
        if suite != "all" and check.suite != suite:
            continue
        if n > check.max_n:
            yield check.name, "skip", f"n={n} above cap {check.max_n}"
            continue
        if n < check.min_n:
            yield check.name, "skip", f"requires n >= {check.min_n}"
            continue
        ok, detail = check.run(n)
        if check.finding:
            yield check.name, "finding" if ok else "finding-FAIL", detail
        else:
            yield check.name, "ok" if ok else "FAIL", detail
