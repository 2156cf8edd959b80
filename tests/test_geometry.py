import math
from itertools import permutations

import pytest

from tftflip.geometry import (
    ColoredTriangulation,
    PhiVector,
    all_phi_vectors,
    chords_cross,
    enumerate_ctft,
    is_short,
    parse_phi,
    phi_inv,
    short_center,
)


def fan(n, apex=1):
    """The star triangulation: chords from apex to everything opposite."""
    m = n + 4
    chords = tuple(
        frozenset(((apex - 2 - i) % m, apex)) for i in range(n + 1)
    )
    return ColoredTriangulation(n, chords)


T0 = fan(3)  # chords {6,1},{5,1},{4,1},{3,1} colored 0..3


def brute_force_triangulations(m):
    """All triangulations of an m-gon by recursive splitting (oracle),
    as a dict from chord set to triangle-freeness: no face has three
    chord sides."""

    def is_chord(a, b):
        return (b - a) % m not in (1, m - 1)

    def tri(vertices):
        if len(vertices) < 3:
            yield frozenset(), True
            return
        v0, vlast = vertices[0], vertices[-1]
        for k in range(1, len(vertices) - 1):
            apex = vertices[k]
            sides = ((v0, apex), (apex, vlast), (v0, vlast))
            inner = all(is_chord(*s) for s in sides)
            extra = frozenset(frozenset(s) for s in sides[:2] if is_chord(*s))
            for left, left_free in tri(vertices[: k + 1]):
                for right, right_free in tri(vertices[k:]):
                    free = left_free and right_free and not inner
                    yield left | right | extra, free

    return dict(tri(list(range(m))))


class TestChords:
    def test_short(self):
        assert is_short(frozenset((6, 1)), 7)
        assert short_center(frozenset((6, 1)), 7) == 0
        assert not is_short(frozenset((4, 1)), 7)

    def test_cross(self):
        assert chords_cross(frozenset((0, 2)), frozenset((1, 3)), 7)
        assert not chords_cross(frozenset((0, 2)), frozenset((2, 4)), 7)
        assert not chords_cross(frozenset((0, 2)), frozenset((3, 5)), 7)

    def test_adjacent_rejected(self):
        with pytest.raises(ValueError):
            ColoredTriangulation(3, (frozenset((0, 1)),))

    @pytest.mark.parametrize(
        "chord, message",
        [
            ((2,), "two endpoints"),
            ((1, 3, 5), "two endpoints"),
            ((-1, 2), "out of range"),
            ((2, 7), "out of range"),
            ((3, 4), "adjacent"),
            ((6, 0), "adjacent"),
        ],
    )
    def test_every_bad_chord_kind_rejected(self, chord, message):
        # the public constructor checks every chord, in any position
        chords = T0.chords[:2] + (frozenset(chord),) + T0.chords[3:]
        with pytest.raises(ValueError, match=message):
            ColoredTriangulation(3, chords)

    def test_table_constructor_refuses_a_non_chord(self):
        with pytest.raises(ValueError, match="no chord in position 1"):
            ColoredTriangulation._of_table(3, (T0.chords[0], None) + T0.chords[2:])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_table_chords_equal_the_checked_construction(self, n):
        # phi_inv and rotate skip the chord checks: each result equals the
        # same chords built anew and checked by the public constructor
        m = n + 4
        for v in all_phi_vectors(n):
            ct = phi_inv(v)
            k = mm = 1
            chords = [frozenset(((v.a - 1) % m, (v.a + 1) % m))]
            for b in v.bits:
                k, mm = k + 1 - b, mm + b
                chords.append(frozenset(((v.a - k) % m, (v.a + mm) % m)))
            assert ct == ColoredTriangulation(n, tuple(chords))
            for t in range(m):
                rotated = tuple(frozenset((x + t) % m for x in c) for c in chords)
                assert ct.rotate(t) == ColoredTriangulation(n, rotated)


class TestValidate:
    def test_fan_is_valid(self):
        assert T0.violations() == []

    def test_improper_coloring_reported(self):
        # swap colors 1 and 2 of the fan: chord 1 no longer touches chord 0
        bad = ColoredTriangulation(
            3, (T0.chords[0], T0.chords[2], T0.chords[1], T0.chords[3])
        )
        violations = bad.violations()
        assert any("improper coloring: chord 1" in v for v in violations)

    def test_inner_triangle_reported(self):
        ct = ColoredTriangulation(
            3,
            (
                frozenset((1, 3)),
                frozenset((3, 5)),
                frozenset((1, 5)),
                frozenset((6, 1)),
            ),
        )
        assert any("inner triangle" in v for v in ct.violations())

    @pytest.mark.parametrize("n, not_free", [(1, 0), (2, 2), (3, 14), (4, 68), (5, 285)])
    def test_inner_triangle_exactly_where_not_triangle_free(self, n, not_free):
        # every triangulation of the recursion, in an arbitrary coloring
        triangulations = brute_force_triangulations(n + 4)
        assert sum(not free for free in triangulations.values()) == not_free
        for chords, free in triangulations.items():
            ct = ColoredTriangulation(n, tuple(sorted(chords, key=sorted)))
            inner = any("inner triangle" in v for v in ct.violations())
            assert inner != free, ct

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_valid_orders_are_exactly_the_two_colorings(self, n):
        # every triangulation of the recursion in every chord order: a
        # triangle-free one is valid in its two proper colorings, any
        # other in none, and phi() refuses every invalid order
        valid = []
        for chords, free in brute_force_triangulations(n + 4).items():
            orders = [ColoredTriangulation(n, p) for p in permutations(chords)]
            good = [ct.chords for ct in orders if ct.is_valid()]
            assert len(good) == 2 * free, chords
            valid += good
            for ct in orders:
                if not ct.is_valid():
                    with pytest.raises(ValueError):
                        ct.phi()
        cts = enumerate_ctft(n)
        assert len(valid) == len(cts) and set(valid) == {ct.chords for ct in cts}

    def test_wrong_count_reported(self):
        ct = ColoredTriangulation(3, T0.chords[:3])
        assert any("chord count" in v for v in ct.violations())

    def test_crossing_reported(self):
        ct = ColoredTriangulation(
            3,
            (
                frozenset((6, 1)),
                frozenset((0, 2)),
                frozenset((4, 1)),
                frozenset((3, 1)),
            ),
        )
        assert any("crossing" in v for v in ct.violations())


class TestPhi:
    def test_star_is_zero(self):
        assert T0.phi() == PhiVector(3, 0, (0, 0, 0))

    def test_phi_inv_all_ones(self):
        ct = phi_inv(PhiVector(3, 0, (1, 1, 1)))
        assert set(ct.chords) == {
            frozenset((6, 1)),
            frozenset((6, 2)),
            frozenset((6, 3)),
            frozenset((6, 4)),
        }
        assert ct.chords[0] == frozenset((6, 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_roundtrip(self, n):
        for ct in enumerate_ctft(n):
            assert phi_inv(ct.phi()) == ct

    def test_parse(self):
        assert parse_phi("0:000", 3) == PhiVector(3, 0, (0, 0, 0))
        assert str(PhiVector(3, 6, (1, 0, 0))) == "6:100"
        with pytest.raises(ValueError):
            parse_phi("9:000", 3)


class TestEnumeration:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_count(self, n):
        assert len(enumerate_ctft(n)) == (n + 4) * 2**n

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            enumerate_ctft(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_against_brute_force(self, n):
        """Independent path: enumerate all polygon triangulations, keep
        those with no face bounded by three chords, and compare chord
        sets; on every triangulation that definition must agree with
        the characterization by exactly two short chords."""
        m = n + 4
        triangulations = brute_force_triangulations(m)
        assert len(triangulations) == math.comb(2 * n + 4, n + 2) // (n + 3)
        for chords, free in triangulations.items():
            assert free == (sum(is_short(c, m) for c in chords) == 2)
        tf_chord_sets = {chords for chords, free in triangulations.items() if free}
        enumerated = {frozenset(ct.chords) for ct in enumerate_ctft(n)}
        assert enumerated == tf_chord_sets
        assert len(enumerate_ctft(n)) == 2 * len(tf_chord_sets)


class TestFlip:
    def test_flip_last_of_star(self):
        flipped = T0.flip(3)
        assert flipped.chords[3] == frozenset((2, 4))
        assert flipped.phi() == PhiVector(3, 0, (0, 0, 1))

    def test_blocked_flip_returns_unchanged(self):
        # flipping chord 1 of the star would close an inner triangle
        assert T0.flip(1) == T0

    def test_involution(self):
        for i in range(4):
            assert T0.flip(i).flip(i) == T0

    def test_color_out_of_range(self):
        with pytest.raises(ValueError):
            T0.flip(7)

    def test_invalid_input_rejected(self):
        bad = ColoredTriangulation(3, T0.chords[:3])
        with pytest.raises(ValueError):
            bad.flip(0)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_local_rule_equals_full_validation(self, n):
        # reference: swap chord i for the other diagonal of its
        # quadrilateral and keep the candidate iff is_valid() accepts it
        m, outcomes = n + 4, set()
        for ct in enumerate_ctft(n):
            sides = set(ct.chords) | {frozenset((v, (v + 1) % m)) for v in range(m)}
            for i, (x, y) in enumerate(ct.chords):
                # the apexes: the vertices joined to both ends of chord i
                other = frozenset(
                    z for z in range(m) if {frozenset((x, z)), frozenset((y, z))} <= sides
                )
                chords = ct.chords[:i] + (other,) + ct.chords[i + 1 :]
                candidate = ColoredTriangulation(n, chords)
                expected = candidate if candidate.is_valid() else ct
                assert ct.flip(i) == expected
                outcomes.add(expected is ct)
        assert outcomes == ({True, False} if n > 1 else {False})

    @pytest.mark.parametrize("n", range(1, 7))
    def test_chords_are_shared(self, n):
        # every chord of every enumerated triangulation, of its flips and
        # of a rotation is one of at most m(m-3)/2 objects, one per chord
        m, objects = n + 4, {}
        for ct in enumerate_ctft(n):
            for t in (ct, ct.rotate(1), *(ct.flip(i) for i in range(n + 1))):
                objects.update((id(c), c) for c in t.chords)
        assert len(objects) <= m * (m - 3) // 2
        assert len(set(objects.values())) == len(objects)

    @pytest.mark.parametrize(
        "chords",
        [
            ((0, 2), (2, 4), (0, 4), (4, 6)),  # inner triangle: both apexes 0
            ((0, 2), (2, 4), (2, 4), (4, 6)),  # duplicate: apex 4 on the chord
        ],
    )
    def test_forced_invalid_flip_raises(self, chords):
        # an invalid triangulation forced past the cached validity has no
        # quadrilateral at chord 1: flip raises instead of returning one
        bad = ColoredTriangulation(3, tuple(frozenset(c) for c in chords))
        assert not bad.is_valid()
        bad.__dict__["_violations"] = ()
        with pytest.raises(RuntimeError, match="not one on each side"):
            bad.flip(1)

    @pytest.mark.parametrize(
        "order",
        [
            (1, 0, 2, 3),  # chord 0 is not short
            (0, 2, 1, 3),  # chord 1 shares no triangle with chord 0
            (0, 1, 3, 2),  # chord 3 shares no triangle with chord 2
        ],
    )
    def test_invalid_rejected_by_phi_and_flip(self, order):
        bad = ColoredTriangulation(3, tuple(T0.chords[k] for k in order))
        assert not bad.is_valid()
        with pytest.raises(ValueError):
            bad.phi()
        for i in range(4):
            with pytest.raises(ValueError):
                bad.flip(i)

    @pytest.mark.parametrize(
        "chords",
        [
            T0.chords + (frozenset((0, 2)),),  # one chord too many
            T0.chords[:3],  # one chord too few
        ],
    )
    def test_wrong_chord_count_rejected_by_phi_and_flip(self, chords):
        bad = ColoredTriangulation(3, chords)
        assert bad.violations() == [f"wrong chord count: {len(chords)} != 4"]
        with pytest.raises(ValueError, match="wrong chord count"):
            bad.phi()
        for i in range(4):
            with pytest.raises(ValueError):
                bad.flip(i)

    def test_invalid_stays_invalid(self):
        # validity is cached per instance; the verdict must not change
        swapped = (T0.chords[1], T0.chords[0]) + T0.chords[2:]
        bad = ColoredTriangulation(3, swapped)
        assert not bad.is_valid()
        assert not bad.is_valid()
        assert bad.violations() == ["chord 0 is not short"]
        for i in range(4):
            with pytest.raises(ValueError):
                bad.flip(i)


class TestSymmetry:
    def test_rotate_star(self):
        assert T0.rotate(1) == phi_inv(PhiVector(3, 1, (0, 0, 0)))

    def test_reverse_colors_of_star(self):
        rev = T0.reverse_colors()
        assert rev.is_valid()
        assert rev.chords[0] == frozenset((3, 1))
        assert rev.phi() == PhiVector(3, 2, (1, 1, 1))

    def test_reverse_is_involution(self):
        for ct in enumerate_ctft(2):
            assert ct.reverse_colors().reverse_colors() == ct

    @pytest.mark.parametrize("n", [2, 3])
    def test_rotate_commutes_with_flip(self, n):
        for ct in enumerate_ctft(n):
            for i in range(n + 1):
                for k in (1, 3):
                    assert ct.flip(i).rotate(k) == ct.rotate(k).flip(i)


class TestTextForm:
    def test_str(self):
        assert str(T0) == "n=3; chords: 0:(1,6) 1:(1,5) 2:(1,4) 3:(1,3)"
