import pytest

from tftflip.geometry import (
    ColoredTriangulation,
    PhiVector,
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
    """All triangulations of an m-gon by recursive splitting (oracle)."""

    def tri(vertices):
        if len(vertices) < 3:
            yield frozenset()
            return
        v0, vlast = vertices[0], vertices[-1]
        for k in range(1, len(vertices) - 1):
            apex = vertices[k]
            for left in tri(vertices[: k + 1]):
                for right in tri(vertices[k:]):
                    extra = set()
                    for a, b in ((v0, apex), (apex, vlast)):
                        if (b - a) % m not in (1, m - 1):
                            extra.add(frozenset((a, b)))
                    yield left | right | frozenset(extra)

    seen = set()
    for chords in tri(list(range(m))):
        seen.add(chords)
    return seen


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
        """Independent path: enumerate all polygon triangulations,
        filter the triangle-free ones, and compare chord sets."""
        m = n + 4
        tf_chord_sets = set()
        for chords in brute_force_triangulations(m):
            shorts = sum(1 for c in chords if is_short(c, m))
            if shorts == 2:
                tf_chord_sets.add(chords)
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
