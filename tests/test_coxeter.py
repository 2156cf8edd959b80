from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tftflip.checks import check_relations, check_stabilizer
from tftflip.coxeter import (
    AffineMap,
    act_on_phi,
    base_vector,
    coxeter_length,
    format_word,
    g0_word,
    gn_word,
    gram_and_volumes,
    left_descents,
    orbit_of_base,
    relation_words,
    word_to_affine,
)
from tftflip.geometry import PhiVector, all_phi_vectors, phi_inv


def a_word(i):
    """The block a_i = s_i s_{i-1} ... s_0."""
    return tuple(range(i, -1, -1))


class TestAffineMap:
    def test_generators(self):
        x = (10, 20, 30)
        assert AffineMap.generator(3, 0).apply(x) == (-10, 20, 30)
        assert AffineMap.generator(3, 1).apply(x) == (20, 10, 30)
        assert AffineMap.generator(3, 3).apply(x) == (10, 20, -28)

    def test_compose_and_inverse(self):
        m = word_to_affine(3, (3, 1, 0, 2))
        assert m.compose(m.inverse()).is_identity()
        assert m.inverse().compose(m).is_identity()

    def test_compose_order(self):
        # word (0, 1) means s_0 applied after s_1
        m = word_to_affine(2, (0, 1))
        assert m.apply((10, 20)) == (-20, 10)

    def test_odd_translation_rejected(self):
        with pytest.raises(ValueError):
            AffineMap(2, (0, 1), (1, 1), (0, 1))

    def test_g0_map(self):
        # g_0 realizes x -> (x_n - 2, ..., x_1 + 2)
        m = word_to_affine(3, g0_word(3))
        assert m.apply((10, 20, 30)) == (28, 20, 12)

    def test_full_cycle_map(self):
        # s_n ... s_0 shifts coordinates and translates the last one
        m = word_to_affine(3, (3, 2, 1, 0))
        assert m.apply((10, 20, 30)) == (20, 30, 12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_faithful_on_words(self, n):
        # distinct short words with distinct group elements get
        # distinct maps; braid-equal words get equal maps
        assert word_to_affine(n, (0, 1)) != word_to_affine(n, (1, 0))
        lhs = word_to_affine(n, (0, 1, 0, 1))
        rhs = word_to_affine(n, (1, 0, 1, 0))
        assert lhs == rhs  # (s_0 s_1)^4 = 1


class TestRelations:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_all_relations_hold(self, n):
        ok, detail = check_relations(n)
        assert ok, detail

    def test_relation_count(self):
        # n+1 involutions, C(n,2) commutations minus adjacents, braids
        assert len(relation_words(3)) == 4 + 3 + 1 + 2

    def test_non_relation_detected(self):
        # (s_0 s_1)^2 is not a relation: the braid at the end has order 4
        assert not word_to_affine(3, (0, 1) * 2).is_identity()


class TestPhiAction:
    def test_generator_zero_direction(self):
        # flipping chord 0 of the star moves its center to vertex 6
        assert act_on_phi((0,), base_vector(3)) == PhiVector(3, 6, (1, 0, 0))

    def test_middle_generator_fixes_star(self):
        assert act_on_phi((1,), base_vector(3)) == base_vector(3)

    def test_last_generator(self):
        assert act_on_phi((3,), base_vector(3)) == PhiVector(3, 0, (0, 0, 1))

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_geometric_flips(self, n):
        for v in all_phi_vectors(n):
            ct = phi_inv(v)
            for i in range(n + 1):
                assert act_on_phi((i,), v) == ct.flip(i).phi()

    @given(st.lists(st.integers(0, 3), max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_word_then_inverse_is_identity(self, word):
        v = PhiVector(3, 2, (1, 0, 1))
        w = tuple(word)
        assert act_on_phi(w + w[::-1], v) == v

    def test_bad_letter_rejected(self):
        with pytest.raises(ValueError):
            act_on_phi((4,), base_vector(3))


class TestLength:
    def test_identity_and_generators(self):
        assert coxeter_length(AffineMap.identity(3)) == 0
        for i in range(4):
            assert coxeter_length(AffineMap.generator(3, i)) == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_block_lengths(self, n):
        # the blocks a_i are reduced: length i+1
        for i in range(n + 1):
            assert coxeter_length(word_to_affine(n, a_word(i))) == i + 1

    @given(st.lists(st.integers(0, 3), max_size=10))
    @settings(max_examples=80, deadline=None)
    def test_subadditive_and_parity(self, word):
        m = word_to_affine(3, tuple(word))
        length = coxeter_length(m)
        assert length <= len(word)
        assert length % 2 == len(word) % 2

    def test_stabilizer_elements_have_positive_length(self):
        # fixing the base triangulation does not mean being trivial
        m = word_to_affine(3, g0_word(3))
        assert not m.is_identity()
        assert coxeter_length(m) == len(g0_word(3))


def cayley_ball(n, radius):
    """Element -> word length, for every element within ``radius`` of
    the identity, by breadth-first search in the Cayley graph.  Map
    equality is group equality because the realization is faithful."""
    gens = [AffineMap.generator(n, i) for i in range(n + 1)]
    depth = {AffineMap.identity(n): 0}
    frontier = list(depth)
    for d in range(1, radius + 1):
        frontier = [g.compose(m) for m in frontier for g in gens]
        frontier = [m for m in dict.fromkeys(frontier) if m not in depth]
        depth.update((m, d) for m in frontier)
    return depth


class TestLengthAgainstGroupBFS:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_length_is_bfs_depth(self, n):
        ball = cayley_ball(n, 7)
        assert len(ball) > 7 * (n + 1)
        for m, depth in ball.items():
            assert coxeter_length(m) == depth

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_descent_sign_test(self, n):
        gens = [AffineMap.generator(n, i) for i in range(n + 1)]
        for m in cayley_ball(n, 6):
            length = coxeter_length(m)
            shorter = [i for i, g in enumerate(gens) if coxeter_length(g.compose(m)) < length]
            assert left_descents(m) == shorter


class TestStabilizer:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_generators_fix_base_and_orbit_is_full(self, n):
        ok, detail = check_stabilizer(n)
        assert ok, detail

    def test_gn_fixes_base_but_is_not_trivial(self):
        w = gn_word(3)
        assert act_on_phi(w, base_vector(3)) == base_vector(3)
        moved = [v for v in all_phi_vectors(3) if act_on_phi(w, v) != v]
        assert moved  # stabilizer of the base, not the kernel
        assert not word_to_affine(3, w).is_identity()

    def test_orbit_size(self):
        assert len(orbit_of_base(4)) == 8 * 16


class TestVolumes:
    def test_n3_values(self):
        det_a, det_b, ratio = gram_and_volumes(3)
        assert det_a == 1
        assert det_b == Fraction(16, 3)
        assert ratio == 56

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_closed_forms(self, n):
        det_a, det_b, ratio = gram_and_volumes(n)
        assert det_a == 1
        assert det_b == Fraction(4 ** (n - 1), n)
        assert ratio == (n + 4) * 2**n


class TestWordText:
    def test_format(self):
        assert format_word((3, 2, 1, 0)) == "3 2 1 0"
        assert format_word(()) == ""
