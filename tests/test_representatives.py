from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tftflip.coxeter import act_on_phi, base_vector, coxeter_length, word_to_affine
from tftflip.flipgraph import antipode, distance_formula, vertex_id
from tftflip.geometry import PhiVector, phi_inv
from tftflip.representatives import (
    all_reps,
    apply_generator,
    check_rep,
    covers,
    dual,
    format_rep,
    identity_rep,
    join,
    leq,
    longest_rep,
    meet,
    parse_rep,
    phi_to_rep,
    rank_polynomial,
    rep_length,
    rep_to_phi,
    rep_to_word,
)


def reps_strategy(n):
    return st.tuples(
        *([st.integers(0, 1)] * n), st.integers(0, n + 3)
    )


class TestBasics:
    def test_all_reps(self):
        rs = all_reps(3)
        assert len(rs) == 56
        assert rs[0] == (0, 0, 0, 0)
        assert rs[-1] == (1, 1, 1, 6)

    def test_check_rep(self):
        with pytest.raises(ValueError):
            check_rep((2, 0, 0, 0), 3)
        with pytest.raises(ValueError):
            check_rep((0, 0, 0, 7), 3)
        with pytest.raises(ValueError):
            check_rep((0, 0, 0), 3)

    @pytest.mark.parametrize(
        "r, n, message",
        [
            ((0, 0), 1, "representatives require n >= 2"),
            ((0, 0, 0), 3, "need 4 exponents, got 3"),
            ((0, 2, 0, 0), 3, "exponents 0..2 must be bits: (0, 2, 0, 0)"),
            ((0, -1, 0, 0), 3, "exponents 0..2 must be bits: (0, -1, 0, 0)"),
            ((0, 0.5, 0, 0), 3, "exponents 0..2 must be bits: (0, 0.5, 0, 0)"),
            ((0, None, 0, 0), 3, "exponents 0..2 must be bits: (0, None, 0, 0)"),
            ((0, 0, 0, 7), 3, "last exponent must be in 0..6: (0, 0, 0, 7)"),
            ((0, 0, 0, -1), 3, "last exponent must be in 0..6: (0, 0, 0, -1)"),
        ],
        ids=["n1", "short", "two", "minus-one", "half", "none", "n+4", "last-minus-one"],
    )
    def test_check_rep_names_what_is_wrong(self, r, n, message):
        with pytest.raises(ValueError) as exc:
            check_rep(r, n)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "call",
        [
            lambda r: distance_formula(r, (0, 0, 0, 0), 3),
            lambda r: vertex_id(r, 3),
            lambda r: dual(r, 3),
            lambda r: antipode(r, 3),
            lambda r: meet(r, (1, 1, 1, 6), 3),
        ],
        ids=["distance_formula", "vertex_id", "dual", "antipode", "meet"],
    )
    @pytest.mark.parametrize("last", [2.5, 3.0])
    def test_a_non_integer_last_exponent_is_refused(self, call, last):
        with pytest.raises(ValueError) as exc:
            call((0, 0, 0, last))
        assert str(exc.value) == f"last exponent must be in 0..6: (0, 0, 0, {last})"

    @pytest.mark.parametrize(
        "call",
        [
            lambda r: check_rep(r, 3),
            lambda r: rep_to_phi(r, 3),
            lambda r: distance_formula(r, (0, 0, 0, 0), 3),
            lambda r: vertex_id(r, 3),
            lambda r: dual(r, 3),
            lambda r: antipode(r, 3),
            lambda r: meet(r, (1, 1, 1, 6), 3),
            lambda r: covers(r, 3),  # the one caller of rep_length that checks
        ],
        ids=["check_rep", "rep_to_phi", "distance_formula", "vertex_id", "dual", "antipode",
             "meet", "covers"],
    )
    @pytest.mark.parametrize("bit", [1.0, 0.0])
    def test_a_float_bit_is_refused(self, call, bit):
        # equal to a bit is not enough: the exponent must be the integer
        r = (0, 0, bit, 2)
        with pytest.raises(ValueError) as exc:
            call(r)
        assert str(exc.value) == f"exponents 0..2 must be bits: {r}"

    def test_rep_length_of_checked_reps_is_an_int(self):
        # rep_length does no checking of its own; it reads checked reps,
        # and check_rep refuses the float twin (0, 0, 1.0, 2) (see above)
        length = rep_length(check_rep((0, 0, 1, 2), 3))
        assert (length, type(length)) == (11, int)

    @pytest.mark.parametrize("bits", [(0, 1.0, 0), (0.0, 0, 0), (0, 1, 0.5), ("0", 1, 0), "010"])
    def test_phi_vector_refuses_bits_that_are_not_integers(self, bits):
        with pytest.raises(ValueError) as exc:
            PhiVector(3, 0, bits)
        assert str(exc.value) == f"need 3 bits in {{0,1}}, got {bits}"
        with pytest.raises(ValueError):
            phi_inv(PhiVector(3, 0, bits))

    def test_text_form(self):
        assert parse_rep("1,0,1,2", 3) == (1, 0, 1, 2)
        assert format_rep((1, 0, 1, 2)) == "1,0,1,2"
        with pytest.raises(ValueError):
            parse_rep("1 0 1 2", 3)


class TestLength:
    def test_examples(self):
        assert rep_length(identity_rep(3)) == 0
        assert rep_length((1, 0, 1, 2)) == 1 + 3 + 8
        assert rep_length(longest_rep(3)) == 1 + 2 + 3 + 4 * 6

    @pytest.mark.parametrize("n", [2, 3])
    def test_against_hyperplane_oracle(self, n):
        for r in all_reps(n):
            word = rep_to_word(r)
            assert rep_length(r) == len(word)
            assert coxeter_length(word_to_affine(n, word)) == len(word)


class TestPhiCorrespondence:
    def test_block_examples(self):
        # a_3 alone grows chord 3 rightward and recenters at 6
        assert rep_to_phi((0, 0, 1, 0), 3) == PhiVector(3, 6, (0, 0, 1))
        assert rep_to_phi((0, 0, 0, 1), 3) == PhiVector(3, 6, (0, 0, 0))
        assert rep_to_phi((1, 0, 0, 0), 3) == PhiVector(3, 6, (1, 0, 0))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_word_action(self, n):
        base = base_vector(n)
        for r in all_reps(n):
            v = act_on_phi(rep_to_word(r), base)
            assert rep_to_phi(r, n) == v
            assert phi_to_rep(v) == r

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bijection(self, n):
        images = {rep_to_phi(r, n) for r in all_reps(n)}
        assert len(images) == (n + 4) * 2**n


class TestApplyGenerator:
    def test_middle_swap(self):
        res = apply_generator(2, (0, 0, 1, 0), 3)
        assert res == ((0, 1, 0, 0), True)

    def test_middle_fixed(self):
        res = apply_generator(1, (1, 1, 0, 0), 3)
        assert res == ((1, 1, 0, 0), False)

    def test_zero_toggles(self):
        assert apply_generator(0, (0, 0, 0, 0), 3).rep == (1, 0, 0, 0)
        assert apply_generator(0, (1, 0, 1, 2), 3).rep == (0, 0, 1, 2)

    def test_last_steps_the_tail(self):
        assert apply_generator(3, (0, 0, 1, 2), 3).rep == (0, 0, 0, 3)
        assert apply_generator(3, (0, 0, 0, 3), 3).rep == (0, 0, 1, 2)

    def test_wrap_cases(self):
        assert apply_generator(3, (1, 1, 1, 6), 3).rep == (1, 1, 0, 0)
        assert apply_generator(3, (0, 0, 0, 0), 3).rep == (0, 0, 1, 6)

    @pytest.mark.parametrize("n", [2, 3])
    def test_is_an_involution(self, n):
        for r in all_reps(n):
            for i in range(n + 1):
                once = apply_generator(i, r, n)
                again = apply_generator(i, once.rep, n)
                assert again.rep == r
                assert once.moved == again.moved
                assert once.moved == (once.rep != r)

    @pytest.mark.parametrize("n", [2, 3])
    def test_tracks_cosets(self, n):
        # s_i (r T_0) must be the triangulation of the new representative
        for r in all_reps(n):
            for i in range(n + 1):
                res = apply_generator(i, r, n)
                expected = phi_inv(rep_to_phi(r, n)).flip(i).phi()
                assert rep_to_phi(res.rep, n) == expected


class TestOrder:
    def test_compare_examples(self):
        # the four outcomes of a comparison, read as leq both ways
        assert leq((0, 0, 0, 0), (1, 0, 0, 0))
        assert not leq((1, 0, 0, 0), (0, 0, 0, 0))
        assert leq((1, 0, 1, 2), (1, 0, 1, 2))
        assert not leq((1, 0, 0, 1), (0, 1, 1, 0))
        assert not leq((0, 1, 1, 0), (1, 0, 0, 1))
        with pytest.raises(ValueError):
            leq((0, 0, 0), (0, 0, 0, 0))

    def test_bounds(self):
        for r in all_reps(3):
            assert leq(identity_rep(3), r)
            assert leq(r, longest_rep(3))

    def test_covers_of_identity(self):
        assert covers(identity_rep(3), 3) == [(1, 0, 0, 0)]

    def test_covers_go_up_one(self):
        for r in all_reps(3):
            for s in covers(r, 3):
                assert rep_length(s) == rep_length(r) + 1
                assert leq(r, s) and not leq(s, r)

    @pytest.mark.parametrize("n", [2, 3])
    def test_order_is_cover_closure(self, n):
        rs = all_reps(n)
        below = {r: {r} for r in rs}
        for length in range(rep_length(longest_rep(n)), -1, -1):
            for r in rs:
                if rep_length(r) == length:
                    for s in covers(r, n):
                        below[r] |= below[s]
        for r in rs:
            for s in rs:
                assert leq(r, s) == (s in below[r])


class TestLattice:
    def test_examples(self):
        assert meet((1, 0, 0, 1), (0, 1, 1, 0), 3) == (1, 0, 1, 0)
        assert join((1, 0, 0, 1), (0, 1, 1, 0), 3) == (0, 1, 0, 1)

    @pytest.mark.parametrize("op", [meet, join])
    @pytest.mark.parametrize("bad", [(0, 0, 0, 9), (2, 0, 0, 0), (0, 0, 0)])
    def test_invalid_input_rejected(self, op, bad):
        # checked on the way in, not only through the result
        with pytest.raises(ValueError):
            op(bad, (0, 0, 0, 0), 3)
        with pytest.raises(ValueError):
            op((0, 0, 0, 0), bad, 3)

    def test_meet_join_are_bounds(self):
        rs = all_reps(3)
        for r, s in combinations(rs, 2):
            lo, hi = meet(r, s, 3), join(r, s, 3)
            assert leq(lo, r) and leq(lo, s)
            assert leq(r, hi) and leq(s, hi)

    @given(reps_strategy(4), reps_strategy(4), reps_strategy(4))
    @settings(max_examples=150, deadline=None)
    def test_lattice_identities(self, r, s, t):
        assert meet(r, s, 4) == meet(s, r, 4)
        assert join(r, join(s, t, 4), 4) == join(join(r, s, 4), t, 4)
        assert meet(r, join(r, s, 4), 4) == r
        assert join(r, meet(r, s, 4), 4) == r

    @given(reps_strategy(4), reps_strategy(4))
    @settings(max_examples=150, deadline=None)
    def test_modular_rank_identity(self, r, s):
        assert rep_length(meet(r, s, 4)) + rep_length(join(r, s, 4)) == (
            rep_length(r) + rep_length(s)
        )


class TestDuality:
    def test_examples(self):
        assert dual(identity_rep(3), 3) == longest_rep(3)
        assert dual((1, 0, 1, 2), 3) == (0, 1, 0, 4)

    def test_involution_and_reversal(self):
        rs = all_reps(3)
        top_len = rep_length(longest_rep(3))
        for r in rs:
            assert dual(dual(r, 3), 3) == r
            assert rep_length(dual(r, 3)) == top_len - rep_length(r)
        for r in rs:
            for s in covers(r, 3):
                assert leq(dual(s, 3), dual(r, 3))


class TestRankPolynomial:
    def test_n3(self):
        coeffs = rank_polynomial(3)
        assert len(coeffs) == rep_length(longest_rep(3)) + 1
        assert coeffs[0] == 1 and coeffs[-1] == 1
        assert coeffs[1] == 1
        assert sum(coeffs) == 56

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_counts_lengths(self, n):
        from collections import Counter

        by_length = Counter(rep_length(r) for r in all_reps(n))
        coeffs = rank_polynomial(n)
        assert coeffs == [by_length.get(k, 0) for k in range(len(coeffs))]

    def test_palindromic(self):
        for n in (2, 3, 4, 5):
            coeffs = rank_polynomial(n)
            assert coeffs == coeffs[::-1]
