"""Coset representatives as exponent vectors, with their weak order.

Every coset of the base-triangulation stabilizer has a distinguished
representative a_0^e0 a_1^e1 ... a_n^en where a_i = s_i s_{i-1} ... s_0,
the first n exponents are bits and the last runs over 0..n+3.  A
representative is stored as the plain tuple (e_0, ..., e_n).

Left multiplication by a generator normalizes back into this form by a
short case analysis: generators 0 < i < n swap e_{i-1} and e_i (a
fixed coset when they are equal), generator 0 toggles e_0, and
generator n toggles e_{n-1} while stepping e_n by +-1 modulo n+4 (the
modular wrap re-enters through the stabilizer).

Under dominance of suffix sums the representatives form a graded
distributive lattice (the ``meet-join`` check of ``tft verify``): a
self-dual lower interval of the left weak order.
"""

from __future__ import annotations

from itertools import accumulate, count, product
from operator import index, le, mul, sub
from typing import NamedTuple, Sequence

from .geometry import PhiVector, _are_bits

__all__ = [
    "Rep",
    "GeneratorResult",
    "all_reps",
    "identity_rep",
    "longest_rep",
    "check_rep",
    "rep_length",
    "rep_to_word",
    "rep_to_phi",
    "phi_to_rep",
    "apply_generator",
    "leq",
    "covers",
    "meet",
    "join",
    "dual",
    "rank_polynomial",
    "parse_rep",
    "format_rep",
]

Rep = tuple  # (e_0, ..., e_{n-1}, e_n)


class GeneratorResult(NamedTuple):
    rep: Rep
    moved: bool  # False iff the generator stays in the same coset


def check_rep(r: Sequence[int], n: int) -> Rep:
    if n < 2:
        raise ValueError("representatives require n >= 2")
    r = tuple(r)
    if len(r) != n + 1:
        raise ValueError(f"need {n + 1} exponents, got {len(r)}")
    if not _are_bits(r[:n]):
        raise ValueError(f"exponents 0..{n - 1} must be bits: {r}")
    if not (type(r[n]) is int and 0 <= r[n] <= n + 3):  # not a float, nor a bool
        raise ValueError(f"last exponent must be in 0..{n + 3}: {r}")
    return r


def all_reps(n: int) -> list[Rep]:
    """All (n+4)*2^n representatives in lexicographic order."""
    if n < 2:
        raise ValueError("representatives require n >= 2")
    ranges = [(0, 1)] * n + [tuple(range(n + 4))]
    return [tuple(r) for r in product(*ranges)]


def identity_rep(n: int) -> Rep:
    return (0,) * (n + 1)


def longest_rep(n: int) -> Rep:
    """Top of the interval: a_0 a_1 ... a_{n-1} a_n^{n+3}."""
    return (1,) * n + (n + 3,)


def parse_rep(text: str, n: int) -> Rep:
    """Parse the comma-list text form, e.g. ``1,0,1,2``."""
    try:
        r = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"malformed representative {text!r}") from None
    return check_rep(r, n)


def format_rep(r: Rep) -> str:
    return ",".join(map(str, map(index, r)))  # a bool bit as 0 or 1, a float refused


def rep_length(r: Rep) -> int:
    """Coxeter length: sum of (j+1) * e_j.

    Exact because each a_j block is a shortest coset representative of
    a parabolic subgroup; cross-checked against the hyperplane-count
    oracle in the tests.
    """
    return sum(map(mul, count(1), r))


def rep_to_word(r: Rep) -> tuple[int, ...]:
    """Expand into generator letters, a_i = s_i s_{i-1} ... s_0."""
    word: list[int] = []
    for i, e in enumerate(r):
        word.extend(tuple(range(i, -1, -1)) * e)
    return tuple(word)


def rep_to_phi(r: Rep, n: int) -> PhiVector:
    """Phi vector of the triangulation this representative carries the
    star triangulation to.

    Closed form: the growth bits are the first n exponents and the
    center moves back one step per a_i factor (each contains exactly
    one s_0).  Verified against full word application in the tests.
    """
    check_rep(r, n)
    return PhiVector(n, (-sum(r)) % (n + 4), tuple(r[:n]))


def phi_to_rep(v: PhiVector) -> Rep:
    n = v.n
    e_last = (-v.a - sum(v.bits)) % (n + 4)
    return tuple(v.bits) + (e_last,)


def apply_generator(i: int, r: Rep, n: int) -> GeneratorResult:
    """Normalize s_i * r back into representative form."""
    check_rep(r, n)
    if not 0 <= i <= n:
        raise ValueError(f"generator index {i} out of range 0..{n}")
    s = _apply_generator(i, r, n)
    return GeneratorResult(s, s is not r)


def _apply_generator(i: int, r: Rep, n: int) -> Rep:
    """The body of :func:`apply_generator`, for arguments already
    checked; returns ``r`` itself when s_i fixes the coset."""
    e = list(r)
    if i == 0:
        # moving the short chord 0: the center -sum(r) steps by -1 on
        # bit 0, the direction of the geometric flip under
        # counterclockwise labels (the reverse of one published
        # convention -- see the verification findings)
        e[0] ^= 1
        return tuple(e)
    if i == n:
        if e[n - 1] == 1:
            e[n - 1] = 0
            e[n] = (e[n] + 1) % (n + 4)
        else:
            e[n - 1] = 1
            e[n] = (e[n] - 1) % (n + 4)
        return tuple(e)
    if e[i - 1] == e[i]:
        return r
    e[i - 1], e[i] = e[i], e[i - 1]
    return tuple(e)


# -- dominance order ------------------------------------------------


def leq(r: Rep, s: Rep) -> bool:
    """Dominance order: every suffix sum of r is at most that of s."""
    if len(r) != len(s):
        raise ValueError("representatives must share n")
    return all(map(le, accumulate(reversed(r)), accumulate(reversed(s))))


def covers(r: Rep, n: int) -> list[Rep]:
    """All s covering r: generator moves that add one to the length.

    A wrap of s_n (e_n passing between n+3 and 0) changes the length by
    n + (n+1)(n+3), never by one, so the length test leaves it out."""
    check_rep(r, n)
    base = rep_length(r)
    out = set()
    for i in range(n + 1):
        s = _apply_generator(i, r, n)
        if rep_length(s) == base + 1:
            out.add(s)
    return sorted(out)


def _bound(op, r: Rep, s: Rep) -> Rep:
    """The tuple whose suffix sums are ``op`` of those of ``r`` and ``s``."""
    # sums[j] = e_{n-j} + ... + e_n, so e_{n-j} = sums[j] - sums[j-1]
    sums = list(map(op, accumulate(reversed(r)), accumulate(reversed(s))))
    return tuple(map(sub, sums, [0] + sums))[::-1]


def meet(r: Rep, s: Rep, n: int) -> Rep:
    """Greatest lower bound: componentwise min of suffix sums."""
    return check_rep(_meet(check_rep(r, n), check_rep(s, n)), n)


def _meet(r: Rep, s: Rep) -> Rep:
    """The body of :func:`meet`, for arguments already checked."""
    return _bound(min, r, s)


def join(r: Rep, s: Rep, n: int) -> Rep:
    """Least upper bound: componentwise max of suffix sums."""
    return check_rep(_join(check_rep(r, n), check_rep(s, n)), n)


def _join(r: Rep, s: Rep) -> Rep:
    """The body of :func:`join`, for arguments already checked."""
    return _bound(max, r, s)


def dual(r: Rep, n: int) -> Rep:
    """Order-reversing involution: complement every exponent."""
    check_rep(r, n)
    return tuple(1 - e for e in r[:n]) + (n + 3 - r[n],)


def rank_polynomial(n: int) -> list[int]:
    """Coefficients of the length generating function of the interval:
    (1+q)(1+q^2)...(1+q^n) (1 + q^{n+1} + q^{2(n+1)} + ... + q^{(n+3)(n+1)}).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    poly = [1]
    for j in range(1, n + 1):
        factor = [1] + [0] * (j - 1) + [1]
        poly = _poly_mul(poly, factor)
    last = [0] * ((n + 3) * (n + 1) + 1)
    for k in range(n + 4):
        last[k * (n + 1)] = 1
    return _poly_mul(poly, last)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out
