"""Words in the affine C-type generators and their realizations.

The group is generated by s_0..s_n with s_i^2 = 1, commuting braid
relations for |i-j| > 1, order-3 braids for adjacent middle generators
and order-4 braids at both ends.  It is realized faithfully on R^n by

    s_0: negate x_1,   s_i: swap x_i and x_{i+1},   s_n: x_n -> 2 - x_n,

composed here as signed permutations with even integer translations.
The same words also act on phi vectors, through the representative
action of :mod:`tftflip.representatives`, the phi-conjugate of the
geometric flip (cross-checked against :mod:`tftflip.geometry` in the
test suite).  ``tft verify`` compares it with the flips and with the
flip graph's step tables (``action-vs-geometry``); its other word
checks walk the graph and count the base's orbit on it (``FlipGraph``).

The exact word-length function counts reflection hyperplanes
separating the base alcove 0 < x_1 < ... < x_n < 1 from its image,
in integer arithmetic on an interior point scaled by n+1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import mod
from typing import Iterator, Sequence

from . import representatives as reps
from .geometry import PhiVector

__all__ = [
    "AffineMap",
    "word_to_affine",
    "act_on_phi",
    "base_vector",
    "coxeter_length",
    "left_descents",
    "reduced_word",
    "g0_word",
    "gn_word",
    "stabilizer_generators",
    "relation_words",
    "gram_and_volumes",
    "format_word",
]


def _check_word(word: Sequence[int], n: int) -> None:
    if n < 2:
        raise ValueError("group features require n >= 2")
    for letter in word:
        if not 0 <= letter <= n:
            raise ValueError(f"letter {letter} out of range 0..{n}")


def format_word(word: Sequence[int]) -> str:
    return " ".join(str(i) for i in word)


@dataclass(frozen=True)
class AffineMap:
    """x |-> M x + t with M a signed permutation and t in (2Z)^n.

    Row i of M reads source coordinate ``cols[i]`` with sign
    ``signs[i]``.  The type is closed under composition, and equality
    of maps is the group-equality oracle: the realization is faithful.
    """

    n: int
    cols: tuple[int, ...]
    signs: tuple[int, ...]
    shift: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.cols) != list(range(self.n)):
            raise ValueError("cols must be a permutation")
        if not all(map((-1, 1).__contains__, self.signs)):
            raise ValueError("signs must be +-1")
        if any(map(mod, self.shift, repeat(2))):
            raise ValueError("translation entries must be even")

    @staticmethod
    def identity(n: int) -> "AffineMap":
        return AffineMap(n, tuple(range(n)), (1,) * n, (0,) * n)

    @staticmethod
    def generator(n: int, i: int) -> "AffineMap":
        cols = list(range(n))
        signs = [1] * n
        shift = [0] * n
        if i == 0:
            signs[0] = -1
        elif i == n:
            signs[n - 1] = -1
            shift[n - 1] = 2
        elif 0 < i < n:
            cols[i - 1], cols[i] = cols[i], cols[i - 1]
        else:
            raise ValueError(f"generator index {i} out of range 0..{n}")
        return AffineMap(n, tuple(cols), tuple(signs), tuple(shift))

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: (self . other)(x) = self(other(x))."""
        rows = list(zip(self.cols, self.signs, self.shift))
        return AffineMap(
            self.n,
            tuple(other.cols[c] for c, _, _ in rows),
            tuple(s * other.signs[c] for c, s, _ in rows),
            tuple(s * other.shift[c] + t for c, s, t in rows),
        )

    def apply(self, x: Sequence) -> tuple:
        return tuple(
            s * x[c] + t for s, c, t in zip(self.signs, self.cols, self.shift)
        )

    def is_identity(self) -> bool:
        return self == AffineMap.identity(self.n)


@lru_cache(maxsize=16)
def _supports(n: int) -> tuple[tuple, ...]:
    """Per generator, (c, cols[c], signs[c], shift[c]) for each coordinate c it moves."""
    return tuple(
        tuple(f for f in zip(range(n), g.cols, g.signs, g.shift) if f[1:] != (f[0], 1, 0))
        for g in (AffineMap.generator(n, i) for i in range(n + 1))
    )


def word_to_affine(n: int, word: Sequence[int]) -> AffineMap:
    """Product of generator maps, leftmost letter outermost.

    Right-multiplying the partial product by s_i rewrites only the rows
    that read a coordinate s_i moves (one for s_0 and s_n, two for a
    swap), found through ``row[c]``, the row reading coordinate c.  The
    finished map is validated once.
    """
    _check_word(word, n)
    supports = _supports(n)
    cols, signs, shift, row = list(range(n)), [1] * n, [0] * n, list(range(n))
    for letter in word:
        moved = [(row[c], col, sign, t) for c, col, sign, t in supports[letter]]
        for r, col, sign, t in moved:  # every row is read before any is rewritten
            cols[r] = col
            shift[r] += signs[r] * t
            signs[r] *= sign
            row[col] = r
    return AffineMap(n, tuple(cols), tuple(signs), tuple(shift))


# -- action on phi vectors ------------------------------------------


def act_on_phi(word: Sequence[int], v: PhiVector) -> PhiVector:
    """Apply a word to a phi vector, rightmost letter first."""
    n = v.n
    _check_word(word, n)
    r = reps.phi_to_rep(v)  # valid whenever v is
    for letter in reversed(word):
        r = reps._apply_generator(letter, r, n)
    return reps.rep_to_phi(r, n)


def base_vector(n: int) -> PhiVector:
    """Phi vector of the canonical star triangulation."""
    return PhiVector(n, 0, (0,) * n)


# -- exact length ---------------------------------------------------


def _scaled_image(m: AffineMap) -> tuple[list[int], list[int]]:
    """The interior point p_i = i/(n+1) of the base alcove and its
    image under ``m``, both scaled by n+1.

    No reflection hyperplane passes through either point, so every
    hyperplane count below is a difference of floors.
    """
    k = m.n + 1
    p = list(range(1, k))
    q = [s * p[c] + t * k for s, c, t in zip(m.signs, m.cols, m.shift)]
    return p, q


def coxeter_length(m: AffineMap) -> int:
    """Exact group length of the element realized by ``m``.

    Counts the reflection hyperplanes x_i = k, x_i - x_j = 2k and
    x_i + x_j = 2k separating the base alcove from its image: after
    scaling by n+1, the multiples of n+1 (or 2(n+1)) strictly between
    the coordinates of an interior point and of its image.
    """
    n = m.n
    p, q = _scaled_image(m)
    k, k2 = n + 1, 2 * (n + 1)
    total = sum(abs(y // k - x // k) for x, y in zip(p, q))
    for i in range(n):
        for j in range(i + 1, n):
            total += abs((q[i] - q[j]) // k2 - (p[i] - p[j]) // k2)
            total += abs((q[i] + q[j]) // k2 - (p[i] + p[j]) // k2)
    return total


def _descents(q: list[int], n: int) -> Iterator[int]:
    """The left descents, in increasing order, of the element with
    scaled image point ``q``: s_i is one exactly when its wall of the
    base alcove (x_1 = 0, x_i = x_{i+1}, x_n = 1) separates the alcove
    from its image, which one sign of ``q`` decides."""
    if q[0] < 0:
        yield 0
    yield from (i for i in range(1, n) if q[i - 1] > q[i])
    if q[n - 1] > n + 1:
        yield n


def left_descents(m: AffineMap) -> list[int]:
    """The generators s_i with l(s_i m) < l(m), in increasing order
    (Bjoerner-Brenti, Combinatorics of Coxeter Groups, ch. 8)."""
    return list(_descents(_scaled_image(m)[1], m.n))


def reduced_word(m: AffineMap) -> tuple[int, ...]:
    """A word of minimum length for ``m``, peeling its smallest left
    descent s_i off the scaled image point ``q``, which s_i moves in
    place, until ``q`` has none.  Then ``q`` lies in the base alcove,
    which only the identity maps to itself (the group acts simply
    transitively on alcoves), so it is the base point; a stop anywhere
    else means the descent rule is broken."""
    n, supports = m.n, _supports(m.n)
    p, q = _scaled_image(m)
    word = []
    while (i := next(_descents(q, n), None)) is not None:
        word.append(i)
        for c, x in [(c, sign * q[col] + t * (n + 1)) for c, col, sign, t in supports[i]]:
            q[c] = x
    if q != p:
        raise RuntimeError(f"no descent at {q}, not the base point: oracle broken")
    return tuple(word)


# -- stabilizer of the base triangulation ---------------------------


def g0_word(n: int) -> tuple[int, ...]:
    """s_0 s_1 ... s_{n-2} s_n s_{n-1} s_n s_{n-2} ... s_1 s_0."""
    rising = list(range(0, n - 1))
    return tuple(rising + [n, n - 1, n] + rising[::-1])


def gn_word(n: int) -> tuple[int, ...]:
    """(s_n s_{n-1} ... s_0)^(n+4)."""
    return tuple(range(n, -1, -1)) * (n + 4)


def stabilizer_generators(n: int) -> list[tuple[int, ...]]:
    """Generator words of the stabilizer of the star triangulation."""
    _check_word((), n)
    return [g0_word(n)] + [(i,) for i in range(1, n)] + [gn_word(n)]


# -- defining relations ---------------------------------------------


def relation_words(n: int) -> list[tuple[str, tuple[int, ...]]]:
    """The defining relations, as words that must equal the identity."""
    rels = [(f"s{i}^2", (i, i)) for i in range(n + 1)]
    for i in range(n + 1):
        for j in range(i + 2, n + 1):
            rels.append((f"(s{i} s{j})^2", (i, j) * 2))
    for i in range(1, n - 1):
        rels.append((f"(s{i} s{i + 1})^3", (i, i + 1) * 3))
    for i in (0, n - 1):
        rels.append((f"(s{i} s{i + 1})^4", (i, i + 1) * 4))
    return rels


# -- exact volume arithmetic ----------------------------------------


def _det(rows: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    a = [row[:] for row in rows]
    size = len(a)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, size):
            factor = a[r][col] * inv
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def _exact_sqrt(x: Fraction) -> Fraction:
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise RuntimeError(f"{x} is not a rational square")
    return Fraction(rn, rd)


def gram_and_volumes(n: int) -> tuple[int, Fraction, Fraction]:
    """Gram determinants of the two fundamental regions and their
    exact volume ratio.

    Returns ``(det A, det B, vol ratio)`` where A = (min(i, j)) is the
    n x n Gram matrix of the alcove simplex, B is the (n-1) x (n-1)
    Gram matrix (4/n) min(i, j) min(n-i, n-j) of the prism base, and
    the ratio is the index of the stabilizer: it must equal
    (n+4) * 2^n.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    A = [[Fraction(min(i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
    det_a = _det(A)
    if det_a.denominator != 1:
        raise RuntimeError(f"det A = {det_a} is not an integer")
    B = [
        [
            Fraction(4, n) * min(i, j) * min(n - i, n - j)
            for j in range(1, n)
        ]
        for i in range(1, n)
    ]
    det_b = _det(B)
    vol1 = _exact_sqrt(det_a) / math.factorial(n)
    # the prism height direction contributes sqrt(n); fold it into the
    # radicand so everything stays rational
    vol2 = (
        Fraction(2 * (n + 4), n)
        * _exact_sqrt(n * det_b)
        / math.factorial(n - 1)
    )
    return int(det_a), det_b, vol2 / vol1
