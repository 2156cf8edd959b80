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
from functools import cached_property
from itertools import combinations, product

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


def chord(x: int, y: int, m: int) -> Chord:
    """Chord between vertices x and y of an m-gon (labels taken mod m)."""
    c = frozenset((x % m, y % m))
    _check_chord(c, m)
    return c


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


@dataclass(frozen=True)
class PhiVector:
    """Image of a colored triangulation under phi: a center mod n+4 and n bits."""

    n: int
    a: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 <= self.a < self.n + 4:
            raise ValueError(f"center {self.a} out of range mod {self.n + 4}")
        if len(self.bits) != self.n or any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"need {self.n} bits in {{0,1}}, got {self.bits}")

    def __str__(self) -> str:
        return f"{self.a}:" + "".join(str(b) for b in self.bits)


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

    @property
    def m(self) -> int:
        """Number of polygon vertices."""
        return self.n + 4

    # -- structure ---------------------------------------------------

    def _neighbours(self) -> list[set[int]]:
        """Vertex -> the vertices it shares a boundary edge or chord with."""
        m = self.m
        nbrs = [{(v - 1) % m, (v + 1) % m} for v in range(m)]
        for x, y in self.chords:
            nbrs[x].add(y)
            nbrs[y].add(x)
        return nbrs

    def triangles(self) -> list[frozenset]:
        """All triangular faces, as vertex triples in lexicographic order.

        With vertices in convex position every 3-cycle of edges bounds
        an empty triangle, so faces are exactly the pairwise-connected
        triples.
        """
        nbrs = self._neighbours()
        triples = sorted(
            (x, y, z)
            for x in range(self.m)
            for y in nbrs[x]
            if y > x
            for z in nbrs[x] & nbrs[y]
            if z > y
        )
        return [frozenset(t) for t in triples]

    def violations(self) -> list[str]:
        """Names of violated invariants; empty means valid."""
        return list(self._violations)

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        # the fields are immutable, so validity is computed once
        m = self.m
        if len(self.chords) != self.n + 1:
            return (f"wrong chord count: {len(self.chords)} != {self.n + 1}",)
        if len(set(self.chords)) != self.n + 1:
            return ("duplicate chords",)
        for c1, c2 in combinations(self.chords, 2):
            if chords_cross(c1, c2, m):
                return (f"crossing chords {sorted(c1)} and {sorted(c2)}",)
        # n+1 pairwise non-crossing chords triangulate the polygon
        out = []
        chord_set = set(self.chords)
        tris = self.triangles()
        for t in tris:
            if all(frozenset(p) in chord_set for p in combinations(sorted(t), 2)):
                out.append(f"inner triangle {sorted(t)} with three chord sides")
        if not is_short(self.chords[0], m):
            out.append("chord 0 is not short")
        else:
            faces = set(tris)
            for i in range(1, self.n + 1):
                # two distinct chords lie in a common face exactly when
                # their union is that face
                if self.chords[i - 1] | self.chords[i] not in faces:
                    out.append(
                        f"improper coloring: chord {i} shares no triangle with chord {i - 1}"
                    )
                    break
        return tuple(out)

    def is_valid(self) -> bool:
        return not self._violations

    def short_chords(self) -> list[Chord]:
        return [c for c in self.chords if is_short(c, self.m)]

    # -- phi ---------------------------------------------------------

    def phi(self) -> PhiVector:
        """Encode as (center of chord 0; growth bits).  Requires validity."""
        m = self.m
        a = short_center(self.chords[0], m)
        bits = []
        k = mm = 1  # chord i-1 is [a-k, a+mm]
        for i in range(1, self.n + 1):
            grown_left = chord(a - k - 1, a + mm, m)
            grown_right = chord(a - k, a + mm + 1, m)
            if self.chords[i] == grown_left:
                bits.append(0)
                k += 1
            elif self.chords[i] == grown_right:
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
        """
        if not 0 <= i <= self.n:
            raise ValueError(f"color {i} out of range 0..{self.n}")
        if not self.is_valid():
            raise ValueError("flip requires a valid triangulation")
        x, y = self.chords[i]
        nbrs = self._neighbours()
        # the apexes of the chord's two triangles (as in triangles(),
        # every 3-cycle of edges bounds a face) span the other diagonal
        apexes = frozenset(nbrs[x] & nbrs[y])
        assert len(apexes) == 2, "each chord lies in exactly two triangles"
        flipped = ColoredTriangulation(
            self.n, self.chords[:i] + (apexes,) + self.chords[i + 1 :]
        )
        return flipped if flipped.is_valid() else self

    def rotate(self, k: int) -> "ColoredTriangulation":
        """Rotate all vertex labels by k (mod n+4); colors are preserved."""
        m = self.m
        return ColoredTriangulation(
            self.n,
            tuple(frozenset((x + k) % m for x in c) for c in self.chords),
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
    m = v.n + 4
    chords = [chord(v.a - 1, v.a + 1, m)]
    k = mm = 1
    for b in v.bits:
        if b == 0:
            k += 1
        else:
            mm += 1
        chords.append(chord(v.a - k, v.a + mm, m))
    return ColoredTriangulation(v.n, tuple(chords))


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
