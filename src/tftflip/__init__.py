"""Colored inner-triangle-free triangulations of convex polygons.

The package models triangulations of a convex (n+4)-gon in which no
triangle has three diagonal sides, together with a proper chord
coloring by 0..n.  An affine Weyl group of type C acts on them by
colored flips; the orbit structure turns the colored flip graph into a
Schreier graph whose vertices are exponent vectors, ordered by
dominance into a distributive lattice (the ``meet-join`` check).
Distances and the diameter have exact closed forms, each cross-checked
against brute-force oracles in the test suite.
"""

from .geometry import (
    ColoredTriangulation,
    PhiVector,
    enumerate_ctft,
    phi_inv,
)
from .coxeter import AffineMap, act_on_phi, coxeter_length, word_to_affine
from .representatives import (
    all_reps,
    apply_generator,
    rep_length,
    rep_to_phi,
    phi_to_rep,
)
from .flipgraph import build_graph, distance_formula, diameter

__all__ = [
    "ColoredTriangulation",
    "PhiVector",
    "enumerate_ctft",
    "phi_inv",
    "AffineMap",
    "act_on_phi",
    "coxeter_length",
    "word_to_affine",
    "all_reps",
    "apply_generator",
    "rep_length",
    "rep_to_phi",
    "phi_to_rep",
    "build_graph",
    "distance_formula",
    "diameter",
]

__version__ = "0.1.0"
