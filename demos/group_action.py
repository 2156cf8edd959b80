"""The affine Weyl group behind the flips.

The flip operations satisfy the defining relations of the affine
Coxeter group of type C: involutions, commutations, one order-3 braid
between adjacent middle generators and order-4 braids at both ends.
The group acts transitively on the triangulations, and the stabilizer
of the star has index (n+4) * 2^n -- computed three independent ways.
"""

from tftflip.coxeter import (
    act_on_phi,
    base_vector,
    coxeter_length,
    format_word,
    g0_word,
    gn_word,
    gram_and_volumes,
    relation_words,
    stabilizer_generators,
    word_to_affine,
)
from tftflip.flipgraph import bfs_distances, build_graph, vertex_id
from tftflip.representatives import phi_to_rep

n = 3

# each relation word realizes the identity map
relations = relation_words(n)
broken = [name for name, word in relations if not word_to_affine(n, word).is_identity()]
print(f"defining relations checked: {len(relations)}, failures: {broken}")

# the generators realize as signed permutations with even translations;
# for example the long stabilizer element g_0
m = word_to_affine(n, g0_word(n))
print(f"g_0 as an affine map: (10, 20, 30) -> {m.apply((10, 20, 30))}"
      "   i.e. x -> (x3 - 2, x2, x1 + 2)")
print(f"g_0 word length {len(g0_word(n))}, oracle length {coxeter_length(m)}")
print()

# three computations of the same index; the orbit is read from the
# flip graph's step tables, whose breadth-first search from the star
# raises unless it reaches every vertex
star = base_vector(n)
orbit = len(bfs_distances(build_graph(n), vertex_id(phi_to_rep(star), n)))
_, det_b, ratio = gram_and_volumes(n)
print(f"orbit of the star:        {orbit}")
print(f"volume ratio (exact):     {ratio}")
print(f"counting formula:         {(n + 4) * 2 ** n}")
print()

# the stabilizer generators really fix the star
for word in stabilizer_generators(n):
    shown = format_word(word)
    shown = shown if len(shown) < 30 else shown[:27] + "..."
    print(f"  fixes star: {act_on_phi(word, star) == star}   word: {shown}")

# g_n is a translation: trivial-looking on the star, far from trivial
gn = word_to_affine(n, gn_word(n))
print()
print(f"g_n translation part: {gn.shift}, length {coxeter_length(gn)}")
