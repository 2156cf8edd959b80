"""Exact metric geometry of the colored flip graph.

The flip graph is the Schreier graph of the group action: the Hasse
diagram of the representative lattice plus one wrap edge per choice of
the leading bits.  Its distance has a closed form, its diameter is
(n+1)(n+4)/2, and color reversal carries every vertex to an antipode.
"""

from tftflip.flipgraph import (
    antipode,
    bfs_diameter,
    bfs_distance,
    build_graph,
    colored_edges,
    diameter,
    distance_formula,
    wrap_edges,
    write_export,
)
from tftflip.representatives import identity_rep, longest_rep

n = 3

g = build_graph(n)
print(f"flip graph on {len(g.steps[0])} vertices, "
      f"{sum(1 for _ in colored_edges(g))} colored edges")
print(f"wrap edges (through the stabilizer): {sorted(wrap_edges(n))[:2]} ...")
print()

ident, top = identity_rep(n), longest_rep(n)
print(f"distance from {ident} to {top}:")
print(f"  closed form: {distance_formula(ident, top, n)}")
print(f"  BFS:         {bfs_distance(n, ident, top)}")
print("  (the group length of the top element is "
      f"{sum((j + 1) * e for j, e in enumerate(top))}: the wrap edges "
      "are massive shortcuts)")
print()

print(f"diameter: closed form {diameter(n)}, "
      f"BFS from all {2**n} rotation-orbit sources {bfs_diameter(g)}")
print()

for r in (ident, (1, 0, 1, 2)):
    a = antipode(r, n)
    print(f"color-reversal antipode of {r}: {a} "
          f"at distance {distance_formula(r, a, n)}")
print()

write_export(g, "dot", f"flipgraph_n{n}.dot")
print(f"wrote flipgraph_n{n}.dot (render with graphviz: neato -Tsvg ...)")
