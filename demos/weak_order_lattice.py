"""The coset representatives as a graded distributive lattice.

Each triangulation corresponds to a coset of the star's stabilizer,
with a distinguished representative a_0^e0 a_1^e1 ... a_n^en encoded
as the exponent tuple.  Under dominance of suffix sums these form a
self-dual distributive lattice (the ``meet-join`` check of ``tft
verify`` confirms it), and the length generating function factors
as (1+q)(1+q^2)...(1+q^n) (1 + q^{n+1} + ... + q^{(n+3)(n+1)}).
"""

from tftflip.representatives import (
    all_reps,
    covers,
    dual,
    identity_rep,
    join,
    leq,
    longest_rep,
    meet,
    rank_polynomial,
    rep_length,
)

n = 3

rs = all_reps(n)
print(f"representatives: {len(rs)}, lengths 0..{rep_length(longest_rep(n))}")
print()

r, s = (1, 0, 0, 1), (0, 1, 1, 0)
print(f"{r} <= {s}: {leq(r, s)}   {s} <= {r}: {leq(s, r)}   (incomparable)")
print(f"  meet: {meet(r, s, n)}   join: {join(r, s, n)}")
lhs = rep_length(meet(r, s, n)) + rep_length(join(r, s, n))
print(f"  modularity: l(meet) + l(join) = {lhs} = l(r) + l(s) = "
      f"{rep_length(r) + rep_length(s)}")
print()

print("the bottom of the Hasse diagram:")
frontier = [identity_rep(n)]
for level in range(4):
    print(f"  length {level}: {sorted(frontier)}")
    frontier = sorted({s for r in frontier for s in covers(r, n)})
print()

# complementing every exponent turns the lattice upside down
w = (1, 0, 1, 2)
print(f"dual of {w} is {dual(w, n)} "
      f"(lengths {rep_length(w)} and {rep_length(dual(w, n))})")
print()

coeffs = rank_polynomial(n)
print("rank polynomial coefficients:")
print(" ", coeffs)
print(f"  palindromic: {coeffs == coeffs[::-1]}, total {sum(coeffs)}")
