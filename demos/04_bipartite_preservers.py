"""Classifying bipartite separable-pure-state preservers.

One column of the Choi matrix, at its largest diagonal entry, holds the
wiring: for each input and output slot, the slice of that column that is an
isometry (directly, or after a partial transpose on the input) says which
input feeds which output slot.  Those feeds name the canonical form and
label its cell in a 3x3 grid, and the parameters are read off the same
column and verified by exact reconstruction.

Run:  python demos/04_bipartite_preservers.py
"""

import numpy as np

from preservers import (
    SepForm,
    apply,
    canonical_sep,
    check_both_directions,
    classify_sep_preserver,
    doubling_obstruction_check,
    from_action,
    is_product_pure,
    partial_transpose,
    pure_state,
    random_isometry,
    random_pure,
    swap_theta,
    tensor,
    trace_replacer,
)

print("== the seven constructive forms and their grid cells ==")
forms = {
    1: SepForm(1, r1=random_pure(2, 1), r2=random_pure(3, 2)),
    2: SepForm(2, u1=random_isometry(2, 2, 3), r2=random_pure(3, 4)),
    3: SepForm(3, r1=random_pure(2, 5), u2=random_isometry(3, 3, 6)),
    4: SepForm(4, u1=random_isometry(3, 3, 7), r2=random_pure(3, 8)),
    5: SepForm(5, r1=random_pure(2, 9), u2=random_isometry(3, 2, 10)),
    6: SepForm(6, u1=random_isometry(2, 2, 11), u2=random_isometry(3, 3, 12, "conjugate")),
    7: SepForm(7, u1=random_isometry(2, 2, 13), u2=random_isometry(2, 2, 14)),
}
dims_of = {1: (2, 3), 2: (2, 3), 3: (2, 3), 4: (3, 3), 5: (2, 3), 6: (2, 3), 7: (2, 2)}
for tag, form in forms.items():
    op = canonical_sep(form, dims_of[tag])
    c = classify_sep_preserver(op)
    print(f"form {tag} on dims {dims_of[tag]}: recovered tag {c.form.tag}, "
          f"grid ({c.grid[0]},{c.grid[1]}), residual {c.residual:.1e}")

print("\n== the partial transpose is a both-directions preserver ==")
pt = from_action((2, 3), (2, 3), lambda a: partial_transpose(a, 1))
c = classify_sep_preserver(pt)
print(f"classified as form {c.form.tag} with flags "
      f"({c.form.u1.flag}, {c.form.u2.flag}); both directions:",
      check_both_directions(c))

print("\n== the swap is form 7 ==")
sw = from_action((3, 3), (3, 3), swap_theta)
c = classify_sep_preserver(sw)
print(f"classified as form {c.form.tag}; both directions:", check_both_directions(c))

print("\n== replacing with an entangled projection is refused ==")
bell = pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2))
bad = trace_replacer(bell, (2, 2), (2, 2))
c = classify_sep_preserver(bad)
p, q = c.witness
img = apply(bad, tensor(p.projection, q.projection))
print("kind:", c.kind, "| witness image is product pure:", is_product_pure(img)[0])

print("\n== why no map can conjugate both slices at once ==")
print("tensor-square obstruction holds at m=2:", doubling_obstruction_check(2))
print("and padded into m=3:", doubling_obstruction_check(3))
