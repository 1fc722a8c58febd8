"""Classifying multipartite preservers: factor permutations with per-slot
isometric conjugations, read off one column of the Choi matrix (which input
feeds which output slot) and verified by exact reconstruction.  An output
slot fed by no input factor is indeterminate.

Run:  python demos/05_multipartite_preservers.py
"""

import numpy as np

from preservers import (
    MultiForm,
    canonical_multi,
    classify_multi_preserver,
    pure_state,
    random_isometry,
    trace_replacer,
)

print("== a three-factor cyclic permutation with mixed flags ==")
dims = (2, 2, 2)
perm = (2, 3, 1)
flags = ("linear", "conjugate", "linear")
isos = tuple(random_isometry(dims[j], dims[perm[j] - 1], seed=j, flag=flags[j])
             for j in range(3))
op = canonical_multi(MultiForm(perm, isos), dims)
c = classify_multi_preserver(op)
print("recovered permutation:", c.form.perm)
print("recovered flags:", tuple(u.flag for u in c.form.isometries))
print("reconstruction residual:", f"{c.residual:.1e}")
print("dimension law dim_in(perm[j]) <= dim_out(j):",
      all(dims[c.form.perm[j] - 1] <= dims[j] for j in range(3)))

print("\n== mixed dimensions constrain the permutation ==")
dims = (2, 3, 2)
perm = (3, 2, 1)  # swaps the two dimension-2 slots, fixes the 3
isos = tuple(random_isometry(dims[j], dims[perm[j] - 1], seed=10 + j) for j in range(3))
op = canonical_multi(MultiForm(perm, isos), dims)
c = classify_multi_preserver(op)
print("dims", dims, "-> recovered permutation", c.form.perm)

print("\n== degenerate images cannot be classified ==")
target = pure_state(np.kron(np.kron([1, 0], [1, 0, 0]), [1, 0]))
flat = trace_replacer(target, (2, 3, 2), (2, 3, 2))
c = classify_multi_preserver(flat)
print("constant map:", c.kind)
print("reason:", c.detail)
