"""Property checks of classifier and verifier outputs, through the oracles.

A positive must name the construction that generated the map (tag and grid,
permutation, kind and flags) and reproduce its images on random product
inputs; a negative's witness must be impure by more than ``TOL``.
"""

import numpy as np

import oracles as O
from inputs import sep_slots

TOL = 1e-8          # the classifiers' default tolerance
IMAGE_TOL = 1e-6    # max-abs image agreement for verified positives
EXPECTED_GRID = {1: ("a", "a′"), 2: ("c", "a′"), 3: ("a", "b′"), 4: ("a", "c′"),
                 5: ("b", "a′"), 6: ("c", "b′"), 7: ("b", "c′")}
POSITIVE = ("trace_replacer", "conjugation", "form", "multi_form")


def verdict(c) -> str:
    if c.kind in POSITIVE:
        return "positive"
    if c.kind == "not_preserver":
        return "negative"
    return "indeterminate"


def _iso(u):
    return (u.matrix, u.flag) if u is not None else None


def _rho(p):
    return O.proj(p.vector) if p is not None else None


def recovered_slots(c):
    if c.kind == "trace_replacer":
        return [("R", _rho(c.replacement))]
    if c.kind == "conjugation":
        return [("C", 0, c.isometry.matrix, c.isometry.flag)]
    if c.kind == "form":
        f = c.form
        return sep_slots(f.tag, _rho(f.r1), _rho(f.r2), _iso(f.u1), _iso(f.u2))
    return [("C", p - 1, u.matrix, u.flag) for p, u in zip(c.form.perm, c.form.isometries)]


def slot_shape(slots):
    return [s[:2] + (s[3],) if s[0] == "C" else ("R",) for s in slots]


def images_agree(slots_want, slots_got, coeff, dims, out_dim, rng, tries=2):
    """Max deviation between the generating construction, the recovered one
    and the map itself on random product inputs."""
    worst = 0.0
    for _ in range(tries):
        factors = [O.proj(_unit(rng, d)) for d in dims]
        want = O.slot_image(slots_want, factors)
        actual = O.apply(coeff, O.kron_all(factors), out_dim)
        worst = max(worst, float(np.max(np.abs(actual - want))))
        if slots_got is not None:
            worst = max(worst, float(np.max(np.abs(O.slot_image(slots_got, factors) - want))))
    return worst


def _unit(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def check_positive(spec, c, coeff, rng):
    """None when the positive verdict holds up, else what is wrong."""
    if spec.family == "sep":
        if c.kind != "form" or c.tag != spec.tag or tuple(c.grid) != EXPECTED_GRID[spec.tag]:
            return f"{spec.label}: got {c.kind} tag {c.tag} grid {c.grid}"
    elif spec.family == "multi":
        if c.kind != "multi_form" or tuple(c.form.perm) != spec.perm:
            return f"{spec.label}: got {c.kind}"
    elif c.kind != {"pure_tr": "trace_replacer", "pure_conj": "conjugation"}[spec.family]:
        return f"{spec.label}: got {c.kind}"
    got = recovered_slots(c)
    if slot_shape(got) != slot_shape(spec.slots):
        return f"{spec.label}: recovered slots {slot_shape(got)} != {slot_shape(spec.slots)}"
    dev = images_agree(spec.slots, got, coeff, spec.dims, int(np.prod(spec.out_dims)), rng)
    if dev > IMAGE_TOL:
        return f"{spec.label}: images deviate by {dev:.2e}"
    return None


def witness_defect(coeff, factors, out_dims) -> float:
    """Product-purity defect of the image of (x) factors (density matrices)."""
    img = O.apply(coeff, O.kron_all(list(factors)), int(np.prod(out_dims)))
    return O.product_defect(img, out_dims)


def witness_factors(c):
    w = c.witness
    return (O.proj(w.vector),) if hasattr(w, "vector") else tuple(O.proj(p.vector) for p in w)


def certified(c, coeff, out_dims) -> bool:
    return c.witness is not None and witness_defect(coeff, witness_factors(c), out_dims) > TOL
