"""Seeded inputs of the workloads.

Every random number comes from the benchmark's own generator; the library
receives only the finished parameters (vectors wrapped by ``pure_state``,
matrices by ``isometry``). Each input carries its construction as output
slots (see ``oracles.slot_image``), which predict the map's images.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

import oracles as O

LINEAR, CONJUGATE = "linear", "conjugate"
BOUNDARY_SEED = 21
BOUNDARY_MAPS = 40
BOUNDARY_NOISE = 3e-9
NEGATIVE_NOISE = 1e-3
BOUNDARY_DIMS = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 3), (4, 4))


@dataclass
class Spec:
    """One map of a workload: how to build it and what it must classify as.

    ``expect`` is "positive", "negative", "indeterminate" or "boundary" (a
    canonical map a few 1e-9 away from its form, where any of the three
    verdict kinds is acceptable if it holds up).
    """

    label: str
    family: str                 # "sep" | "multi" | "pure_tr" | "pure_conj" | "replacer"
    dims: tuple
    out_dims: tuple
    expect: str
    slots: list
    tag: int = 0
    perm: tuple = ()
    noise: float = 0.0
    noise_seed: int = 0
    build: tuple = field(default=(), repr=False)  # (library function name, args)


def rand_vec(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def rand_iso(rng, d_out: int, d_in: int) -> np.ndarray:
    """First d_in columns of a Haar unitary (phase-fixed QR)."""
    g = rng.standard_normal((d_out, d_out)) + 1j * rng.standard_normal((d_out, d_out))
    q, r = np.linalg.qr(g)
    ph = np.diag(r) / np.abs(np.diag(r))
    return (q * ph)[:, :d_in]


def rand_flag(rng) -> str:
    return LINEAR if rng.random() < 0.5 else CONJUGATE


def legal(tag: int, m: int, n: int) -> bool:
    return {4: m >= n, 5: m <= n, 7: m == n}.get(tag, True)


def sep_slots(tag, r1, r2, u1, u2):
    """Output slots of bipartite forms 1-7 (r: density matrix, u: (V, flag)),
    as stated in the SepForm docstring."""
    c = lambda src, u: ("C", src, u[0], u[1])  # noqa: E731
    return {
        1: lambda: [("R", r1), ("R", r2)],
        2: lambda: [c(0, u1), ("R", r2)],
        3: lambda: [("R", r1), c(1, u2)],
        4: lambda: [c(1, u1), ("R", r2)],
        5: lambda: [("R", r1), c(0, u2)],
        6: lambda: [c(0, u1), c(1, u2)],
        7: lambda: [c(1, u1), c(0, u2)],
    }[tag]()


def _noise_fields(rng, expect, noise):
    return dict(expect=expect, noise=noise, noise_seed=int(rng.integers(2**31)))


def sep_spec(lib, rng, tag, m, n, expect="positive", noise=0.0):
    """Random parameters of form ``tag`` on (m, n); output dims equal input."""
    vec = {1: (m, n), 2: (None, n), 3: (m, None), 4: (None, n), 5: (m, None)}.get(tag, (None, None))
    iso = {2: ((m, m), None), 3: (None, (n, n)), 4: ((m, n), None), 5: (None, (n, m)),
           6: ((m, m), (n, n)), 7: ((m, n), (n, m))}.get(tag, (None, None))
    r = [rand_vec(rng, d) if d else None for d in vec]
    u = [(rand_iso(rng, *s), rand_flag(rng)) if s else None for s in iso]
    form = lib.SepForm(
        tag,
        r1=lib.pure_state(r[0]) if r[0] is not None else None,
        r2=lib.pure_state(r[1]) if r[1] is not None else None,
        u1=lib.isometry(*u[0]) if u[0] else None,
        u2=lib.isometry(*u[1]) if u[1] else None,
    )
    rho = [O.proj(v) if v is not None else None for v in r]
    return Spec(f"sep{tag}@{m}x{n}", "sep", (m, n), (m, n), slots=sep_slots(tag, *rho, *u),
                tag=tag, build=("canonical_sep", (form, (m, n))), **_noise_fields(rng, expect, noise))


def compatible_perm(rng, dims):
    """A permutation that only exchanges factors of equal dimension."""
    perm = [0] * len(dims)
    for d in sorted(set(dims)):
        idx = [i for i, x in enumerate(dims) if x == d]
        for a, b in zip(idx, rng.permutation(idx)):
            perm[a] = int(b) + 1
    return tuple(perm)


def multi_spec(lib, rng, dims, expect="positive", noise=0.0):
    perm = compatible_perm(rng, dims)
    us = [(rand_iso(rng, dims[j], dims[perm[j] - 1]), rand_flag(rng)) for j in range(len(dims))]
    form = lib.MultiForm(perm, tuple(lib.isometry(v, f) for v, f in us))
    slots = [("C", perm[j] - 1, v, f) for j, (v, f) in enumerate(us)]
    label = "multi@" + "x".join(map(str, dims))
    return Spec(label, "multi", tuple(dims), tuple(dims), slots=slots, perm=perm,
                build=("canonical_multi", (form, tuple(dims))), **_noise_fields(rng, expect, noise))


def pure_tr_spec(lib, rng, m, n, expect="positive", noise=0.0):
    r = rand_vec(rng, n)
    return Spec(f"tr@{m}to{n}", "pure_tr", (m,), (n,), slots=[("R", O.proj(r))],
                build=("trace_replacer", (lib.pure_state(r), (m,), (n,))),
                **_noise_fields(rng, expect, noise))


def pure_conj_spec(lib, rng, m, n, flag, expect="positive", noise=0.0):
    v = rand_iso(rng, n, m)
    return Spec(f"conj-{flag}@{m}to{n}", "pure_conj", (m,), (n,), slots=[("C", 0, v, flag)],
                build=("conjugation", (lib.isometry(v, flag),)), **_noise_fields(rng, expect, noise))


def replacer_spec(lib, rng, dims, entangled: bool, expect):
    """Trace replacement onto a fixed state of the whole multi-factor space:
    an entangled target (not a preserver) or a product target (a preserver
    too poor in images for the classifier to determine)."""
    if entangled:
        while True:
            r = rand_vec(rng, int(np.prod(dims)))
            if O.product_defect(O.proj(r), dims) > 0.05:
                break
    else:
        r = O.kron_all([rand_vec(rng, d)[:, None] for d in dims])[:, 0]
    kind = "entangled" if entangled else "product"
    return Spec(f"{kind}-replacer@" + "x".join(map(str, dims)), "replacer", tuple(dims), tuple(dims),
                slots=[("R", O.proj(r))], build=("trace_replacer", (lib.pure_state(r), dims, dims)),
                **_noise_fields(rng, expect, 0.0))


def boundary_specs(lib):
    """Canonical bipartite maps with 3e-9 coefficient noise, from a fixed
    seed: the same 40 maps whatever the workload seed."""
    rng = np.random.default_rng(BOUNDARY_SEED)
    out = []
    for _ in range(BOUNDARY_MAPS):
        m, n = BOUNDARY_DIMS[int(rng.integers(len(BOUNDARY_DIMS)))]
        tag = int(rng.choice([t for t in range(1, 8) if legal(t, m, n)]))
        out.append(sep_spec(lib, rng, tag, m, n, "boundary", BOUNDARY_NOISE))
    return out


def desk_specs(lib, seed: int):
    rng = np.random.default_rng(seed)
    sizes = (2, 3, 4)
    specs = [sep_spec(lib, rng, t, m, n) for t in range(1, 8)
             for m in sizes for n in sizes if legal(t, m, n)]
    specs += [multi_spec(lib, rng, dims) for dims in itertools.product((2, 3), repeat=3)]
    specs += [pure_tr_spec(lib, rng, m, n) for m in sizes for n in sizes]
    specs += [pure_conj_spec(lib, rng, m, n, f) for m in sizes for n in sizes if m <= n
              for f in (LINEAR, CONJUGATE)]
    for t in range(1, 8):
        m, n = [(m, n) for m in sizes for n in sizes if legal(t, m, n)][int(rng.integers(3))]
        specs.append(sep_spec(lib, rng, t, m, n, "negative", NEGATIVE_NOISE))
    specs += [multi_spec(lib, rng, dims, "negative", NEGATIVE_NOISE) for dims in ((2, 2, 2), (2, 3, 3))]
    specs.append(pure_tr_spec(lib, rng, 3, 3, "negative", NEGATIVE_NOISE))
    specs.append(pure_conj_spec(lib, rng, 2, 3, CONJUGATE, "negative", NEGATIVE_NOISE))
    specs += [replacer_spec(lib, rng, dims, True, "negative") for dims in ((2, 2), (2, 3), (3, 3))]
    specs += [replacer_spec(lib, rng, dims, False, "indeterminate") for dims in ((2, 2, 2), (2, 3, 2))]
    return specs + boundary_specs(lib)


def large_specs(lib, seed: int):
    rng = np.random.default_rng(seed)
    return [
        sep_spec(lib, rng, 2, 8, 8),
        sep_spec(lib, rng, 6, 8, 8),
        sep_spec(lib, rng, 7, 8, 8),
        multi_spec(lib, rng, (4, 4, 4)),
        *(sep_spec(lib, rng, t, 8, 8, "negative", NEGATIVE_NOISE) for t in (6, 2, 7, 3, 1)),
    ]


def verify_specs(lib, seed: int):
    """Most maps are on (3,3), so the medians of positive and negative calls
    fall inside one group of similar cost rather than between two."""
    rng = np.random.default_rng(seed)
    return [
        *(sep_spec(lib, rng, t, 3, 3) for t in (6, 7, 2, 3)),
        sep_spec(lib, rng, 6, 4, 4),
        multi_spec(lib, rng, (2, 2, 2)),
        pure_conj_spec(lib, rng, 3, 4, LINEAR),
        pure_conj_spec(lib, rng, 2, 4, CONJUGATE),
        *(sep_spec(lib, rng, t, 3, 3, "negative", NEGATIVE_NOISE) for t in (6, 7, 2)),
        replacer_spec(lib, rng, (3, 3), True, "negative"),
        multi_spec(lib, rng, (2, 2, 2), "negative", NEGATIVE_NOISE),
        pure_conj_spec(lib, rng, 3, 3, LINEAR, "negative", NEGATIVE_NOISE),
    ]


def perturb(lib, op, spec):
    """Add the spec's seeded coefficient noise (in place: the map is fresh)."""
    if not spec.noise:
        return op
    noise = np.random.default_rng(spec.noise_seed).standard_normal(op.coeff.shape)
    noise *= spec.noise
    coeff = op.coeff
    coeff += noise
    del noise
    return lib.make_superop(op.in_dims, op.out_dims, coeff)
