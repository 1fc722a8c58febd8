"""Shared test helpers: random canonical-form generators and oracle utilities.

The oracles here deliberately avoid the library's own computational paths:
partial traces are raw index sums, purity is checked through the projector
identity, and Kronecker products come from the definitional double loop.
"""

import itertools
import math
from functools import reduce

import numpy as np

from preservers import (
    CONJUGATE,
    LINEAR,
    SepForm,
    basis,
    conjugation,
    isometry,
    make_superop,
    random_isometry,
    random_pure,
)

EXPECTED_GRID = {
    1: ("a", "a′"),
    2: ("c", "a′"),
    3: ("a", "b′"),
    4: ("a", "c′"),
    5: ("b", "a′"),
    6: ("c", "b′"),
    7: ("b", "c′"),
}


def legal_dims(tag: int, m: int, n: int) -> bool:
    if tag == 4:
        return m >= n
    if tag == 5:
        return m <= n
    if tag == 7:
        return m == n
    return True


def random_flag(rng) -> str:
    return str(rng.choice([LINEAR, CONJUGATE]))


def random_sep_form(tag: int, m: int, n: int, rng) -> SepForm:
    if tag == 1:
        return SepForm(1, r1=random_pure(m, rng), r2=random_pure(n, rng))
    if tag == 2:
        return SepForm(2, u1=random_isometry(m, m, rng, random_flag(rng)),
                       r2=random_pure(n, rng))
    if tag == 3:
        return SepForm(3, r1=random_pure(m, rng),
                       u2=random_isometry(n, n, rng, random_flag(rng)))
    if tag == 4:
        return SepForm(4, u1=random_isometry(m, n, rng, random_flag(rng)),
                       r2=random_pure(n, rng))
    if tag == 5:
        return SepForm(5, r1=random_pure(m, rng),
                       u2=random_isometry(n, m, rng, random_flag(rng)))
    if tag == 6:
        return SepForm(6, u1=random_isometry(m, m, rng, random_flag(rng)),
                       u2=random_isometry(n, n, rng, random_flag(rng)))
    if tag == 7:
        return SepForm(7, u1=random_isometry(m, n, rng, random_flag(rng)),
                       u2=random_isometry(n, m, rng, random_flag(rng)))
    raise ValueError(tag)


def random_multiform_setup(rng, n=3, dim_choices=(2, 3)):
    """Random dims plus a dimension-compatible permutation (cycles must stay
    within equal-dimension slots) and per-slot flags."""
    dims = tuple(int(d) for d in rng.choice(dim_choices, size=n))
    groups = {}
    for i, d in enumerate(dims):
        groups.setdefault(d, []).append(i)
    perm = [0] * n
    for idxs in groups.values():
        shuffled = list(idxs)
        rng.shuffle(shuffled)
        for a, b in zip(idxs, shuffled):
            perm[a] = b + 1
    flags = [random_flag(rng) for _ in range(n)]
    return dims, tuple(perm), flags


def leaky_embedding(in_dims, w_seed: int, ratio: float, tol: float = 1e-8):
    """The embedding of ``in_dims`` into the same factors with the last one
    grown by one, plus a leak onto the unused output direction: the image of
    a pure state psi has purity defect tol * |<w|psi>|^2 / ratio, so it is
    impure at ``tol`` exactly when |<w|psi>|^2 > ratio, for the product pure
    state w drawn from ``w_seed``.  Failures are rare for a ratio near 1, so
    a scan meets its first one only after many inputs."""
    in_dims = tuple(in_dims)
    out_dims = in_dims[:-1] + (in_dims[-1] + 1,)
    v = reduce(np.kron, [np.eye(d) for d in in_dims[:-1]]
               + [np.eye(in_dims[-1] + 1, in_dims[-1])])
    rng = np.random.default_rng(w_seed)
    w = reduce(np.kron, [random_pure(d, rng).vector for d in in_dims])
    u = np.zeros(math.prod(out_dims))
    u[in_dims[-1]] = 1.0
    leak = np.outer(basis.coords(np.outer(u, u)), basis.coords(np.outer(w, w.conj())))
    coeff = conjugation(isometry(v), in_dims, out_dims).coeff + (tol / ratio) * leak
    return make_superop(in_dims, out_dims, coeff)


def perturbed(op, noise: float, rng):
    """``op`` with ``noise`` times Gaussian noise on every coefficient."""
    return make_superop(op.in_dims, op.out_dims,
                        op.coeff + noise * rng.standard_normal(op.coeff.shape))


def hidden_bump(op, eps: float, rng):
    """``op`` plus ``eps`` times a random Hermitian image of the coordinate
    Y_01 of the whole input space.  The probes e_0 (x) ... (x) e_0 and the
    uniform product state have no Y_01 coordinate, so their images are those
    of ``op``, while the candidates mixing e_0 and i e_1 see the bump."""
    coeff = op.coeff.copy()
    g = rng.standard_normal((op.out_dim, op.out_dim)) + 1j * rng.standard_normal((op.out_dim,) * 2)
    coeff[:, op.in_dim + 1] += eps * basis.coords(g + g.conj().T)
    return make_superop(op.in_dims, op.out_dims, coeff)


# ---------------------------------------------------------------------------
# independent oracles

def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    ma, na = a.shape
    mb, nb = b.shape
    out = np.zeros((ma * mb, na * nb), dtype=np.complex128)
    for i in range(ma):
        for j in range(na):
            for k in range(mb):
                for l in range(nb):
                    out[i * mb + k, j * nb + l] = a[i, j] * b[k, l]
    return out


def ptrace_oracle(mat: np.ndarray, dims, which: int) -> np.ndarray:
    """Partial trace by raw index summation."""
    n = len(dims)
    w = which - 1
    keep = [i for i in range(n) if i != w]
    kd = [dims[i] for i in keep]
    dkeep = int(np.prod(kd)) if kd else 1
    out = np.zeros((dkeep, dkeep), dtype=np.complex128)

    def flat(idx):
        f = 0
        for t in range(n):
            f = f * dims[t] + idx[t]
        return f

    def flat_keep(idx):
        f = 0
        for t, d in zip(idx, kd):
            f = f * d + t
        return f

    ranges = [range(d) for d in kd]
    for rm in itertools.product(*ranges):
        for cm in itertools.product(*ranges):
            s = 0.0j
            for k in range(dims[w]):
                ridx = list(rm)
                ridx.insert(w, k)
                cidx = list(cm)
                cidx.insert(w, k)
                s += mat[flat(ridx), flat(cidx)]
            out[flat_keep(rm), flat_keep(cm)] = s
    return out


def purity_oracle(mat: np.ndarray, tol: float = 1e-8) -> bool:
    """Projector identity test, no eigensolver involved."""
    return (abs(np.trace(mat) - 1.0) <= tol
            and np.linalg.norm(mat @ mat - mat) <= 10 * tol)


def product_pure_oracle(mat: np.ndarray, dims, tol: float = 1e-8) -> bool:
    if not purity_oracle(mat, tol):
        return False
    for i in range(len(dims)):
        if not purity_oracle(ptrace_oracle_all_but(mat, dims, i + 1), tol):
            return False
    return True


def ptrace_oracle_all_but(mat: np.ndarray, dims, keep_which: int) -> np.ndarray:
    """Reduce to one factor by tracing the others, one at a time."""
    cur = mat
    cur_dims = list(dims)
    pos = keep_which - 1
    while len(cur_dims) > 1:
        target = 0 if pos != 0 else 1
        cur = ptrace_oracle(cur, cur_dims, target + 1)
        del cur_dims[target]
        if target < pos:
            pos -= 1
    return cur


def charpoly_coeffs(mat: np.ndarray) -> np.ndarray:
    """Faddeev-LeVerrier characteristic polynomial coefficients (monic),
    independent of any eigensolver."""
    n = mat.shape[0]
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    aux = np.zeros_like(mat)
    eye = np.eye(n, dtype=np.complex128)
    for k in range(1, n + 1):
        aux = mat @ (aux + coeffs[k - 1] * eye)
        coeffs[k] = -np.trace(aux) / k
    return coeffs
