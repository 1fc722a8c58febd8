"""Independent oracles for checking the library's outputs.

Nothing here calls the library. The Hermitian basis is rebuilt from the
ordering stated in ``preservers/basis.py`` (``gellmann-v1``): the d diagonal
units E_kk, then for each pair i < j in lexicographic order the symmetric
element (E_ij + E_ji)/sqrt(2) followed by the antisymmetric element
i(E_ij - E_ji)/sqrt(2). Partial traces are raw index sums, Kronecker products
come from their defining index formula, and purity is read from numpy's
``eigvalsh`` spectrum.
"""

import itertools

import numpy as np

SQRT2 = np.sqrt(2.0)


def pairs(d: int):
    """Index pairs i < j in lexicographic order."""
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def basis_matrices(d: int) -> list[np.ndarray]:
    """The gellmann-v1 basis written out element by element (small d only)."""
    out = []
    for k in range(d):
        m = np.zeros((d, d), dtype=np.complex128)
        m[k, k] = 1.0
        out.append(m)
    for i, j in pairs(d):
        s = np.zeros((d, d), dtype=np.complex128)
        s[i, j] = s[j, i] = 1.0 / SQRT2
        a = np.zeros((d, d), dtype=np.complex128)
        a[i, j] = 1j / SQRT2
        a[j, i] = -1j / SQRT2
        out += [s, a]
    return out


def coords(a: np.ndarray) -> np.ndarray:
    """c_B = Tr(B A) for every basis element B, using only B's two nonzeros."""
    d = a.shape[0]
    ij = np.array(pairs(d), dtype=np.intp).reshape(-1, 2)
    i, j = ij[:, 0], ij[:, 1]
    sym = (a[j, i] + a[i, j]) / SQRT2           # Tr(S_ij A)
    anti = 1j * (a[j, i] - a[i, j]) / SQRT2     # Tr(Y_ij A)
    out = np.empty(d * d)
    out[:d] = np.diagonal(a).real
    out[d::2] = sym.real
    out[d + 1::2] = anti.real
    return out


def from_coords(c: np.ndarray, d: int) -> np.ndarray:
    """sum_B c_B B."""
    ij = np.array(pairs(d), dtype=np.intp).reshape(-1, 2)
    i, j = ij[:, 0], ij[:, 1]
    s, t = c[d::2], c[d + 1::2]
    a = np.zeros((d, d), dtype=np.complex128)
    a[np.arange(d), np.arange(d)] = c[:d]
    a[i, j] = (s + 1j * t) / SQRT2
    a[j, i] = (s - 1j * t) / SQRT2
    return a


def apply(coeff: np.ndarray, a: np.ndarray, d_out: int) -> np.ndarray:
    """Image of ``a`` under a map given by its real coefficient matrix."""
    return from_coords(coeff @ coords(a), d_out)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[i*mb + k, j*nb + l] = a[i, j] * b[k, l]."""
    (ma, na), (mb, nb) = a.shape, b.shape
    return np.einsum("ij,kl->ikjl", a, b).reshape(ma * mb, na * nb)


def kron_all(mats) -> np.ndarray:
    out = mats[0]
    for m in mats[1:]:
        out = kron(out, m)
    return out


def reduce_to(a: np.ndarray, dims, keep: int) -> np.ndarray:
    """Trace out every factor except ``keep`` (0-based) by summing the
    traced indices one combination at a time."""
    dims = tuple(dims)
    n = len(dims)
    t = a.reshape(dims + dims)
    out = np.zeros((dims[keep], dims[keep]), dtype=np.complex128)
    traced = [k for k in range(n) if k != keep]
    for idx in itertools.product(*(range(dims[k]) for k in traced)):
        pos = [slice(None)] * n
        for k, v in zip(traced, idx):
            pos[k] = v
        out += t[tuple(pos) + tuple(pos)]
    return out


def proj(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def purity_defect(a: np.ndarray) -> float:
    """Distance of the spectrum from (1, 0, ..., 0)."""
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    defect = abs(w[-1] - 1.0)
    if len(w) > 1:
        defect = max(defect, float(np.max(np.abs(w[:-1]))))
    return float(defect)


def product_defect(a: np.ndarray, dims) -> float:
    """Distance from the product pure states: a pure state whose one-factor
    reductions are all pure is a product of them."""
    d = purity_defect(a)
    if len(dims) > 1:
        d = max([d] + [purity_defect(reduce_to(a, dims, k)) for k in range(len(dims))])
    return d


def conj(v: np.ndarray, flag: str, x: np.ndarray) -> np.ndarray:
    """V X V+ for the linear flag, V X^t V+ for the conjugate flag."""
    y = x.T if flag == "conjugate" else x
    return v @ y @ v.conj().T


def slot_image(slots, factors) -> np.ndarray:
    """Image of the product input (x) factors under a construction given as
    output slots: ("R", rho) replaces the slot by rho, ("C", src, V, flag)
    carries input factor src through a conjugation."""
    outs = []
    for s in slots:
        if s[0] == "R":
            outs.append(s[1])
        else:
            _, src, v, flag = s
            outs.append(conj(v, flag, factors[src]))
    return kron_all(outs)


def self_check():
    """Each oracle on cases with known answers; raises AssertionError."""
    rng = np.random.default_rng(0)
    for d in (1, 2, 3, 4):
        bs = basis_matrices(d)
        gram = np.array([[np.trace(x @ y) for y in bs] for x in bs])
        assert np.allclose(gram, np.eye(d * d), atol=1e-14), "basis not orthonormal"
        for k, b in enumerate(bs):
            e = np.zeros(d * d)
            e[k] = 1.0
            assert np.allclose(coords(b), e, atol=1e-14), "basis coords"
            assert np.allclose(from_coords(e, d), b, atol=1e-14), "basis round trip"
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = g + g.conj().T
        want = np.array([np.trace(b @ h).real for b in bs])
        assert np.allclose(coords(h), want, atol=1e-12), "coords vs Tr(B A)"
        assert np.allclose(from_coords(coords(h), d), h, atol=1e-12), "round trip"
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    k = kron(a, b)
    for i, j, p, q in itertools.product(range(2), range(3), range(3), range(2)):
        assert k[i * 3 + p, j * 2 + q] == a[i, j] * b[p, q], "kron formula"
    bell = np.zeros(4, dtype=np.complex128)
    bell[0] = bell[3] = 1 / SQRT2
    assert product_defect(proj(bell), (2, 2)) > 0.4, "Bell state judged product"
    assert np.allclose(reduce_to(proj(bell), (2, 2), 0), np.eye(2) / 2), "Bell reduction"
    vs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (2, 3, 2)]
    vs = [v / np.linalg.norm(v) for v in vs]
    prod = kron_all([proj(v) for v in vs])
    assert product_defect(prod, (2, 3, 2)) < 1e-12, "product state judged impure"
    for k, v in enumerate(vs):
        assert np.allclose(reduce_to(prod, (2, 3, 2), k), proj(v), atol=1e-12), "reduction"
    assert purity_defect(np.eye(3) / 3) > 0.5, "mixed state judged pure"
