"""Orthonormal Hermitian matrix basis and the real coordinate maps built on it.

Ordering contract (pinned by the ``gellmann-v1`` tag in the JSON interchange
format): the d diagonal units E_kk first, then for each index pair i < j in
lexicographic order the symmetric element (E_ij + E_ji)/sqrt(2) immediately
followed by the antisymmetric element i(E_ij - E_ji)/sqrt(2).
"""

from functools import lru_cache

import numpy as np

SQRT2 = np.sqrt(2.0)

BASIS_TAG = "gellmann-v1"


@lru_cache(maxsize=None)
def _triu(d: int):
    iu, ju = np.triu_indices(d, 1)
    return iu, ju


@lru_cache(maxsize=None)
def _entries(d: int):
    """(idx, w), read-only (d, d, 2) arrays: entry [r, s] of
    ``from_coords(vec, d)`` is sum_q w[r, s, q] * vec[idx[r, s, q]], over the
    at most two basis matrices B_k with B_k[r, s] != 0, weighted by B_k[r, s]
    (a diagonal entry has weight 0 in its second place)."""
    idx = np.empty((d, d, 2), dtype=np.intp)
    w = np.zeros((d, d, 2), dtype=np.complex128)
    diag = np.arange(d)
    idx[diag, diag] = diag[:, None]
    w[diag, diag, 0] = 1.0
    iu, ju = _triu(d)
    p = d + 2 * np.arange(len(iu))
    idx[iu, ju] = idx[ju, iu] = np.column_stack([p, p + 1])
    w[iu, ju] = (1 / SQRT2, 1j / SQRT2)
    w[ju, iu] = (1 / SQRT2, -1j / SQRT2)
    idx.flags.writeable = w.flags.writeable = False
    return idx, w


def basis_elements(d: int, start: int, stop: int) -> np.ndarray:
    """Stack of the basis matrices of dimension d with indices start..stop-1."""
    idx = np.arange(start, stop)
    m = np.zeros((len(idx), d, d), dtype=np.complex128)
    diag = idx < d
    m[diag, idx[diag], idx[diag]] = 1.0
    rest = np.flatnonzero(~diag)
    iu, ju = _triu(d)
    pair, kind = np.divmod(idx[rest] - d, 2)
    i, j = iu[pair], ju[pair]
    m[rest, i, j] = np.where(kind == 0, 1.0, 1.0j) / SQRT2
    m[rest, j, i] = np.where(kind == 0, 1.0, -1.0j) / SQRT2
    return m


def basis_element(d: int, idx: int) -> np.ndarray:
    """The idx-th basis matrix of dimension d (see module docstring for order)."""
    if not 0 <= idx < d * d:
        raise IndexError(f"basis index {idx} out of range for dimension {d}")
    return basis_elements(d, idx, idx + 1)[0]


def basis_label(d: int, idx: int) -> str:
    """Human-readable name of a basis element, e.g. 'E11', 'X01', 'Y01'."""
    if idx < d:
        return f"E{idx}{idx}"
    iu, ju = _triu(d)
    pair, kind = divmod(idx - d, 2)
    prefix = "X" if kind == 0 else "Y"
    return f"{prefix}{iu[pair]}{ju[pair]}"


def coords(matrix: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in the basis: c_i = Tr(B_i A).

    A stack of shape (..., d, d) gives coordinates of shape (..., d*d).
    """
    d = matrix.shape[-1]
    iu, ju = _triu(d)
    off = matrix[..., iu, ju]
    out = np.empty(matrix.shape[:-2] + (d * d,), dtype=np.float64)
    out[..., :d] = np.diagonal(matrix, axis1=-2, axis2=-1).real
    out[..., d::2] = SQRT2 * off.real
    out[..., d + 1::2] = SQRT2 * off.imag
    return out


@lru_cache(maxsize=None)
def _pairs(d: int):
    """Row and column indices of the diagonal, then of the ``_triu`` pairs."""
    iu, ju = _triu(d)
    return np.concatenate([np.arange(d), iu]), np.concatenate([np.arange(d), ju])


def projection_coords(psi: np.ndarray) -> np.ndarray:
    """Coordinates of the outer products psi psi+ of the vectors stacked as
    ``psi`` (..., d), without building them.  Each is the same complex
    product that :func:`coords` reads off an outer product, so on stacks
    of up to 8192 products (a scan block) the two agree bit for bit.  Real
    and lower-precision stacks are read as complex128."""
    psi = np.asarray(psi, dtype=np.complex128)
    d = psi.shape[-1]
    i, j = _pairs(d)
    prod = np.take(psi, i, axis=-1)
    prod *= np.take(psi, j, axis=-1).conj()
    out = np.empty(psi.shape[:-1] + (d * d,), dtype=np.float64)
    out[..., :d] = prod.real[..., :d]
    np.multiply(prod.view(np.float64)[..., 2 * d:], SQRT2, out=out[..., d:])  # re, im interleaved
    return out


def from_coords(vec: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`coords`; a stack of shape (..., d*d) gives (..., d, d)."""
    m = np.zeros(vec.shape[:-1] + (d, d), dtype=np.complex128)
    diag = np.arange(d)
    m[..., diag, diag] = vec[..., :d]
    iu, ju = _triu(d)
    z = (vec[..., d::2] + 1j * vec[..., d + 1::2]) / SQRT2
    m[..., iu, ju] = z
    m[..., ju, iu] = z.conj()
    return m
