"""Dense Hermitian-matrix kernel: tensor structure, partial trace/transpose,
factor permutations, spectral decomposition, trace norm, purity tests and
seeded sampling.

All matrices live on a tensor product of finite-dimensional factors; the
factor ordering is row-major (the leftmost factor is the slowest index), so
the product basis vector ``e_i (x) u_j`` sits at flat index ``i * dimK + j``.
"""

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import NumericError, StructureError

# Fixed numerical contract of the whole package.
EPS_HERM = 1e-9      # relative Frobenius tolerance for hermiticity at construction
PURITY_TOL = 1e-8    # default second-eigenvalue threshold for purity
EPS_ISOMETRY = 1e-8  # tolerance on ||V+V - I||_F for isometries
EPS_CLS = 1e-8       # default classification tolerance
SUPEROP_TOL = 1e-9   # default max-norm tolerance for superoperator equality
PPT_TOL = 1e-10      # eigenvalue floor below which a partial transpose counts as negative


def _is_index(k) -> bool:
    """An int or NumPy integer, not a bool: 2.0, 2.9 and "2" are not."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool)


def _check_seed(seed):
    """Refuse a seed that is neither a Generator nor a nonnegative integer."""
    if isinstance(seed, np.random.Generator):
        return
    if not _is_index(seed) or seed < 0:
        raise StructureError(f"seed must be a nonnegative integer, got {seed!r}")


def _check_counts(*counts):
    """Refuse a scan size or sample count that is not a nonnegative integer:
    a negative one scans nothing, which would read as "no violation found"."""
    for n in counts:
        if not _is_index(n) or n < 0:
            raise StructureError(
                f"scan sizes and sample counts must be nonnegative integers, got {n!r}")


def _check_numbers(tol: float, samples: int = 1, seed=0):
    """Refuse a tolerance outside 0 < tol < inf (NaN included), a sample
    count that is not an integer of at least one and a seed that
    :func:`as_rng` refuses."""
    if not 0 < tol < np.inf:
        raise StructureError("tolerance must be positive and finite")
    _check_counts(samples)
    if samples < 1:
        raise StructureError("sample count must be at least 1")
    _check_seed(seed)


def _check_tol(tol: float):
    """Refuse a threshold outside 0 <= tol < inf (NaN included): every test
    against it would pass or fail regardless of the input."""
    if not 0 <= tol < np.inf:
        raise StructureError(f"tolerance must be nonnegative and finite, got {tol!r}")


def as_rng(seed) -> np.random.Generator:
    """Accept a nonnegative int seed or an existing Generator."""
    _check_seed(seed)
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian matrix tagged with an optional tensor-factor structure.

    ``matrix`` is the (symmetrized) dense complex matrix; ``dims`` lists the
    factor dimensions whose product is the total dimension, or is None when
    the operator carries no factor structure.
    """

    matrix: np.ndarray
    dims: tuple[int, ...] | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def factor_dims(self) -> tuple[int, ...]:
        if self.dims is None:
            raise StructureError("operator carries no factor structure")
        return self.dims

    def with_dims(self, dims) -> "HermitianOperator":
        dims = _check_dims(dims, self.dim) if dims is not None else None
        return HermitianOperator(self.matrix, dims)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def _check_dims(dims, total: int | None = None) -> tuple[int, ...]:
    """The factor dims as a nonempty tuple of positive ints whose product is
    ``total``, if given; a non-integer entry is refused, not truncated."""
    dims = tuple(dims)
    if not dims or not all(_is_index(d) and d >= 1 for d in dims):
        raise StructureError(f"factor dimensions must be positive integers, got {dims!r}")
    dims = tuple(int(d) for d in dims)
    if total is not None and math.prod(dims) != total:
        raise StructureError(f"product of factor dims {dims} != dimension {total}")
    return dims


def _check_perm(perm, n: int) -> tuple[int, ...]:
    """``perm`` as a tuple of ints, refused unless it permutes 1..n; a
    non-integer entry is refused, not truncated."""
    perm = tuple(perm)
    if not all(map(_is_index, perm)) or sorted(perm) != list(range(1, n + 1)):
        raise StructureError(f"{perm!r} is not a permutation of 1..{n}")
    return tuple(int(p) for p in perm)


def herm(matrix, dims=None, tol: float = EPS_HERM) -> HermitianOperator:
    """Validate finiteness and hermiticity within ``tol`` (relative
    Frobenius) and symmetrize."""
    _check_tol(tol)
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise StructureError(f"expected a square matrix, got shape {m.shape}")
    norm = float(np.linalg.norm(m))
    if not norm < np.inf:
        raise StructureError(f"matrix is not finite: ||A||_F = {norm}")
    scale = max(1.0, norm)
    dev = float(np.linalg.norm(m - m.conj().T))
    if dev > tol * scale:
        raise StructureError(f"matrix is not Hermitian: ||A - A+||_F = {dev:.3e}")
    sym = (m + m.conj().T) / 2.0
    return HermitianOperator(sym, _check_dims(dims, m.shape[0]) if dims is not None else None)


def _wrap(matrix: np.ndarray, dims) -> HermitianOperator:
    """Internal constructor for results that are Hermitian by construction."""
    sym = (matrix + matrix.conj().T) / 2.0
    return HermitianOperator(sym, dims)


@dataclass(frozen=True)
class PureState:
    """Rank-1 projection with a canonical-phase vector representative.

    The representative phase is fixed by making the first component of
    nonnegligible modulus real positive, so reports are reproducible; the
    projection itself is phase-free.
    """

    vector: np.ndarray

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    @cached_property
    def projection(self) -> HermitianOperator:
        return _wrap(np.outer(self.vector, self.vector.conj()), None)


def pure_state(vector) -> PureState:
    """Normalize a nonzero finite complex vector and fix its canonical phase.
    It is divided by its largest modulus first, so the norm cannot overflow."""
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    scale = float(np.abs(v).max(initial=0.0))
    if 0 < scale < np.inf:
        v = v / scale
    norm = scale * float(np.linalg.norm(v))
    if not 1e-150 <= norm < np.inf:
        raise StructureError(f"cannot normalize a (numerically) zero or non-finite vector ({norm})")
    v = v / (norm / scale)
    return PureState(v * canonical_phase(v).conjugate())


def canonical_phase(v: np.ndarray) -> complex:
    """Phase of the first component of nonnegligible modulus of a unit
    vector; dividing it out gives the canonical-phase representative."""
    idx = int(np.argmax(np.abs(v) > 1e-12))
    return v[idx] / abs(v[idx])


def basis_state(dim: int, k: int) -> PureState:
    dim, = _check_dims((dim,))
    if not (_is_index(k) and 0 <= k < dim):
        raise StructureError(f"basis index {k!r} out of range 0..{dim - 1}")
    v = np.zeros(dim, dtype=np.complex128)
    v[k] = 1.0
    return PureState(v)


def uniform_state(dim: int) -> PureState:
    dim, = _check_dims((dim,))
    return PureState(np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128))


# ---------------------------------------------------------------------------
# tensor structure

def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of the matrices on the last two axes, broadcast over the
    leading axes, without its per-call overhead."""
    z = a[..., :, None, :, None] * b[..., None, :, None, :]
    return z.reshape(z.shape[:-4] + (z.shape[-4] * z.shape[-3], z.shape[-2] * z.shape[-1]))


def tensor(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product; factor lists concatenate (an untagged operand counts
    as a single factor)."""
    dims = (a.dims or (a.dim,)) + (b.dims or (b.dim,))
    return HermitianOperator(_kron(a.matrix, b.matrix), dims)


def tensor_all(ops) -> HermitianOperator:
    ops = list(ops)
    out = ops[0]
    for op in ops[1:]:
        out = tensor(out, op)
    return out


def _reshaped(a: HermitianOperator):
    dims = a.factor_dims()
    n = len(dims)
    return a.matrix.reshape(dims + dims), dims, n


def _factor_index(which: int, n: int) -> int:
    if not 1 <= which <= n:
        raise StructureError(f"factor index {which} out of range 1..{n}")
    return which - 1


def partial_trace(a: HermitianOperator, which: int) -> HermitianOperator:
    """Trace out factor ``which`` (1-based), keeping the others in order."""
    t, dims, n = _reshaped(a)
    f = _factor_index(which, n)
    traced = np.trace(t, axis1=f, axis2=n + f)
    new_dims = dims[:f] + dims[f + 1:]
    if not new_dims:
        return HermitianOperator(np.array([[traced]], dtype=np.complex128), (1,))
    d = math.prod(new_dims)
    return HermitianOperator(np.ascontiguousarray(traced).reshape(d, d), new_dims)


def partial_transpose(a: HermitianOperator, which: int) -> HermitianOperator:
    """Transpose factor ``which`` in the fixed product basis."""
    t, dims, n = _reshaped(a)
    f = _factor_index(which, n)
    out = np.swapaxes(t, f, n + f)
    return HermitianOperator(np.ascontiguousarray(out).reshape(a.dim, a.dim), dims)


def permute_factors(a: HermitianOperator, perm) -> HermitianOperator:
    """Factor rearrangement: output slot j carries input factor perm[j-1]
    (1-based), so on products the result is A_{p_1} (x) ... (x) A_{p_n}."""
    t, dims, n = _reshaped(a)
    perm = _check_perm(perm, n)
    axes = [p - 1 for p in perm] + [n + p - 1 for p in perm]
    out = np.transpose(t, axes)
    new_dims = tuple(dims[p - 1] for p in perm)
    return HermitianOperator(np.ascontiguousarray(out).reshape(a.dim, a.dim), new_dims)


def swap_theta(a: HermitianOperator) -> HermitianOperator:
    """The swap: A (x) B -> B (x) A, for exactly two factors."""
    dims = a.factor_dims()
    if len(dims) != 2:
        raise StructureError(f"swap needs exactly two factors, got {len(dims)}")
    return permute_factors(a, (2, 1))


def _reduced(stack: np.ndarray, dims, f: int) -> np.ndarray:
    """Reductions (t, d_f, d_f) to factor f (0-based) of the stack (t, D, D)
    on the factors ``dims``: the partial trace of every other factor."""
    n = len(dims)
    rows = list(range(1, n + 1))
    cols = rows[:f] + [n + 1] + rows[f + 1:]
    t = stack.reshape((len(stack),) + tuple(dims) * 2)
    return np.einsum(t, [0] + rows + cols, [0, f + 1, n + 1])


def reduce_to_factor(a: HermitianOperator, which: int) -> HermitianOperator:
    """Partial trace of every factor except ``which`` (1-based): the one-image
    view of the stacked reduction that product purity tests."""
    f = _factor_index(which, len(a.factor_dims()))
    return HermitianOperator(_reduced(a.matrix[None], a.dims, f)[0], (a.dims[f],))


# ---------------------------------------------------------------------------
# spectral kernel

def eig_hermitian(a: HermitianOperator):
    """Eigenvalues (descending) and orthonormal eigenvector columns (LAPACK)."""
    try:
        w, v = np.linalg.eigh(a.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    return w[::-1].copy(), v[:, ::-1].copy()


def trace_norm(a: HermitianOperator) -> float:
    """Sum of absolute eigenvalues."""
    w, _ = eig_hermitian(a)
    return float(np.sum(np.abs(w)))


def spectral_defect(w: np.ndarray):
    """Purity defect max(|w_top - 1|, max |w_rest|) of ascending eigenvalues
    stacked along the last axis (the second term is 0 in dimension 1): a
    matrix is pure at ``tol`` exactly when its defect is at most ``tol``."""
    return np.maximum(np.abs(w[..., -1] - 1.0), np.abs(w[..., :-1]).max(axis=-1, initial=0.0))


def is_pure(a: HermitianOperator, tol: float = PURITY_TOL):
    """Test whether the spectrum is (1, 0, ..., 0) within ``tol``.

    On success also returns the top eigenvector as a canonical-phase
    PureState; the threshold applies to the distance of the top eigenvalue
    from 1 and of every other eigenvalue from 0.
    """
    _check_tol(tol)
    w, v = eig_hermitian(a)
    if spectral_defect(w[::-1]) > tol:
        return False, None
    return True, pure_state(v[:, 0])


def is_product_pure(a: HermitianOperator, tol: float = PURITY_TOL):
    """Test membership in the set of product pure states at ``tol``: the
    one-image view of :func:`first_not_product_pure`, whose checks it runs.
    On success also returns the top eigenvectors of the factor reductions as
    canonical-phase PureStates.  Raises NumericError when the solver fails."""
    _check_tol(tol)
    try:
        limit, tops = _product_pure_prefix(a.matrix[None], a.factor_dims(), tol)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    if limit == 0:
        return False, None
    return True, [pure_state(v[0]) for v in tops]


def _first_true(bad: np.ndarray, limit: int) -> int:
    """Index of the first True among ``bad[:limit]``, else ``limit``."""
    if not limit:
        return 0
    i = int(bad[:limit].argmax())
    return i if bad[i] else limit


def _rebuild_deviation(vectors, images: np.ndarray) -> np.ndarray:
    """max|psi psi+ - A| per image A, psi the tensor product of the (t, d_f, 1)
    factor vectors."""
    psi = reduce(_kron, vectors)
    return np.abs(psi * psi.conj().swapaxes(1, 2) - images).max(axis=(1, 2))


def _product_pure_prefix(images: np.ndarray, dims, tol: float):
    """(limit, tops): the index of the first image of the stack (t, D, D)
    that :func:`first_not_product_pure` rejects, or t, and in ``tops[f]`` the
    factor-f top eigenvectors of the images before it.  One factor stops at
    the image's spectrum: the image is its own reduction, and its rebuild
    deviation ||A - vv+||_max <= ||A - vv+||_2 is at most its defect.  On
    more factors nothing reads the image's eigenvectors, so its spectrum is
    LAPACK's eigenvalue-only solve; the reductions' tops are the rebuild's."""
    if len(dims) == 1:
        # eigh, not eigvalsh: the top eigenvectors are the returned tops, and
        # a single image's spectrum is then that of is_pure
        w, v = np.linalg.eigh(images)
        n = _first_true(spectral_defect(w) > tol, len(images))
        return n, [v[:n, :, -1]]
    n, tops = _first_true(spectral_defect(np.linalg.eigvalsh(images)) > tol, len(images)), []
    for f in range(len(dims)):
        if n:
            w, v = np.linalg.eigh(_reduced(images[:n], dims, f))
            n = _first_true(spectral_defect(w) > tol, n)
            tops.append(v[:n, :, -1:])
    if n:
        n = _first_true(_rebuild_deviation([v[:n] for v in tops], images[:n]) > tol, n)
    return n, [v[:n, :, 0] for v in tops]


def first_not_product_pure(images: np.ndarray, dims, tol: float = PURITY_TOL):
    """Index of the first matrix of the Hermitian stack ``images`` (t, D, D)
    on the factors ``dims`` that is not product pure at ``tol``, or None.

    An image is product pure when it is pure, every factor reduction is pure
    and the tensor product of their top eigenvectors rebuilds it within
    ``tol``, the one threshold of all three checks.  The verdicts are those
    of stacked LAPACK eigensolves, each stage run only up to the first
    failure so far.
    """
    limit = _product_pure_prefix(images, dims, tol)[0]
    return limit if limit < len(images) else None


def purity_defect(a: HermitianOperator) -> float:
    """Distance of the spectrum from (1, 0, ..., 0); 0 for exact pure states."""
    w, _ = eig_hermitian(a)
    return float(spectral_defect(w[::-1]))


# ---------------------------------------------------------------------------
# sampling

def random_pure(dim: int, seed=0) -> PureState:
    """Normalized standard complex Gaussian vector (unitarily invariant)."""
    dim, = _check_dims((dim,))
    rng = as_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return pure_state(v)


def random_hermitian(dim: int, seed=0, dims=None) -> HermitianOperator:
    dim, = _check_dims((dim,))
    rng = as_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((g + g.conj().T) / 2.0,
                             _check_dims(dims, dim) if dims is not None else None)


def spanning_states(dim: int) -> list[PureState]:
    """Deterministic pure-state family spanning the Hermitian space:
    basis projections, then real superpositions (e_k + e_l)/sqrt(2), then
    complex ones (e_k + i e_l)/sqrt(2), pairs in lexicographic order."""
    out = [basis_state(dim, k) for k in range(dim)]
    for phase in (1.0, 1.0j):
        for k in range(dim):
            for l in range(k + 1, dim):
                v = np.zeros(dim, dtype=np.complex128)
                v[k] = 1.0
                v[l] = phase
                out.append(pure_state(v))
    return out
