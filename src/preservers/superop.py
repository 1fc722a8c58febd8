"""Real-linear maps on Hermitian operator spaces.

A map is stored as its real coefficient matrix in the orthonormal Hermitian
basis of the full input/output spaces.  The real representation covers every
canonical form, transposes included, with real arithmetic.  Every real-linear
map on Hermitian matrices has a unique complex-linear extension to all
matrices, so the Choi export (:func:`to_choi`) is faithful too.

The canonical constructors evaluate nothing: their maps send each matrix
unit to a matrix unit or to 0 before the isometries act, so every
coefficient is gathered from products of two isometry entries, a block of
output entries at a time.  Maps that only replace the trace are an outer
product of two coordinate vectors.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import basis
from .basis import SQRT2
from .errors import ContractError, StructureError
from .linalg import (
    EPS_ISOMETRY,
    SUPEROP_TOL,
    HermitianOperator,
    PureState,
    _check_dims,
    _check_numbers,
    _check_perm,
    _check_tol,
    _kron,
    as_rng,
    spanning_states,
)

LINEAR = "linear"
CONJUGATE = "conjugate"


@dataclass(frozen=True)
class SuperOperator:
    """Real-linear map between Hermitian spaces, in basis coordinates."""

    in_dims: tuple[int, ...]
    out_dims: tuple[int, ...]
    coeff: np.ndarray  # real, shape (D_out**2, D_in**2)

    @property
    def in_dim(self) -> int:
        return math.prod(self.in_dims)

    @property
    def out_dim(self) -> int:
        return math.prod(self.out_dims)


def make_superop(in_dims, out_dims, coeff) -> SuperOperator:
    in_dims = _check_dims(in_dims)
    out_dims = _check_dims(out_dims)
    coeff = np.asarray(coeff, dtype=np.float64)
    din = math.prod(in_dims)
    dout = math.prod(out_dims)
    if coeff.shape != (dout * dout, din * din):
        raise StructureError(
            f"coefficient shape {coeff.shape} does not match dims "
            f"({dout * dout}, {din * din})"
        )
    if not np.all(np.isfinite(coeff)):
        raise StructureError("coefficient matrix contains non-finite entries")
    return SuperOperator(in_dims, out_dims, coeff)


def identity_superop(dims) -> SuperOperator:
    dims = _check_dims(dims)
    d = math.prod(dims)
    return SuperOperator(dims, dims, np.eye(d * d))


def apply(op: SuperOperator, a: HermitianOperator) -> HermitianOperator:
    if a.dim != op.in_dim:
        raise StructureError(f"operator dimension {a.dim} != map input dimension {op.in_dim}")
    w = op.coeff @ basis.coords(a.matrix)
    return HermitianOperator(basis.from_coords(w, op.out_dim), op.out_dims)


def from_action(in_dims, out_dims, action) -> SuperOperator:
    """Coordinatize a real-linear action by evaluating it on every basis element."""
    in_dims = _check_dims(in_dims)
    out_dims = _check_dims(out_dims)
    din = math.prod(in_dims)
    dout = math.prod(out_dims)
    coeff = np.empty((dout * dout, din * din), dtype=np.float64)
    for idx in range(din * din):
        b = HermitianOperator(basis.basis_element(din, idx), in_dims)
        out = action(b)
        if not isinstance(out, HermitianOperator):
            raise StructureError(
                f"action returned {type(out).__name__}, expected a HermitianOperator"
            )
        if out.dim != dout:
            raise StructureError(
                f"action returned dimension {out.dim}, expected {dout}"
            )
        coeff[:, idx] = basis.coords(out.matrix)
    return SuperOperator(in_dims, out_dims, coeff)


# Stacked and gathered evaluations work in blocks of about this many complex
# entries, which bounds their working set: the witness scans stack input
# states, and the coefficient gather yields blocks of output entries (at
# least D_out of them), each as wide as the input basis, which either fill
# a coefficient matrix or are compared with one's rows, with no rebuilt map.
BLOCK_ENTRIES = 8192


def compose(outer: SuperOperator, inner: SuperOperator) -> SuperOperator:
    if inner.out_dim != outer.in_dim:
        raise StructureError("composition dimension mismatch")
    return SuperOperator(inner.in_dims, outer.out_dims, outer.coeff @ inner.coeff)


@dataclass(frozen=True)
class SuperopComparison:
    equal: bool
    max_dev: float
    witness_in: int   # basis index of the input element with the largest deviation
    witness_out: int  # basis index of the output coordinate deviating most


def superop_equal(a: SuperOperator, b: SuperOperator,
                 tol: float = SUPEROP_TOL) -> SuperopComparison:
    """Max-norm comparison of coefficient matrices (same basis, same dims)
    at a ``tol`` with 0 <= tol < inf."""
    _check_tol(tol)
    if a.in_dims != b.in_dims or a.out_dims != b.out_dims:
        raise StructureError("cannot compare maps with different factor dimensions")
    diff = a.coeff - b.coeff
    np.abs(diff, out=diff)
    flat = int(np.argmax(diff))
    out_idx, in_idx = np.unravel_index(flat, diff.shape)
    max_dev = float(diff[out_idx, in_idx])
    return SuperopComparison(max_dev <= tol, max_dev, int(in_idx), int(out_idx))


# ---------------------------------------------------------------------------
# isometries

@dataclass(frozen=True)
class Isometry:
    """Matrix V with V+V = I plus a flag choosing A -> VAV+ or A -> V A^t V+.

    The conjugate flag encodes conjugate-linear conjugation: transposing the
    argument first is the matrix form of acting with a conjugate-linear
    isometry.
    """

    matrix: np.ndarray  # complex, (d_out, d_in)
    flag: str = LINEAR

    @property
    def d_in(self) -> int:
        return self.matrix.shape[1]

    @property
    def d_out(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_square(self) -> bool:
        return self.d_in == self.d_out


def isometry(matrix, flag: str = LINEAR, tol: float = EPS_ISOMETRY) -> Isometry:
    v = np.asarray(matrix, dtype=np.complex128)
    if v.ndim == 1:
        v = v.reshape(-1, 1)
    if flag not in (LINEAR, CONJUGATE):
        raise StructureError(f"unknown conjugation flag {flag!r}")
    if not np.isfinite(v).all():
        raise StructureError("matrix is not an isometry: it has non-finite entries")
    dev = float(np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1])))
    if not dev <= tol:
        raise StructureError(f"matrix is not an isometry: ||V+V - I||_F = {dev:.3e}")
    return Isometry(v, flag)


def conjugate_operator(iso: Isometry, a: np.ndarray) -> np.ndarray:
    """Apply A -> VAV+ (linear flag) or A -> V A^t V+ (conjugate flag)."""
    x = a.T if iso.flag == CONJUGATE else a
    return iso.matrix @ x @ iso.matrix.conj().T


def random_unitary(d: int, seed=0) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR."""
    d, = _check_dims((d,))
    rng = as_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_isometry(d_out: int, d_in: int, seed=0, flag: str = LINEAR) -> Isometry:
    d_out, d_in = _check_dims((d_out, d_in))
    if d_in > d_out:
        raise StructureError(f"no isometry from dimension {d_in} into {d_out}: "
                             "the dimension law needs d_in <= d_out")
    u = random_unitary(d_out, seed)
    return isometry(u[:, :d_in], flag)


# ---------------------------------------------------------------------------
# elementary constructors

# Weights of a matrix unit in an input basis element, by type: a diagonal
# unit, either unit of a symmetric element, the two units of an
# antisymmetric one, and 0 (type _VANISHES) for a unit whose carried image
# vanishes.
_UNIT_WEIGHTS = np.array([1.0, 1 / SQRT2, 1j / SQRT2, -1j / SQRT2, 0.0])
_VANISHES = 4


@lru_cache(maxsize=None)
def _gather_plan(in_dims, carried):
    """Index plan of the coefficient gather of A -> W X(A) W+ (see
    :func:`_product_coeff`).

    Input basis element k is a weighted sum of the units E_rs and E_sr
    (E_kk alone on the diagonal), and X(E_rs) is the unit E_cd of the
    carried factors, or 0 where a traced factor has r_f != s_f; X(E_sr) is
    then E_dc.  The image of unit E_cd under W has the entries
    W[a, c] conj(W[b, d]).  For both units of every element the plan holds
    the column c of W and the column t * e + d of the stack of the e-column
    blocks ``_UNIT_WEIGHTS[t] * conj(W)``, which supplies the unit's weight
    (type t) times conj(W[b, d]).
    """
    din = math.prod(in_dims)
    iu, ju = basis._triu(din)
    diag = np.arange(din)
    r = np.concatenate([diag, np.repeat(iu, 2)])
    s = np.concatenate([diag, np.repeat(ju, 2)])
    t1 = np.concatenate([np.zeros(din, int), np.tile([1, 2], len(iu))])
    t2 = np.concatenate([np.full(din, _VANISHES), np.tile([1, 3], len(iu))])
    rf, sf = np.unravel_index(r, in_dims), np.unravel_index(s, in_dims)
    used = {src for src, _ in carried}
    alive = np.all([rf[f] == sf[f] for f in range(len(in_dims)) if f not in used], axis=0)
    carried_dims = [in_dims[src] for src, _ in carried]
    c = np.ravel_multi_index([sf[src] if flag == CONJUGATE else rf[src]
                              for src, flag in carried], carried_dims)
    d = np.ravel_multi_index([rf[src] if flag == CONJUGATE else sf[src]
                              for src, flag in carried], carried_dims)
    e = math.prod(carried_dims)
    plan = (c, np.where(alive, t1, _VANISHES) * e + d, d, np.where(alive, t2, _VANISHES) * e + c)
    for x in plan:
        x.setflags(write=False)
    return plan


def _gather(w, v, a, b, plan) -> np.ndarray:
    """Entries (a[i], b[i]) of the images of all input basis elements, one
    row per entry: W[a, c] times the weighted conj(W[b, d]), summed over
    the element's two units."""
    c1, g1, c2, g2 = plan
    wa, vb = w[a], v[b]
    z = np.take(wa, c1, axis=1)
    z *= np.take(vb, g1, axis=1)
    y = np.take(wa, c2, axis=1)
    y *= np.take(vb, g2, axis=1)
    z += y
    return z


def _coeff_blocks(in_dims, slots, out=None):
    """The coefficient matrix of A -> W X W+, with W the Kronecker product
    of the slot isometries, as blocks of coordinate rows in order: yields
    (first row, rows).  Given the matrix ``out``, each block is written
    straight into its rows of ``out`` and yielded as a view of them.

    Each slot is (source, isometry): source is the 0-based input factor that
    the slot carries (transposed first under the conjugate flag), or a tuple
    of them for a joint carry, whose isometry then has a tuple of flags and
    its columns in the order of the tuple.  A slot (None, r) writes the pure
    state r, a 1-column isometry fed by the trace.
    X is A with every factor no slot carries traced out and the carried
    factors in slot order.  With no carried factor the map only replaces the
    trace, and its coefficient matrix is an outer product, yielded in slices.

    Otherwise X maps matrix units to matrix units or 0, so every coefficient
    is the real or imaginary part of a sum of two products W[a, c] conj(W[b, d])
    (:func:`_gather_plan`).  They are gathered for blocks of the output
    entries, the diagonal ones a = b first and then the entries a < b, so
    the first block also holds the diagonal rows, and a small map is one
    block.
    """
    w = reduce(_kron, [p.vector[:, None] if src is None else p.matrix for src, p in slots])
    carried = tuple(pair for src, iso in slots if src is not None for pair in
                    (zip(src, iso.flag) if isinstance(src, tuple) else [(src, iso.flag)]))
    din, dout = math.prod(in_dims), w.shape[0]
    step = max(dout, BLOCK_ENTRIES // (din * din))

    def dest(lo, count):
        return np.empty((count, din * din)) if out is None else out[lo:lo + count]

    if not carried:
        y, x = basis.coords(w @ w.conj().T), basis.coords(np.eye(din))
        for lo in range(0, len(y), step):
            part = y[lo:lo + step]
            yield lo, np.outer(part, x, out=dest(lo, len(part)))
        return
    plan = _gather_plan(in_dims, carried)
    v = (_UNIT_WEIGHTS[:, None] * w.conj()[:, None, :]).reshape(dout, -1)
    iu, ju = basis._triu(dout)
    diag = np.arange(dout)
    a, b = np.concatenate([diag, iu]), np.concatenate([diag, ju])
    for lo in range(0, len(a), step):
        z = _gather(w, v, a[lo:lo + step], b[lo:lo + step], plan)
        k = max(dout - lo, 0)  # diagonal entries, all in the first block
        first = 2 * lo - dout + k
        rows = dest(first, 2 * len(z) - k)
        rows[:k] = z[:k].real
        np.multiply(z[k:].view(np.float64).reshape(-1, din * din, 2).transpose(0, 2, 1),
                    SQRT2, out=rows[k:].reshape(-1, 2, din * din))
        yield first, rows


def _product_coeff(in_dims, slots) -> np.ndarray:
    """Coefficient matrix of the product map of ``slots`` (see
    :func:`_coeff_blocks`)."""
    din = math.prod(in_dims)
    dout = math.prod(p.dim if src is None else p.d_out for src, p in slots)
    coeff = np.empty((dout * dout, din * din))
    for _ in _coeff_blocks(in_dims, slots, coeff):
        pass
    return coeff


def _compare_product(op: SuperOperator, slots, tol: float) -> tuple[bool, float]:
    """(equal, max_dev) of ``superop_equal(op, _product_map(op.in_dims,
    slots), tol)``, one row block of :func:`_coeff_blocks` at a time, with
    no rebuilt or difference matrix.  The first block deviating by more
    than ``tol``, or by NaN, ends the comparison with its own deviation."""
    max_dev = 0.0
    for lo, rows in _coeff_blocks(op.in_dims, slots):
        rows -= op.coeff[lo:lo + len(rows)]
        dev = float(np.abs(rows, out=rows).max())
        if not dev <= tol:
            return False, dev
        max_dev = max(max_dev, dev)
    return True, max_dev


def _product_map(in_dims, slots) -> SuperOperator:
    out_dims = tuple(p.dim if src is None else p.d_out for src, p in slots)
    return SuperOperator(in_dims, out_dims, _product_coeff(in_dims, slots))


def trace_replacer(r: PureState, in_dims, out_dims=None) -> SuperOperator:
    """The map A -> Tr(A) R for a fixed pure state R."""
    in_dims = _check_dims(in_dims)
    out_dims = _check_dims(out_dims, r.dim) if out_dims is not None else (r.dim,)
    return SuperOperator(in_dims, out_dims, _product_coeff(in_dims, ((None, r),)))


def conjugation(u: Isometry, in_dims=None, out_dims=None) -> SuperOperator:
    """The map A -> VAV+ (or V A^t V+ under the conjugate flag)."""
    in_dims = _check_dims(in_dims, u.d_in) if in_dims is not None else (u.d_in,)
    out_dims = _check_dims(out_dims, u.d_out) if out_dims is not None else (u.d_out,)
    return SuperOperator(in_dims, out_dims, _product_coeff((u.d_in,), ((0, u),)))


# ---------------------------------------------------------------------------
# canonical bipartite forms

# Output slot j of form t carries input factor SEP_SOURCES[t][j] (0-based)
# through u_{j+1}; where the entry is None, slot j writes the pure state r_{j+1}.
SEP_SOURCES = {1: (None, None), 2: (0, None), 3: (None, 1), 4: (1, None),
               5: (None, 0), 6: (0, 1), 7: (1, 0)}


@dataclass(frozen=True)
class SepForm:
    """Parameter bundle for the seven bipartite canonical forms.

    ``SEP_SOURCES`` defines the tags: output slot j of form t carries input
    factor SEP_SOURCES[t][j] through the isometry u_j, or writes the pure
    state r_j where that entry is None.  Tag 1 replaces both slots, tags 2/3
    conjugate one factor in place, tags 4/5 carry one factor to the other
    slot, tag 6 conjugates factorwise and tag 7 swaps first.  No form feeds
    both input factors into one slot: that needs an isometry from C^{mn}
    into one factor's space, which equal input and output dims rule out
    (see ``sep_analysis.doubling_obstruction_check``).
    """

    tag: int
    r1: PureState | None = None
    r2: PureState | None = None
    u1: Isometry | None = None
    u2: Isometry | None = None


def _require(cond: bool, msg: str):
    if not cond:
        raise StructureError(msg)


def _sep_sources(tag) -> tuple:
    """The ``SEP_SOURCES`` row of a form tag; other tags are refused."""
    if tag in SEP_SOURCES:
        return SEP_SOURCES[tag]
    raise StructureError(f"unknown form tag {tag}; the constructive forms are 1..7")


def _sep_slots(form: SepForm) -> list:
    """(source, parameter) per output slot: (k, u_j) where slot j carries
    input factor k, (None, r_j) where it writes r_j."""
    slots = []
    for j, src in enumerate(_sep_sources(form.tag)):
        name, param = (("r", (form.r1, form.r2)[j]) if src is None
                       else ("u", (form.u1, form.u2)[j]))
        _require(param is not None, f"form {form.tag} needs {name}{j + 1}")
        slots.append((src, param))
    return slots


def _sep_form(tag: int, params) -> SepForm:
    """The form ``tag`` whose slot j holds params[j]: u_j where the slot
    carries an input factor, r_j where it writes a state."""
    fields = {("r" if src is None else "u") + str(j + 1): p
              for j, (src, p) in enumerate(zip(SEP_SOURCES[tag], params))}
    return SepForm(tag, **fields)


def _canonical_map(dims, slots) -> SuperOperator:
    """The product map of ``slots`` on ``dims``, once each carried slot's
    isometry takes its factor's dimension and keeps the dimension law."""
    for j, (src, u) in enumerate(slots):
        if src is not None:
            _require(u.d_in == dims[src],
                     f"slot {j + 1} isometry input {u.d_in} != carried factor dimension {dims[src]}")
            _require(u.d_in <= u.d_out,
                     f"slot {j + 1} violates the dimension law d_in <= d_out")
    return _product_map(dims, slots)


def canonical_sep(form: SepForm, dims) -> SuperOperator:
    """Build the superoperator of a tag 1-7 canonical form on input dims (m, n)."""
    dims = _check_dims(dims)
    _require(len(dims) == 2, f"bipartite forms need dims (m, n), got {dims}")
    return _canonical_map(dims, _sep_slots(form))


# ---------------------------------------------------------------------------
# canonical multipartite form

@dataclass(frozen=True)
class MultiForm:
    """Factor permutation plus per-slot isometries with independent flags.

    Output slot j carries input factor perm[j-1] through isometries[j-1];
    the isometry shapes must satisfy dim_in[perm[j-1]] <= dim_out[j].
    """

    perm: tuple[int, ...]
    isometries: tuple[Isometry, ...]


def canonical_multi(form: MultiForm, dims) -> SuperOperator:
    dims = _check_dims(dims)
    n = len(dims)
    perm = _check_perm(form.perm, n)
    isos = tuple(form.isometries)
    _require(len(isos) == n, f"need {n} isometries, got {len(isos)}")
    return _canonical_map(dims, tuple((p - 1, iso) for p, iso in zip(perm, isos)))


def inverse_isometry(u: Isometry) -> Isometry:
    """Inverse of a square (unitary) conjugation; the flag is preserved."""
    _require(u.is_square, "only square isometries are invertible")
    mat = u.matrix.T if u.flag == CONJUGATE else u.matrix.conj().T
    return Isometry(mat, u.flag)


def inverse_sep_form(form: SepForm) -> SepForm:
    """Inverse of a form whose every slot carries an input factor (tag 6/7),
    with square isometries, again such a form: the input factor that slot j
    carries through u_j comes back through its inverse."""
    if None in SEP_SOURCES.get(form.tag, (None,)):
        raise ContractError(f"form {form.tag} is not invertible on product pure states")
    inverse = [None, None]
    for src, u in _sep_slots(form):
        inverse[src] = inverse_isometry(u)
    return _sep_form(form.tag, inverse)


# ---------------------------------------------------------------------------
# affine extension

def _action_image(state_action, rho: np.ndarray, size: int | None) -> np.ndarray:
    """The image of ``rho`` under ``state_action`` as a complex array; a
    ContractError unless it is a square matrix, of side ``size`` if given."""
    img = np.asarray(state_action(rho), dtype=np.complex128)
    if img.ndim != 2 or img.shape[0] != img.shape[1] or size not in (None, img.shape[0]):
        raise ContractError("state action does not map to square matrices of one size: "
                            f"an image has shape {img.shape}")
    return img


def affine_to_linear(state_action, dim: int, tol: float = 1e-8, seed: int = 7) -> SuperOperator:
    """Extend an affine map on density matrices to a real-linear superoperator.

    The extension is solved from the action on a spanning family of pure
    states and then cross-checked on 20 random states; a deviation above
    ``tol``, or a NaN one, means the callable was not a finite affine map
    and raises ContractError, so ``tol`` must satisfy 0 < tol < inf.
    """
    _check_numbers(tol, seed=seed)
    dim, = _check_dims((dim,))
    states = spanning_states(dim)
    cols_in = np.column_stack([basis.coords(s.projection.matrix) for s in states])
    outs = []
    out_dim = None
    for s in states:
        img = _action_image(state_action, s.projection.matrix, out_dim)
        out_dim = img.shape[0]
        outs.append(basis.coords(img))
    cols_out = np.column_stack(outs)
    if not np.isfinite(cols_out).all():
        raise ContractError("state action is not a finite affine map: an image is not finite")
    coeff = cols_out @ np.linalg.inv(cols_in)
    op = SuperOperator((dim,), (out_dim,), coeff)

    rng = as_rng(seed)
    for _ in range(20):
        w = rng.dirichlet(np.ones(dim))
        u = random_unitary(dim, rng)
        rho = HermitianOperator(u @ np.diag(w).astype(np.complex128) @ u.conj().T, (dim,))
        direct = _action_image(state_action, rho.matrix, out_dim)
        lifted = apply(op, rho).matrix
        dev = np.max(np.abs(direct - lifted))
        if not dev <= tol:
            raise ContractError(
                "state action is not a finite affine map: linear extension disagrees "
                f"with a direct evaluation by {dev:.3e}"
            )
    return op


# ---------------------------------------------------------------------------
# interchange

def to_choi(op: SuperOperator) -> np.ndarray:
    """Choi matrix of the complex-linear extension, sum_ij Phi(E_ij) (x) E_ij.

    The export is faithful: a real-linear map on Hermitian matrices extends
    to exactly one complex-linear map on all matrices.  The transpose, for
    instance, is complex-linear, and its Choi matrix is the swap operator.
    Expanding E_ij in the Hermitian basis gives sum_k Phi(B_k) (x) conj(B_k).
    """
    din, dout = op.in_dim, op.out_dim
    units = basis.basis_elements(din, 0, din * din)
    images = basis.from_coords(op.coeff.T, dout)
    choi = np.tensordot(images, units.conj(), axes=(0, 0))  # axes (a, b, c, d)
    return choi.transpose(0, 2, 1, 3).reshape(dout * din, dout * din)
