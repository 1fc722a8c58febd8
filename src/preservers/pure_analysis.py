"""Classification of pure-state preservers on a single factor.

A real-linear map sending every rank-1 projection to a rank-1 projection is
either trace replacement A -> Tr(A) R or an isometric conjugation
A -> VAV+ / V A^t V+.  By the paper's structure theorem a separable-pure-state
preserver is a product of such slots, each carrying input factors through an
isometry or writing a fixed pure state, so after a partial transpose on the
conjugated inputs one column of its Choi matrix holds the whole wiring.
:func:`_propose` reads that column and proposes the slots, and
:func:`_decide`, the one verdict path of all three classifiers, compares the
rebuilt product map with the map at ``tol``; a failure gets an input whose
image fails (product) purity.  The classification tolerance is the only
threshold.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import basis
from .errors import ClassificationError, StructureError
from .linalg import (
    EPS_CLS,
    PureState,
    _check_counts,
    _check_numbers,
    _reduced,
    as_rng,
    basis_state,
    canonical_phase,
    first_not_product_pure,
    first_not_pure,
    pure_state,
    spanning_states,
    spectral_defect,
)
from .superop import (
    BLOCK_ENTRIES,
    CONJUGATE,
    LINEAR,
    Isometry,
    SuperOperator,
    _product_map,
    superop_equal,
)

TRACE_REPLACER = "trace_replacer"
CONJUGATION = "conjugation"
NOT_PRESERVER = "not_preserver"


@dataclass(frozen=True)
class PureClassification:
    kind: str
    replacement: PureState | None = None
    isometry: Isometry | None = None
    witness: PureState | None = None
    residual: float = 0.0

    @property
    def positive(self) -> bool:
        return self.kind in (TRACE_REPLACER, CONJUGATION)


@lru_cache(maxsize=None)
def _spanning_vectors(d: int) -> np.ndarray:
    """The vectors of ``spanning_states(d)`` as one read-only (d*d, d) stack,
    built once per dimension."""
    v = np.array([p.vector for p in spanning_states(d)])
    v.flags.writeable = False
    return v


def _family(dims, stop: int | None = None):
    """The first ``stop`` (all, if None) products of the spanning families of
    ``dims`` in lexicographic order, as :func:`_scan` takes a family: the
    per-factor vector stacks and one row of per-factor indices a product."""
    shape = [d * d for d in dims]
    count = math.prod(shape) if stop is None else min(stop, math.prod(shape))
    return ([_spanning_vectors(d) for d in dims],
            np.column_stack(np.unravel_index(np.arange(count), shape)))


def _scan(op: SuperOperator, dims, first_bad, family=((), ()), random_tries: int = 0, seed=0,
          start: int = 0):
    """First input, a tuple of pure states on the factors ``dims`` of the
    input space, whose image ``first_bad`` rejects: the candidates of
    ``family`` from position ``start`` on, then ``random_tries`` seeded
    draws.  Returns (position, tuple, image of the tuple) or None.

    ``family`` is (stacks, rows): one stack of unit vectors per factor, and
    an integer array whose row i picks candidate i's vector from each stack
    (see :func:`_family`).  Only the returned tuple becomes ``PureState``
    objects, from copies, so no vector is shared with the stacks.  The
    candidates before ``start`` are ones the caller has tested already.

    ``first_bad`` gets a stack of images and returns the index of the first
    rejected one, or None.  Inputs are tested in blocks that double from one
    input up to ``BLOCK_ENTRIES // D**2`` inputs, so an early failure costs
    one small block: the purity kernels eigensolve a block of one image (or
    of few entries), and of a larger block only the images that their
    certificates cannot clear, at every stage of the product test.  A
    block's images come from one coefficient product.  The family's blocks
    are those of a scan from position 0, cut at ``start``, so every image is
    computed as that scan computes it.
    Each block of draws is one ``standard_normal((t, 2 * sum(dims)))``, the
    stream of ``t`` rounds of ``random_pure`` calls (real then imaginary
    part, factor by factor), so the result is that of a state-by-state scan;
    a Generator passed as ``seed`` advances by whole blocks.
    """
    cap = max(1, BLOCK_ENTRIES // max(op.in_dim, op.out_dim) ** 2)

    def blocks(total):
        start, size = 0, 1
        while start < total:
            stop = min(start + size, total)
            yield start, stop
            start, size = stop, min(2 * size, cap)

    def images(vectors):
        psi = reduce(lambda a, b: (a[:, :, None] * b[:, None, :]).reshape(len(a), -1), vectors)
        projs = psi[:, :, None] * psi[:, None, :].conj()
        return basis.from_coords(basis.coords(projs) @ op.coeff.T, op.out_dim)

    stacks, rows = family
    for lo, stop in blocks(len(rows)):
        lo = max(lo, start)
        if lo >= stop:
            continue
        block = rows[lo:stop]
        imgs = images([s[block[:, k]] for k, s in enumerate(stacks)])
        i = first_bad(imgs)
        if i is not None:
            return lo + i, tuple(PureState(s[j].copy()) for s, j in zip(stacks, block[i])), imgs[i]
    rng = as_rng(seed)
    offsets = list(itertools.accumulate(dims, initial=0))
    for lo, stop in blocks(random_tries):
        g = rng.standard_normal((stop - lo, 2 * offsets[-1]))
        raw = [g[:, 2 * o:2 * o + d] + 1j * g[:, 2 * o + d:2 * (o + d)]
               for o, d in zip(offsets, dims)]
        imgs = images([v / np.linalg.norm(v, axis=1, keepdims=True) for v in raw])
        i = first_bad(imgs)
        if i is not None:
            return len(rows) + lo + i, tuple(pure_state(v[i]) for v in raw), imgs[i]
    return None


def find_impure_witness(op: SuperOperator, tol: float, seed: int = 0,
                        random_tries: int = 1000):
    """First pure state (deterministic family, then seeded random) whose image
    fails purity at ``tol``, with that image; None when the scan is exhausted.

    Candidates are tested in blocks that double from one state; the random
    ones are the draws of ``random_pure``, so the witness is the one a
    state-by-state scan finds.  A Generator passed as ``seed`` advances by
    whole blocks.
    """
    _check_numbers(tol, seed=seed)
    _check_counts(random_tries)
    dims = (op.in_dim,)
    hit = _scan(op, dims, lambda images: first_not_pure(images, tol), _family(dims),
                random_tries, seed)
    return None if hit is None else (hit[1][0], hit[2])


def _pivot_column(op: SuperOperator):
    """(a, c, t): the largest diagonal entry Phi(E_cc)[a, a] of the Choi
    matrix as per-factor indices, and its column t[a', x, y] = Phi(E_yx)[a', a]
    with the axes a'_1 .. a'_p, x_1, y_1 .. x_n, y_n, read off column a of
    every basis image; None when that entry is not positive."""
    ins, outs = op.in_dims, op.out_dims
    din, dout, p = op.in_dim, op.out_dim, len(outs)
    a, c = np.unravel_index(np.argmax(op.coeff[:dout, :din]), (dout, din))
    if not op.coeff[a, c] > 0:
        return None
    col = basis.column(op.coeff.T, dout, a).T
    t = basis.from_coords(col.real, din) + 1j * basis.from_coords(col.imag, din)
    t = t.reshape(outs + ins + ins).transpose(
        list(range(p)) + [p + i for k in range(len(ins)) for i in (k, len(ins) + k)])
    return np.unravel_index(a, outs), np.unravel_index(c, ins), t


def _read(t: np.ndarray, a, c, j: int, inputs, flags) -> np.ndarray:
    """The (e_j, prod d_k) slice of the pivot column t over output slot j and
    ``inputs``, each free in y under the linear flag and in x under the
    conjugate one (the input partial transpose); all else at the pivot."""
    idx = [slice(None) if i == j else ai for i, ai in enumerate(a)]
    idx += [ck for ck in c for _ in range(2)]
    for k, flag in zip(inputs, flags):
        idx[len(a) + 2 * k + (flag == LINEAR)] = slice(None)
    s = t[tuple(idx)]
    return s.reshape(len(s), -1)


def _propose(op: SuperOperator):
    """(feeds, slots): the unverified wiring of ``op``.  feeds[j] lists
    (input, flag) for the inputs feeding output slot j, and slots[j] is the
    slot as ``superop._product_map`` takes it.  Both are None when the pivot
    (:func:`_pivot_column`) is not positive or an input feeds two slots, and
    slots alone when a fed slot is wider than its output.

    Where slot j carries input k through V, the read (:func:`_read`) under
    its flag is V up to scale and phase, and a slot that does not vary with
    input k has rank-one reads.  Scaled to Frobenius norm sqrt(d), a read v
    has the isometry defect ||v+v - I||_F / sqrt(d (d - 1)), 0 for a feed and
    1 at rank one, and the off-pivot share ||v without column c_k||_F /
    sqrt(d), at least sqrt(1 - 1/d) for a feed and at most that at rank one.
    So input k feeds slot j when the smaller defect of its two reads is below
    the larger share, under the flag of that defect (linear on a tie); a
    dimension-1 input feeds nothing.  A fed slot carries the polar factor of
    its read over all its inputs, phased as :func:`pure_state` phases its
    first column; an unfed slot writes the top eigenvector of its reduction
    of Phi(I).
    """
    pivot = _pivot_column(op)
    if pivot is None:
        return None, None
    a, c, t = pivot
    feeds = [[] for _ in op.out_dims]
    for (k, d), j in itertools.product(enumerate(op.in_dims), range(len(feeds))):
        if d == 1:
            continue
        s = np.stack([_read(t, a, c, j, (k,), (f,)) for f in (LINEAR, CONJUGATE)])
        g = s.conj().swapaxes(1, 2) @ s  # v+v, once scaled
        g *= (d / np.trace(g, axis1=1, axis2=2).real)[:, None, None]
        defect = np.linalg.norm(g - np.eye(d), axis=(1, 2))
        share = np.sqrt(np.maximum(1.0 - g[:, c[k], c[k]].real / d, 0.0))
        if defect.min() / np.sqrt(d * (d - 1)) < share.max():
            if any(k == q for pairs in feeds for q, _ in pairs):
                return None, None
            feeds[j].append((k, (LINEAR, CONJUGATE)[int(defect[1] < defect[0])]))
    slots = []
    if [] in feeds:
        phi_i = basis.from_coords(op.coeff[:, :op.in_dim].sum(axis=1), op.out_dim)[None]
    for j, pairs in enumerate(feeds):
        if not pairs:
            top = np.linalg.eigh(_reduced(phi_i, op.out_dims, j)[0])[1][:, -1]
            slots.append((None, pure_state(top)))
            continue
        inputs, flags = zip(*pairs)
        s = _read(t, a, c, j, inputs, flags)
        if s.shape[1] > s.shape[0]:
            return feeds, None
        u, _, vh = np.linalg.svd(s, full_matrices=False)
        w = u @ vh
        w *= canonical_phase(w[:, 0]).conjugate()
        slots.append((inputs[0], Isometry(w, flags[0])) if len(pairs) == 1
                     else (inputs, Isometry(w, flags)))
    return feeds, slots


def _decide(op: SuperOperator, tol: float, seed, probes=None, det_cap: int | None = None):
    """The verdict path of all three classifiers: (hit, feeds, slots, cmp).

    In order, until one decides: the probe e_0 (x) ... (x) e_0, whose image
    is ``op.coeff[:, 0]``; the extra ``probes`` (a :func:`_scan` family), if
    any; the wiring that :func:`_propose` reads; the one comparison ``cmp``
    at ``tol`` against the rebuilt product map; and, when that fails or no
    map was rebuilt, the witness scan from candidate 1 over the first
    ``det_cap`` (all, if None) products of the spanning families and 1000
    seeded draws, so no candidate is tested twice.  Images are tested with
    spectral purity for one input factor, product purity on ``op.out_dims``
    otherwise.  ``hit`` is a failing probe or the scan's witness, as
    :func:`_scan` returns it, and None after a passed comparison; a probe
    that decides leaves the rest None.  A scan that finds no witness raises
    ``ClassificationError``, the one indeterminate outcome.
    """
    _check_numbers(tol, seed=seed)

    def first_bad(images):
        if len(op.in_dims) == 1:
            return first_not_pure(images, tol)
        return first_not_product_pure(images, op.out_dims, tol)

    first = basis.from_coords(op.coeff[:, :1].T, op.out_dim)
    if first_bad(first) is not None:
        return (0, tuple(basis_state(d, 0) for d in op.in_dims), first[0]), None, None, None
    hit = None if probes is None else _scan(op, op.in_dims, first_bad, probes)
    if hit is not None:
        return hit, None, None, None
    feeds, slots = _propose(op)
    cmp = slots and superop_equal(op, _product_map(op.in_dims, slots), tol)
    if cmp and cmp.equal:
        return None, feeds, slots, cmp
    hit = _scan(op, op.in_dims, first_bad, _family(op.in_dims, det_cap), 1000, seed, start=1)
    if hit is None:
        raise ClassificationError(
            "map fails reconstruction but no witness was found; "
            f"classification is indeterminate at tol={tol:g}"
        )
    return hit, feeds, slots, cmp


def classify_pure_preserver(op: SuperOperator, tol: float = EPS_CLS,
                            seed: int = 0) -> PureClassification:
    """Decide trace replacement vs isometric conjugation vs non-preserver
    along :func:`_decide`: the one slot that :func:`_propose` reads is a
    trace replacer where unfed and a conjugation where fed.  A witness is
    the one :func:`find_impure_witness` finds, and its image gives the
    residual.
    """
    if len(op.in_dims) != 1 or len(op.out_dims) != 1:
        raise StructureError("single-factor maps only; use the bipartite classifier")
    hit, _, slots, cmp = _decide(op, tol, seed)
    if hit:
        return PureClassification(NOT_PRESERVER, witness=hit[1][0],
                                  residual=float(spectral_defect(np.linalg.eigvalsh(hit[2]))))
    (src, param), = slots
    if src is None:
        return PureClassification(TRACE_REPLACER, replacement=param, residual=cmp.max_dev)
    return PureClassification(CONJUGATION, isometry=param, residual=cmp.max_dev)


@dataclass(frozen=True)
class MCResult:
    passed: bool
    samples: int
    witness: PureState | None = None
    defect: float = 0.0


def mc_verify_pure(op: SuperOperator, samples: int = 500, seed: int = 0,
                   tol: float = EPS_CLS) -> MCResult:
    """Monte-Carlo purity check, independent of the classifier: random pure
    inputs, each image tested with the spectral purity oracle.

    The samples are the draws of ``random_pure``, tested in blocks that
    double from one state, so the result is that of a state-by-state loop; a
    Generator passed as ``seed`` advances by whole blocks.
    """
    _check_numbers(tol, samples, seed)
    hit = _scan(op, (op.in_dim,), lambda images: first_not_pure(images, tol),
                random_tries=samples, seed=seed)
    if hit is None:
        return MCResult(True, samples)
    i, (p,), image = hit
    return MCResult(False, i + 1, witness=p,
                    defect=float(spectral_defect(np.linalg.eigvalsh(image))))
