"""Classification of pure-state preservers on a single factor.

A real-linear map sending every rank-1 projection to a rank-1 projection is
either trace replacement A -> Tr(A) R or an isometric conjugation
A -> VAV+ / V A^t V+.  A proposal is read off the stack of basis images
Phi(B_k), the form the product classifiers' section maps take too: R off
Phi(I)/m, and V off one column of the rank-one Choi matrix of the
complex-linear extension (of its input partial transpose under the
conjugate flag).  Only the coefficient comparison against the rebuilt map
decides; a failure gets a pure state whose image fails purity.  The
classification tolerance is the only threshold.
"""

import itertools
import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from . import basis
from .errors import ClassificationError, StructureError
from .linalg import (
    EPS_CLS,
    HermitianOperator,
    PureState,
    _check_numbers,
    as_rng,
    canonical_phase,
    first_not_pure,
    is_pure,
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
    conjugation,
    superop_equal,
    trace_replacer,
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


def _scan(op: SuperOperator, dims, first_bad, family=(), random_tries: int = 0, seed=0):
    """First input, a tuple of pure states on the factors ``dims`` of the
    input space, whose image ``first_bad`` rejects: the tuples of ``family``
    in order, then ``random_tries`` seeded draws.  Returns (position, tuple,
    image of the tuple) or None.

    ``first_bad`` gets a stack of images and returns the index of the first
    rejected one, or None.  Inputs are tested in blocks that double from one
    input up to ``BLOCK_ENTRIES // D**2`` inputs, so an early failure costs
    one small block: the purity kernels eigensolve a block of one image (or
    of few entries), and of a larger block only the images that their
    certificates cannot clear, at every stage of the product test.  A
    block's images come from one coefficient product.
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

    for start, stop in blocks(len(family)):
        block = family[start:stop]
        imgs = images([np.array([c[k].vector for c in block]) for k in range(len(dims))])
        i = first_bad(imgs)
        if i is not None:
            return start + i, tuple(block[i]), imgs[i]
    rng = as_rng(seed)
    offsets = list(itertools.accumulate(dims, initial=0))
    for start, stop in blocks(random_tries):
        g = rng.standard_normal((stop - start, 2 * offsets[-1]))
        raw = [g[:, 2 * o:2 * o + d] + 1j * g[:, 2 * o + d:2 * (o + d)]
               for o, d in zip(offsets, dims)]
        imgs = images([v / np.linalg.norm(v, axis=1, keepdims=True) for v in raw])
        i = first_bad(imgs)
        if i is not None:
            return len(family) + start + i, tuple(pure_state(v[i]) for v in raw), imgs[i]
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
    d = op.in_dim
    hit = _scan(op, (d,), lambda images: first_not_pure(images, tol),
                [(p,) for p in spanning_states(d)], random_tries, seed)
    return None if hit is None else (hit[1][0], hit[2])


def _not_preserver(op: SuperOperator, tol: float, seed: int) -> PureClassification:
    hit = find_impure_witness(op, tol, seed)
    if hit is None:
        raise ClassificationError(
            "map fails reconstruction but no impure image was found; "
            f"classification is indeterminate at tol={tol:g}"
        )
    witness, image = hit
    return PureClassification(NOT_PRESERVER, witness=witness,
                              residual=float(spectral_defect(np.linalg.eigvalsh(image))))


def _propose_pure(images: np.ndarray, tol: float):
    """Yield the unverified proposals (residual 0) read off the basis images
    Phi(B_k), a stack (m*m, n, n): the trace replacement, then the conjugation.

    (1) Trace replacement: R = Phi(I)/m must be pure.  (2) Every diagonal
    image Phi(E_jj) must be pure, or there is no conjugation.
    (3) Conjugation: the Choi matrix of A -> VAV+ is the rank-one vec V vec V+,
    and that of A -> V A^t V+ has a rank-one input partial transpose, so V
    is one column of it.  With the pivot (c, j) the largest diagonal entry
    of the Phi(E_jj), column i of V is Phi(E_ij) e_c (linear flag) or
    Phi(E_ji) e_c (conjugate flag) over sqrt(Phi(E_jj)[c, c]), and since
    Phi(E_ij) = sum_k B_k[j, i] Phi(B_k) (the B_k are Hermitian), each is one
    product of column c of every image with the basis.  The flag whose V is
    closer to an isometry is kept (linear on a tie, as for m = 1), V must be
    an isometry (||V+V - I||_F at most ``tol``) and its global phase is fixed
    as :func:`pure_state` fixes that of its first column.
    """
    m, n = math.isqrt(len(images)), images.shape[-1]
    diag = images[:m]
    ok, r = is_pure(HermitianOperator(diag.sum(axis=0) / m, (n,)), tol)
    if ok:
        yield PureClassification(TRACE_REPLACER, replacement=r)
    if m > n or first_not_pure(diag, tol) is not None:
        return
    j, c = np.unravel_index(np.argmax(np.diagonal(diag, axis1=1, axis2=2).real), (m, n))
    cols = images[:, :, c].T
    units = basis.basis_elements(m, 0, m * m)
    # v[0] is the linear flag's V, v[1] the conjugate flag's
    v = np.stack([cols @ units[:, j, :], cols @ units[:, :, j]]) / np.sqrt(diag[j, c, c].real)
    defect = np.linalg.norm(np.swapaxes(v.conj(), 1, 2) @ v - np.eye(m), axis=(1, 2))
    k = int(defect[1] < defect[0])
    if defect[k] <= tol:
        iso = Isometry(v[k] * canonical_phase(v[k, :, 0]).conjugate(), (LINEAR, CONJUGATE)[k])
        yield PureClassification(CONJUGATION, isometry=iso)


def _compare(op: SuperOperator, c: PureClassification, tol: float):
    """Compare ``op`` at ``tol`` with the map rebuilt from the proposal ``c``."""
    rebuilt = (trace_replacer(c.replacement, op.in_dims, op.out_dims) if c.isometry is None
               else conjugation(c.isometry, op.in_dims, op.out_dims))
    return superop_equal(op, rebuilt, tol)


def classify_pure_preserver(op: SuperOperator, tol: float = EPS_CLS,
                            seed: int = 0) -> PureClassification:
    """Decide trace replacement vs isometric conjugation vs non-preserver.

    ``tol`` is the only threshold.  The proposals of :func:`_propose_pure`
    are rebuilt and compared coefficientwise at ``tol``; the closer of those
    that pass decides (the trace replacement on a tie or a 1 -> n map, where
    both are one map), and none passing goes to the witness search.
    """
    _check_numbers(tol, seed=seed)
    if len(op.in_dims) != 1 or len(op.out_dims) != 1:
        raise StructureError("single-factor maps only; use the bipartite classifier")
    best = None
    for c in _propose_pure(basis.from_coords(op.coeff.T, op.out_dim), tol):
        cmp = _compare(op, c, tol)
        if cmp.equal and (best is None or op.in_dim > 1 and cmp.max_dev < best.residual):
            best = replace(c, residual=cmp.max_dev)
    return best or _not_preserver(op, tol, seed)


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
