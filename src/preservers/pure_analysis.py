"""Classification of pure-state preservers on a single factor.

A real-linear map sending every rank-1 projection to a rank-1 projection is
either trace replacement A -> Tr(A) R or an isometric conjugation
A -> VAV+ / V A^t V+.  The classifier extracts the parameters from the map's
action on matrix units and cross terms, verifies the reconstruction exactly
on the coefficient level, and otherwise produces a concrete pure state whose
image fails purity.
"""

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import basis
from .errors import ClassificationError, StructureError
from .linalg import (
    EPS_CLS,
    HermitianOperator,
    PureState,
    as_rng,
    first_not_pure,
    is_pure,
    pure_state,
    purity_defect,
    spanning_states,
    spectral_defect,
)
from .superop import (
    BLOCK_ENTRIES,
    CONJUGATE,
    LINEAR,
    Isometry,
    SuperOperator,
    apply,
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
    one small block; a block's images come from one coefficient product.
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
    fails purity at ``tol``; None when the scan is exhausted.

    Candidates are tested in blocks that double from one state; the random
    ones are the draws of ``random_pure``, so the witness is the one a
    state-by-state scan finds.  A Generator passed as ``seed`` advances by
    whole blocks.
    """
    d = op.in_dim
    hit = _scan(op, (d,), lambda images: first_not_pure(images, tol),
                [(p,) for p in spanning_states(d)], random_tries, seed)
    return None if hit is None else hit[1][0]


def _not_preserver(op: SuperOperator, tol: float, seed: int) -> PureClassification:
    witness = find_impure_witness(op, tol, seed)
    if witness is None:
        raise ClassificationError(
            "map fails reconstruction but no impure image was found; "
            f"classification is indeterminate at tol={tol:g}"
        )
    defect = purity_defect(apply(op, witness.projection.with_dims(op.in_dims)))
    return PureClassification(NOT_PRESERVER, witness=witness, residual=defect)


def classify_pure_preserver(op: SuperOperator, tol: float = EPS_CLS,
                            seed: int = 0) -> PureClassification:
    """Decide trace replacement vs isometric conjugation vs non-preserver.

    Steps: (1) image of every diagonal unit; (2) constant pure image with
    vanishing cross-term images means trace replacement; (3) otherwise the
    diagonal images supply isometry columns whose relative phases are fixed
    from the symmetric cross terms and whose conjugation flag is read off the
    antisymmetric ones; (4) every positive answer is verified coefficientwise
    against a freshly built canonical map, and any failure falls back to an
    explicit witness search.
    """
    if tol <= 0:
        raise StructureError("tolerance must be positive")
    if len(op.in_dims) != 1 or len(op.out_dims) != 1:
        raise StructureError("single-factor maps only; use the bipartite classifier")
    m, n = op.in_dim, op.out_dim
    # images of the diagonal units, then of the pairs (X_0j, Y_0j), j = 1..m-1
    images = basis.from_coords(op.coeff[:, :3 * m - 2].T, n)
    diag = images[:m]

    # trace-replacement candidate
    const = all(np.max(np.abs(d - diag[0])) <= 10 * tol for d in diag[1:])
    if const:
        off_mass = 0.0
        if m > 1:
            off_mass = float(np.max(np.abs(op.coeff[:, m:])))
        ok, r = is_pure(HermitianOperator((diag[0] + diag[0].conj().T) / 2, op.out_dims), tol)
        if off_mass <= 10 * tol and ok:
            candidate = trace_replacer(r, op.in_dims, op.out_dims)
            cmp = superop_equal(op, candidate, tol)
            if cmp.equal:
                return PureClassification(TRACE_REPLACER, replacement=r,
                                          residual=cmp.max_dev)

    # isometric-conjugation candidate
    if m <= n:
        cols = []
        for k, d in enumerate(diag):
            ok, q = is_pure(HermitianOperator((d + d.conj().T) / 2, op.out_dims), tol)
            if not ok:
                return _not_preserver(op, tol, seed)
            cols.append(q.vector)
        signs = []
        fit_failed = False
        for j in range(1, m):
            x_img, y_img = images[m + 2 * j - 2], images[m + 2 * j - 1]
            z = cols[0].conj() @ x_img @ cols[j]
            if abs(z) < 1e-6:
                fit_failed = True
                break
            cols[j] = cols[j] * (z / abs(z)).conjugate()
            target = (np.outer(cols[0], cols[j].conj())
                      + np.outer(cols[j], cols[0].conj())) / np.sqrt(2.0)
            if np.max(np.abs(x_img - target)) > 100 * tol:
                fit_failed = True
                break
            y_plus = 1j * (np.outer(cols[0], cols[j].conj())
                           - np.outer(cols[j], cols[0].conj())) / np.sqrt(2.0)
            res_plus = np.max(np.abs(y_img - y_plus))
            res_minus = np.max(np.abs(y_img + y_plus))
            signs.append(1 if res_plus <= res_minus else -1)
        if not fit_failed:
            if m == 1 or all(s == 1 for s in signs):
                flag = LINEAR
            elif all(s == -1 for s in signs):
                flag = CONJUGATE
            else:
                return _not_preserver(op, tol, seed)
            # the phase fit leaves one global phase on the column family,
            # which conjugation cancels for either flag
            v = np.column_stack(cols)
            if np.linalg.norm(v.conj().T @ v - np.eye(m)) <= 1e-6:
                candidate = conjugation(Isometry(v, flag), op.in_dims, op.out_dims)
                cmp = superop_equal(op, candidate, tol)
                if cmp.equal:
                    iso = Isometry(v, flag)
                    return PureClassification(CONJUGATION, isometry=iso,
                                              residual=cmp.max_dev)

    return _not_preserver(op, tol, seed)


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
    hit = _scan(op, (op.in_dim,), lambda images: first_not_pure(images, tol),
                random_tries=samples, seed=seed)
    if hit is None:
        return MCResult(True, samples)
    i, (p,), image = hit
    return MCResult(False, i + 1, witness=p,
                    defect=float(spectral_defect(np.linalg.eigvalsh(image))))
