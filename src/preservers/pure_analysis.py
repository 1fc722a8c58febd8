"""Classification of pure-state preservers on a single factor.

A real-linear map sending every rank-1 projection to a rank-1 projection is
either trace replacement A -> Tr(A) R or an isometric conjugation
A -> VAV+ / V A^t V+.  By the paper's structure theorem a separable-pure-state
preserver is a product of such slots, each carrying input factors through an
isometry or writing a fixed pure state, so after a partial transpose on the
conjugated inputs one column of its Choi matrix holds the whole wiring.
:func:`_propose` gathers the 2 n p reads through that column that it needs
straight from the coefficient matrix (:func:`_feed_reads`), tests them all
at once and proposes the slots, and :func:`_decide`, the one verdict path
of all three classifiers, compares the product map of those slots with the
map at ``tol``, a block of rows at a time; a failure gets an input whose
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
    canonical_phase,
    first_not_product_pure,
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
    _compare_product,
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


def _positions(family, probes) -> list[int]:
    """The positions in ``family`` of the candidates of ``probes`` (both as
    :func:`_scan` takes them), vector for vector."""
    (stacks, rows), (pstacks, prows) = family, probes
    out = []
    for prow in prows:
        same = [(s == p[i]).all(axis=1)[rows[:, k]]
                for k, (s, p, i) in enumerate(zip(stacks, pstacks, prow))]
        out += np.flatnonzero(np.all(same, axis=0)).tolist()
    return out


def _products(vectors) -> np.ndarray:
    """Tensor products (t, prod d_f) of the stacked factor vectors (t, d_f)."""
    return reduce(lambda a, b: (a[:, :, None] * b[:, None, :]).reshape(len(a), -1), vectors)


# Slack of the purity certificate per unit of dimension and of norm: it covers
# LAPACK's eigenvalue and eigenvector error and the rounding of the bounds.
_CERT_SLACK = 64 * np.finfo(np.float64).eps


@lru_cache(maxsize=256)
def _eps_limit(dims, tol: float) -> float:
    """The square of the largest eps whose bound (:func:`_cleared`) is within
    ``tol``, found by bisection since the bound grows with eps; -1 if none is.
    One factor has no reductions to bound, as in the solver."""
    big = math.prod(dims)
    roots = [math.sqrt(big / d) for d in dims] if len(dims) > 1 else []

    def within(eps):
        slack = _CERT_SLACK * big * (2.0 + eps)
        r = [root * eps + slack for root in roots]
        return max(r, default=0.0) < 0.5 and eps + slack + sum(x / (1 - 2 * x) for x in r) <= tol

    lo, hi = 0.0, tol
    for _ in range(64):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if within(mid) else (lo, mid)
    return lo * lo if within(lo) else -1.0


def _cleared(y: np.ndarray, dims, tol: float) -> np.ndarray:
    """Mask of the images A, given by their coordinates y (t, D*D) on the
    factors ``dims``, that pass the solver's purity test at ``tol`` (product
    purity, spectral on one factor) by the certificate alone.

    The entries A[x, c] of column c, the largest diagonal entry, with x
    running over factor f and the rest at c, normalise to unit vectors w_f
    (:func:`_lines`), and psi = (x)_f w_f.  The direct difference eps =
    ||y - coords(psi psi+)|| = ||A - psi psi+||_F bounds A's purity defect
    (Weyl); reduction f is within r_f = sqrt(D / d_f) eps of w_f w_f+, and
    its top eigenvector within a sine of r_f / (1 - 2 r_f) of w_f
    (Davis-Kahan), so the solver's rebuild is within eps plus those sines.
    With a slack on each step, that bound within ``tol`` clears an image
    (:func:`_eps_limit`).  A zero fibre makes eps NaN, which clears nothing;
    a top diagonal <= 0 means Tr A <= 0, so eps >= 1/sqrt(D)."""
    rows, big = np.arange(len(y)), math.prod(dims)
    c = y[:, :big].argmax(axis=1)
    idx, w = _lines(dims)
    fibres = np.einsum("tkiq,tkiq->tki", y[rows[:, None, None, None], idx[c, :, 1]], w[c, :, 1])
    f = fibres.view(np.float64)
    squares = np.einsum("tki,tki->tk", f, f)
    fibres *= (1.0 / np.sqrt(np.where(squares > 0, squares, np.nan)))[:, :, None]
    e = y - basis.projection_coords(_products([fibres[:, k, :d] for k, d in enumerate(dims)]))
    return np.einsum("ti,ti->t", e, e) <= _eps_limit(dims, tol)


def _rejected(y: np.ndarray, dims, tol: float):
    """(i, A): the first image, given by its coordinates y (t, D*D) on the
    factors ``dims``, that fails purity at ``tol`` (product purity,
    spectral on one factor), and its matrix; None if all pass.  Of a
    block of two images or more, only those that :func:`_cleared` cannot
    clear become matrices.  A lone image goes straight to the solver: lone
    images are mostly probes and first samples, which decide negatives,
    where the certificate would be extra work.  On (3,3), timed on a 2-core
    host, the solver rejects a failing image in about 21 us; a passing one
    takes it 73 us and the certificate 30 us.  The verdicts are those of
    ``first_not_product_pure``."""
    big, todo = math.prod(dims), np.arange(len(y))
    if len(y) > 1:
        todo = todo[~_cleared(y, dims, tol)]
    if not todo.size:
        return None
    images = basis.from_coords(y[todo], big)
    i = first_not_product_pure(images, dims, tol)
    return None if i is None else (int(todo[i]), images[i])


def _scan(op: SuperOperator, tol: float, family=((), ()), random_tries: int = 0, seed=0,
          skip=()):
    """First input, a tuple of pure states on the factors ``op.in_dims``,
    whose image on the factors ``op.out_dims`` fails purity at ``tol``
    (:func:`_rejected`): the candidates of ``family`` but those at the
    positions ``skip``, then ``random_tries`` seeded draws.  Returns
    (position, tuple, image of the tuple) or None.

    ``family`` is (stacks, rows): one stack of unit vectors per factor, and
    an integer array whose row i picks candidate i's vector from each stack
    (see :func:`_family`).  Only the returned tuple becomes ``PureState``
    objects, from copies, so no vector is shared with the stacks.  The
    candidates at ``skip`` are ones the caller has tested already.

    The first block holds one input, so a failure at the first input costs
    one lone image, and every later block holds ``BLOCK_ENTRIES // D**2``
    inputs.  Below that cap a block's cost is mostly fixed: on (3,3), timed
    on a 2-core host, a block of 4 inputs takes about 50 us and a full
    block of 101 about 175 us, so smaller blocks would spend a passing
    scan's first inputs on per-block overhead.  A block is tested in
    coordinates: those of the inputs come straight from their
    vectors, one coefficient product gives those of the images, and in
    blocks of two or more only the images that the certificate of
    :func:`_cleared` cannot clear become matrices and are eigensolved
    (:func:`_rejected`).  The family's blocks are those of a scan that
    skips nothing, less the skipped candidates.  Each block of draws is one
    ``standard_normal((t, 2 * sum(op.in_dims)))``, the stream of ``t``
    rounds of ``random_pure`` calls (real then imaginary part, factor by
    factor), so the result is that of a state-by-state scan; a Generator
    passed as ``seed`` advances by whole blocks.
    """
    cap = max(1, BLOCK_ENTRIES // max(op.in_dim, op.out_dim) ** 2)

    def blocks(total):
        start, size = 0, 1
        while start < total:
            stop = min(start + size, total)
            yield start, stop
            start, size = stop, cap

    def rejected(vectors):
        y = basis.projection_coords(_products(vectors)) @ op.coeff.T
        return _rejected(y, op.out_dims, tol)

    stacks, rows = family
    keep = np.ones(len(rows), dtype=bool)
    keep[list(skip)] = False
    for lo, stop in blocks(len(rows)):
        at = lo + np.flatnonzero(keep[lo:stop])
        if not len(at):
            continue
        block = rows[at]
        hit = rejected([s[block[:, k]] for k, s in enumerate(stacks)])
        if hit is not None:
            i, image = hit
            found = tuple(PureState(s[j].copy()) for s, j in zip(stacks, block[i]))
            return int(at[i]), found, image
    rng = as_rng(seed)
    offsets = list(itertools.accumulate(op.in_dims, initial=0))
    for lo, stop in blocks(random_tries):
        g = rng.standard_normal((stop - lo, 2 * offsets[-1]))
        raw = [g[:, 2 * o:2 * o + d] + 1j * g[:, 2 * o + d:2 * (o + d)]
               for o, d in zip(offsets, op.in_dims)]
        hit = rejected([v / np.linalg.norm(v, axis=1, keepdims=True) for v in raw])
        if hit is not None:
            i, image = hit
            return len(rows) + lo + i, tuple(pure_state(v[i]) for v in raw), image
    return None


def find_impure_witness(op: SuperOperator, tol: float, seed: int = 0,
                        random_tries: int = 1000):
    """First pure state (deterministic family, then seeded random) whose image
    fails purity at ``tol``, with that image; None when the scan is exhausted.

    Candidates are tested in one lone state, then full blocks; the random
    ones are the draws of ``random_pure``, so the witness is the one a
    state-by-state scan finds.  A Generator passed as ``seed`` advances by
    whole blocks.
    """
    _check_numbers(tol, seed=seed)
    _check_counts(random_tries)
    hit = _scan(SuperOperator((op.in_dim,), (op.out_dim,), op.coeff), tol,
                _family((op.in_dim,)), random_tries, seed)
    return None if hit is None else (hit[1][0], hit[2])


@lru_cache(maxsize=None)
def _lines(dims):
    """(idx, w), read-only arrays of shape (D, n, 2, d_max, 2) for the
    factors ``dims`` (D their product, d_max the largest).  With y the flat
    index c with factor k set to i, [c, k, 0, i] holds the coordinates and
    weights of entry [c, y] in ``basis._entries(D)``, and [c, k, 1, i] those
    of entry [y, c]: the same coordinates, conjugate weights.  Weights are 0
    for i at or beyond dims[k]."""
    big, i, d = math.prod(dims), np.arange(max(dims)), np.array(dims)[:, None]
    flat = np.arange(big)[:, None, None]
    stride = np.array([math.prod(dims[k + 1:]) for k in range(len(dims))])[:, None]
    valid = i < d
    line = flat + np.where(valid, i - flat // stride % d, 0) * stride
    idx, w = basis._entries(big)
    w = w[flat, line] * valid[..., None]
    idx, w = np.stack([idx[flat, line]] * 2, axis=2), np.stack([w, w.conj()], axis=2)
    idx.flags.writeable = w.flags.writeable = False
    return idx, w


def _gather(coeff: np.ndarray, rows, cols) -> np.ndarray:
    """Entries Phi(E_yx)[a', a] of the Choi matrix straight from ``coeff``,
    since Phi(E_yx) = sum_k B_k[x, y] Phi(B_k).  rows = (ir, wr) holds the
    coordinates and weights of the output entries [a', a], and cols =
    (ic, wc) those of the input entries [x, y], as ``basis._entries`` gives
    them.  The result has shape ir.shape[:-1] + ic.shape[:-1]: each entry
    sums wr wc coeff[ir, ic] over its 2 x 2 pairs of coordinates."""
    (ir, wr), (ic, wc) = rows, cols
    r, c = ir.reshape(-1, 2), ic.reshape(-1, 2)
    g = coeff[r[:, :, None, None], c[None, None]]
    out = np.einsum("rqcs,rq,cs->rc", g, wr.reshape(-1, 2), wc.reshape(-1, 2))
    return out.reshape(ir.shape[:-1] + ic.shape[:-1])


def _pivot(op: SuperOperator):
    """(a, c): the flat output and input index of the largest diagonal entry
    Phi(E_cc)[a, a] of the Choi matrix; None when it is not positive."""
    a, c = divmod(int(np.argmax(op.coeff[:op.out_dim, :op.in_dim])), op.in_dim)
    return (a, c) if op.coeff[a, c] > 0 else None


def _feed_reads(op: SuperOperator, a: int, c: int) -> np.ndarray:
    """The (n, 2, p, e_max, d_max) stack of every read through the pivot
    (a, c), zero-padded: [k, f, j, :e_j, :d_k] is Phi(E_yx)[a', a] over
    output slot j of a' and input k of y (f = 0, linear) or of x (f = 1,
    conjugate, the input partial transpose), every other index at the
    pivot.  One gather from ``op.coeff``."""
    io, wo = _lines(op.out_dims)
    ii, wi = _lines(op.in_dims)
    return _gather(op.coeff, (io[a, :, 1], wo[a, :, 1]), (ii[c], wi[c])).transpose(2, 3, 0, 1, 4)


def _carry_read(op: SuperOperator, a: int, c: int, j: int, inputs, flags) -> np.ndarray:
    """The (e_j, prod d_k) read of output slot j over several ``inputs``,
    each free in y under the linear flag and in x under the conjugate one,
    in the order of ``inputs``; every other index at the pivot (a, c)."""
    ins, e = op.in_dims, op.out_dims[j]
    x = y = np.array(c)
    for k, flag in zip(inputs, flags):
        stride = math.prod(ins[k + 1:])
        step = (np.arange(ins[k]) - c // stride % ins[k]) * stride
        x = x[..., None] + (step if flag == CONJUGATE else 0)
        y = y[..., None] + (0 if flag == CONJUGATE else step)
    x, y = np.broadcast_arrays(x, y)
    idx, w = basis._entries(op.in_dim)
    io, wo = _lines(op.out_dims)
    return _gather(op.coeff, (io[a, j, 1, :e], wo[a, j, 1, :e]),
                   (idx[x, y].reshape(-1, 2), w[x, y].reshape(-1, 2)))


def _propose(op: SuperOperator):
    """(feeds, slots): the unverified wiring of ``op``.  feeds[j] lists
    (input, flag) for the inputs feeding output slot j, and slots[j] is the
    slot as ``superop._product_map`` takes it.  Both are None when the pivot
    (:func:`_pivot`) is not positive or an input feeds two slots, and slots
    alone when a fed slot is wider than its output.

    Where slot j carries input k through V, the read (:func:`_feed_reads`)
    under its flag is V up to scale and phase, and a slot that does not vary
    with input k has rank-one reads.  Scaled to Frobenius norm sqrt(d), a
    read v has the isometry defect ||v+v - I||_F / sqrt(d (d - 1)), 0 for a
    feed and 1 at rank one, and the off-pivot share ||v without column
    c_k||_F / sqrt(d), at least sqrt(1 - 1/d) for a feed and at most that at
    rank one.  So input k feeds slot j when the smaller defect of its two
    reads is below the larger share, under the flag of that defect (linear
    on a tie); a dimension-1 input feeds nothing.  All 2 n p reads are
    tested at once, on their squares: with v+v scaled to trace d,
    ||v+v - I||_F^2 = ||v+v||_F^2 - d.  A fed slot carries the polar factor
    of its read over all its inputs (:func:`_carry_read` for several), from
    one SVD, phased as :func:`pure_state` phases its first column; an unfed
    slot writes the top eigenvector of its reduction of Phi(I).
    """
    pivot = _pivot(op)
    if pivot is None:
        return None, None
    a, c = pivot
    ins, outs = op.in_dims, op.out_dims
    s = _feed_reads(op, a, c)
    g = s.conj().swapaxes(-1, -2) @ s  # v+v
    tr = np.trace(g, axis1=-2, axis2=-1).real
    d = np.array(ins)[:, None]
    gv = g.view(np.float64)
    # squared defect times d (d - 1), and squared share, of every read
    defect = np.einsum("...ij,...ij->...", gv, gv) * (d[:, None] / tr) ** 2 - d[:, None]
    ck = np.unravel_index(c, ins)
    share = 1.0 - g[np.arange(len(ins)), :, :, ck, ck].real / tr
    fed = (defect.min(axis=1) < share.max(axis=1) * (d * (d - 1))) & (d > 1)
    ks, js = (x.tolist() for x in np.nonzero(fed))
    if len(set(ks)) < len(ks):
        return None, None
    feeds = [[] for _ in outs]
    for k, j, conj in zip(ks, js, (defect[ks, 1, js] < defect[ks, 0, js]).tolist()):
        feeds[j].append((k, CONJUGATE if conj else LINEAR))
    if any(math.prod(ins[k] for k, _ in pairs) > e for pairs, e in zip(feeds, outs)):
        return feeds, None
    slots = []
    if [] in feeds:
        phi_i = basis.from_coords(op.coeff[:, :op.in_dim].sum(axis=1), op.out_dim)[None]
    for j, pairs in enumerate(feeds):
        if not pairs:
            top = np.linalg.eigh(_reduced(phi_i, outs, j)[0])[1][:, -1]
            slots.append((None, pure_state(top)))
            continue
        inputs, flags = zip(*pairs)
        read = (_carry_read(op, a, c, j, inputs, flags) if len(pairs) > 1 else
                s[inputs[0], int(flags[0] == CONJUGATE), j, :outs[j], :ins[inputs[0]]])
        u, _, vh = np.linalg.svd(read, full_matrices=False)
        w = u @ vh
        w *= canonical_phase(w[:, 0]).conjugate()
        slots.append((inputs[0], Isometry(w, flags[0])) if len(pairs) == 1
                     else (inputs, Isometry(w, flags)))
    return feeds, slots


def _decide(op: SuperOperator, tol: float, seed, probes=None, det_cap: int | None = None):
    """The verdict path of all three classifiers: (hit, feeds, slots,
    residual).

    In order, until one decides: the probe e_0 (x) ... (x) e_0, whose image
    is ``op.coeff[:, 0]``; the extra ``probes`` (a :func:`_scan` family), if
    any; the wiring that :func:`_propose` reads; the one comparison at
    ``tol`` of the product map of its slots with the map, row block by row
    block as the coefficient gather yields them
    (``superop._compare_product``), whose largest deviation is the
    ``residual`` of a positive; and, when that fails or there were no slots
    to compare, the witness scan over the first ``det_cap`` (all, if None)
    products of the spanning families and 1000 seeded draws.  The scan
    skips candidate 0 and every probe the family holds (on all-qubit maps
    the uniform product state is candidate (2, ..., 2)), so no candidate is
    tested twice.  Images are tested for purity on the factors
    ``op.out_dims`` (:func:`_rejected`), spectral on one.  ``hit`` is a
    failing probe or the scan's witness, as :func:`_scan` returns it, and
    None after a passed comparison; ``residual`` is None unless the
    comparison passed, and a probe that decides leaves feeds and slots None
    too.  A scan that finds no witness raises ``ClassificationError``, the
    one indeterminate outcome.
    """
    _check_numbers(tol, seed=seed)

    first = _rejected(op.coeff[:, :1].T, op.out_dims, tol)
    if first is not None:
        found = tuple(PureState(_spanning_vectors(d)[0].copy()) for d in op.in_dims)
        return (0, found, first[1]), None, None, None
    hit = None if probes is None else _scan(op, tol, probes)
    if hit is not None:
        return hit, None, None, None
    feeds, slots = _propose(op)
    if slots:
        equal, residual = _compare_product(op, slots, tol)
        if equal:
            return None, feeds, slots, residual
    family = _family(op.in_dims, det_cap)
    skip = [0] if probes is None else [0] + _positions(family, probes)
    hit = _scan(op, tol, family, 1000, seed, skip)
    if hit is None:
        raise ClassificationError(
            "map fails reconstruction but no witness was found; "
            f"classification is indeterminate at tol={tol:g}"
        )
    return hit, feeds, slots, None


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
    hit, _, slots, residual = _decide(op, tol, seed)
    if hit:
        return PureClassification(NOT_PRESERVER, witness=hit[1][0],
                                  residual=float(spectral_defect(np.linalg.eigvalsh(hit[2]))))
    (src, param), = slots
    if src is None:
        return PureClassification(TRACE_REPLACER, replacement=param, residual=residual)
    return PureClassification(CONJUGATION, isometry=param, residual=residual)


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

    The samples are the draws of ``random_pure``, tested one lone state
    first, then in full blocks (see :func:`_scan`), so the result is that
    of a state-by-state loop; a Generator passed as ``seed`` advances by
    whole blocks.
    """
    _check_numbers(tol, samples, seed)
    hit = _scan(SuperOperator((op.in_dim,), (op.out_dim,), op.coeff), tol,
                random_tries=samples, seed=seed)
    if hit is None:
        return MCResult(True, samples)
    i, (p,), image = hit
    return MCResult(False, i + 1, witness=p,
                    defect=float(spectral_defect(np.linalg.eigvalsh(image))))
