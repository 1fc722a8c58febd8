"""Classification of separable-pure-state preservers.

Both classifiers read the slot wiring off section maps: varying one input
factor at fixed pure anchors and keeping one output factor gives a
single-factor map, whose unverified proposal (:func:`_read_feeds`) is a
trace replacer, or a conjugation that says the input feeds that slot.
Section maps only propose; the one check is the coefficient comparison at
``tol`` of the whole map against the map rebuilt from the wiring.  No
proposal, an input feeding two slots (the doubling obstruction) or a failed
comparison gets a product pure state whose image is not product pure.

A bipartite map's feeds name its form through the inverse of ``SEP_SOURCES``,
and its parameters are the feeding isometries and the replaced slots' states.
The grid cell is a label of the feeds: input 1's letter is a, c or b as it
feeds no slot, slot 1 or slot 2, and input 2's takes a prime.  The cells
(b,b') and (c,c'), where both inputs feed one slot, hold no preserver when
the input and output dims agree (see :func:`doubling_obstruction_check`), so
the form rebuilt from the first feed fails the comparison.

A multipartite map's feeds are a factor permutation with per-slot isometries
once every slot is fed.  An output slot that no input factor feeds is
indeterminate, provided each section map fits its proposal at ``tol``.
"""

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import basis
from .errors import ClassificationError, StructureError
from .linalg import (
    EPS_CLS,
    HermitianOperator,
    PureState,
    _check_numbers,
    _kron,
    _reduced,
    basis_state,
    first_not_product_pure,
    partial_trace,
    spanning_states,
    tensor,
    uniform_state,
)
from .pure_analysis import CONJUGATION, NOT_PRESERVER, _compare, _propose_pure, _scan
from .superop import (
    SEP_SOURCES,
    MultiForm,
    SepForm,
    SuperOperator,
    _sep_form,
    apply,
    canonical_multi,
    canonical_sep,
    superop_equal,
)

# the form tag of each row of slot sources
_SEP_TAGS = {sources: tag for tag, sources in SEP_SOURCES.items()}

FORM = "form"
INSUFFICIENT = "insufficient_richness"
MULTI_FORM = "multi_form"


def slice_phi(op: SuperOperator, a: HermitianOperator, b: HermitianOperator,
              which: int) -> HermitianOperator:
    """Slice maps of a bipartite map: which=1 keeps the first output factor of
    the image of a (x) b, which=2 keeps the second."""
    if which not in (1, 2):
        raise StructureError("slice index must be 1 or 2")
    img = apply(op, tensor(a, b))
    return partial_trace(img, 2 if which == 1 else 1)


def _section_maps(op: SuperOperator, states, k: int) -> list[np.ndarray]:
    """The single-factor maps X -> output factor j of op(s_1 (x) ... (x) s_n)
    with X in input slot k (0-based) and the pure states s_i elsewhere
    (``states[k]`` is ignored): one stack of basis images for every output j.

    By the vec-Kronecker identity the images of the stacked inputs (basis
    element in slot k) are one product with the coefficient matrix, and a
    stacked reduction to each output factor gives the sections.
    """
    d = op.in_dims[k]
    units = basis.basis_elements(d, 0, d * d)
    inputs = reduce(_kron, [units if i == k else s.projection.matrix
                            for i, s in enumerate(states)])
    images = basis.from_coords(basis.coords(inputs) @ op.coeff.T, op.out_dim)
    return [_reduced(images, op.out_dims, j) for j in range(len(op.out_dims))]


def _section_proposal(s: np.ndarray, tol: float):
    """The first proposal of a section map on C^m, or its conjugation where
    ``tol`` >= 1 - 1/m > 0 lets an exact conjugation's Phi(I)/m pass for pure."""
    props = _propose_pure(s, tol)
    c = next(props, None)
    if c is not None and c.isometry is None and 0 < 1 - 1 / math.isqrt(len(s)) <= tol:
        c = next(props, c)
    return c


def _read_feeds(op: SuperOperator, anchors, tol: float):
    """The slot wiring of ``op`` read off its section maps at ``anchors``.

    Input by input, the section maps varying input k (0-based) get their
    unverified proposals (:func:`_section_proposal`) in sections[k][j], one
    for every output slot j, and each conjugation among them appends
    (k, isometry) to feeds[j].  Returns (sections, feeds), or None as soon
    as an input has a section with no proposal or feeds two slots (the
    doubling obstruction, see :func:`doubling_obstruction_check`).
    """
    sections, feeds = [], [[] for _ in op.out_dims]
    for k in range(len(op.in_dims)):
        row = [_section_proposal(s, tol) for s in _section_maps(op, anchors, k)]
        fed = [j for j, c in enumerate(row) if c is not None and c.kind == CONJUGATION]
        if len(fed) > 1 or None in row:
            return None
        for j in fed:
            feeds[j].append((k, row[j].isometry))
        sections.append(row)
    return sections, feeds


def _grid(feeds) -> tuple[str, str]:
    """The grid cell of bipartite feeds: an input's letter is a if it feeds
    no slot, c if it feeds slot 1 and b if it feeds slot 2, and input 2's
    letter takes a prime."""
    slot = {k: j for j, fed in enumerate(feeds) for k, _ in fed}
    return tuple("acb"[slot.get(k, -1) + 1] + "′" * k for k in (0, 1))


@dataclass(frozen=True)
class SepClassification:
    kind: str  # "form" | "not_preserver"
    form: SepForm | None = None
    grid: tuple[str, str] | None = None
    residual: float = 0.0
    witness: tuple[PureState, PureState] | None = None

    @property
    def tag(self):
        return None if self.form is None else self.form.tag

    @property
    def positive(self) -> bool:
        return self.kind == FORM


def _first_not_product(op: SuperOperator, tol: float):
    return lambda images: first_not_product_pure(images, op.out_dims, tol)


def find_product_witness(op: SuperOperator, tol: float, seed: int = 0,
                         det_cap: int | None = None, random_tries: int = 1000):
    """First product pure state whose image is not product pure: the first
    ``det_cap`` (all, if None) products of the spanning families in
    lexicographic order, then seeded random products.

    Candidates are tested in blocks that double from one product; the random
    ones are the draws of ``random_pure``, so the witness is the one a
    state-by-state scan finds.  A Generator passed as ``seed`` advances by
    whole blocks.
    """
    families = [spanning_states(d) for d in op.in_dims]
    family = list(itertools.islice(itertools.product(*families), det_cap))
    hit = _scan(op, op.in_dims, _first_not_product(op, tol), family, random_tries, seed)
    return None if hit is None else hit[1]


def _product_witness(op: SuperOperator, tol: float, seed: int, det_cap: int | None = None):
    """The witness of :func:`find_product_witness`; raises if there is none."""
    found = find_product_witness(op, tol, seed, det_cap)
    if found is None:
        raise ClassificationError(
            "map failed form verification but no product-pure violation was "
            f"found; classification is indeterminate at tol={tol:g}"
        )
    return found


def _sep_not_preserver(op: SuperOperator, tol: float, seed: int,
                       grid=None) -> SepClassification:
    return SepClassification(NOT_PRESERVER, witness=_product_witness(op, tol, seed), grid=grid)


def classify_sep_preserver(op: SuperOperator, tol: float = EPS_CLS,
                           seed: int = 0) -> SepClassification:
    """Decide which of the seven bipartite canonical forms a map has.

    The feeds read at the ``basis_state(., 0)`` anchors (:func:`_read_feeds`)
    propose the form: the slot sources of the first feed of each slot name
    the tag through the inverse of ``SEP_SOURCES``, a carried slot takes its
    feed's isometry and a replaced slot j the state proposed for the section
    map that varies input 1 and keeps slot j.  The grid cell is a label of
    the feeds.  The sections only propose: the one comparison at ``tol``
    against the rebuilt canonical map decides.  Every failure, the empty
    cells (b,b') and (c,c') of a slot fed twice included, produces a product
    pure state whose image violates product purity.
    """
    _check_numbers(tol, seed=seed)
    if len(op.in_dims) != 2 or op.in_dims != op.out_dims:
        raise StructureError(
            "bipartite classification needs matching two-factor input/output dims"
        )
    m, n = op.in_dims
    read = _read_feeds(op, (basis_state(m, 0), basis_state(n, 0)), tol)
    if read is None:
        return _sep_not_preserver(op, tol, seed)
    sections, feeds = read
    grid = _grid(feeds)
    tag = _SEP_TAGS[tuple(fed[0][0] if fed else None for fed in feeds)]
    form = _sep_form(tag, [fed[0][1] if fed else sections[0][j].replacement
                           for j, fed in enumerate(feeds)])
    cmp = superop_equal(op, canonical_sep(form, (m, n)), tol)
    if not cmp.equal:
        return _sep_not_preserver(op, tol, seed, grid)
    return SepClassification(FORM, form=form, grid=grid, residual=cmp.max_dev)


def check_both_directions(c: SepClassification) -> bool:
    """Whether a classified map preserves product pure states in both
    directions: exactly the forms whose every slot carries an input factor,
    with square (hence unitary) isometries."""
    if c.kind != FORM or None in SEP_SOURCES.get(c.form.tag, (None,)):
        return False
    return c.form.u1.is_square and c.form.u2.is_square


def doubling_obstruction_check(m: int = 2) -> bool:
    """The tensor-square obstruction that empties the double-conjugation cell.

    Two different pure decompositions of the same operator (here of I_2,
    padded to dimension m) stay equal, yet their factor-squared sums differ
    by a Frobenius gap exceeding 0.5, so no map can conjugate both slices
    simultaneously.

    The joint-carry cells are empty too.  In cell (c,c') the slices of both
    inputs conjugate into output slot 1 and slot 2 is constant; (b,b') is the
    mirror image.  By the paper's structure theorem each output slot of a
    preserver writes a fixed pure state or carries the input factors that
    feed it through one isometry, each factor linearly or conjugate-linearly.
    So slot 1 would send x (x) y to W (x' (x) y'), with W: C^{mn} -> C^m and
    x', y' the vectors or their conjugates, and ||W (x' (x) y')|| = ||x|| ||y||.
    Polarizing in x at fixed y (a sesquilinear form over C is fixed by its
    values on the diagonal) gives (I (x) y'+) W+W (I (x) y') = ||y||^2 I_m,
    and polarizing each entry in y gives W+W = I_{mn}.  By the dimension law
    m >= mn, so n = 1; but a dimension-1 factor's slices are trace
    replacers, so the column letter is a', not c'.  For (b,b') likewise m = 1.

    For qubits this follows without the theorem.  With Bloch vectors a, b of
    the inputs, slot 1 has c = k + M a + N b + sum_i a_i L_i b (real 3x3 M, N,
    L_i).  A slice is a trace replacer under an affine condition on its
    anchor, so when one anchor per side conjugates, a dense set does, and by
    continuity every slice is c = O a (or O b) with O orthogonal and no
    shift.  Hence k = 0, N = 0, M = 0, and K(a) = sum_i a_i L_i is orthogonal
    for every unit a; polarizing K(a)^T K(a) = |a|^2 I gives
    L_i^T L_j + L_j^T L_i = 2 delta_ij I.  Then K = L_3^T L_1 is orthogonal
    and antisymmetric, so K^2 = -I and det(K)^2 = det(-I_3) = -1: impossible.
    """
    if m < 2:
        raise StructureError("needs dimension at least 2")
    e0 = np.zeros(m)
    e1 = np.zeros(m)
    e0[0] = 1.0
    e1[1] = 1.0
    plus = (e0 + e1) / np.sqrt(2.0)
    minus = (e0 - e1) / np.sqrt(2.0)
    projs = [np.outer(v, v) for v in (e0, e1, plus, minus)]
    p1, p2, p3, p4 = projs
    equality = np.linalg.norm((p1 + p2) - (p3 + p4)) <= 1e-12
    gap = np.linalg.norm(
        (np.kron(p1, p1) + np.kron(p2, p2)) - (np.kron(p3, p3) + np.kron(p4, p4))
    )
    return bool(equality and gap > 0.5)


# ---------------------------------------------------------------------------
# multipartite

@dataclass(frozen=True)
class MultiClassification:
    kind: str  # "multi_form" | "not_preserver" | "insufficient_richness"
    form: MultiForm | None = None
    residual: float = 0.0
    witness: tuple[PureState, ...] | None = None
    detail: str = ""

    @property
    def positive(self) -> bool:
        return self.kind == MULTI_FORM


def _multi_not_preserver(op: SuperOperator, tol: float, seed: int) -> MultiClassification:
    return MultiClassification(NOT_PRESERVER, witness=_product_witness(op, tol, seed, 729))


def classify_multi_preserver(op: SuperOperator, tol: float = EPS_CLS,
                             seed: int = 0) -> MultiClassification:
    """Classify an n-factor map as a factor permutation with per-slot
    isometric conjugations, when its section maps determine one.

    The ``basis_state(d, 0)`` anchors and the uniform states, the first two
    candidates of the witness scan, must have product pure images, or that
    input is the witness.  Then the feeds are read at the uniform states
    (:func:`_read_feeds`).  A slot fed by no input, once each section map
    fits its proposal at ``tol``, is indeterminate; a dimension-1 slot is
    never fed, and gets no other special case.  Otherwise the feeds are a
    permutation (no input feeds two slots), and the one comparison at ``tol``
    against the rebuilt map decides.  Every other failure gets a witness.
    """
    _check_numbers(tol, seed=seed)
    n = len(op.in_dims)
    if n < 2:
        raise StructureError("multipartite classification needs at least two factors")
    if op.in_dims != op.out_dims:
        raise StructureError("multipartite classification needs matching input/output dims")
    dims = op.in_dims
    anchors = tuple(basis_state(d, 0) for d in dims)
    base = tuple(uniform_state(d) for d in dims)
    hit = _scan(op, dims, _first_not_product(op, tol), (anchors, base))
    if hit is not None:
        return MultiClassification(NOT_PRESERVER, witness=hit[1])

    read = _read_feeds(op, base, tol)
    if read is None:
        return _multi_not_preserver(op, tol, seed)
    sections, feeds = read
    # a slot fed twice, as by a joint carry of two inputs, leaves another unfed
    if [] in feeds:
        if not all(_compare(SuperOperator((dims[k],), (dj,), basis.coords(s).T), c, tol).equal
                   for k, row in enumerate(sections)
                   for dj, s, c in zip(dims, _section_maps(op, base, k), row)):
            return _multi_not_preserver(op, tol, seed)
        return MultiClassification(INSUFFICIENT, detail=(
            f"output slot {feeds.index([]) + 1} is fed by no input factor: "
            "varying any one input leaves it fixed"))
    form = MultiForm(tuple(fed[0][0] + 1 for fed in feeds), tuple(fed[0][1] for fed in feeds))
    cmp = superop_equal(op, canonical_multi(form, dims), tol)
    if not cmp.equal:
        return _multi_not_preserver(op, tol, seed)
    return MultiClassification(MULTI_FORM, form=form, residual=cmp.max_dev)


@dataclass(frozen=True)
class MCProductResult:
    passed: bool
    samples: int
    witness: tuple[PureState, ...] | None = None


def mc_verify_product(op: SuperOperator, samples: int = 500, seed: int = 0,
                      tol: float = EPS_CLS) -> MCProductResult:
    """Monte-Carlo product-purity check on random product pure inputs.

    The samples are the draws of ``random_pure``, factor by factor, tested
    in blocks that double from one input, so the result is that of a
    sample-by-sample loop; a Generator passed as ``seed`` advances by whole
    blocks.
    """
    _check_numbers(tol, samples, seed)
    hit = _scan(op, op.in_dims, _first_not_product(op, tol), random_tries=samples, seed=seed)
    if hit is None:
        return MCProductResult(True, samples)
    return MCProductResult(False, hit[0] + 1, witness=hit[1])
