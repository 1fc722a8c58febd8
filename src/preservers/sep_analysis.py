"""Classification of separable-pure-state preservers.

Bipartite maps are decided through their slice maps: freezing one factor of
the input product and partial-tracing one factor of the output yields
single-factor maps that are themselves pure-state preservers, and the pair of
slice behaviors (trace replacement vs conjugation, per row and per column)
lands in a 3x3 grid.  Seven cells select the seven canonical forms, each
verified by exact reconstruction.  The cells (b,b') and (c,c'), where both
inputs feed one output slot, hold no preserver when the input and output dims
agree (see :func:`doubling_obstruction_check`): a map there, like every other
failure, gets a product pure state whose image is not product pure.

Multipartite maps are decided by the same section maps: varying one input
factor and keeping one output factor gives a trace replacer or a
conjugation, and the conjugations read off the factor permutation and its
per-slot isometries; the rebuilt map is verified coefficientwise.  An output
slot that no input factor feeds is indeterminate.
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
    _kron,
    basis_state,
    first_not_product_pure,
    is_product_pure,
    partial_trace,
    spanning_states,
    tensor,
    tensor_all,
    uniform_state,
)
from .pure_analysis import (
    CONJUGATION,
    NOT_PRESERVER,
    TRACE_REPLACER,
    PureClassification,
    _scan,
    classify_pure_preserver,
)
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

ROW_A, ROW_B, ROW_C = "a", "b", "c"
COL_A, COL_B, COL_C = "a′", "b′", "c′"

GRID_TO_TAG = {
    (ROW_A, COL_A): 1,
    (ROW_A, COL_B): 3,
    (ROW_A, COL_C): 4,
    (ROW_B, COL_A): 5,
    (ROW_C, COL_A): 2,
    (ROW_B, COL_C): 7,
    (ROW_C, COL_B): 6,
}

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


def _section_maps(op: SuperOperator, states, k: int) -> list[SuperOperator]:
    """The single-factor maps X -> output factor j of op(s_1 (x) ... (x) s_n)
    with X in input slot k (0-based) and the pure states s_i elsewhere
    (``states[k]`` is ignored), one map for every output factor j.

    By the vec-Kronecker identity this is the product of the coefficient
    matrix with the coordinates of the stacked inputs (basis element in slot
    k), followed by a stacked reduction to each output factor.
    """
    d = op.in_dims[k]
    units = basis.basis_elements(d, 0, d * d)
    inputs = reduce(_kron, [units if i == k else s.projection.matrix
                            for i, s in enumerate(states)])
    images = basis.from_coords(basis.coords(inputs) @ op.coeff.T, op.out_dim)
    n = len(op.out_dims)
    images = images.reshape((d * d,) + op.out_dims * 2)
    rows = list(range(1, n + 1))
    maps = []
    for j, dj in enumerate(op.out_dims):
        cols = rows[:j] + [n + 1] + rows[j + 1:]
        reduced = np.einsum(images, [0] + rows + cols, [0, j + 1, n + 1])
        maps.append(SuperOperator((d,), (dj,), np.ascontiguousarray(basis.coords(reduced).T)))
    return maps


def _classify_slices(op: SuperOperator, anchors, k: int, tol: float, seed: int):
    """Classifications of the section maps that vary input k (0-based) with
    the other inputs at ``anchors``, one for every output factor."""
    return [classify_pure_preserver(s, tol, seed) for s in _section_maps(op, anchors, k)]


def _case_letter(c1: PureClassification, c2: PureClassification, primes: bool):
    """Map the pair of slice classifications to a grid letter, or None."""
    kinds = (c1.kind, c2.kind)
    if NOT_PRESERVER in kinds:
        return None
    table = {
        (TRACE_REPLACER, TRACE_REPLACER): COL_A if primes else ROW_A,
        (TRACE_REPLACER, CONJUGATION): COL_B if primes else ROW_B,
        (CONJUGATION, TRACE_REPLACER): COL_C if primes else ROW_C,
    }
    # simultaneous conjugation in both slices is excluded by the tensor-square
    # obstruction (see doubling_obstruction_check); treat it as no letter
    return table.get(kinds)


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
                         random_tries: int = 1000):
    """First product pure state whose image is not product pure: the
    spanning family pairs in order, then seeded random pairs.

    Candidates are tested in blocks that double from one pair; the random
    ones are the draws of ``random_pure``, so the witness is the one a
    pair-by-pair scan finds.  A Generator passed as ``seed`` advances by
    whole blocks.
    """
    m, n = op.in_dims
    family = list(itertools.product(spanning_states(m), spanning_states(n)))
    hit = _scan(op, op.in_dims, _first_not_product(op, tol), family, random_tries, seed)
    return None if hit is None else hit[1]


def _sep_not_preserver(op: SuperOperator, tol: float, seed: int,
                       grid=None) -> SepClassification:
    pair = find_product_witness(op, tol, seed)
    if pair is None:
        raise ClassificationError(
            "map failed form verification but no product-pure violation was "
            f"found; classification is indeterminate at tol={tol:g}"
        )
    return SepClassification(NOT_PRESERVER, witness=pair, grid=grid)


def _extract_form(tag: int, slices) -> SepForm:
    """Parameters of form ``tag`` read off the slice classifications, where
    slices[k][j] varies input k and keeps output j: slot j carried from input
    k is the isometry of slices[k][j], a replaced slot j takes its state from
    the row slice slices[0][j]."""
    return _sep_form(tag, [slices[0][j].replacement if src is None else slices[src][j].isometry
                           for j, src in enumerate(SEP_SOURCES[tag])])


def classify_sep_preserver(op: SuperOperator, tol: float = EPS_CLS,
                           seed: int = 0) -> SepClassification:
    """Decide which of the seven bipartite canonical forms a map has.

    The slice classifications at one anchor per side propose the grid cell
    and the parameters; the coefficient comparison at ``tol`` against the
    rebuilt canonical map decides.  Every failure, the empty cells (b,b')
    and (c,c') included, produces a product pure state whose image violates
    product purity.
    """
    if tol <= 0:
        raise StructureError("tolerance must be positive")
    if len(op.in_dims) != 2 or op.in_dims != op.out_dims:
        raise StructureError(
            "bipartite classification needs matching two-factor input/output dims"
        )
    m, n = op.in_dims
    anchors = (basis_state(m, 0), basis_state(n, 0))

    rows = _classify_slices(op, anchors, 0, tol, seed)
    row = _case_letter(*rows, primes=False)
    if row is None:
        return _sep_not_preserver(op, tol, seed)

    cols = _classify_slices(op, anchors, 1, tol, seed)
    col = _case_letter(*cols, primes=True)
    if col is None:
        return _sep_not_preserver(op, tol, seed)

    grid = (row, col)
    if grid not in GRID_TO_TAG:
        return _sep_not_preserver(op, tol, seed, grid)
    form = _extract_form(GRID_TO_TAG[grid], (rows, cols))
    candidate = canonical_sep(form, (m, n))
    if candidate.out_dims != op.out_dims:
        return _sep_not_preserver(op, tol, seed, grid)
    cmp = superop_equal(op, candidate, tol)
    if not cmp.equal:
        return _sep_not_preserver(op, tol, seed, grid)
    return SepClassification(FORM, form=form, grid=grid, residual=cmp.max_dev)


def check_both_directions(c: SepClassification) -> bool:
    """Whether a classified map preserves product pure states in both
    directions: exactly the constructive tags 6/7 with square (hence unitary)
    isometries."""
    if c.kind != FORM or c.form.tag not in (6, 7):
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


def find_multi_product_witness(op: SuperOperator, tol: float, seed: int = 0,
                               det_cap: int = 729, random_tries: int = 1000):
    """First product pure state whose image is not product pure: the first
    ``det_cap`` products of the spanning families in lexicographic order,
    then seeded random products.

    Candidates are tested in blocks that double from one product; the random
    ones are the draws of ``random_pure``, so the witness is the one a
    state-by-state scan finds.  A Generator passed as ``seed`` advances by
    whole blocks.
    """
    families = [spanning_states(d) for d in op.in_dims]
    family = list(itertools.islice(itertools.product(*families), det_cap))
    hit = _scan(op, op.in_dims, _first_not_product(op, tol), family, random_tries, seed)
    return None if hit is None else hit[1]


def _multi_not_preserver(op: SuperOperator, tol: float, seed: int) -> MultiClassification:
    combo = find_multi_product_witness(op, tol, seed)
    if combo is None:
        raise ClassificationError(
            "map failed multipartite verification but no product-pure "
            f"violation was found; indeterminate at tol={tol:g}"
        )
    return MultiClassification(NOT_PRESERVER, witness=combo)


def classify_multi_preserver(op: SuperOperator, tol: float = EPS_CLS,
                             seed: int = 0) -> MultiClassification:
    """Classify an n-factor map as a factor permutation with per-slot
    isometric conjugations, when its section maps determine one.

    The images of the ``basis_state(d, 0)`` anchors and of the uniform
    states must be product pure, or that input is the witness.  Then, at the
    uniform states, every section map (input k varied, output slot j kept)
    is a trace replacer or a conjugation, and each conjugation says that
    input k feeds slot j.  A slot fed by no input is indeterminate: it
    writes one state for all these inputs.  The feeds must form a
    permutation, one input per slot, and the rebuilt map is verified at
    ``tol``; every other failure gets a witness.
    """
    if tol <= 0:
        raise StructureError("tolerance must be positive")
    n = len(op.in_dims)
    if n < 2:
        raise StructureError("multipartite classification needs at least two factors")
    if op.in_dims != op.out_dims:
        raise StructureError("multipartite classification needs matching input/output dims")
    dims = op.in_dims
    if any(d == 1 for d in dims):
        return MultiClassification(
            INSUFFICIENT, detail="a dimension-1 factor admits no independent image pair"
        )
    anchors = tuple(basis_state(d, 0) for d in dims)
    base = tuple(uniform_state(d) for d in dims)
    for probe in (anchors, base):
        img = apply(op, tensor_all([s.projection for s in probe]).with_dims(dims))
        if not is_product_pure(img, tol)[0]:
            return MultiClassification(NOT_PRESERVER, witness=probe)

    # feeds[j]: (input factor, isometry) of every conjugating section map
    # into output slot j.  Unfed slots are judged before collisions: a
    # joint carry of two inputs into one slot leaves another slot unfed.
    feeds = [[] for _ in range(n)]
    for k in range(n):
        try:
            sections = _classify_slices(op, base, k, tol, seed)
        except ClassificationError:  # no impure section image: the map's scan decides
            sections = None
        if sections is None or any(c.kind == NOT_PRESERVER for c in sections):
            return _multi_not_preserver(op, tol, seed)
        for j, cls in enumerate(sections):
            if cls.kind == CONJUGATION:
                feeds[j].append((k + 1, cls.isometry))
    if [] in feeds:
        return MultiClassification(INSUFFICIENT, detail=(
            f"output slot {feeds.index([]) + 1} is fed by no input factor: "
            "varying any one input leaves it fixed"))
    # perm[j-1] = input factor carried by output slot j
    perm = tuple(fed[0][0] for fed in feeds)
    if any(len(fed) > 1 for fed in feeds) or sorted(perm) != list(range(1, n + 1)):
        return _multi_not_preserver(op, tol, seed)

    form = MultiForm(perm, tuple(fed[0][1] for fed in feeds))
    candidate = canonical_multi(form, dims)
    cmp = superop_equal(op, candidate, tol)
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
    hit = _scan(op, op.in_dims, _first_not_product(op, tol), random_tries=samples, seed=seed)
    if hit is None:
        return MCProductResult(True, samples)
    return MCProductResult(False, hit[0] + 1, witness=hit[1])
