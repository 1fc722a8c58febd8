"""Classification of separable-pure-state preservers.

Both classifiers decide along ``pure_analysis._decide``, the one verdict
path of all three: the pivot column of the Choi matrix proposes the wiring
(which inputs feed which output slot, under which flag, and the isometry or
fixed pure state of every slot), and the one check is the coefficient
comparison at ``tol`` of the whole map against the rebuilt product map.  A
failed comparison, an input feeding two slots (the doubling obstruction) or
a slot that cannot be rebuilt gets a product pure state whose image is not
product pure.

A bipartite map's slot sources name its form through the inverse of
``SEP_SOURCES``.  The grid cell is a label of the feeds: input 1's letter is
a, c or b as it feeds no slot, slot 1 or slot 2, and input 2's takes a
prime.  The cells (b,b') and (c,c'), where both inputs feed one slot, hold
no preserver when the input and output dims agree (see
:func:`doubling_obstruction_check`); such a joint carry is wider than its
slot, so no map is rebuilt and it gets a witness.

A multipartite map's feeds are a factor permutation with per-slot isometries
once every slot is fed.  An output slot that no input factor feeds is
indeterminate, provided the rebuilt map passes the comparison.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import StructureError
from .linalg import (
    EPS_CLS,
    HermitianOperator,
    PureState,
    _check_counts,
    _check_numbers,
    partial_trace,
    tensor,
    uniform_state,
)
from .pure_analysis import NOT_PRESERVER, _decide, _family, _scan
from .superop import (
    SEP_SOURCES,
    MultiForm,
    SepForm,
    SuperOperator,
    _sep_form,
    apply,
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
    _check_numbers(tol, seed=seed)
    _check_counts(random_tries, 0 if det_cap is None else det_cap)
    hit = _scan(op, tol, _family(op.in_dims, det_cap), random_tries, seed)
    return None if hit is None else hit[1]


def classify_sep_preserver(op: SuperOperator, tol: float = EPS_CLS,
                           seed: int = 0) -> SepClassification:
    """Decide which of the seven bipartite canonical forms a map has, along
    ``pure_analysis._decide``.

    The slot sources of a passed comparison name the tag through the inverse
    of ``SEP_SOURCES``: with two factors and matching dims, ``_propose``
    rebuilds no map for an input feeding two slots or a joint carry, so
    every row of sources it returns is a form.  A carried slot takes its
    isometry and a replaced slot its state.  The grid cell is a label of the
    feeds, kept on a failed comparison.  A witness is the one
    :func:`find_product_witness` finds.
    """
    if len(op.in_dims) != 2 or op.in_dims != op.out_dims:
        raise StructureError(
            "bipartite classification needs matching two-factor input/output dims"
        )
    hit, feeds, slots, residual = _decide(op, tol, seed)
    grid = feeds and _grid(feeds)
    if hit:
        return SepClassification(NOT_PRESERVER, witness=hit[1], grid=grid)
    form = _sep_form(_SEP_TAGS[tuple(src for src, _ in slots)], [param for _, param in slots])
    return SepClassification(FORM, form=form, grid=grid, residual=residual)


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
    m >= mn, so n = 1; but a dimension-1 input feeds nothing, so the
    column letter is a', not c'.  For (b,b') likewise m = 1.

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


@lru_cache(maxsize=None)
def _multi_probes(dims):
    """The uniform product state as a one-row :func:`_scan` family of
    read-only arrays, built once per ``dims``."""
    stacks = [np.array([uniform_state(d).vector]) for d in dims]
    rows = np.zeros((1, len(dims)), dtype=int)
    for a in stacks + [rows]:
        a.flags.writeable = False
    return stacks, rows


def classify_multi_preserver(op: SuperOperator, tol: float = EPS_CLS,
                             seed: int = 0) -> MultiClassification:
    """Classify an n-factor map as a factor permutation with per-slot
    isometric conjugations, when its wiring determines one, along
    ``pure_analysis._decide`` with the uniform product state as an extra
    probe and witness scans capped at ``det_cap=729``.

    A map that passes with a slot fed by no input is indeterminate; a
    dimension-1 slot is never fed, and gets no other special case.
    Otherwise the feeds are a permutation.  A witness is the uniform state
    when its image fails, else the one
    ``find_product_witness(op, tol, seed, det_cap=729)`` finds.
    """
    if len(op.in_dims) < 2:
        raise StructureError("multipartite classification needs at least two factors")
    if op.in_dims != op.out_dims:
        raise StructureError("multipartite classification needs matching input/output dims")
    hit, feeds, slots, residual = _decide(op, tol, seed, _multi_probes(op.in_dims), 729)
    if hit:
        return MultiClassification(NOT_PRESERVER, witness=hit[1])
    if [] in feeds:
        return MultiClassification(INSUFFICIENT, detail=(
            f"output slot {feeds.index([]) + 1} is fed by no input factor: "
            "varying any one input leaves it fixed"))
    form = MultiForm(tuple(src + 1 for src, _ in slots), tuple(iso for _, iso in slots))
    return MultiClassification(MULTI_FORM, form=form, residual=residual)


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
    hit = _scan(op, tol, random_tries=samples, seed=seed)
    if hit is None:
        return MCProductResult(True, samples)
    return MCProductResult(False, hit[0] + 1, witness=hit[1])
