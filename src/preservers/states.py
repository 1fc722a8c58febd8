"""Separable states as explicit convex combinations of product pure states,
plus the PPT entanglement falsifier and preserver-based filtering.

The internal representation keeps every term as a weight with one pure state
per factor; mixed factors are pre-decomposed spectrally, so there is a single
canonical form.  PPT is shipped only to falsify separability (a negative
partial transpose certifies entanglement; a positive one proves nothing).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, StructureError
from .linalg import (
    PPT_TOL,
    HermitianOperator,
    PureState,
    _check_counts,
    _check_tol,
    as_rng,
    eig_hermitian,
    herm,
    partial_transpose,
    pure_state,
    random_pure,
    tensor_all,
)
from .sep_analysis import FORM, SepClassification
from .superop import CONJUGATE, Isometry, _sep_slots


@dataclass(frozen=True)
class SeparableState:
    """Convex combination of product pure states with a cached density."""

    weights: tuple[float, ...]
    terms: tuple[tuple[PureState, ...], ...]
    density: HermitianOperator

    @property
    def dims(self) -> tuple[int, ...]:
        return self.density.dims

    @property
    def k_terms(self) -> int:
        return len(self.weights)


def _check_weights(weights, terms):
    """Refuse weights that are not one positive finite number per term, or
    that do not sum to 1."""
    if len(weights) != len(terms) or not weights:
        raise StructureError("need one factor list per weight")
    if not all(0 < w < math.inf for w in weights):  # NaN fails every comparison
        raise StructureError("weights must be positive and finite")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise StructureError(f"weights sum to {sum(weights)!r}, not 1")


def separable_state(weights, terms) -> SeparableState:
    """Validate weights and assemble the density matrix."""
    weights = tuple(float(w) for w in weights)
    terms = tuple(tuple(t) for t in terms)
    _check_weights(weights, terms)
    dims = tuple(f.dim for f in terms[0])
    if not dims:
        raise StructureError("a term needs at least one factor")
    for t in terms:
        if tuple(f.dim for f in t) != dims:
            raise StructureError("all terms must share the same factor dimensions")
    d = math.prod(dims)
    rho = np.zeros((d, d), dtype=np.complex128)
    for w, t in zip(weights, terms):
        rho += w * tensor_all([f.projection for f in t]).matrix
    return SeparableState(weights, terms, HermitianOperator(rho, dims))


def separable_from_mixed(weights, factor_matrices, tol: float = 1e-12) -> SeparableState:
    """Decompose terms with mixed factors into pure terms spectrally.

    ``factor_matrices`` holds, per term, one positive unit-trace matrix per
    factor; each is eigendecomposed and the eigen-branches multiply out into
    pure product terms (eigenvalues at or below ``tol`` are dropped, with
    0 <= tol < inf).  The weights and the factor traces are checked first,
    to 1e-12, not normalised away, and a factor with no eigenvalue above
    ``tol`` is refused, not dropped with its term.
    """
    _check_tol(tol)
    weights = [float(w) for w in weights]
    factor_ops = [[herm(mat) for mat in mats] for mats in factor_matrices]
    _check_weights(weights, factor_ops)
    for op in itertools.chain.from_iterable(factor_ops):
        if abs(op.trace() - 1.0) > 1e-12:
            raise StructureError(f"a factor matrix has trace {op.trace()!r}, not 1")
    out_w, out_t = [], []
    for w, ops in zip(weights, factor_ops):
        kept = []
        for op in ops:
            vals, vecs = eig_hermitian(op)
            if vals[-1] < -1e-10:
                raise StructureError("factor matrix is not positive semidefinite")
            kept.append([(float(lam), pure_state(vecs[:, i])) for i, lam in enumerate(vals)
                         if lam > tol])
            if not kept[-1]:
                raise StructureError(f"a factor matrix has no eigenvalue above tol={tol!r}")
        for branch in itertools.product(*kept):
            out_w.append(math.prod([w] + [lam for lam, _ in branch]))
            out_t.append(tuple(p for _, p in branch))
    total = sum(out_w)
    return separable_state([w / total for w in out_w], out_t)


def sample_separable(dims, k_terms: int, seed=0) -> SeparableState:
    """Dirichlet weights over random product pure terms; deterministic per seed."""
    _check_counts(k_terms)
    if k_terms < 1:
        raise StructureError("need at least one term")
    rng = as_rng(seed)
    weights = rng.dirichlet(np.ones(k_terms))
    terms = [tuple(random_pure(d, rng) for d in dims) for _ in range(k_terms)]
    return separable_state(weights, terms)


@dataclass(frozen=True)
class PptResult:
    positive: bool
    min_eigenvalue: float


def ppt_check(rho: HermitianOperator, tol: float = PPT_TOL) -> PptResult:
    """Peres test: a negative eigenvalue of the first-factor partial transpose
    certifies entanglement; positivity is inconclusive."""
    _check_tol(tol)
    dims = rho.factor_dims()
    if len(dims) != 2:
        raise StructureError("the PPT test expects exactly two factors")
    w, _ = eig_hermitian(partial_transpose(rho, 1))
    min_eig = float(w[-1])
    return PptResult(min_eig >= -tol, min_eig)


def _map_factor(iso: Isometry, state: PureState) -> PureState:
    """Image factor of a pure state under an isometric conjugation, on the
    vector level (conjugate flag conjugates the representative)."""
    vec = state.vector.conj() if iso.flag == CONJUGATE else state.vector
    return pure_state(iso.matrix @ vec)


def filter_apply(classification: SepClassification, state: SeparableState) -> SeparableState:
    """Push a separable state through a classified tag 1-7 preserver termwise.

    Each product pure term maps to a product pure term with its weight
    unchanged, so the output is separable by construction; the result's
    density agrees with applying the map to the input density.
    """
    if classification.kind != FORM:
        raise ContractError(
            "filtering requires a constructive form 1-7 classification, "
            f"got {classification.kind!r}"
        )
    if len(state.dims) != 2:
        raise StructureError("bipartite filters expect two-factor states")
    slots = _sep_slots(classification.form)

    def map_term(factors):
        return tuple(p if src is None else _map_factor(p, factors[src]) for src, p in slots)

    return separable_state(state.weights, [map_term(t) for t in state.terms])


def convex_mix(a: SeparableState, b: SeparableState, t: float) -> SeparableState:
    """Convex combination t*a + (1-t)*b as a separable state."""
    if not 0.0 < t < 1.0:
        raise StructureError("mixing parameter must lie strictly between 0 and 1")
    weights = [t * w for w in a.weights] + [(1.0 - t) * w for w in b.weights]
    return separable_state(weights, list(a.terms) + list(b.terms))
