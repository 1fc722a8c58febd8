"""JSON interchange for matrices, maps, states and reports.

:func:`report` writes every classification and Monte-Carlo verification
result in the schema of its kind, with one witness encoding: a pure state is
its projection's matrix, a tuple of factor states ``{"factors": [...]}``.

Validation errors carry the offending field path so command-line users can
locate the problem; unknown basis tags are rejected rather than guessed at,
and so are entries that are not JSON numbers or do not fit a float.

A map's coefficient matrix has D⁴ entries (36 MB of text at dims (6,6)), so
``write_superop`` streams it one row at a time, in the same bytes as
``dumps(superop_to_json(op))``, without holding the whole matrix as Python
floats or as one string.
"""

import itertools
import json
import math

import numpy as np

from . import basis
from .errors import StructureError
from .linalg import HermitianOperator, PureState, herm, pure_state
from .pure_analysis import MCResult, PureClassification
from .sep_analysis import (
    FORM,
    INSUFFICIENT,
    MULTI_FORM,
    MCProductResult,
    SepClassification,
    check_both_directions,
)
from .superop import Isometry, SuperOperator, _sep_slots, isometry, make_superop


def _need(obj, key, path):
    if not isinstance(obj, dict):
        raise StructureError(f"{path}: expected an object")
    if key not in obj:
        raise StructureError(f"{path}.{key}: missing field")
    return obj[key]


def _need_dims(obj, key, path) -> list:
    """The factor dims ``obj[key]``: a nonempty list of positive integers
    (JSON booleans are not integers here)."""
    dims = _need(obj, key, path)
    if not isinstance(dims, list) or not dims or not all(type(d) is int and d >= 1 for d in dims):
        raise StructureError(f"{path}.{key}: expected a nonempty list of positive integers")
    return dims


def _need_numbers(rows, path):
    """Refuse entries of the 2-d list ``rows`` that are not JSON numbers:
    strings, booleans and nulls, which NumPy would turn into floats."""
    kinds = set(map(type, itertools.chain.from_iterable(rows)))
    if not kinds <= {int, float}:
        names = ", ".join(sorted({bool: "boolean", str: "string", type(None): "null"}.get(
            k, k.__name__) for k in kinds - {int, float}))
        raise StructureError(f"{path}: expected numbers, got {names}")


def _float_array(value, path):
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError as exc:
        raise StructureError(f"{path}: a number is too large for a float") from exc
    except (TypeError, ValueError) as exc:
        raise StructureError(f"{path}: not a numeric array ({exc})") from exc


def _as_float_rows(value, path):
    arr = _float_array(value, path)
    if arr.ndim != 2:
        raise StructureError(f"{path}: expected a 2-d array, got {arr.ndim}-d")
    _need_numbers(value, path)
    return arr


def _complex_matrix(obj, path):
    re = _as_float_rows(_need(obj, "re", path), f"{path}.re")
    im = _as_float_rows(_need(obj, "im", path), f"{path}.im")
    if re.shape != im.shape:
        raise StructureError(f"{path}: re/im shapes differ {re.shape} vs {im.shape}")
    return re + 1j * im


def matrix_to_json(op: HermitianOperator) -> dict:
    dims = op.dims if op.dims is not None else (op.dim,)
    return {
        "dims": list(dims),
        "re": op.matrix.real.tolist(),
        "im": op.matrix.imag.tolist(),
    }


def matrix_from_json(obj, path: str = "$") -> HermitianOperator:
    dims = _need_dims(obj, "dims", path)
    mat = _complex_matrix(obj, path)
    d = math.prod(dims)
    if mat.shape != (d, d):
        raise StructureError(f"{path}: matrix shape {mat.shape} != dims product {d}")
    try:
        return herm(mat, dims)
    except StructureError as exc:
        raise StructureError(f"{path}: {exc}") from exc


def _superop_head(op: SuperOperator) -> dict:
    return {"in_dims": list(op.in_dims), "out_dims": list(op.out_dims), "basis": basis.BASIS_TAG}


def superop_to_json(op: SuperOperator) -> dict:
    return {**_superop_head(op), "coeff": op.coeff.tolist()}


def write_superop(op: SuperOperator, fh) -> None:
    """Write ``dumps(superop_to_json(op))`` to the text stream ``fh``, one
    coefficient row at a time."""
    fh.write(dumps({**_superop_head(op), "coeff": []})[:-len("]}\n")])
    for i, row in enumerate(op.coeff):
        if i:
            fh.write(",")
        fh.write(json.dumps(row.tolist(), separators=(",", ":")))
    fh.write("]}\n")


def superop_from_json(obj, path: str = "$") -> SuperOperator:
    tag = _need(obj, "basis", path)
    if tag != basis.BASIS_TAG:
        raise StructureError(f"{path}.basis: unknown basis tag {tag!r}, expected {basis.BASIS_TAG!r}")
    in_dims = _need_dims(obj, "in_dims", path)
    out_dims = _need_dims(obj, "out_dims", path)
    coeff = _as_float_rows(_need(obj, "coeff", path), f"{path}.coeff")
    try:
        return make_superop(in_dims, out_dims, coeff)
    except StructureError as exc:
        raise StructureError(f"{path}.coeff: {exc}") from exc


def vector_to_json(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


def vector_from_json(obj, path: str) -> np.ndarray:
    arr = _float_array(obj, path)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise StructureError(f"{path}: expected a list of [re, im] pairs")
    _need_numbers(obj, path)
    return arr[:, 0] + 1j * arr[:, 1]


def state_to_json(state) -> dict:
    return {
        "dims": list(state.dims),
        "terms": [
            {"p": float(w), "factors": [vector_to_json(f.vector) for f in t]}
            for w, t in zip(state.weights, state.terms)
        ],
    }


def state_from_json(obj, path: str = "$"):
    from .states import separable_state

    dims = _need_dims(obj, "dims", path)
    terms_obj = _need(obj, "terms", path)
    if not isinstance(terms_obj, list) or not terms_obj:
        raise StructureError(f"{path}.terms: expected a nonempty list")
    weights, terms = [], []
    for i, term in enumerate(terms_obj):
        tp = f"{path}.terms[{i}]"
        p = _need(term, "p", tp)
        try:
            finite = type(p) in (int, float) and math.isfinite(p)
        except OverflowError:       # an integer beyond the float range
            finite = False
        if not finite:
            raise StructureError(f"{tp}.p: expected a finite number")
        weights.append(p)
        factors = _need(term, "factors", tp)
        if not isinstance(factors, list) or len(factors) != len(dims):
            raise StructureError(f"{tp}.factors: expected {len(dims)} factor vectors")
        states = []
        for j, f in enumerate(factors):
            v = vector_from_json(f, f"{tp}.factors[{j}]")
            if v.shape[0] != dims[j]:
                raise StructureError(f"{tp}.factors[{j}]: length {v.shape[0]} != dim {dims[j]}")
            states.append(pure_state(v))
        terms.append(tuple(states))
    try:
        return separable_state(weights, terms)
    except StructureError as exc:
        raise StructureError(f"{path}: {exc}") from exc


def isometry_to_json(iso: Isometry) -> dict:
    return {
        "re": iso.matrix.real.tolist(),
        "im": iso.matrix.imag.tolist(),
        "flag": iso.flag,
    }


def isometry_from_json(obj, path: str = "$") -> Isometry:
    mat = _complex_matrix(obj, path)
    flag = _need(obj, "flag", path)
    try:
        return isometry(mat, flag)
    except StructureError as exc:
        raise StructureError(f"{path}: {exc}") from exc


def _pure_to_json(p: PureState) -> dict:
    return matrix_to_json(p.projection)


def _witness_to_json(w) -> dict | None:
    """A witness of any result: a pure state as its projection, a tuple of
    factor states as ``{"factors": [...]}``."""
    if isinstance(w, PureState):
        return _pure_to_json(w)
    return {"factors": [_pure_to_json(p) for p in w]} if w is not None else None


# ---------------------------------------------------------------------------
# classification and verification reports

def report(r) -> dict:
    """The report of a classification or a Monte-Carlo verification, in the
    schema of its kind."""
    witness = _witness_to_json(r.witness)
    if isinstance(r, (MCResult, MCProductResult)):
        return {"passed": bool(r.passed), "samples": int(r.samples), "witness": witness}
    if isinstance(r, PureClassification):
        return {
            "kind": r.kind,
            "R": _pure_to_json(r.replacement) if r.replacement is not None else None,
            "V": isometry_to_json(r.isometry) if r.isometry is not None else None,
            "flag": r.isometry.flag if r.isometry is not None else None,
            "witness": witness,
            "residual": float(r.residual),
        }
    if isinstance(r, SepClassification):
        slots = _sep_slots(r.form) if r.kind == FORM else ()
        params = {f"R{j + 1}" if src is None else f"U{j + 1}":
                  _pure_to_json(p) if src is None else isometry_to_json(p)
                  for j, (src, p) in enumerate(slots)}
        return {
            "form": r.form.tag if r.kind == FORM else "none",
            "params": dict(sorted(params.items())),
            "witness": witness,
            "grid": list(r.grid) if r.grid is not None else None,
            "residual": float(r.residual),
            "both_directions": check_both_directions(r),
        }
    if r.kind == MULTI_FORM:
        form, params = "multi", {"pi": list(r.form.perm),
                                 "isometries": [isometry_to_json(u) for u in r.form.isometries]}
    elif r.kind == INSUFFICIENT:
        form, params = "insufficient", {"detail": r.detail}
    else:
        form, params = "none", {}
    return {"form": form, "params": params, "witness": witness, "residual": float(r.residual)}


def dumps(obj) -> str:
    """Canonical one-line UTF-8 JSON with a trailing newline."""
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"
