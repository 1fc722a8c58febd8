"""JSON interchange round trips and validation error paths."""

import io
import json
import tracemalloc

import numpy as np
import pytest

from preservers import (
    MultiForm,
    SepForm,
    StructureError,
    basis_state,
    canonical_multi,
    canonical_sep,
    random_hermitian,
    random_isometry,
    random_pure,
    sample_separable,
    separable_state,
    superop_equal,
    trace_replacer,
)
from preservers.serialize import (
    dumps,
    isometry_from_json,
    isometry_to_json,
    matrix_from_json,
    matrix_to_json,
    state_from_json,
    state_to_json,
    superop_from_json,
    superop_to_json,
    write_superop,
)


def test_matrix_round_trip():
    a = random_hermitian(6, 0, dims=(2, 3))
    obj = matrix_to_json(a)
    assert obj["dims"] == [2, 3]
    back = matrix_from_json(json.loads(json.dumps(obj)))
    assert np.allclose(back.matrix, a.matrix, atol=1e-15)
    assert back.dims == (2, 3)


def test_matrix_validation_paths():
    with pytest.raises(StructureError, match=r"\$\.dims"):
        matrix_from_json({"re": [[1]], "im": [[0]]})
    with pytest.raises(StructureError, match=r"\$\.re"):
        matrix_from_json({"dims": [2], "im": [[0, 0], [0, 0]]})
    with pytest.raises(StructureError, match="shape"):
        matrix_from_json({"dims": [3], "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]})
    with pytest.raises(StructureError, match="Hermitian"):
        matrix_from_json({"dims": [2], "re": [[0, 1], [0, 0]], "im": [[0, 0], [0, 0]]})


EYE2 = {"dims": [2], "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}
TERM2 = {"p": 1.0, "factors": [[[1, 0], [0, 0]]]}


@pytest.mark.parametrize("read, obj, where, message", [
    (matrix_from_json, [1], r"\$", "expected an object"),
    (matrix_from_json, {**EYE2, "re": [[1, "x"], [0, 1]]}, r"\$\.re", "not a numeric array"),
    (matrix_from_json, {**EYE2, "re": [[1, [0]], [0, 1]]}, r"\$\.re", "not a numeric array"),
    (matrix_from_json, {**EYE2, "im": [0, 0]}, r"\$\.im", "expected a 2-d array, got 1-d"),
    (matrix_from_json, {**EYE2, "im": [[0, 0]]}, r"\$", "re/im shapes differ"),
    (state_from_json, {"dims": [2], "terms": [{"p": 1.0, "factors": [[[1, 0, 0], [0, 0, 0]]]}]},
     r"\$\.terms\[0\]\.factors\[0\]", r"expected a list of \[re, im\] pairs"),
    (state_from_json, {"dims": [2], "terms": []}, r"\$\.terms", "expected a nonempty list"),
    (state_from_json, {"dims": [2], "terms": [{**TERM2, "p": 0.5}]}, r"\$", "weights sum to 0.5"),
], ids=["not-an-object", "string-entry", "ragged-rows", "one-d-rows", "re-im-shapes",
        "vector-not-pairs", "empty-terms", "weights-off-one"])
def test_malformed_json_is_refused_with_its_path(read, obj, where, message):
    with pytest.raises(StructureError, match=f"^{where}: {message}"):
        read(obj)


def test_superop_round_trip_and_basis_tag():
    op = trace_replacer(random_pure(3, 1), (2,), (3,))
    obj = superop_to_json(op)
    assert obj["basis"] == "gellmann-v1"
    back = superop_from_json(json.loads(json.dumps(obj)))
    assert superop_equal(op, back, 1e-12).equal
    obj["basis"] = "pauli-v2"
    with pytest.raises(StructureError, match="basis"):
        superop_from_json(obj)


def test_superop_shape_validation():
    with pytest.raises(StructureError, match="coeff"):
        superop_from_json({"in_dims": [2], "out_dims": [2],
                           "basis": "gellmann-v1", "coeff": [[1.0, 0.0]]})
    with pytest.raises(StructureError, match="in_dims"):
        superop_from_json({"in_dims": [0], "out_dims": [2],
                           "basis": "gellmann-v1", "coeff": [[1.0]]})


def test_state_round_trip():
    s = sample_separable((2, 3), 3, 4)
    obj = state_to_json(s)
    back = state_from_json(json.loads(json.dumps(obj)))
    assert np.max(np.abs(back.density.matrix - s.density.matrix)) < 1e-12
    assert back.weights == pytest.approx(s.weights)


def test_state_validation_paths():
    with pytest.raises(StructureError, match=r"terms\[0\]\.factors"):
        state_from_json({"dims": [2, 2], "terms": [{"p": 1.0, "factors": [[[1, 0], [0, 0]]]}]})
    with pytest.raises(StructureError, match=r"factors\[0\]"):
        state_from_json({"dims": [2, 2], "terms": [
            {"p": 1.0, "factors": [[[1, 0], [0, 0], [0, 0]], [[1, 0], [0, 0]]]}]})
    factors = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    for p in (float("nan"), float("inf"), True, "x", None):
        with pytest.raises(StructureError, match=r"\$\.terms\[1\]\.p"):
            state_from_json({"dims": [2, 2], "terms": [{"p": 0.5, "factors": factors},
                                                      {"p": p, "factors": factors}]})
    term = (basis_state(2, 0), basis_state(2, 1))
    for weights in ([float("nan")], [0.5, float("nan")], [float("inf")]):
        with pytest.raises(StructureError, match="positive and finite"):
            separable_state(weights, [term] * len(weights))


def test_boolean_scalar_and_empty_dims_are_rejected():
    eye = {"re": np.eye(4).tolist(), "im": np.zeros((4, 4)).tolist()}
    with pytest.raises(StructureError, match=r"\$\.dims"):
        matrix_from_json({"dims": [True, 4], **eye})
    with pytest.raises(StructureError, match=r"\$\.dims"):
        matrix_from_json({"dims": [], "re": [[1]], "im": [[0]]})
    obj = superop_to_json(trace_replacer(random_pure(4, 2), (2, 2), (2, 2)))
    for key in ("in_dims", "out_dims"):
        with pytest.raises(StructureError, match=rf"\$\.{key}"):
            superop_from_json({**obj, key: [True, 4]})
    term = {"p": 1.0, "factors": [[[1, 0], [0, 0]]]}
    for dims in (2, [True], [2.0]):
        with pytest.raises(StructureError, match=r"\$\.dims"):
            state_from_json({"dims": dims, "terms": [term]})
    with pytest.raises(StructureError, match=r"\$\.dims"):
        state_from_json({"dims": [], "terms": [{"p": 1.0, "factors": []}]})


def test_json_entries_must_be_numbers():
    """NumPy reads the JSON string "1" and true as 1.0 and null as NaN; each
    is refused with the path of the field that holds it."""
    eye = {"dims": [2], "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}
    factors = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    iso = {"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]], "flag": "linear"}
    coeff = superop_to_json(trace_replacer(random_pure(2, 2), (2,), (2,)))
    for bad, name in (("1", "string"), (True, "boolean"), (None, "null")):
        for key in ("re", "im"):
            obj = json.loads(json.dumps(eye))
            obj[key][1][1] = bad
            with pytest.raises(StructureError, match=rf"\$\.{key}: expected numbers, got {name}"):
                matrix_from_json(obj)
            obj = json.loads(json.dumps(iso))
            obj[key][0][0] = bad
            with pytest.raises(StructureError, match=rf"\$\.{key}: expected numbers, got {name}"):
                isometry_from_json(obj)
        obj = json.loads(json.dumps(coeff))
        obj["coeff"][2][3] = bad
        with pytest.raises(StructureError, match=rf"\$\.coeff: expected numbers, got {name}"):
            superop_from_json(obj)
        for i in (0, 1):
            vec = [[1, 0], [0, 0]]
            vec[1][i] = bad
            term = {"p": 1.0, "factors": [factors[0], vec]}
            with pytest.raises(StructureError,
                               match=rf"\$\.terms\[0\]\.factors\[1\]: expected numbers, got {name}"):
                state_from_json({"dims": [2, 2], "terms": [term]})
    # the same entries as JSON numbers are accepted
    assert matrix_from_json(eye).matrix[0, 0] == 1.0
    assert state_from_json({"dims": [2, 2], "terms": [{"p": 1, "factors": factors}]}).dims == (2, 2)


def test_json_nulls_are_not_read_as_nan():
    """A JSON null would be NaN to NumPy; neither a matrix nor a state
    with one comes back as a NaN object."""
    obj = json.loads('{"dims": [2], "re": [[null, 0], [0, 1]], "im": [[0, 0], [0, 0]]}')
    with pytest.raises(StructureError, match=r"\$\.re"):
        matrix_from_json(obj)
    obj = json.loads('{"dims": [2], "terms": [{"p": 1, "factors": [[[null, 0], [1, 0]]]}]}')
    with pytest.raises(StructureError, match=r"\$\.terms\[0\]\.factors\[0\]"):
        state_from_json(obj)


def test_isometry_round_trip():
    iso = random_isometry(3, 2, 5, "conjugate")
    back = isometry_from_json(json.loads(json.dumps(isometry_to_json(iso))))
    assert back.flag == "conjugate"
    assert np.allclose(back.matrix, iso.matrix, atol=1e-15)
    with pytest.raises(StructureError):
        isometry_from_json({"re": [[1, 0], [0, 2]], "im": [[0, 0], [0, 0]],
                            "flag": "linear"})


def test_dumps_is_single_line_utf8():
    text = dumps({"grid": ["a", "b′"]})
    assert text.endswith("\n") and text.count("\n") == 1
    assert "b′" in text


def _form6(dims, seed, out_dims=None):
    rng = np.random.default_rng(seed)
    out_dims = out_dims or dims
    return canonical_sep(SepForm(6, u1=random_isometry(out_dims[0], dims[0], rng),
                                 u2=random_isometry(out_dims[1], dims[1], rng, "conjugate")), dims)


def test_write_superop_is_dumps_of_superop_to_json():
    """The streamed map text is the one-shot text, byte for byte."""
    rng = np.random.default_rng(11)
    multi = canonical_multi(MultiForm((2, 3, 1), tuple(
        random_isometry(2, 2, rng, flag) for flag in ("linear", "conjugate", "linear"))), (2, 2, 2))
    ops = [trace_replacer(random_pure(3, rng), (2,), (3,)), _form6((2, 3), 1), multi,
           _form6((1, 3), 2, (2, 3))]
    for op in ops:
        buf = io.StringIO()
        write_superop(op, buf)
        assert buf.getvalue() == dumps(superop_to_json(op))
        assert superop_equal(superop_from_json(json.loads(buf.getvalue())), op, 0.0).equal


class _Discard:
    def write(self, text):
        return len(text)


def test_write_superop_holds_one_row_at_a_time():
    """Writing an exact (4,4) map allocates a small fraction of its matrix;
    the one-shot text holds it about eleven times over."""
    op = _form6((4, 4), 3)
    tracemalloc.start()
    try:
        write_superop(op, _Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * op.coeff.nbytes


def test_numbers_too_large_for_a_float_are_refused():
    """A JSON integer beyond the float range is malformed input naming its
    field, not an OverflowError."""
    big = 10**400
    coeff = superop_to_json(trace_replacer(random_pure(2, 2), (2,), (2,)))
    coeff["coeff"][1][2] = big
    with pytest.raises(StructureError, match=r"\$\.coeff: a number is too large"):
        superop_from_json(coeff)
    for key in ("re", "im"):
        obj = {"dims": [2], "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}
        obj[key][0][1] = -big
        with pytest.raises(StructureError, match=rf"\$\.{key}: a number is too large"):
            matrix_from_json(obj)
        obj = {"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]], "flag": "linear"}
        obj[key][1][0] = big
        with pytest.raises(StructureError, match=rf"\$\.{key}: a number is too large"):
            isometry_from_json(obj)
    with pytest.raises(StructureError, match=r"\$\.terms\[0\]\.p: expected a finite number"):
        state_from_json({"dims": [2], "terms": [{"p": big, "factors": [[[1, 0], [0, 0]]]}]})
    with pytest.raises(StructureError, match=r"\$\.terms\[0\]\.factors\[0\]: a number is too large"):
        state_from_json({"dims": [2], "terms": [{"p": 1, "factors": [[[1, 0], [0, big]]]}]})
