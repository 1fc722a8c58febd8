"""Superoperator representation, canonical constructors and affine extension."""

import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import legal_dims, random_sep_form
from preservers import (
    CONJUGATE,
    LINEAR,
    ContractError,
    HermitianOperator,
    Isometry,
    MultiForm,
    SepForm,
    StructureError,
    affine_to_linear,
    apply,
    canonical_multi,
    canonical_sep,
    compose,
    conjugation,
    eig_hermitian,
    from_action,
    herm,
    identity_superop,
    inverse_sep_form,
    is_product_pure,
    isometry,
    make_superop,
    partial_trace,
    partial_transpose,
    permute_factors,
    pure_state,
    random_hermitian,
    random_isometry,
    random_pure,
    random_unitary,
    superop_equal,
    swap_theta,
    tensor,
    tensor_all,
    to_choi,
    trace_norm,
    trace_replacer,
)
from preservers import basis_state
from preservers.basis import basis_element, basis_label, coords, from_coords, projection_coords
from preservers import superop
from preservers.pure_analysis import _propose
from preservers.superop import (
    BLOCK_ENTRIES,
    SuperOperator,
    _coeff_blocks,
    _compare_product,
    _product_map,
    _sep_slots,
    conjugate_operator,
)


def test_basis_orthonormality_and_labels():
    for d in (2, 3, 5):
        mats = [basis_element(d, i) for i in range(d * d)]
        gram = np.array([[np.trace(x @ y).real for y in mats] for x in mats])
        assert np.allclose(gram, np.eye(d * d), atol=1e-12)
        for m in mats:
            assert np.allclose(m, m.conj().T)
    assert basis_label(2, 0) == "E00"
    assert basis_label(2, 2) == "X01"
    assert basis_label(2, 3) == "Y01"


def test_coords_round_trip():
    rng = np.random.default_rng(0)
    for d in (2, 4, 6):
        a = random_hermitian(d, rng)
        v = coords(a.matrix)
        assert v.dtype == np.float64
        assert np.allclose(from_coords(v, d), a.matrix, atol=1e-12)


def test_stacked_coords_match_per_matrix_calls():
    rng = np.random.default_rng(30)
    for d in (1, 2, 3, 5):
        stack = np.array([[random_hermitian(d, rng).matrix for _ in range(3)]
                          for _ in range(4)])
        c = coords(stack)
        assert c.shape == (4, 3, d * d)
        assert np.array_equal(c, np.array([[coords(a) for a in row] for row in stack]))
        back = from_coords(c, d)
        assert back.shape == (4, 3, d, d)
        assert np.array_equal(back, np.array([[from_coords(v, d) for v in row] for row in c]))


def test_projection_coords_are_coords_of_the_outer_products():
    """On every block size a scan uses (up to ``BLOCK_ENTRIES // d**2``
    vectors), the coordinates of psi psi+ taken from the vectors are bit
    for bit those of the outer products, also for a reversed, strided
    stack; a stack with two leading axes keeps its shape."""
    rng = np.random.default_rng(31)
    for d in range(1, 17):
        cap = max(1, BLOCK_ENTRIES // d ** 2)
        for t in sorted({1, 2, 3, cap // 2 or 1, cap}):
            psi = rng.standard_normal((t, d)) + 1j * rng.standard_normal((t, d))
            for v in (psi, psi[::-1, ::-1]):
                want = coords(v[:, :, None] * v[:, None, :].conj())
                assert np.array_equal(projection_coords(v), want), (d, t)
    psi = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
    assert np.array_equal(projection_coords(psi), coords(psi[..., :, None] * psi[..., None, :].conj()))


def test_from_action_identity_transpose_and_trace():
    ident = from_action((2,), (2,), lambda a: a)
    assert np.allclose(ident.coeff, np.eye(4))
    transpose = from_action((2,), (2,), lambda a: HermitianOperator(a.matrix.T, (2,)))
    assert np.allclose(transpose.coeff, np.diag([1.0, 1.0, 1.0, -1.0]))
    e00 = basis_state(2, 0).projection
    tr_map = from_action((2,), (2,), lambda a: HermitianOperator(a.trace() * e00.matrix, (2,)))
    assert np.linalg.matrix_rank(tr_map.coeff) == 1


def test_from_action_output_dim_mismatch():
    with pytest.raises(StructureError):
        from_action((2,), (3,), lambda a: a)


def test_from_action_refuses_images_that_are_not_operators():
    with pytest.raises(StructureError, match="action returned ndarray, expected a HermitianOperator"):
        from_action((2,), (2,), lambda a: a.matrix)


def test_apply_contracts():
    rng = np.random.default_rng(1)
    ident = identity_superop((2, 2))
    a = random_hermitian(4, rng, dims=(2, 2))
    assert np.allclose(apply(ident, a).matrix, a.matrix)
    zero = HermitianOperator(np.zeros((4, 4)), (2, 2))
    assert np.allclose(apply(ident, zero).matrix, 0)
    with pytest.raises(StructureError):
        apply(ident, random_hermitian(3, rng))

    def f(x):
        return HermitianOperator(x.matrix.T * 2.0 + np.trace(x.matrix) * np.eye(3), (3,))

    op = from_action((3,), (3,), f)
    for _ in range(100):
        x = random_hermitian(3, rng)
        assert np.allclose(apply(op, x).matrix, f(x).matrix, atol=1e-12)


def test_from_action_apply_round_trip_exact():
    rng = np.random.default_rng(2)
    op = make_superop((2,), (3,), rng.standard_normal((9, 4)))
    rebuilt = from_action((2,), (3,), lambda a: apply(op, a))
    assert np.max(np.abs(rebuilt.coeff - op.coeff)) <= 1e-12


def test_trace_replacer_examples():
    rng = np.random.default_rng(3)
    r = random_pure(3, rng)
    op = trace_replacer(r, (2,), (3,))
    p = random_pure(2, rng)
    assert np.allclose(apply(op, p.projection.with_dims((2,))).matrix,
                       r.projection.matrix, atol=1e-12)
    a0 = herm(np.diag([1.0, -1.0]))
    assert np.allclose(apply(op, a0).matrix, 0, atol=1e-12)
    scaled = HermitianOperator(3.0 * p.projection.matrix, (2,))
    assert np.allclose(apply(op, scaled).matrix, 3.0 * r.projection.matrix, atol=1e-12)


def test_conjugation_examples():
    ident = conjugation(isometry(np.eye(2), LINEAR))
    assert np.allclose(ident.coeff, np.eye(4))
    transpose = conjugation(isometry(np.eye(2), CONJUGATE))
    assert np.allclose(transpose.coeff, np.diag([1.0, 1.0, 1.0, -1.0]))
    v = np.zeros((3, 2), dtype=complex)
    v[0, 0] = 1
    v[1, 1] = 1
    op = conjugation(isometry(v))
    e00 = basis_state(2, 0).projection.with_dims((2,))
    out = apply(op, e00)
    expected = v @ e00.matrix @ v.conj().T
    assert np.allclose(out.matrix, expected, atol=1e-12)
    assert out.dim == 3


def test_conjugation_preserves_spectrum_padded():
    rng = np.random.default_rng(4)
    iso = random_isometry(3, 2, rng)
    op = conjugation(iso)
    for _ in range(10):
        a = random_hermitian(2, rng)
        w_in, _ = eig_hermitian(a)
        w_out, _ = eig_hermitian(apply(op, a))
        padded = np.sort(np.concatenate([w_in, [0.0]]))[::-1]
        assert np.allclose(np.sort(w_out), np.sort(padded), atol=1e-10)


def test_isometry_validation():
    with pytest.raises(StructureError):
        isometry(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(StructureError):
        isometry(np.eye(2), "sideways")
    with pytest.raises(StructureError):
        random_isometry(2, 3, 0)
    # a 1-d vector is the one column of an isometry from dimension 1
    assert isometry(np.array([0.0, 1.0])).matrix.shape == (2, 1)
    # random_unitary(0) returned a 0 x 0 array, random_isometry(0, 0) an empty isometry
    for make in (lambda: random_unitary(0), lambda: random_unitary(2.5),
                 lambda: random_isometry(0, 0), lambda: random_isometry(2, 1.0),
                 lambda: random_isometry(2, True)):
        with pytest.raises(StructureError, match="positive integers"):
            make()


def test_non_finite_input_is_refused():
    """Every deviation test is false for NaN, so each check is phrased as a
    comparison that NaN fails: non-finite input is refused, not carried
    into NaN operators, states, isometries or maps."""
    nan, inf = np.nan, np.inf
    for m in ([[nan, 0], [0, 1]], [[1, inf], [inf, 1]], [[inf, 0], [0, 1]], [[1j * inf]]):
        with pytest.raises(StructureError, match="not finite"):
            herm(m)
    for v in ([[nan], [0]], [[inf], [0]], [[1, 0], [0, nan]]):
        with pytest.raises(StructureError, match="not an isometry"):
            isometry(v)
    for v in ([nan, 1], [inf, 0], [1j * inf, 1], [0, 0]):
        with pytest.raises(StructureError, match="zero or non-finite"):
            pure_state(v)
    # finite entries whose squares overflow still normalize
    h = 2 ** -0.5
    assert np.allclose(pure_state([1e200, 1e200]).vector, [h, h], rtol=0, atol=1e-15)
    assert np.allclose(pure_state([1e300j, -1e300]).vector, [h, 1j * h], rtol=0, atol=1e-15)
    for value in (nan, inf):
        with pytest.raises(ContractError):
            affine_to_linear(lambda rho, value=value: np.full((2, 2), value), 2)
    with pytest.raises(ContractError):
        affine_to_linear(lambda rho: np.where(rho.real > 0.9, nan, rho), 2)


def test_canonical_sep_form_behaviors():
    rng = np.random.default_rng(5)
    r1, r2 = random_pure(2, rng), random_pure(2, rng)
    f1 = canonical_sep(SepForm(1, r1=r1, r2=r2), (2, 2))
    p, q = random_pure(2, rng), random_pure(2, rng)
    prod = tensor(p.projection, q.projection)
    assert np.allclose(apply(f1, prod).matrix,
                       tensor(r1.projection, r2.projection).matrix, atol=1e-12)

    f7 = canonical_sep(SepForm(7, u1=isometry(np.eye(2)), u2=isometry(np.eye(2))), (2, 2))
    assert np.allclose(apply(f7, prod).matrix, tensor(q.projection, p.projection).matrix,
                       atol=1e-12)

    f2 = canonical_sep(SepForm(2, u1=isometry(np.eye(2)), r2=r2), (2, 2))
    assert np.allclose(apply(f2, prod).matrix, tensor(p.projection, r2.projection).matrix,
                       atol=1e-12)


def test_canonical_sep_refuses_patterns_and_bad_dims():
    rng = np.random.default_rng(6)
    with pytest.raises(StructureError):
        canonical_sep(SepForm(8), (2, 2))
    with pytest.raises(StructureError):
        canonical_sep(SepForm(9), (2, 2))
    # form 7 with mismatched square shapes: u1 must map n -> out
    with pytest.raises(StructureError):
        canonical_sep(SepForm(7, u1=random_isometry(2, 2, rng),
                              u2=random_isometry(3, 3, rng)), (2, 3))
    with pytest.raises(StructureError):
        canonical_sep(SepForm(2, u1=random_isometry(3, 3, rng),
                              r2=random_pure(2, rng)), (2, 2))
    # missing parameters
    with pytest.raises(StructureError):
        canonical_sep(SepForm(3, r1=random_pure(2, rng)), (2, 2))
    with pytest.raises(StructureError):
        canonical_sep(SepForm(1, r1=random_pure(2, rng)), (2, 2))
    # unknown tags
    for tag in (0, 10):
        with pytest.raises(StructureError):
            canonical_sep(SepForm(tag, r1=random_pure(2, rng), r2=random_pure(2, rng)), (2, 2))
    # form 4 carries the second factor: u1 must take n = 2, not m = 3
    with pytest.raises(StructureError):
        canonical_sep(SepForm(4, u1=random_isometry(3, 3, rng),
                              r2=random_pure(2, rng)), (3, 2))
    # a raw isometry wider than its output breaks the dimension law
    with pytest.raises(StructureError, match="dimension law"):
        canonical_sep(SepForm(2, u1=Isometry(np.eye(3)[:2]), r2=random_pure(2, rng)), (3, 2))


def test_canonical_sep_outputs_product_pure():
    rng = np.random.default_rng(7)
    for tag in range(1, 8):
        for (m, n) in [(2, 2), (2, 3), (3, 2)]:
            if not legal_dims(tag, m, n):
                continue
            op = canonical_sep(random_sep_form(tag, m, n, rng), (m, n))
            for _ in range(100):
                prod = tensor(random_pure(m, rng).projection,
                              random_pure(n, rng).projection)
                ok, _ = is_product_pure(apply(op, prod), 1e-8)
                assert ok, (tag, m, n)


def test_canonical_sep_linearity_stress():
    rng = np.random.default_rng(8)
    op = canonical_sep(random_sep_form(6, 2, 3, rng), (2, 3))
    for _ in range(20):
        a = random_hermitian(6, rng, dims=(2, 3))
        b = random_hermitian(6, rng, dims=(2, 3))
        x, y = rng.uniform(-3, 3, size=2)
        lhs = apply(op, HermitianOperator(x * a.matrix + y * b.matrix, (2, 3)))
        rhs = x * apply(op, a).matrix + y * apply(op, b).matrix
        assert np.max(np.abs(lhs.matrix - rhs)) < 1e-10


def test_form6_inverse_composes_to_identity():
    rng = np.random.default_rng(9)
    form = SepForm(6, u1=random_isometry(3, 3, rng, CONJUGATE),
                   u2=random_isometry(2, 2, rng, LINEAR))
    op = canonical_sep(form, (3, 2))
    inv = canonical_sep(inverse_sep_form(form), (3, 2))
    assert superop_equal(compose(inv, op), identity_superop((3, 2)), 1e-9).equal
    assert superop_equal(compose(op, inv), identity_superop((3, 2)), 1e-9).equal


def test_form7_inverse_composes_to_identity():
    rng = np.random.default_rng(10)
    form = SepForm(7, u1=random_isometry(2, 2, rng, CONJUGATE),
                   u2=random_isometry(2, 2, rng, CONJUGATE))
    op = canonical_sep(form, (2, 2))
    inv = canonical_sep(inverse_sep_form(form), (2, 2))
    assert superop_equal(compose(inv, op), identity_superop((2, 2)), 1e-9).equal


def test_inverse_sep_form_contract():
    rng = np.random.default_rng(11)
    with pytest.raises(ContractError):
        inverse_sep_form(random_sep_form(1, 2, 2, rng))
    with pytest.raises(StructureError):
        inverse_sep_form(SepForm(6, u1=random_isometry(3, 2, rng),
                                 u2=random_isometry(2, 2, rng)))


def test_superop_equal_witness():
    ident = identity_superop((2,))
    transpose = conjugation(isometry(np.eye(2), CONJUGATE))
    cmp = superop_equal(ident, transpose, 1e-9)
    assert not cmp.equal
    assert (cmp.witness_in, cmp.witness_out) == (3, 3)  # Y01 -> -Y01
    assert abs(cmp.max_dev - 2.0) < 1e-12
    assert superop_equal(ident, ident).equal
    with pytest.raises(StructureError):
        superop_equal(ident, identity_superop((3,)))


def test_superop_equal_dual_construction():
    rng = np.random.default_rng(12)
    u1 = random_isometry(2, 2, rng, LINEAR)
    u2 = random_isometry(3, 3, rng, CONJUGATE)
    via_form = canonical_sep(SepForm(6, u1=u1, u2=u2), (2, 3))

    def direct(a):
        big = np.kron(u1.matrix, u2.matrix)
        from preservers import partial_transpose

        x = partial_transpose(a, 2).matrix
        return HermitianOperator(big @ x @ big.conj().T, (2, 3))

    via_action = from_action((2, 3), (2, 3), direct)
    assert superop_equal(via_form, via_action, 1e-9).equal


def test_canonical_multi_cases():
    rng = np.random.default_rng(13)
    ident = canonical_multi(
        MultiForm((1, 2), (isometry(np.eye(2)), isometry(np.eye(3)))), (2, 3))
    assert superop_equal(ident, identity_superop((2, 3)), 1e-12).equal

    u1 = random_isometry(2, 2, rng)
    u2 = random_isometry(3, 3, rng, CONJUGATE)
    via_multi = canonical_multi(MultiForm((1, 2), (u1, u2)), (2, 3))
    via_sep = canonical_sep(SepForm(6, u1=u1, u2=u2), (2, 3))
    assert superop_equal(via_multi, via_sep, 1e-12).equal

    w1 = random_isometry(2, 2, rng)
    w2 = random_isometry(2, 2, rng)
    via_multi7 = canonical_multi(MultiForm((2, 1), (w1, w2)), (2, 2))
    via_sep7 = canonical_sep(SepForm(7, u1=w1, u2=w2), (2, 2))
    assert superop_equal(via_multi7, via_sep7, 1e-12).equal

    e00 = basis_state(2, 0).projection
    e11 = basis_state(2, 1).projection
    q = random_pure(2, rng).projection
    op = canonical_multi(
        MultiForm((2, 3, 1), tuple(isometry(np.eye(2)) for _ in range(3))), (2, 2, 2))
    got = apply(op, tensor_all([e00, e11, q]))
    want = permute_factors(tensor_all([e00, e11, q]), (2, 3, 1))
    assert np.allclose(got.matrix, want.matrix, atol=1e-12)


def test_canonical_multi_dimension_law():
    rng = np.random.default_rng(14)
    with pytest.raises(StructureError):
        canonical_multi(
            MultiForm((2, 1), (random_isometry(2, 2, rng), random_isometry(3, 3, rng))),
            (2, 3))


@pytest.mark.parametrize("perm", [(1, 1), (1, 2, 3), (0, 1), ("1", "2"), (1.9, 2), (True, 2)])
def test_canonical_multi_refuses_non_permutations(perm):
    """("1", "2"), (1.9, 2) and (True, 2) were read as the identity (1, 2)."""
    isos = (isometry(np.eye(2)), isometry(np.eye(2)))
    with pytest.raises(StructureError, match="not a permutation"):
        canonical_multi(MultiForm(perm, isos), (2, 2))


def test_affine_to_linear_identity_constant_unitary():
    rng = np.random.default_rng(15)
    ident = affine_to_linear(lambda rho: rho, 3)
    assert superop_equal(ident, identity_superop((3,)), 1e-9).equal

    r = random_pure(3, rng)
    const = affine_to_linear(lambda rho: r.projection.matrix, 3)
    assert superop_equal(const, trace_replacer(r, (3,), (3,)), 1e-9).equal

    u = random_unitary(3, rng)
    conj = affine_to_linear(lambda rho: u @ rho @ u.conj().T, 3)
    assert superop_equal(conj, conjugation(isometry(u)), 1e-9).equal


def test_affine_to_linear_rejects_nonaffine():
    def squared(rho):
        out = rho @ rho
        return out / np.trace(out).real

    with pytest.raises(ContractError):
        affine_to_linear(squared, 2)


def test_affine_to_linear_refuses_bad_dims():
    for dim in (0, -1, 2.5, True):
        with pytest.raises(StructureError, match="positive integer"):
            affine_to_linear(lambda rho: rho, dim)


def test_affine_to_linear_refuses_images_that_are_not_square_of_one_size():
    """An action whose images change size, or are not square matrices, is
    not a map on density matrices, on the spanning states or only on the
    mixed states of the cross-check: a ContractError, where NumPy's
    ValueError (sizes) or IndexError (a 1-d image) escaped."""
    def growing(rho):  # e_0 e_0+ maps to a 3 x 3 image, e_1 e_1+ to 2 x 2
        return np.eye(3 if rho[0, 0].real > 0.5 else 2) / 2

    def growing_on_mixed(rho):
        return rho if abs(np.trace(rho @ rho).real - 1) < 1e-9 else np.eye(3) / 3

    for action in (growing, growing_on_mixed, np.diag, lambda rho: rho[:, :1], np.trace):
        with pytest.raises(ContractError, match="square matrices of one size"):
            affine_to_linear(action, 2)


def test_affine_to_linear_refuses_invalid_tolerance():
    """A tolerance outside 0 < tol < inf would let the cross-check pass a
    non-affine action (NaN and inf) or fail an affine one (0), so it is
    malformed input, as for the classifiers."""
    def squared(rho):
        out = rho @ rho
        return out / np.trace(out).real

    for action in (squared, lambda rho: rho):
        for tol in (float("nan"), float("inf"), 0.0, -1e-8):
            with pytest.raises(StructureError, match="tolerance"):
                affine_to_linear(action, 2, tol=tol)


def test_affine_to_linear_trace_norm_contraction():
    rng = np.random.default_rng(16)
    # a positive trace-preserving but not completely positive affine action
    u = random_unitary(2, rng)
    op = affine_to_linear(lambda rho: (u @ rho @ u.conj().T).T, 2)
    for _ in range(50):
        a = random_hermitian(2, rng)
        assert trace_norm(apply(op, a)) <= trace_norm(a) + 1e-10


def test_to_choi_identity_and_conjugation():
    d = 3
    ident = identity_superop((d,))
    j = to_choi(ident)
    expected = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for k in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, k] = 1.0
            expected += np.kron(unit, unit)
    assert np.allclose(j, expected, atol=1e-12)

    rng = np.random.default_rng(17)
    u = random_unitary(d, rng)
    cj = to_choi(conjugation(isometry(u)))
    big = np.kron(u, np.eye(d))
    assert np.allclose(cj, big @ expected @ big.conj().T, atol=1e-10)


def test_make_superop_validation():
    with pytest.raises(StructureError):
        make_superop((2,), (2,), np.ones((3, 4)))
    with pytest.raises(StructureError):
        make_superop((2,), (2,), np.full((4, 4), np.nan))


@pytest.mark.parametrize("dims", [(2.9,), (True, 2), ("2",), (2.0,), (), (0,), (2, -1)],
                         ids=["float", "bool", "string", "integral-float", "empty", "zero",
                              "negative"])
def test_constructors_refuse_dims_that_are_not_positive_integers(dims):
    """Every constructor checks its dims with the one validator:
    identity_superop((2.9,)) built a 2-dim map, where the JSON reader
    refuses the same dims."""
    eye = isometry(np.eye(2))
    for make in (lambda: make_superop(dims, (2,), np.eye(4)),
                 lambda: make_superop((2,), dims, np.eye(4)),
                 lambda: identity_superop(dims),
                 lambda: from_action(dims, (2,), lambda a: a),
                 lambda: from_action((2,), dims, lambda a: a),
                 lambda: trace_replacer(basis_state(2, 0), dims),
                 lambda: trace_replacer(basis_state(2, 0), (2,), dims),
                 lambda: conjugation(eye, dims),
                 lambda: conjugation(eye, None, dims),
                 lambda: canonical_sep(SepForm(6, u1=eye, u2=eye), dims),
                 lambda: canonical_multi(MultiForm((1,), (eye,)), dims)):
        with pytest.raises(StructureError, match="positive integers"):
            make()


def test_constructor_refusals():
    """Dims whose product misses the state or the isometry, maps that do
    not compose, and a basis index out of range."""
    rng = np.random.default_rng(18)
    with pytest.raises(StructureError, match="product of factor dims"):
        trace_replacer(random_pure(3, rng), (2,), (2,))
    iso = random_isometry(3, 2, rng)
    for in_dims, out_dims in (((3,), None), (None, (2,)), ((2,), (2, 2))):
        with pytest.raises(StructureError, match="product of factor dims"):
            conjugation(iso, in_dims, out_dims)
    with pytest.raises(StructureError, match="composition dimension mismatch"):
        compose(identity_superop((2,)), identity_superop((3,)))
    for idx in (-1, 4):
        with pytest.raises(IndexError, match="out of range"):
            basis_element(2, idx)


def test_to_choi_of_transpose_is_swap():
    transpose = from_action((2,), (2,), lambda a: HermitianOperator(a.matrix.T, (2,)))
    swap = np.zeros((4, 4))
    for i in range(2):
        for k in range(2):
            swap[2 * i + k, 2 * k + i] = 1.0
    assert np.max(np.abs(to_choi(transpose) - swap)) <= 1e-15


# ---------------------------------------------------------------------------
# gather-built constructors against column-by-column references

def _herm(x, dims=None):
    return HermitianOperator(x, dims)


def _kron_conj(x: HermitianOperator, isos) -> HermitianOperator:
    """The per-slot conjugations of a factor-ordered operand, flags first."""
    for i, iso in enumerate(isos):
        if iso.flag == CONJUGATE:
            x = partial_transpose(x, i + 1)
    big = isos[0].matrix
    for iso in isos[1:]:
        big = np.kron(big, iso.matrix)
    return _herm(big @ x.matrix @ big.conj().T)


def _sep_action(form: SepForm):
    """Per-element action of a tag 1-7 form, written from its definition."""
    t = form.tag

    def conj(u, x):
        return _herm(conjugate_operator(u, x.matrix))

    if t == 1:
        target = tensor(form.r1.projection, form.r2.projection).matrix
        return lambda a: _herm(a.trace() * target)
    if t in (2, 4):
        return lambda a: tensor(conj(form.u1, partial_trace(a, 2 if t == 2 else 1)),
                                form.r2.projection)
    if t in (3, 5):
        return lambda a: tensor(form.r1.projection,
                                conj(form.u2, partial_trace(a, 1 if t == 3 else 2)))
    if t == 6:
        return lambda a: _kron_conj(a, (form.u1, form.u2))
    return lambda a: _kron_conj(swap_theta(a), (form.u1, form.u2))


def _sep_forms(m, n, rng):
    """Every tag 1-7 form legal on (m, n), each with every flag pair; the
    second isometry of forms 3 and 6 pads its output by one dimension."""
    flags = (LINEAR, CONJUGATE)
    for f1 in flags:
        for f2 in flags:
            iso = {2: ((m, m), None), 3: (None, (n + 1, n)), 4: ((m, n), None),
                   5: (None, (n, m)), 6: ((m, m), (n + 1, n)), 7: ((m, n), (n, m))}
            for t in range(1, 8):
                if not legal_dims(t, m, n):
                    continue
                shapes = iso.get(t, (None, None))
                if (shapes[0] is None and f1 == CONJUGATE) or (shapes[1] is None and f2 == CONJUGATE):
                    continue
                u1 = random_isometry(*shapes[0], rng, f1) if shapes[0] else None
                u2 = random_isometry(*shapes[1], rng, f2) if shapes[1] else None
                yield SepForm(t, r1=random_pure(m, rng), r2=random_pure(n, rng), u1=u1, u2=u2)


def test_canonical_sep_matches_column_reference():
    rng = np.random.default_rng(31)
    seen = set()
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for form in _sep_forms(m, n, rng):
                op = canonical_sep(form, (m, n))
                ref = from_action((m, n), op.out_dims, _sep_action(form))
                assert np.max(np.abs(op.coeff - ref.coeff)) <= 1e-14, (form.tag, m, n)
                seen.add(form.tag)
    assert seen == set(range(1, 8))


def test_canonical_multi_matches_column_reference():
    rng = np.random.default_rng(32)
    for dims, perm, flags in [((2, 3, 2), (3, 2, 1), (LINEAR, CONJUGATE, CONJUGATE)),
                              ((3, 2, 2), (1, 3, 2), (CONJUGATE, LINEAR, CONJUGATE)),
                              ((2, 2), (2, 1), (CONJUGATE, LINEAR)),
                              ((2, 1, 3), (1, 2, 3), (LINEAR, CONJUGATE, LINEAR))]:
        isos = tuple(random_isometry(dims[p - 1], dims[p - 1], rng, f)
                     for p, f in zip(perm, flags))
        op = canonical_multi(MultiForm(perm, isos), dims)
        ref = from_action(dims, dims, lambda a: _kron_conj(permute_factors(a, perm), isos))
        assert np.max(np.abs(op.coeff - ref.coeff)) <= 1e-14, dims


def test_conjugation_and_trace_replacer_match_column_reference():
    rng = np.random.default_rng(33)
    for (d_in, d_out), flag in [((1, 1), LINEAR), ((1, 3), CONJUGATE), ((2, 2), CONJUGATE),
                                ((2, 4), LINEAR), ((3, 5), CONJUGATE)]:
        u = random_isometry(d_out, d_in, rng, flag)
        op = conjugation(u)
        ref = from_action((d_in,), (d_out,),
                          lambda a: _herm(conjugate_operator(u, a.matrix)))
        assert np.max(np.abs(op.coeff - ref.coeff)) <= 1e-14
    u = random_isometry(4, 4, rng, CONJUGATE)
    op = conjugation(u, (2, 2), (2, 2))
    assert (op.in_dims, op.out_dims) == ((2, 2), (2, 2))
    ref = from_action((2, 2), (2, 2), lambda a: _herm(conjugate_operator(u, a.matrix)))
    assert np.max(np.abs(op.coeff - ref.coeff)) <= 1e-14

    for in_dims, out_dims in [((1,), (1,)), ((3,), (2,)), ((2, 3), (2, 2)), ((2,), (4,))]:
        r = random_pure(int(np.prod(out_dims)), rng)
        op = trace_replacer(r, in_dims, out_dims)
        ref = from_action(in_dims, out_dims, lambda a: _herm(a.trace() * r.projection.matrix))
        assert np.max(np.abs(op.coeff - ref.coeff)) <= 1e-14


def _row_blocks(op) -> int:
    """Blocks of output entries that the coefficient gather of ``op`` works
    through: the diagonal entries, then the entries a < b, in blocks of
    ``step`` entries, the first of which holds the diagonal."""
    dout = op.out_dim
    step = max(dout, BLOCK_ENTRIES // op.in_dim ** 2)
    return -(-(dout * (dout + 1) // 2) // step)


def test_canonical_multi_matches_column_reference_across_row_blocks():
    rng = np.random.default_rng(34)
    dims, perm = (3, 3, 3), (2, 3, 1)
    for flags in itertools.product((LINEAR, CONJUGATE), repeat=3):
        isos = tuple(random_isometry(3, 3, rng, f) for f in flags)
        op = canonical_multi(MultiForm(perm, isos), dims)
        assert _row_blocks(op) == 14
        ref = from_action(dims, dims, lambda a: _kron_conj(permute_factors(a, perm), isos))
        assert np.max(np.abs(op.coeff - ref.coeff)) <= 1e-14, flags


def test_canonical_sep_matches_column_reference_across_row_blocks():
    rng = np.random.default_rng(35)
    seen = set()
    for m, n in [(4, 4), (2, 4), (4, 2)]:
        for form in _sep_forms(m, n, rng):
            if form.tag == 1:
                continue
            op = canonical_sep(form, (m, n))
            if (m, n) == (4, 4):
                assert _row_blocks(op) > 2, form.tag
            ref = from_action((m, n), op.out_dims, _sep_action(form))
            assert np.max(np.abs(op.coeff - ref.coeff)) <= 1e-14, (form.tag, m, n)
            seen.add(form.tag)
    assert seen == set(range(2, 8))


def _comparison_cases(rng):
    """(op, slots) pairs: maps built from ``slots``, then the same maps with
    1e-9 coefficient noise, each with its own slots and, where the pivot
    read proposes any, the proposed ones.  Bipartite forms on (4,4) (form 1
    carries nothing, forms 3 and 6 pad a slot), multipartite forms on
    (2,2,3) and (3,3,3), joint carries of both inputs of (2,2) and (4,4),
    rectangular (2,3) -> (3,4) and (3,4) -> (4,5) carries and trace
    replacers, on one block and on several."""
    built = [(canonical_sep(form, (4, 4)), _sep_slots(form)) for form in _sep_forms(4, 4, rng)]
    for dims, perm in (((2, 2, 3), (2, 1, 3)), ((3, 3, 3), (3, 1, 2))):
        slots = tuple((p - 1, random_isometry(dims[p - 1], dims[p - 1], rng, f))
                      for p, f in zip(perm, (LINEAR, CONJUGATE, CONJUGATE)))
        built.append((canonical_multi(MultiForm(perm, tuple(u for _, u in slots)), dims), slots))
    for m, front in ((2, True), (4, False)):
        joint = ((0, 1), Isometry(random_unitary(m * m, rng), (CONJUGATE, LINEAR)))
        state = (None, random_pure(2, rng))
        slots = (joint, state) if front else (state, joint)
        built.append((_product_map((m, m), slots), slots))
    for m, n in ((2, 3), (3, 4)):
        slots = ((0, random_isometry(m + 1, m, rng, CONJUGATE)),
                 (1, random_isometry(n + 1, n, rng, LINEAR)))
        built.append((_product_map((m, n), slots), slots))
    for in_dims, r in (((2,), random_pure(3, rng)), ((4, 4), random_pure(16, rng)),
                       ((3, 3, 3), random_pure(4, rng))):
        built.append((trace_replacer(r, in_dims), ((None, r),)))
    for noise in (0.0, 1e-9):
        for op, slots in built:
            if noise:
                op = make_superop(op.in_dims, op.out_dims,
                                  op.coeff + noise * rng.standard_normal(op.coeff.shape))
            proposed = _propose(op)[1]
            yield from ((op, s) for s in (slots, proposed) if s is not None)


def test_streamed_comparison_matches_the_rebuilt_map(monkeypatch):
    """The comparison ``_decide`` makes, one row block of the product map
    at a time, gives the verdict of ``superop_equal`` against the rebuilt
    map at every tol, and the same max_dev, bit for bit, when it passes; the
    dims of the multipartite forms take several blocks.  A deviation in the
    first rows, or a NaN one, ends it after the first block."""
    rng = np.random.default_rng(37)
    outcomes = set()
    for op, slots in _comparison_cases(rng):
        blocks = len(list(_coeff_blocks(op.in_dims, slots)))
        if op.in_dims in ((4, 4), (2, 2, 3), (3, 3, 3)):
            assert blocks > 1, op.in_dims
        rebuilt = _product_map(op.in_dims, slots)
        for tol in (0.0, 1e-9, 1e-8):
            ref = superop_equal(op, rebuilt, tol)
            equal, max_dev = _compare_product(op, slots, tol)
            assert equal == ref.equal, (op.in_dims, tol)
            if equal:
                assert max_dev.hex() == ref.max_dev.hex(), (op.in_dims, tol)
            outcomes.add((equal, blocks > 1))
    assert outcomes == {(True, True), (False, True), (True, False), (False, False)}

    gathers = []
    real_gather = superop._gather
    monkeypatch.setattr(superop, "_gather", lambda *args: gathers.append(1) or real_gather(*args))
    form = random_sep_form(6, 4, 4, rng)
    op = canonical_sep(form, (4, 4))
    for value in (1e-3, np.nan):
        coeff = op.coeff.copy()
        coeff[0, 0] += value
        gathers.clear()
        equal, max_dev = _compare_product(SuperOperator(op.in_dims, op.out_dims, coeff),
                                          _sep_slots(form), 1e-8)
        assert not equal and len(gathers) == 1, value
        assert max_dev == value or np.isnan(value) and np.isnan(max_dev)
    gathers.clear()
    assert _compare_product(op, _sep_slots(form), 1e-8)[0]
    assert len(gathers) == _row_blocks(op) > 1


def test_canonical_sep_working_set_is_blocked():
    """Form 6 on (6,6) is built next to its 13.4 MB coefficient matrix with
    blocks of the gather, not whole-matrix complex temporaries."""
    rng = np.random.default_rng(36)
    form = SepForm(6, u1=random_isometry(6, 6, rng, LINEAR),
                   u2=random_isometry(6, 6, rng, CONJUGATE))
    tracemalloc.start()
    try:
        op = canonical_sep(form, (6, 6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * op.coeff.nbytes
