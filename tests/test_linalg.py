"""Core kernel tests: tensor structure, partial operations, spectra, purity."""

import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    charpoly_coeffs,
    kron_oracle,
    product_pure_oracle,
    ptrace_oracle,
)
from preservers import (
    HermitianOperator,
    MultiForm,
    NumericError,
    SepForm,
    StructureError,
    basis_state,
    canonical_multi,
    canonical_sep,
    conjugation,
    eig_hermitian,
    herm,
    identity_superop,
    is_product_pure,
    is_pure,
    mc_verify_product,
    mc_verify_pure,
    partial_trace,
    partial_transpose,
    permute_factors,
    ppt_check,
    pure_state,
    random_hermitian,
    random_isometry,
    random_pure,
    reduce_to_factor,
    sample_separable,
    superop_equal,
    swap_theta,
    tensor,
    tensor_all,
    trace_norm,
    uniform_state,
)
from preservers import basis, pure_analysis
from preservers.linalg import (
    _kron,
    _rebuild_deviation,
    _reduced,
    as_rng,
    first_not_product_pure,
    purity_defect,
    spectral_defect,
)
from preservers.pure_analysis import _cleared, _rejected

BELL = pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2)).projection.with_dims((2, 2))


def test_herm_constructor_symmetrizes_and_validates():
    m = np.array([[1.0, 0.5 + 1e-12j], [0.5, 2.0]])
    a = herm(m)
    assert np.allclose(a.matrix, a.matrix.conj().T)
    with pytest.raises(StructureError):
        herm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(StructureError):
        herm(np.eye(4), dims=(2, 3))


def test_tensor_identity_and_zero():
    half = HermitianOperator(np.eye(2) / 2, (2,))
    out = tensor(half, half)
    assert np.allclose(out.matrix, np.eye(4) / 4)
    assert out.dims == (2, 2)
    zero = HermitianOperator(np.zeros((3, 3)), (3,))
    assert np.allclose(tensor(half, zero).matrix, 0)


def test_tensor_matrix_units_match_index_formula():
    e00 = np.zeros((2, 2), dtype=complex)
    e00[0, 0] = 1
    e11 = np.zeros((2, 2), dtype=complex)
    e11[1, 1] = 1
    out = tensor(HermitianOperator(e00, (2,)), HermitianOperator(e11, (2,)))
    expected = kron_oracle(e00, e11)
    assert np.array_equal(out.matrix, expected)
    # the double loop puts the single 1 at row 0*2+1, column 0*2+1
    assert expected[1, 1] == 1 and np.sum(np.abs(expected)) == 1


def test_kron_is_bitwise_numpy_kron_on_matrices_and_stacks():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    assert np.array_equal(_kron(a, b), np.kron(a, b))
    assert np.array_equal(_kron(a.real, b), np.kron(a.real, b))
    # a stack against a matrix, on either side, is np.kron with a leading
    # axis of length 1 on the matrix
    stack = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    assert np.array_equal(_kron(stack, b), np.kron(stack, b[None]))
    assert np.array_equal(_kron(b, stack), np.kron(b[None], stack))


def test_tensor_trace_multiplicative():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = random_hermitian(3, rng)
        b = random_hermitian(2, rng)
        t = tensor(a, b)
        assert abs(t.trace() - a.trace() * b.trace()) < 1e-10
        assert np.allclose(t.matrix, kron_oracle(a.matrix, b.matrix))


def test_partial_trace_product_cases():
    rng = np.random.default_rng(1)
    p = random_pure(2, rng).projection
    q = random_pure(3, rng).projection
    t = tensor(p, q)
    assert np.allclose(partial_trace(t, 2).matrix, p.matrix, atol=1e-12)
    assert np.allclose(partial_trace(t, 1).matrix, q.matrix, atol=1e-12)
    eye = HermitianOperator(np.eye(4) / 4, (2, 2))
    assert np.allclose(partial_trace(eye, 1).matrix, np.eye(2) / 2)


def test_partial_trace_bell_and_oracle():
    red = partial_trace(BELL, 1)
    assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)
    rng = np.random.default_rng(2)
    for dims in [(2, 2), (2, 3), (3, 2), (2, 2, 2)]:
        d = int(np.prod(dims))
        a = random_hermitian(d, rng, dims=dims)
        for which in range(1, len(dims) + 1):
            got = partial_trace(a, which)
            want = ptrace_oracle(a.matrix, dims, which)
            assert np.allclose(got.matrix, want, atol=1e-12), (dims, which)
            assert abs(got.trace() - a.trace()) < 1e-10


def test_partial_trace_requires_structure():
    bare = herm(np.eye(4))
    with pytest.raises(StructureError):
        partial_trace(bare, 1)
    with pytest.raises(StructureError):
        partial_trace(herm(np.eye(4), (2, 2)), 3)


def test_kernel_refusals_and_the_one_factor_partial_trace():
    """A non-square matrix is not an operator, and tracing out the only
    factor leaves the 1 x 1 matrix [[Tr A]] on dims (1,)."""
    with pytest.raises(StructureError, match="square matrix"):
        herm(np.ones((2, 3)))
    traced = partial_trace(herm(np.diag([1.0, 2.0, 3.0]), (3,)), 1)
    assert traced.dims == (1,)
    assert np.array_equal(traced.matrix, [[6.0]])


@pytest.mark.parametrize("make", [
    lambda: herm(np.eye(4), dims=(2.0, 2)),
    lambda: herm(np.eye(2)).with_dims([True, 2.2]),
    lambda: herm(np.eye(2)).with_dims(()),
    lambda: herm(np.eye(2)).with_dims(("2",)),
    lambda: random_pure(2.5),
    lambda: random_pure(0),
    lambda: random_hermitian(0),
    lambda: random_hermitian(4, 0, dims=(2, 2.0)),
    lambda: uniform_state(0),
    lambda: basis_state(0, 0),
    lambda: basis_state(2.0, 0),
], ids=["herm-float", "with_dims-bool-float", "with_dims-empty", "with_dims-string",
        "random_pure-float", "random_pure-zero", "random_hermitian-zero",
        "random_hermitian-dims-float", "uniform_state-zero", "basis_state-zero",
        "basis_state-float"])
def test_dims_that_are_not_positive_integers_are_refused(make):
    """One validator checks every factor dimension: a bool, a float or a
    string is refused, not truncated, where with_dims([True, 2.2]) gave
    (1, 2), random_pure(2.5) escaped as NumPy's TypeError and
    uniform_state(0) returned an empty state with a RuntimeWarning."""
    with pytest.raises(StructureError, match="positive integers"):
        make()


def test_dims_keep_numpy_integers_as_ints():
    a = herm(np.eye(4)).with_dims(np.array([2, 2]))
    assert a.dims == (2, 2) and all(type(d) is int for d in a.dims)
    assert herm(np.eye(4)).with_dims(None).dims is None
    with pytest.raises(StructureError, match="product of factor dims"):
        herm(np.eye(4)).with_dims((2, 3))


@pytest.mark.parametrize("k", [-1, 3, True, 1.0])
def test_basis_index_out_of_range_is_refused(k):
    """basis_state(3, -1) returned e_2, and basis_state(3, 3) raised a bare
    IndexError."""
    with pytest.raises(StructureError, match="basis index"):
        basis_state(3, k)
    assert basis_state(3, np.int64(2)).vector[2] == 1.0


def test_partial_transpose_involution_and_symmetric_case():
    rng = np.random.default_rng(3)
    a_real = np.array([[1.0, 0.3], [0.3, -0.5]])
    b = random_hermitian(3, rng)
    t = tensor(herm(a_real), b)
    assert np.allclose(partial_transpose(t, 1).matrix, t.matrix, atol=1e-12)
    for _ in range(10):
        x = random_hermitian(6, rng, dims=(2, 3))
        twice = partial_transpose(partial_transpose(x, 1), 1)
        assert np.allclose(twice.matrix, x.matrix)
        pt = partial_transpose(x, 2)
        assert np.allclose(pt.matrix, pt.matrix.conj().T)
        assert abs(pt.trace() - x.trace()) < 1e-10


def test_partial_transpose_bell_spectrum_via_charpoly():
    pt = partial_transpose(BELL, 1)
    coeffs = charpoly_coeffs(pt.matrix)
    roots = np.roots(coeffs)
    # the triple root at 1/2 is ill-conditioned for polynomial root finding;
    # the simple root at -1/2 is the quantity under test and stays sharp
    assert np.max(np.abs(roots.imag)) < 1e-4
    assert abs(np.min(roots.real) + 0.5) < 1e-9
    w, _ = eig_hermitian(pt)
    assert abs(w[-1] + 0.5) < 1e-12


def test_swap_theta():
    rng = np.random.default_rng(4)
    p = random_pure(2, rng).projection
    q = random_pure(3, rng).projection
    assert np.allclose(swap_theta(tensor(p, q)).matrix, tensor(q, p).matrix)
    eye = HermitianOperator(np.eye(6), (2, 3))
    out = swap_theta(eye)
    assert out.dims == (3, 2) and np.allclose(out.matrix, np.eye(6))
    x = random_hermitian(4, rng, dims=(2, 2))
    assert np.allclose(swap_theta(swap_theta(x)).matrix, x.matrix)
    with pytest.raises(StructureError):
        swap_theta(random_hermitian(8, rng, dims=(2, 2, 2)))


def test_permute_factors_identity_swap_and_triple():
    rng = np.random.default_rng(5)
    x = random_hermitian(6, rng, dims=(2, 3))
    assert np.allclose(permute_factors(x, (1, 2)).matrix, x.matrix)
    assert np.allclose(permute_factors(x, (2, 1)).matrix, swap_theta(x).matrix)
    e00 = np.zeros((2, 2), dtype=complex)
    e00[0, 0] = 1
    e11 = np.zeros((2, 2), dtype=complex)
    e11[1, 1] = 1
    eye = np.eye(2, dtype=complex)
    t = tensor_all([herm(e00), herm(e11), herm(eye)])
    got = permute_factors(t, (2, 3, 1))
    want = kron_oracle(kron_oracle(e11, eye), e00)
    assert np.allclose(got.matrix, want)
    with pytest.raises(StructureError):
        permute_factors(t, (1, 1, 2))


@pytest.mark.parametrize("perm", [(1.9, 2), (True, 2), ("1", "2"), (2.0, 1), (1, 1), (1, 2, 3)])
def test_permutation_entries_must_be_integers(perm):
    """(1.9, 2) and (True, 2) were truncated to the identity (1, 2)."""
    x = random_hermitian(6, 0, dims=(2, 3))
    with pytest.raises(StructureError, match="not a permutation"):
        permute_factors(x, perm)
    assert permute_factors(x, np.array([2, 1])).dims == (3, 2)


def test_permute_factors_composition_law():
    rng = np.random.default_rng(6)
    mats = [random_hermitian(2, rng) for _ in range(3)]
    t = tensor_all(mats)
    pi = (2, 3, 1)
    sigma = (3, 1, 2)
    lhs = permute_factors(permute_factors(t, sigma), pi)
    composed = tuple(sigma[p - 1] for p in pi)
    rhs = permute_factors(t, composed)
    assert np.allclose(lhs.matrix, rhs.matrix)


def test_eig_simple_cases():
    w, v = eig_hermitian(herm(np.eye(2)))
    assert np.allclose(w, [1, 1])
    w, v = eig_hermitian(herm(np.diag([3.0, -1.0])))
    assert np.allclose(w, [3, -1])
    assert np.allclose(np.abs(v), np.eye(2))
    pauli_x = herm(np.array([[0, 1], [1, 0]], dtype=complex))
    w, v = eig_hermitian(pauli_x)
    # closed form: eigenvalues +-1 for trace 0, det -1
    tr, det = 0.0, -1.0
    disc = np.sqrt(tr * tr / 4 - det)
    assert np.allclose(w, [tr / 2 + disc, tr / 2 - disc])


def test_eig_reconstruction_random():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 5, 8, 12):
        a = random_hermitian(dim, rng)
        w, v = eig_hermitian(a)
        assert np.all(np.diff(w) <= 1e-12)
        recon = (v * w) @ v.conj().T
        rel = np.linalg.norm(recon - a.matrix) / np.linalg.norm(a.matrix)
        assert rel <= 1e-10, (dim, rel)
        assert np.allclose(v.conj().T @ v, np.eye(dim), atol=1e-10)


def test_trace_norm_values():
    a0 = herm(np.diag([1.0, -1.0]))
    assert abs(trace_norm(a0) - 2.0) < 1e-12
    p = random_pure(4, 9).projection
    assert abs(trace_norm(p) - 1.0) < 1e-10
    assert trace_norm(herm(np.zeros((3, 3)))) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_trace_norm_triangle_inequality(seed, dim):
    rng = np.random.default_rng(seed)
    a = random_hermitian(dim, rng)
    b = random_hermitian(dim, rng)
    s = HermitianOperator(a.matrix + b.matrix)
    assert trace_norm(s) <= trace_norm(a) + trace_norm(b) + 1e-9
    assert trace_norm(a) >= abs(a.trace()) - 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_structure_ops_preserve_hermiticity_and_trace(seed):
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.choice([2, 3, 4], size=2))
    a = random_hermitian(int(np.prod(dims)), rng, dims=dims)
    for out in (partial_trace(a, 1), partial_transpose(a, 2), swap_theta(a),
                permute_factors(a, (2, 1))):
        assert np.allclose(out.matrix, out.matrix.conj().T, atol=1e-12)
        assert abs(out.trace() - a.trace()) < 1e-9


def test_partial_trace_product_identity_property():
    rng = np.random.default_rng(10)
    for _ in range(20):
        a = random_hermitian(3, rng)
        b = random_hermitian(2, rng)
        t = tensor(a, b)
        lhs = partial_trace(t, 1).matrix
        rel = np.linalg.norm(lhs - a.trace() * b.matrix) / max(1e-30, np.linalg.norm(lhs))
        assert rel <= 1e-10 or np.linalg.norm(lhs) < 1e-12


def test_is_pure_basic_and_tolerance_semantics():
    x = random_pure(3, 11)
    ok, rep = is_pure(x.projection)
    assert ok
    assert np.allclose(rep.projection.matrix, x.projection.matrix, atol=1e-10)
    assert not is_pure(herm(np.eye(2) / 2))[0]
    p = basis_state(2, 0).projection
    p_perp = basis_state(2, 1).projection
    mixed = HermitianOperator(0.999 * p.matrix + 0.001 * p_perp.matrix)
    assert not is_pure(mixed, 1e-9)[0]
    assert is_pure(mixed, 1e-2)[0]


def test_is_product_pure_examples():
    rng = np.random.default_rng(12)
    p, q = random_pure(2, rng), random_pure(3, rng)
    t = tensor(p.projection, q.projection)
    ok, factors = is_product_pure(t)
    assert ok
    assert np.allclose(factors[0].projection.matrix, p.projection.matrix, atol=1e-10)
    assert np.allclose(factors[1].projection.matrix, q.projection.matrix, atol=1e-10)
    assert not is_product_pure(BELL)[0]
    assert not is_product_pure(HermitianOperator(np.eye(4) / 4, (2, 2)))[0]


def test_is_product_pure_agrees_with_brute_force_oracle():
    rng = np.random.default_rng(13)
    agree = 0
    for trial in range(1000):
        kind = trial % 3
        dims = (2, 2)
        if kind == 0:
            mat = tensor(random_pure(2, rng).projection,
                         random_pure(2, rng).projection).matrix
        elif kind == 1:
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            mat = pure_state(v).projection.matrix
        else:
            w = rng.dirichlet(np.ones(4))
            vecs = [pure_state(rng.standard_normal(4) + 1j * rng.standard_normal(4))
                    for _ in range(4)]
            mat = sum(wi * s.projection.matrix for wi, s in zip(w, vecs))
        got = is_product_pure(HermitianOperator(np.asarray(mat, dtype=complex), dims))[0]
        want = product_pure_oracle(np.asarray(mat, dtype=complex), dims)
        assert got == want, (trial, kind)
        agree += 1
    assert agree == 1000


def test_product_purity_rebuild_uses_tol_alone():
    """psi = a (x) b + eps a' (x) b' (a' orthogonal to a, b' to b) passes the
    spectrum checks of the image and of both reductions at tol = 1e-12, its
    defects being about eps^2, but the rebuild from the reductions deviates
    by about eps = 2e-11: tol is the rebuild's threshold too.  Exact products
    still pass down to tol = 1e-14."""
    rng = np.random.default_rng(50)
    eps, tol = 2e-11, 1e-12
    for dims in ((2, 2), (2, 3), (3, 3)):
        a, b = (np.linalg.qr(rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2)))[0]
                for k in dims)
        psi = np.kron(a[:, 0], b[:, 0]) + eps * np.kron(a[:, 1], b[:, 1])
        img = pure_state(psi).projection.with_dims(dims)
        assert purity_defect(img) <= tol
        assert all(purity_defect(reduce_to_factor(img, k)) <= tol for k in (1, 2))
        assert not is_product_pure(img, tol)[0]
        assert first_not_product_pure(img.matrix[None], dims, tol) == 0
        assert is_product_pure(img, 1e-10)[0]
    for dims in ((2, 2), (2, 3), (1, 3), (2, 2, 2), (3, 3)):
        stack = np.array([tensor_all([random_pure(k, rng).projection for k in dims]).matrix
                          for _ in range(60)])
        for tol in (1e-11, 1e-12, 1e-13, 1e-14):
            assert all(is_product_pure(HermitianOperator(m, dims), tol)[0] for m in stack)
            assert first_not_product_pure(stack, dims, tol) is None


def test_is_product_pure_reports_solver_failure():
    with pytest.raises(NumericError):
        is_product_pure(HermitianOperator(np.full((4, 4), np.nan, dtype=complex), (2, 2)))


def _near_product_states(rng, dims, count):
    """Product pure states with entangling and mixing perturbations of
    random sizes up to order one."""
    d = int(np.prod(dims))
    out = []
    for _ in range(count):
        psi = np.ones(1)
        for k in dims:
            psi = np.kron(psi, rng.standard_normal(k) + 1j * rng.standard_normal(k))
        psi = psi / np.linalg.norm(psi) + 10 ** rng.uniform(-3, 0) * (
            rng.standard_normal(d) + 1j * rng.standard_normal(d))
        psi /= np.linalg.norm(psi)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mix = g @ g.conj().T
        delta = 10 ** rng.uniform(-3, 0) * rng.random()
        out.append((1 - delta) * np.outer(psi, psi.conj()) + delta * mix / np.trace(mix).real)
    return np.array(out)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (1, 3), (2, 2, 2)])
def test_first_not_product_pure_agrees_with_is_product_pure(dims):
    # large tolerances make every check (image, each reduction, rebuild)
    # the only failing one on some of these states
    rng = np.random.default_rng(15)
    stack = _near_product_states(rng, dims, 600)
    for tol in (1e-8, 0.1, 0.3):
        want = [not is_product_pure(HermitianOperator(m, dims), tol)[0] for m in stack]
        got = [first_not_product_pure(m[None], dims, tol) == 0 for m in stack]
        assert got == want
        assert first_not_product_pure(stack, dims, tol) == want.index(True)
        for start in (0, 97, 301):
            rest = want[start:start + 40]
            first = first_not_product_pure(stack[start:start + 40], dims, tol)
            assert first == (rest.index(True) if True in rest else None)
    exact = np.array([tensor_all([random_pure(k, rng).projection for k in dims]).matrix
                      for _ in range(5)])
    assert first_not_product_pure(exact, dims) is None
    # an empty stack has no first failure
    big = int(np.prod(dims))
    assert first_not_product_pure(np.zeros((0, big, big), complex), dims) is None


# factor dims of the product tests, one entry per total dimension 1..9
_FACTORS = {1: (1,), 2: (2,), 3: (1, 3), 4: (2, 2), 5: (5,), 6: (2, 3), 7: (7,),
            8: (2, 2, 2), 9: (3, 3)}


def _rank_one_plus_noise(rng, dims, tol, count):
    """Hermitian s uu+ + eps N with u a product unit vector, |s - 1| up to
    1.5 tol and ||N||_F = 1, eps from 1e-3 tol to 1.6 tol: true purity
    defects on both sides of ``tol``, some images cleared by the Weyl
    certificate and some not."""
    d = int(np.prod(dims))
    out = []
    for _ in range(count):
        u = np.ones(1)
        for k in dims:
            u = np.kron(u, rng.standard_normal(k) + 1j * rng.standard_normal(k))
        u /= np.linalg.norm(u)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        noise = (g + g.conj().T) / np.linalg.norm(g + g.conj().T)
        s = 1 + tol * rng.uniform(-1.5, 1.5)
        out.append(s * np.outer(u, u.conj()) + tol * 10 ** rng.uniform(-3, 0.2) * noise)
    return np.array(out)


def _first(mask):
    return mask.index(True) if True in mask else None


def _first_rejected(y, dims, tol):
    """The index that :func:`_rejected` reports for the coordinates y, after
    checking that its matrix is the image at that index."""
    hit = _rejected(y, dims, tol)
    if hit is None:
        return None
    assert np.array_equal(hit[1], basis.from_coords(y[hit[0]], hit[1].shape[0]))
    return hit[0]


@pytest.mark.parametrize("d", range(1, 10))
def test_purity_certificate_keeps_the_solver_verdicts(d):
    """The coordinate certificate only skips eigensolves: no image that it
    clears fails the solver's test, spectral on (d,) or product on the
    factors of d, it clears some images but not all, and the first rejected
    index of every suffix is the solver's."""
    dims = _FACTORS[d]
    rng = np.random.default_rng(30 + d)
    for tol in (1e-8, 0.1, 0.3):
        y = basis.coords(_rank_one_plus_noise(rng, dims, tol, 160))
        stack = basis.from_coords(y, d)
        spectral = spectral_defect(np.linalg.eigvalsh(stack)) > tol
        product = np.array([not is_product_pure(HermitianOperator(m, dims), tol)[0] for m in stack])
        for on, want in (((d,), spectral), (dims, product)):
            cleared = _cleared(y, on, tol)
            assert not (cleared & want).any(), (tol, on)
            assert 0 < cleared.sum() < len(stack), (tol, on)
            for start in (0, 7, 90):
                assert _first_rejected(y[start:], on, tol) == _first(list(want[start:]))


def test_purity_certificate_leaves_room_for_solver_error():
    """At a tolerance just below the solver's own defect of an image, the
    image is rejected: the certificate's bound exceeds the computed defect
    by its slack, even where the two agree to rounding.  The solver is eigh;
    the certificate leaves the same room below eigvalsh's defect, whose last
    bits may differ.  The 128 copies make a block that the certificate
    takes."""
    rng = np.random.default_rng(40)
    for d in (1, 2, 3, 9):
        for _ in range(100):
            v = random_pure(d, rng).vector * np.sqrt(1 + rng.uniform(-1e-7, 1e-7))
            y = np.repeat(basis.coords(np.outer(v, v.conj()))[None], 128, axis=0)
            image = basis.from_coords(y[:1], d)
            tol = np.nextafter(spectral_defect(np.linalg.eigvalsh(image))[0], 0)
            assert not _cleared(y, (d,), tol).any()
            tol = np.nextafter(spectral_defect(np.linalg.eigh(image)[0])[0], 0)
            assert not _cleared(y, (d,), tol).any()
            assert _first_rejected(y, (d,), tol) == 0


def test_purity_certificate_falls_back_on_degenerate_images(monkeypatch):
    """A zero image has a zero fibre and so a NaN bound, one with a negative
    top diagonal a trace <= 0 and so eps >= 1/sqrt(3), and a diagonal image
    whose top column is a unit vector a large eps, all without a
    RuntimeWarning: each becomes the one matrix that goes to the solver,
    which rejects it.  Fifteen pure images come before it."""
    solved = []
    solve = pure_analysis.first_not_product_pure
    monkeypatch.setattr(pure_analysis, "first_not_product_pure",
                        lambda a, *args: solved.append(a) or solve(a, *args))
    pure = np.outer([1, 0, 0], [1, 0, 0]).astype(complex)
    for bad in (np.zeros((3, 3)), -np.diag([1.0, 2.0, 3.0]),
                np.diag([1.0, 0.5, 0.0]), np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])):
        y = basis.coords(np.array([pure] * 15 + [bad], dtype=complex))
        for tol in (1e-8, 0.1, 0.3):
            solved.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert list(_cleared(y, (3,), tol)) == [True] * 15 + [False]
                assert _first_rejected(y, (3,), tol) == 15
            assert len(solved) == 1 and np.array_equal(solved[0], basis.from_coords(y[15:], 3))


@pytest.mark.parametrize("dims", [(2, 3), (3, 3), (1, 3), (2, 2, 2)])
def test_stacked_product_purity_agrees_with_brute_force_oracle(dims):
    """Stacks of exact products with a few entangled pure and mixed states
    among them, all far from ``tol``: the first rejected index of every
    suffix, by the solver alone and through :func:`_rejected`, which
    certifies every suffix of two images or more, is the projector-identity
    oracle's."""
    rng = np.random.default_rng(17)
    d = int(np.prod(dims))
    mats = []
    for kind in rng.choice(3, size=48, p=(0.8, 0.1, 0.1)):
        if kind == 0:
            mats.append(tensor_all([random_pure(k, rng).projection for k in dims]).matrix)
        elif kind == 1:
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            mats.append(pure_state(v).projection.matrix)
        else:
            w = rng.dirichlet(np.ones(d))
            vecs = [random_pure(d, rng).vector for _ in range(d)]
            mats.append(sum(wi * np.outer(v, v.conj()) for wi, v in zip(w, vecs)))
    stack = np.array(mats)
    want = [not product_pure_oracle(m, dims) for m in stack]
    assert 0 < sum(want) < len(want)
    y = basis.coords(stack)
    for start in range(len(stack)):
        assert first_not_product_pure(stack[start:], dims) == _first(want[start:]), start
        assert _first_rejected(y[start:], dims, 1e-8) == _first(want[start:]), start


def _entangled_by(rng, dims, tol, count):
    """psi = a (x) b + eps a' (x) b' (primed factors orthogonal to unprimed,
    one pair per factor), eps scaled so that the rebuild deviation of the
    product a (x) b straddles ``tol``: the image is pure, and the rebuild
    decides."""
    out = []
    for _ in range(count):
        pairs = [np.linalg.qr(rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2)))[0]
                 for k in dims]
        p0 = reduce(np.kron, [x[:, 0] for x in pairs])
        p1 = reduce(np.kron, [x[:, 1] for x in pairs])
        scale = np.abs(np.outer(p0, p1.conj()) + np.outer(p1, p0.conj())).max()
        psi = p0 + tol * 10 ** rng.uniform(-0.3, 0.3) / scale * p1
        out.append(pure_state(psi).projection.matrix)
    return np.array(out)


def _mixed_reductions(dims, shifts):
    """Images (1 + s) |B><B| - s I for the shifts s, B entangling factor 1
    with the others: the spectrum is off pure by s, and the factor-1
    reduction is a multiple of the identity."""
    d = int(np.prod(dims))
    b = np.zeros(d)
    b[::d // dims[0] + 1] = 1 / np.sqrt(dims[0])
    return np.array([(1 + s) * np.outer(b, b) - s * np.eye(d) for s in shifts], dtype=complex)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2)])
def test_product_certificate_keeps_the_solver_verdicts(dims):
    """The certificate only skips eigensolves: on states where the
    reductions and the rebuild decide, the single-image verdicts (the
    solver's) and the first rejected index of every suffix of a large stack
    agree, and of the accepted images the certificate clears some but not
    all."""
    rng = np.random.default_rng(60 + len(dims))
    d = int(np.prod(dims))
    for tol in (1e-8, 0.1, 0.3):
        y = basis.coords(np.concatenate([_entangled_by(rng, dims, tol, 60),
                                         _near_product_states(rng, dims, 40),
                                         _rank_one_plus_noise(rng, dims, tol, 40),
                                         _mixed_reductions(dims, np.linspace(tol / 3, 0.99 * tol, 4))]))
        y = y[rng.permutation(len(y))]
        want = np.array([first_not_product_pure(m[None], dims, tol) == 0
                         for m in basis.from_coords(y, d)])
        assert 0 < want.sum() < len(want)
        for start in range(len(y) - 2):
            assert _first_rejected(y[start:], dims, tol) == _first(list(want[start:]))
        cleared = _cleared(y, dims, tol)
        assert not (cleared & want).any()
        assert 0 < cleared.sum() < (~want).sum(), tol
    # past 30 products that the certificate clears, the images whose spectra
    # pass but whose factor-1 reductions are maximally mixed go to the solver
    for tol in [t for t in (0.25, 0.3) if 1 / (d - 1) < t]:
        y = basis.coords(np.concatenate([_entangled_by(rng, dims, 1e-12, 30),
                                         _mixed_reductions(dims, np.linspace(1 / (d - 1), 0.99 * tol, 3))]))
        assert _cleared(y, dims, tol)[:30].all()
        assert _first_rejected(y, dims, tol) == 30


def test_product_certificate_leaves_room_for_solver_error():
    """At a tolerance just below the solver's own rebuild deviation of an
    image whose spectrum and reductions pass, the image is rejected: the
    certificate's bound exceeds that deviation by its slack, even where the
    two agree to rounding (exact products, at a tolerance of the order of
    rounding, and psi = a (x) b + 1e-9 a' (x) b')."""
    rng = np.random.default_rng(61)
    for dims in ((2, 2), (1, 3), (3, 3), (2, 2, 2)):
        exact = np.array([tensor_all([random_pure(k, rng).projection for k in dims]).matrix
                          for _ in range(300)])
        images = exact if 1 in dims else np.concatenate([exact, _entangled_by(rng, dims, 1e-9, 60)])
        for y in basis.coords(images):
            img = basis.from_coords(y, int(np.prod(dims)))
            solved = [np.linalg.eigh(_reduced(img[None], dims, f)) for f in range(len(dims))]
            tol = np.nextafter(_rebuild_deviation([v[:, :, -1:] for _, v in solved], img[None])[0], 0)
            if max(spectral_defect(w)[0] for w in [np.linalg.eigh(img[None])[0]] + [w for w, _ in solved]) > tol:
                continue
            assert _first_rejected(y[None], dims, tol) == 0
            assert _first_rejected(np.repeat(y[None], 16, axis=0), dims, tol) == 0


def test_product_certificate_scales_the_reductions_by_the_traced_dimension():
    """A = psi psi+ + delta (e_0 e_0+ (x) I) on dims (1, 16) and (2, 16) has
    eps = 4 delta, but its factor-1 reduction is off pure by 16 delta: the
    partial trace over 16 dimensions grows the residual by sqrt(16).  Between
    the bound without that factor (about 3 eps) and the true defect, the
    solver rejects every image, and the certificate clears none."""
    rng = np.random.default_rng(62)
    delta = 1e-9
    for dims in ((1, 16), (2, 16)):
        head = np.zeros((dims[0], dims[0]))
        head[0, 0] = 1.0
        bump = delta * np.kron(head, np.eye(16))
        y = basis.coords(np.array([np.outer(psi, psi.conj()) + bump for psi in
                                   (np.kron(np.eye(dims[0])[0], random_pure(16, rng).vector)
                                    for _ in range(8))]))
        images = basis.from_coords(y, int(np.prod(dims)))
        for tol in delta * np.linspace(13, 15.5, 6):
            assert all(first_not_product_pure(m[None], dims, tol) == 0 for m in images)
            assert not _cleared(y, dims, tol).any()


_NEAR_TOL_DIMS = [(2, 3), (3, 3), (1, 3), (2, 2, 2), (1,), (2,), (3,), (5,), (9,)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_NEAR_TOL_DIMS), st.floats(-10, np.log10(0.3)), st.integers(0, 2**32 - 1))
def test_certificate_near_tol_clears_nothing_the_solver_rejects(dims, log_tol, seed):
    """Images within a few ``tol`` of product pure states, entangled ones
    whose rebuild decides, exact products and degenerate images: no image
    that the certificate clears fails the solver's test, spectral or
    product, every exact product is cleared, and a zero or negative-top
    image raises no RuntimeWarning."""
    tol, rng, d = 10.0 ** log_tol, np.random.default_rng(seed), int(np.prod(dims))
    exact = basis.coords(np.array([tensor_all([random_pure(k, rng).projection for k in dims]).matrix
                                   for _ in range(8)]))
    near = [_rank_one_plus_noise(rng, dims, tol, 24)]
    if min(dims) > 1:
        near.append(_entangled_by(rng, dims, tol, 12))
    y = np.concatenate([basis.coords(np.concatenate(near)), exact, -exact[:2], 0 * exact[:1]])
    images = basis.from_coords(y, d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spectral, product = _cleared(y, (d,), tol), _cleared(y, dims, tol)
    assert spectral[-11:-3].all() and product[-11:-3].all()
    assert not spectral[-3:].any() and not product[-3:].any()
    assert (spectral_defect(np.linalg.eigvalsh(images[spectral])) <= tol).all()
    assert all(first_not_product_pure(m[None], dims, tol) is None for m in images[product])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.floats(-10, np.log10(0.3)), st.integers(0, 2**32 - 1))
def test_one_factor_product_purity_is_the_spectral_test(d, log_tol, seed):
    """On one factor the image is its own reduction, so product purity is
    the spectral test: over stacks within a few ``tol`` of pure states,
    with exact, negated and zero images among them, the first image that
    ``first_not_product_pure`` rejects on (d,) is the first that ``is_pure``
    rejects, ``is_product_pure`` agrees image by image, and the
    certificate clears no image that ``is_pure`` rejects."""
    tol, rng = 10.0 ** log_tol, np.random.default_rng(seed)
    exact = np.array([random_pure(d, rng).projection.matrix for _ in range(4)])
    stack = np.concatenate([_rank_one_plus_noise(rng, (d,), tol, 36), exact, -exact[:1],
                            0 * exact[:1]])
    stack = stack[rng.permutation(len(stack))]
    want = [not is_pure(HermitianOperator(m), tol)[0] for m in stack]
    assert [not is_product_pure(HermitianOperator(m, (d,)), tol)[0] for m in stack] == want
    for start in (0, 5, 23):
        assert first_not_product_pure(stack[start:], (d,), tol) == _first(want[start:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cleared = _cleared(basis.coords(stack), (d,), tol)
    assert cleared.any() and not (cleared & np.array(want)).any()


def test_exact_forms_make_no_stacked_image_eigensolve(monkeypatch):
    """Monte-Carlo verification of exact forms eigensolves its one-image
    probe and that probe's reductions only; every larger stack of images,
    and of their reductions, is cleared by the certificates.  On two
    factors or more the image's spectrum is an eigenvalue-only solve, as
    nothing reads its eigenvectors; the reductions, whose top eigenvectors
    rebuild the image, and one-factor images, whose tops are returned, go
    to ``eigh``."""
    rng = np.random.default_rng(41)
    calls = []

    def counting(name, solve):
        return lambda a, *args, **kw: calls.append((name, a.shape)) or solve(a, *args, **kw)

    def solved(side):
        """(solver, shape) of every solve of a side x side matrix or stack."""
        return {(name, s) for name, s in calls if s[-2:] == (side, side)}

    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    op = canonical_sep(SepForm(6, u1=random_isometry(3, 3, rng), u2=random_isometry(3, 3, rng)),
                       (3, 3))
    assert mc_verify_product(op, 1000, 3).passed
    shapes = [s for _, s in calls]
    assert len(shapes) > 2
    assert solved(9) == {("eigvalsh", (1, 9, 9))}
    # nor is any stacked reduction solved, here or on a multipartite form
    assert solved(3) == {("eigh", (1, 3, 3))} and not [s for s in shapes if s[0] > 1]
    calls.clear()
    op = canonical_multi(MultiForm((3, 1, 2), [random_isometry(2, 2, rng) for _ in range(3)]),
                         (2, 2, 2))
    assert mc_verify_product(op, 1000, 3).passed
    assert solved(8) == {("eigvalsh", (1, 8, 8))} and solved(2) == {("eigh", (1, 2, 2))}
    assert not [s for _, s in calls if s[0] > 1]
    calls.clear()
    assert mc_verify_pure(conjugation(random_isometry(9, 4, rng)), 1000, 3).passed
    assert solved(9) == {("eigh", (1, 9, 9))}
    assert not [s for _, s in calls if s[0] > 1]


def test_as_rng_refuses_bad_seeds():
    assert as_rng(0).integers(10) == np.random.default_rng(0).integers(10)
    gen = np.random.default_rng(1)
    assert as_rng(gen) is gen
    for seed in (-1, 1.5, "3", None, True):
        with pytest.raises(StructureError, match="seed"):
            as_rng(seed)


@pytest.mark.parametrize("samples", [2.5, True], ids=["fractional", "boolean"])
def test_verifiers_refuse_sample_counts_that_are_not_integers(samples):
    """A fractional or boolean sample count is malformed input, where 2.5
    escaped as a NumPy TypeError and True ran one sample."""
    with pytest.raises(StructureError, match="sample counts"):
        mc_verify_pure(identity_superop((2,)), samples=samples)
    with pytest.raises(StructureError, match="sample counts"):
        mc_verify_product(identity_superop((2, 2)), samples=samples)


def test_thresholds_outside_zero_to_inf_are_refused():
    """A NaN or negative threshold would certify anything: a non-Hermitian
    matrix as Hermitian, the maximally mixed state as pure or product pure,
    and a separable state as entangled; superop_equal called two identical
    maps unequal with max_dev 0.0.  Each of these tests refuses it, and
    takes 0."""
    sep = sample_separable((2, 2), 3, 0).density
    ident = identity_superop((2,))
    for tol in (np.nan, -1.0, np.inf, -np.inf):
        with pytest.raises(StructureError, match="tolerance"):
            superop_equal(ident, ident, tol)
        with pytest.raises(StructureError, match="tolerance"):
            herm([[0, 1], [0, 0]], tol=tol)
        with pytest.raises(StructureError, match="tolerance"):
            is_pure(herm(np.eye(2) / 2), tol)
        with pytest.raises(StructureError, match="tolerance"):
            is_product_pure(herm(np.eye(4) / 4, (2, 2)), tol)
        with pytest.raises(StructureError, match="tolerance"):
            ppt_check(sep, tol=tol)
    assert np.array_equal(herm(np.eye(2), tol=0.0).matrix, np.eye(2))
    assert is_pure(basis_state(2, 0).projection, 0.0)[0]
    assert is_product_pure(tensor(basis_state(2, 0).projection, basis_state(2, 1).projection),
                           0.0)[0]
    assert not ppt_check(BELL, tol=0.0).positive
    assert superop_equal(ident, ident, 0.0).equal


def test_spectral_defect_matches_purity_defect():
    rng = np.random.default_rng(16)
    for d in (1, 2, 5):
        mats = [random_hermitian(d, rng).matrix / d for _ in range(4)]
        mats.append(random_pure(d, rng).projection.matrix)
        w = np.linalg.eigh(np.array(mats))[0]
        assert np.array_equal(spectral_defect(w),
                              [purity_defect(HermitianOperator(m)) for m in mats])
    assert spectral_defect(np.array([1.0])) == 0.0


def test_random_pure_contracts():
    only = random_pure(1, 0)
    assert np.allclose(only.projection.matrix, [[1.0]])
    assert np.allclose(random_pure(5, 42).vector, random_pure(5, 42).vector)
    rng = np.random.default_rng(14)
    mean = np.zeros((2, 2), dtype=complex)
    n = 10_000
    for _ in range(n):
        mean += random_pure(2, rng).projection.matrix
    mean /= n
    assert np.linalg.norm(mean - np.eye(2) / 2) < 0.05
    with pytest.raises(StructureError):
        random_pure(0, 0)


def test_random_hermitian_deterministic():
    a = random_hermitian(4, 3, dims=(2, 2))
    b = random_hermitian(4, 3, dims=(2, 2))
    assert np.array_equal(a.matrix, b.matrix)
    assert a.dims == (2, 2)
