"""Separable-state model, PPT falsifier, and preserver filtering."""

import numpy as np
import pytest

from conftest import legal_dims, random_sep_form
from preservers import (
    ContractError,
    StructureError,
    apply,
    canonical_sep,
    classify_sep_preserver,
    compose,
    convex_mix,
    eig_hermitian,
    filter_apply,
    herm,
    identity_superop,
    inverse_sep_form,
    is_product_pure,
    ppt_check,
    pure_state,
    random_pure,
    sample_separable,
    separable_from_mixed,
    separable_state,
    superop_equal,
    trace_replacer,
)

BELL = pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2)).projection.with_dims((2, 2))


def test_sample_separable_contracts():
    one = sample_separable((2, 3), 1, 0)
    assert one.k_terms == 1
    assert is_product_pure(one.density)[0]
    for seed in range(100):
        s = sample_separable((2, 2), 3, seed)
        assert abs(sum(s.weights) - 1.0) < 1e-12
        assert abs(s.density.trace() - 1.0) < 1e-12
    a = sample_separable((2, 2), 4, 7)
    b = sample_separable((2, 2), 4, 7)
    assert np.array_equal(a.density.matrix, b.density.matrix)
    with pytest.raises(StructureError):
        sample_separable((2, 2), 0, 0)
    # a term with no factors, and a term count that is not an integer
    with pytest.raises(StructureError, match="at least one factor"):
        sample_separable((), 1)
    for k in (True, 2.5):
        with pytest.raises(StructureError, match="nonnegative integers"):
            sample_separable((2,), k)


def test_separable_state_validation():
    p = random_pure(2, 0)
    q = random_pure(2, 1)
    with pytest.raises(StructureError):
        separable_state([0.5, 0.4], [(p, q), (p, q)])
    with pytest.raises(StructureError):
        separable_state([0.5, 0.5], [(p, q), (p, random_pure(3, 2))])
    with pytest.raises(StructureError, match="at least one factor"):
        separable_state([1.0], [()])
    st = separable_state([0.25, 0.75], [(p, q), (q, p)])
    w, _ = eig_hermitian(st.density)
    assert w[-1] >= -1e-12


def test_density_positive_semidefinite_and_trace_one():
    for seed in range(20):
        s = sample_separable((2, 3), 4, seed)
        w, _ = eig_hermitian(s.density)
        assert w[-1] >= -1e-12
        assert abs(s.density.trace() - 1.0) < 1e-12


def test_ppt_check_cases():
    for seed in range(30):
        s = sample_separable((2, 2), 3, seed)
        assert ppt_check(s.density).positive
    res = ppt_check(BELL)
    assert not res.positive
    assert abs(res.min_eigenvalue + 0.5) < 1e-12
    # cross-check against the closed-form spectrum of the swap/2
    w, _ = eig_hermitian(herm(np.eye(4) / 4, (2, 2)))
    assert ppt_check(herm(np.eye(4) / 4, (2, 2))).positive
    with pytest.raises(StructureError):
        ppt_check(herm(np.eye(8), (2, 2, 2)))


def test_filter_apply_density_consistency_all_forms():
    rng = np.random.default_rng(0)
    for tag in range(1, 8):
        for (m, n) in [(2, 2), (2, 3), (3, 2)]:
            if not legal_dims(tag, m, n):
                continue
            op = canonical_sep(random_sep_form(tag, m, n, rng), (m, n))
            c = classify_sep_preserver(op)
            assert c.kind == "form" and c.form.tag == tag
            for seed in range(5):
                s = sample_separable((m, n), int(rng.integers(1, 5)), rng)
                out = filter_apply(c, s)
                direct = apply(op, s.density)
                assert np.max(np.abs(out.density.matrix - direct.matrix)) < 1e-10
                assert out.weights == s.weights
                assert ppt_check(out.density).positive


def test_filter_form6_unitary_is_global_conjugation():
    rng = np.random.default_rng(1)
    form = random_sep_form(6, 2, 2, rng)
    op = canonical_sep(form, (2, 2))
    c = classify_sep_preserver(op)
    s = sample_separable((2, 2), 3, 5)
    out = filter_apply(c, s)
    # factorwise conjugation acts on the density as conjugation by U1 (x) U2
    # after partial-transposing the conjugate-flagged factors
    from preservers import partial_transpose

    x = s.density
    if form.u1.flag == "conjugate":
        x = partial_transpose(x, 1)
    if form.u2.flag == "conjugate":
        x = partial_transpose(x, 2)
    big = np.kron(form.u1.matrix, form.u2.matrix)
    expected = big @ x.matrix @ big.conj().T
    assert np.max(np.abs(out.density.matrix - expected)) < 1e-10


def test_filter_form1_constant():
    rng = np.random.default_rng(2)
    form = random_sep_form(1, 2, 2, rng)
    op = canonical_sep(form, (2, 2))
    c = classify_sep_preserver(op)
    s = sample_separable((2, 2), 4, 9)
    out = filter_apply(c, s)
    target = np.kron(form.r1.projection.matrix, form.r2.projection.matrix)
    assert np.max(np.abs(out.density.matrix - target)) < 1e-10


def test_filter_requires_constructive_classification():
    bell = pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2))
    bad = trace_replacer(bell, (2, 2), (2, 2))
    c = classify_sep_preserver(bad)
    assert c.kind == "not_preserver"
    with pytest.raises(ContractError):
        filter_apply(c, sample_separable((2, 2), 2, 0))
    ident = classify_sep_preserver(identity_superop((2, 2)))
    with pytest.raises(StructureError, match="two-factor states"):
        filter_apply(ident, sample_separable((2, 2, 2), 2, 0))


def test_filter_refuses_states_on_other_factor_dims():
    """A form 6 classified on (2,2) carries dimension-2 factors: a state on
    (3,3) or (2,3) is refused, where the isometry's matmul raised a bare
    ValueError."""
    op = canonical_sep(random_sep_form(6, 2, 2, np.random.default_rng(3)), (2, 2))
    c = classify_sep_preserver(op)
    for dims in ((3, 3), (2, 3)):
        with pytest.raises(StructureError, match="dimension"):
            filter_apply(c, sample_separable(dims, 2, 0))


def test_filter_inverse_composes_to_identity():
    rng = np.random.default_rng(3)
    for tag in (6, 7):
        form = random_sep_form(tag, 2, 2, rng)
        op = canonical_sep(form, (2, 2))
        inv_form = inverse_sep_form(form)
        inv = canonical_sep(inv_form, (2, 2))
        assert superop_equal(compose(inv, op), identity_superop((2, 2)), 1e-9).equal
        # filtering with the inverse returns the original density
        c = classify_sep_preserver(op)
        ci = classify_sep_preserver(inv)
        s = sample_separable((2, 2), 3, 11)
        back = filter_apply(ci, filter_apply(c, s))
        assert np.max(np.abs(back.density.matrix - s.density.matrix)) < 1e-9


def test_filter_affine_consistency():
    rng = np.random.default_rng(4)
    op = canonical_sep(random_sep_form(3, 2, 2, rng), (2, 2))
    c = classify_sep_preserver(op)
    a = sample_separable((2, 2), 2, 1)
    b = sample_separable((2, 2), 3, 2)
    t = 0.4
    mixed = convex_mix(a, b, t)
    lhs = filter_apply(c, mixed).density.matrix
    rhs = t * filter_apply(c, a).density.matrix + (1 - t) * filter_apply(c, b).density.matrix
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_separable_from_mixed_decomposition():
    rng = np.random.default_rng(5)
    rho1 = np.eye(2) / 2
    rho2 = random_pure(3, rng).projection.matrix
    s = separable_from_mixed([1.0], [[rho1, rho2]])
    assert abs(s.density.trace() - 1.0) < 1e-12
    assert np.max(np.abs(s.density.matrix - np.kron(rho1, rho2))) < 1e-10
    # every term is a genuine pure product
    for term in s.terms:
        for f in term:
            assert abs(np.trace(f.projection.matrix).real - 1.0) < 1e-10
    with pytest.raises(StructureError):
        separable_from_mixed([1.0], [[np.diag([1.0, -0.5]), rho2]])
    # a negative weight cancelled in the normalisation, and 0 divided by zero
    for w in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(StructureError, match="weights must be positive and finite"):
            separable_from_mixed([w], [[rho1, rho2]])
    with pytest.raises(StructureError, match="weights must be positive and finite"):
        separable_from_mixed([0.5, -0.5], [[rho1, rho2], [rho1, rho2]])
    with pytest.raises(StructureError, match="not positive semidefinite"):
        separable_from_mixed([1.0], [[np.diag([1.5, -0.5]), rho2]])
    # a count mismatch, a trace off 1 (a zero matrix too) and weights off 1
    # are refused, not dropped or normalised away
    for weights, mats in (([0.5, 0.5], [[rho1, rho2]]),
                          ([1.0], [[rho1, rho2], [rho1, rho2]])):
        with pytest.raises(StructureError, match="one factor list per weight"):
            separable_from_mixed(weights, mats)
    for mat in (2 * np.eye(2), np.zeros((2, 2)), np.eye(2) / 2 + 1e-11 * np.eye(2)):
        with pytest.raises(StructureError, match="trace"):
            separable_from_mixed([1.0], [[mat, rho2]])
    with pytest.raises(StructureError, match="weights sum to"):
        separable_from_mixed([0.5, 0.6], [[rho1, rho2], [rho1, rho2]])


def test_separable_from_mixed_refuses_a_bad_tol():
    """A tol outside 0 <= tol < inf is refused as a tolerance, and one that
    drops every eigen-branch of a factor is named, not reported as a count
    mismatch or a zero weight."""
    rho2 = random_pure(3, np.random.default_rng(6)).projection.matrix
    for tol, mat in ((np.nan, np.eye(2) / 2), (-1.0, np.diag([1.0, 0.0]))):
        with pytest.raises(StructureError, match="tolerance must be nonnegative and finite"):
            separable_from_mixed([1.0], [[mat, rho2]], tol=tol)
    with pytest.raises(StructureError, match=r"no eigenvalue above tol=0\.6"):
        separable_from_mixed([1.0], [[np.eye(2) / 2, rho2]], tol=0.6)
    # tol = 0 is accepted and still drops an exact zero eigenvalue
    s = separable_from_mixed([1.0], [[np.diag([1.0, 0.0]), np.diag([0.0, 1.0, 0.0])]], tol=0.0)
    assert s.weights == (1.0,)


def test_convex_mix_validation():
    a = sample_separable((2, 2), 2, 0)
    b = sample_separable((2, 2), 2, 1)
    with pytest.raises(StructureError):
        convex_mix(a, b, 0.0)
    m = convex_mix(a, b, 0.5)
    assert abs(sum(m.weights) - 1.0) < 1e-12
