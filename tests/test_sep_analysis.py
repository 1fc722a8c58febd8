"""Bipartite and multipartite separable-preserver classification."""

import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    EXPECTED_GRID,
    hidden_bump,
    leaky_embedding,
    legal_dims,
    perturbed,
    random_flag,
    random_multiform_setup,
    random_sep_form,
)
from preservers import (
    CONJUGATE,
    LINEAR,
    ClassificationError,
    HermitianOperator,
    MultiForm,
    SepForm,
    StructureError,
    apply,
    canonical_multi,
    canonical_sep,
    check_both_directions,
    classify_multi_preserver,
    classify_pure_preserver,
    classify_sep_preserver,
    basis_state,
    doubling_obstruction_check,
    from_action,
    identity_superop,
    is_product_pure,
    is_pure,
    make_superop,
    mc_verify_product,
    partial_transpose,
    pure_state,
    random_hermitian,
    random_isometry,
    random_pure,
    reduce_to_factor,
    slice_phi,
    superop_equal,
    swap_theta,
    tensor,
    tensor_all,
    to_choi,
    trace_replacer,
    uniform_state,
)
from preservers.linalg import as_rng, spanning_states
from preservers.pure_analysis import _carry_read, _feed_reads, _pivot, find_impure_witness
from preservers.sep_analysis import (
    _SEP_TAGS,
    _grid,
    find_product_witness,
)
from preservers.superop import SEP_SOURCES, conjugation, isometry, random_unitary
from preservers import basis, pure_analysis


def test_slice_phi_identity_form1_swap():
    rng = np.random.default_rng(0)
    ident = from_action((2, 3), (2, 3), lambda a: a)
    a = np.random.default_rng(1).standard_normal((2, 2))
    a = HermitianOperator(a + a.T, (2,))
    q = random_pure(3, rng).projection
    assert np.allclose(slice_phi(ident, a, q, 1).matrix, a.matrix, atol=1e-12)

    r1, r2 = random_pure(2, rng), random_pure(3, rng)
    f1 = canonical_sep(SepForm(1, r1=r1, r2=r2), (2, 3))
    for _ in range(5):
        p = random_pure(2, rng).projection
        qq = random_pure(3, rng).projection
        assert np.allclose(slice_phi(f1, p, qq, 1).matrix, r1.projection.matrix,
                           atol=1e-10)

    sw = from_action((2, 2), (2, 2), swap_theta)
    p = random_pure(2, rng).projection
    qq = random_pure(2, rng).projection
    assert np.allclose(slice_phi(sw, p, qq, 1).matrix, qq.matrix, atol=1e-10)


def test_round_trip_all_forms_with_grid():
    rng = np.random.default_rng(1)
    trials = 0
    for tag in range(1, 8):
        for (m, n) in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            if not legal_dims(tag, m, n):
                continue
            form = random_sep_form(tag, m, n, rng)
            op = canonical_sep(form, (m, n))
            c = classify_sep_preserver(op)
            assert c.kind == "form", (tag, m, n, c.kind)
            assert c.form.tag == tag
            assert c.grid == EXPECTED_GRID[tag]
            assert c.residual <= 1e-8
            rebuilt = canonical_sep(c.form, (m, n))
            assert superop_equal(op, rebuilt, 1e-8).equal
            trials += 1
    assert trials >= 20


def test_partial_transpose_classifies_form6_conjugate():
    op = from_action((2, 3), (2, 3), lambda a: partial_transpose(a, 1))
    c = classify_sep_preserver(op)
    assert c.kind == "form" and c.form.tag == 6
    assert c.form.u1.flag == CONJUGATE
    assert c.form.u2.flag == LINEAR
    assert check_both_directions(c)


def test_swap_classifies_form7():
    op = from_action((3, 3), (3, 3), swap_theta)
    c = classify_sep_preserver(op)
    assert c.kind == "form" and c.form.tag == 7
    assert c.form.u1.flag == LINEAR and c.form.u2.flag == LINEAR
    assert check_both_directions(c)


def test_trace_to_entangled_is_not_preserver():
    bell = pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2))
    op = trace_replacer(bell, (2, 2), (2, 2))
    c = classify_sep_preserver(op)
    assert c.kind == "not_preserver"
    p, q = c.witness
    img = apply(op, tensor(p.projection, q.projection))
    assert not is_product_pure(img)[0]


def test_doubling_obstruction():
    assert doubling_obstruction_check(2)
    assert doubling_obstruction_check(3)
    with pytest.raises(StructureError):
        doubling_obstruction_check(1)
    # pin the Frobenius gap by direct 4x4 expansion
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])
    plus = (e0 + e1) / np.sqrt(2)
    minus = (e0 - e1) / np.sqrt(2)
    p = [np.outer(v, v) for v in (e0, e1, plus, minus)]
    gap = np.linalg.norm(np.kron(p[0], p[0]) + np.kron(p[1], p[1])
                         - np.kron(p[2], p[2]) - np.kron(p[3], p[3]))
    assert abs(gap - np.sqrt(2.0)) < 1e-12


def test_check_both_directions_cases():
    rng = np.random.default_rng(3)
    c6 = classify_sep_preserver(canonical_sep(random_sep_form(6, 2, 2, rng), (2, 2)))
    assert check_both_directions(c6)
    c1 = classify_sep_preserver(canonical_sep(random_sep_form(1, 2, 2, rng), (2, 2)))
    assert not check_both_directions(c1)
    # rectangular factorwise conjugation is a valid construction whose
    # classification-side surjectivity test must fail
    from preservers.sep_analysis import FORM, SepClassification

    rect = SepClassification(
        FORM, form=SepForm(6, u1=random_isometry(3, 2, rng), u2=random_isometry(2, 2, rng)))
    assert not check_both_directions(rect)


def test_fake_pattern9_map_rejected_with_witness():
    rng = np.random.default_rng(5)
    r1 = random_pure(2, rng)
    e00 = np.zeros((2, 2))
    e00[0, 0] = 1.0

    def fake(a):
        t = a.matrix.reshape(2, 2, 2, 2)
        tr_b = np.trace(t, axis1=1, axis2=3)
        tr_a = np.trace(t, axis1=0, axis2=2)
        tot = np.trace(a.matrix)
        bilinear = tr_b + tr_a - tot * e00
        return HermitianOperator(np.kron(r1.projection.matrix, bilinear), (2, 2))

    op = from_action((2, 2), (2, 2), fake)
    c = classify_sep_preserver(op)
    # both inputs feed slot 2 only through the slices at e_0 (x) e_0, where
    # the e00 term cancels; the pivot sits at e_1 (x) e_1, whose image 2 E_11
    # has the largest diagonal, and there the slices diag(1, 2) and
    # [[0, 0], [0, 2]] are no isometries, so no input feeds
    assert c.kind == "not_preserver" and c.grid == ("a", "a′")
    p, q = c.witness
    assert not is_product_pure(apply(op, tensor(p.projection, q.projection)))[0]


def _joint_carry(rng, m, n, slot):
    """A (x) B -> V (A (x) B) V+ in output slot ``slot``, the other slot
    writing a random pure state.  V maps C^{mn} into the slot's space so that
    x -> V (x (x) e_0) and y -> V (e_0 (x) y) are isometries agreeing on
    e_0 (x) e_0 = e_0; its other columns are random with entries of scale
    0.3, so the pivot of the Choi matrix sits at e_0 (x) e_0."""
    d = (m, n)[slot - 1]
    u = np.eye(d, dtype=complex)
    u[1:, 1:] = random_unitary(d - 1, rng)
    turn = np.eye(d, dtype=complex)
    turn[1:, 1:] = random_unitary(d - 1, rng)
    v = 0.3 * (rng.standard_normal((d, m * n)) + 1j * rng.standard_normal((d, m * n)))
    v[:, ::n] = u[:, :m]
    v[:, :n] = (u @ turn)[:, :n]
    r = random_pure((n, m)[slot - 1], rng).projection.matrix

    def action(a):
        carried = v @ a.matrix @ v.conj().T
        return HermitianOperator(np.kron(carried, r) if slot == 1 else np.kron(r, carried), (m, n))

    return from_action((m, n), (m, n), action)


def test_joint_carry_attempts_are_rejected_in_their_cells():
    """Both inputs fed into one slot through a map V that is isometric on
    each slice through the pivot: the reads select cell (c,c') or (b,b'),
    which hold no preserver, and the scan certifies a witness."""
    for slot, cell, dims in ((1, ("c", "c′"), ((2, 2), (3, 2), (3, 3))),
                             (2, ("b", "b′"), ((2, 2), (2, 3), (3, 3)))):
        for m, n in dims:
            for seed in range(3):
                op = _joint_carry(np.random.default_rng(seed), m, n, slot)
                c = classify_sep_preserver(op)
                assert c.grid == cell and c.kind == "not_preserver", (slot, m, n, seed)
                p, q = c.witness
                assert not is_product_pure(apply(op, tensor(p.projection, q.projection)))[0]


def test_dimension_one_factor_never_reaches_the_joint_carry_cells():
    rng = np.random.default_rng(24)
    for m, n in ((1, 2), (2, 1), (1, 3), (3, 1)):
        for tag in range(1, 8):
            if not legal_dims(tag, m, n):
                continue
            c = classify_sep_preserver(canonical_sep(random_sep_form(tag, m, n, rng), (m, n)))
            assert c.kind == "form", (tag, m, n)
            assert c.grid not in (("b", "b′"), ("c", "c′")), (tag, m, n, c.grid)


def test_perturbed_canonical_maps_get_witnesses():
    rng = np.random.default_rng(6)
    for tag in (1, 3, 6):
        base = canonical_sep(random_sep_form(tag, 2, 2, rng), (2, 2))
        noise = rng.standard_normal(base.coeff.shape)
        op = make_superop((2, 2), (2, 2), base.coeff + 1e-3 * noise)
        c = classify_sep_preserver(op)
        assert c.kind == "not_preserver", tag
        p, q = c.witness
        assert not is_product_pure(apply(op, tensor(p.projection, q.projection)), 1e-8)[0]


def test_rebuild_check_rejects_maps_hidden_from_the_anchor_slices():
    """Canonical form + eps * (A (x) B -> <1|A|1><1|B|1> X): the bump moves
    the image of one basis element only, so the pivot read still proposes
    the canonical form's wiring and grid cell, and the coefficient
    comparison against the rebuilt form rejects the map."""
    rng = np.random.default_rng(21)
    cases = 0
    for tag in (2, 5, 6, 7):
        for m, n in ((2, 2), (2, 3), (3, 3)):
            if not legal_dims(tag, m, n):
                continue
            dims = (m, n)
            base = canonical_sep(random_sep_form(tag, m, n, rng), dims)
            x = random_hermitian(m * n, rng).matrix
            corner = n + 1  # the index of |1>|1>
            bump = from_action(dims, dims,
                               lambda a: HermitianOperator(a.matrix[corner, corner].real * x, dims))
            op = make_superop(dims, dims, base.coeff + 1e-3 * bump.coeff)
            c = classify_sep_preserver(op)
            assert c.kind == "not_preserver", (tag, dims)
            assert c.grid == EXPECTED_GRID[tag]
            p, q = c.witness
            assert not is_product_pure(apply(op, tensor(p.projection, q.projection)), 1e-8)[0]
            cases += 1
    assert cases == 11


def test_positive_classifies_one_anchor_per_side(monkeypatch):
    """An exact bipartite positive gathers its reads through the pivot of
    its Choi matrix once and makes one comparison, whatever its form."""
    reads = _count(monkeypatch, "_gather", (pure_analysis,))
    comparisons = _count(monkeypatch, "_compare_product", (pure_analysis,))
    rng = np.random.default_rng(22)
    for tag in range(1, 8):
        for m, n in itertools.product((2, 3), repeat=2):
            if not legal_dims(tag, m, n):
                continue
            op = canonical_sep(random_sep_form(tag, m, n, rng), (m, n))
            reads.clear()
            comparisons.clear()
            c = classify_sep_preserver(op)
            assert c.kind == "form" and c.form.tag == tag, (tag, m, n)
            assert (len(reads), len(comparisons)) == (1, 1), (tag, m, n, reads, comparisons)


def test_boundary_forms_get_a_certified_verdict():
    """(2,2) forms 2, 4 and 6 with 3e-9 coefficient noise sit at the
    tolerance.  The read only proposes, so the classifier never raises: it
    returns a form within ``tol`` of the map, or a witness whose image is
    not product pure at ``tol``."""
    tol = 1e-8
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for tag in (2, 4, 6):
            exact = canonical_sep(random_sep_form(tag, 2, 2, rng), (2, 2))
            op = make_superop((2, 2), (2, 2),
                              exact.coeff + 3e-9 * rng.standard_normal(exact.coeff.shape))
            c = classify_sep_preserver(op, tol)
            if c.kind == "form":
                assert c.residual <= tol, (seed, tag)
            else:
                assert c.kind == "not_preserver", (seed, tag, c.kind)
                p, q = c.witness
                assert not is_product_pure(apply(op, tensor(p.projection, q.projection)), tol)[0]


def _count(monkeypatch, name, modules):
    """Record the positional arguments of every call of ``name``."""
    calls = []
    for module in modules:
        inner = getattr(module, name)

        def counted(*args, _inner=inner, **kwargs):
            calls.append(args)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_product_positive_makes_one_comparison(monkeypatch):
    """The comparison with the product map of the proposed slots is the one
    check of a product verdict: an exact positive, bipartite or (2,2,2),
    gathers its reads once and makes a single comparison."""
    reads = _count(monkeypatch, "_gather", (pure_analysis,))
    calls = _count(monkeypatch, "_compare_product", (pure_analysis,))
    rng = np.random.default_rng(23)
    for tag in range(1, 8):
        for m, n in itertools.product((2, 3), repeat=2):
            if not legal_dims(tag, m, n):
                continue
            reads.clear()
            calls.clear()
            assert classify_sep_preserver(canonical_sep(random_sep_form(tag, m, n, rng),
                                                        (m, n))).positive
            assert (len(reads), len(calls)) == (1, 1), (tag, m, n, len(reads), len(calls))
    for perm in itertools.permutations((1, 2, 3)):
        isos = tuple(random_isometry(2, 2, rng, random_flag(rng)) for _ in range(3))
        reads.clear()
        calls.clear()
        assert classify_multi_preserver(canonical_multi(MultiForm(perm, isos), (2, 2, 2))).positive
        assert (len(reads), len(calls)) == (1, 1), (perm, len(reads), len(calls))


def test_positive_classify_holds_no_rebuilt_map():
    """A warm classify of an exact (3,3,3) multipartite form compares the
    map with the product map of its slots one row block at a time: it
    allocates under half of the 4.25 MB coefficient matrix, where a rebuilt
    map and a difference matrix took two."""
    rng = np.random.default_rng(47)
    isos = tuple(random_isometry(3, 3, rng, f) for f in (LINEAR, CONJUGATE, LINEAR))
    op = canonical_multi(MultiForm((3, 1, 2), isos), (3, 3, 3))
    classify_multi_preserver(op)
    tracemalloc.start()
    try:
        c = classify_multi_preserver(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert c.kind == "multi_form"
    assert peak < 0.5 * op.coeff.nbytes, peak / op.coeff.nbytes


def test_product_negatives_scan_no_section(monkeypatch):
    """The pivot read only proposes, so a perturbed product map runs no
    single-factor purity test: every image it tests, in its one map-level
    scan, is tested for product purity."""
    calls = _count(monkeypatch, "_rejected", (pure_analysis,))
    rng = np.random.default_rng(24)
    for tag in range(1, 8):
        exact = canonical_sep(random_sep_form(tag, 2, 2, rng), (2, 2))
        op = make_superop((2, 2), (2, 2), exact.coeff + 1e-3 * rng.standard_normal(exact.coeff.shape))
        assert classify_sep_preserver(op).kind == "not_preserver", tag
    for seed in range(3):
        isos = tuple(random_isometry(2, 2, rng) for _ in range(3))
        exact = canonical_multi(MultiForm((2, 3, 1), isos), (2, 2, 2))
        op = make_superop((2, 2, 2), (2, 2, 2),
                          exact.coeff + 1e-3 * rng.standard_normal(exact.coeff.shape))
        assert classify_multi_preserver(op).kind == "not_preserver", seed
    assert calls and all(len(args[1]) > 1 for args in calls)


def _tested_images(monkeypatch):
    """The arguments of every purity test of a stack of images, the
    coordinates of the images first: the certificate sees them all."""
    return _count(monkeypatch, "_rejected", (pure_analysis,))


def _witness(c):
    """The witness of a pure or product classification as a tuple of states."""
    return c.witness if isinstance(c.witness, tuple) else (c.witness,)


def _is_first_candidate(witness):
    return all(np.array_equal(w.vector, basis_state(w.dim, 0).vector) for w in witness)


def test_probe_failing_negatives_test_one_image(monkeypatch):
    """A negative whose probe image fails returns the probe as its witness:
    candidate 0 of the family, and the only image tested.  Its vectors are
    the caller's own writable copies: writing into them changes neither the
    cached spanning family nor the next classification's witness."""
    tested = _tested_images(monkeypatch)
    rng = np.random.default_rng(25)
    cases = [(perturbed(canonical_sep(random_sep_form(tag, 2, 2, rng), (2, 2)), 1e-3, rng),
              classify_sep_preserver) for tag in range(1, 8)]
    cases += [(perturbed(trace_replacer(random_pure(3, rng), (3,), (3,)), 1e-3, rng),
               classify_pure_preserver),
              (_bipartite_replacer(np.pi / 4), classify_sep_preserver)]
    for i, (op, classify) in enumerate(cases):
        tested.clear()
        c = classify(op)
        assert c.kind == "not_preserver", i
        assert sum(len(args[0]) for args in tested) == 1, i
        assert _is_first_candidate(_witness(c)), i
        for w in _witness(c):
            w.vector[:] = 7.0
            assert np.array_equal(pure_analysis._spanning_vectors(w.dim)[0],
                                  basis_state(w.dim, 0).vector), i
        assert _is_first_candidate(_witness(classify(op))), i


def test_witness_scans_after_a_passed_probe_skip_it(monkeypatch):
    """A negative whose probe passes scans for its witness from candidate 1:
    the image of e_0 (x) ... (x) e_0 is tested once, by the probe."""
    tested = _tested_images(monkeypatch)
    rng = np.random.default_rng(26)
    isos = tuple(random_isometry(2, 2, rng) for _ in range(3))
    cases = [(_noisy_sep(0, 2, 2, 3e-9), classify_sep_preserver),   # family, candidate 6
             (_noisy_sep(2, 2, 2, 3e-9), classify_sep_preserver),   # random draw
             (_noisy_sep(0, 2, 3, 3e-9), classify_sep_preserver),
             (hidden_bump(canonical_sep(random_sep_form(6, 3, 3, rng), (3, 3)), 1e-3, rng),
              classify_sep_preserver),
             (hidden_bump(canonical_multi(MultiForm((2, 3, 1), isos), (2, 2, 2)), 1e-3, rng),
              classify_multi_preserver),
             (hidden_bump(conjugation(random_isometry(3, 3, rng)), 1e-3, rng),
              classify_pure_preserver)]
    for i, (op, classify) in enumerate(cases):
        tested.clear()
        c = classify(op)
        assert c.kind == "not_preserver", i
        assert not _is_first_candidate(_witness(c)), i
        images = [y for args in tested for y in args[0]]
        assert sum(np.array_equal(y, op.coeff[:, 0]) for y in images) == 1, i


@pytest.mark.parametrize("noise", [1e-3, 3e-9])
def test_sep_witness_is_the_scan_witness(noise):
    """Whether the probe decides or the scan runs from candidate 1, the
    classifier's witness is the one the public scan finds from candidate 0."""
    rng = np.random.default_rng(27)
    found = {"probe": 0, "later": 0}
    for tag in range(1, 8):
        for m, n in itertools.product((2, 3, 4), repeat=2):
            if not legal_dims(tag, m, n):
                continue
            op = perturbed(canonical_sep(random_sep_form(tag, m, n, rng), (m, n)), noise, rng)
            c = classify_sep_preserver(op, 1e-8, seed=4)
            if c.kind == "not_preserver":
                assert _same_states(c.witness, find_product_witness(op, 1e-8, 4)), (tag, m, n)
                found["probe" if _is_first_candidate(c.witness) else "later"] += 1
    assert found["probe"] and (noise > 1e-6 or found["later"]), found


def test_multi_witness_is_the_scan_witness():
    """A multipartite negative whose anchors fail or pass gets the witness
    of the public scan over its first 729 candidates."""
    rng = np.random.default_rng(28)
    later = 0
    for dims, perm in (((2, 2, 2), (2, 3, 1)), ((2, 3, 3), (1, 3, 2))):
        for _ in range(3):
            isos = tuple(random_isometry(dims[j], dims[perm[j] - 1], rng, random_flag(rng))
                         for j in range(3))
            exact = canonical_multi(MultiForm(perm, isos), dims)
            for op in (perturbed(exact, 1e-3, rng), hidden_bump(exact, 1e-3, rng)):
                c = classify_multi_preserver(op, 1e-8, seed=3)
                assert c.kind == "not_preserver", dims
                assert _same_states(c.witness, find_product_witness(op, 1e-8, 3, det_cap=729))
                later += not _is_first_candidate(c.witness)
    assert later == 6


def test_multi_scan_tests_no_input_twice(monkeypatch):
    """On qubits the uniform probe is spanning candidate (2,2,2), at
    position 42, so the scan skips it.  A (2,2,2) permutation form with a
    bump on the Y coordinate of the input pair (0, 4), which only inputs
    mixing e_0 and i e_1 in factor 1 see, fails its comparison and finds
    its witness at candidate (3,0,0); no image on the way is tested twice
    (the certificate sees every image, as coordinates)."""
    calls = _tested_images(monkeypatch)
    rng = np.random.default_rng(31)
    isos = tuple(random_isometry(2, 2, rng, random_flag(rng)) for _ in range(3))
    exact = canonical_multi(MultiForm((2, 3, 1), isos), (2, 2, 2))
    coeff = exact.coeff.copy()
    coeff[:, 15] += 1e-3 * basis.coords(random_hermitian(8, rng).matrix)
    c = classify_multi_preserver(make_superop((2, 2, 2), (2, 2, 2), coeff), 1e-8)
    assert c.kind == "not_preserver"
    family = spanning_states(2)
    assert _same_states(c.witness, (family[3], family[0], family[0]))
    images = np.concatenate([args[0] for args in calls])
    assert len(images) > 43
    gaps = np.abs(images[:, None] - images[None]).max(axis=2)
    gaps += np.diag(np.full(len(images), np.inf))
    assert gaps.min() > 1e-6, np.unravel_index(np.argmin(gaps), gaps.shape)


def test_spanning_states_stay_fresh_and_witnesses_share_nothing():
    """The families are built once per dimension, yet ``spanning_states``
    returns new writable states, and no witness shares a vector with the
    family or with another witness: mutating either changes no later one."""
    a, b = spanning_states(3), spanning_states(3)
    for p, q in zip(a, b):
        assert p.vector.flags.writeable and not np.shares_memory(p.vector, q.vector)
        assert np.array_equal(p.vector, q.vector)
    rng = np.random.default_rng(30)
    cases = [(perturbed(canonical_sep(random_sep_form(6, 3, 3, rng), (3, 3)), 1e-3, rng),
              classify_sep_preserver),
             (hidden_bump(canonical_sep(random_sep_form(6, 3, 3, rng), (3, 3)), 1e-3, rng),
              classify_sep_preserver),
             (hidden_bump(conjugation(random_isometry(3, 3, rng)), 1e-3, rng),
              classify_pure_preserver)]
    for op, classify in cases:
        first = _witness(classify(op))
        want = [w.vector.copy() for w in first]
        for p in a:
            p.vector[:] = 0
        for w in first:
            assert w.vector.flags.writeable
            w.vector[:] = 0
        again = _witness(classify(op))
        assert all(np.array_equal(w.vector, v) for w, v in zip(again, want, strict=True))
    assert all(np.array_equal(p.vector, q.vector) for p, q in zip(spanning_states(3), b))


@pytest.mark.parametrize("kwargs", [
    {"tol": float("nan")}, {"tol": -1.0}, {"tol": 1e-8, "seed": -1},
    {"tol": 1e-8, "det_cap": -1}, {"tol": 1e-8, "random_tries": -5},
    {"tol": 1e-8, "det_cap": 2.5}, {"tol": 1e-8, "random_tries": 2.5},
], ids=["nan_tol", "negative_tol", "negative_seed", "negative_det_cap", "negative_random_tries",
        "fractional_det_cap", "fractional_random_tries"])
def test_witness_scans_check_their_arguments(kwargs):
    """A NaN tolerance would read as "no violation", a negative one make
    every candidate a witness, and a negative seed passes unseen when the
    family holds the witness.  A negative scan size would scan nothing and
    read as "no violation", and a fractional one has no meaning.  All are
    refused up front."""
    rng = np.random.default_rng(31)
    sep = perturbed(canonical_sep(random_sep_form(6, 2, 2, rng), (2, 2)), 1e-3, rng)
    pure = perturbed(conjugation(random_isometry(3, 2, rng)), 1e-3, rng)
    with pytest.raises(StructureError):
        find_product_witness(sep, **kwargs)
    if "det_cap" not in kwargs:
        with pytest.raises(StructureError):
            find_impure_witness(pure, **kwargs)


def test_witness_scans_of_size_zero_scan_nothing():
    """Size 0 stays valid: on a map whose every input is a witness, a scan
    of no candidates finds none, and one candidate finds one."""
    op = trace_replacer(random_pure(4, 1), (2, 2), (2, 2))
    assert find_product_witness(op, 1e-8, det_cap=0, random_tries=0) is None
    assert find_product_witness(op, 1e-8, det_cap=0, random_tries=1) is not None
    assert find_product_witness(op, 1e-8, det_cap=np.int64(1), random_tries=0) is not None


@pytest.mark.parametrize("tag,seed", [(3, 20), (6, 21), (7, 28)])
def test_boundary_map_without_witness_is_indeterminate(tag, seed):
    """(2,2) forms with 2e-9 coefficient noise that fail the comparison at
    ``tol`` while no scanned image fails product purity: the classifier
    raises rather than guess a verdict."""
    rng = np.random.default_rng(seed)
    op = perturbed(canonical_sep(random_sep_form(tag, 2, 2, rng), (2, 2)), 2e-9, rng)
    with pytest.raises(ClassificationError, match="indeterminate at tol=1e-08"):
        classify_sep_preserver(op)
    assert find_product_witness(op, 1e-8) is None


def _two_factor_maps():
    """Two-factor maps with matching input and output dims: forms 1-7 on
    {1,2,3}^2, exact and noisy, the bipartite replacers, hidden bumps and
    random coefficient matrices."""
    rng = np.random.default_rng(35)
    for tag in range(1, 8):
        for m, n in itertools.product((1, 2, 3), repeat=2):
            if not legal_dims(tag, m, n):
                continue
            exact = canonical_sep(random_sep_form(tag, m, n, rng), (m, n))
            yield exact
            for noise in (3e-9, 1e-3):
                yield perturbed(exact, noise, rng)
            if m * n > 1:
                yield hidden_bump(exact, 1e-3, rng)
    for theta in np.linspace(0, np.pi / 2, 7):
        yield _bipartite_replacer(theta)
    for m, n in itertools.product((1, 2, 3), repeat=2):
        for _ in range(4):
            d = (m * n) ** 2
            yield make_superop((m, n), (m, n), rng.standard_normal((d, d)))


def test_two_factor_proposals_always_name_a_form():
    """With two factors and matching dims, every proposal's slot sources
    are a row of ``SEP_SOURCES``: an input feeding two slots or a joint
    carry wider than its slot gets no slots, so the bipartite classifier
    needs no tag gate before its comparison."""
    proposals = 0
    for op in _two_factor_maps():
        slots = pure_analysis._propose(op)[1]
        if slots is not None:
            assert tuple(src for src, _ in slots) in _SEP_TAGS, (op.in_dims, slots)
            proposals += 1
    assert proposals >= 200


def test_sep_classifier_argument_errors():
    rng = np.random.default_rng(7)
    op = canonical_sep(random_sep_form(1, 2, 2, rng), (2, 2))
    with pytest.raises(StructureError):
        classify_sep_preserver(op, tol=-1.0)
    with pytest.raises(StructureError):
        classify_sep_preserver(trace_replacer(random_pure(2, rng), (2, 2), (2,)))


@pytest.mark.parametrize("call, message", [
    (lambda: slice_phi(identity_superop((2, 2)), basis_state(2, 0).projection,
                       basis_state(2, 0).projection, 3), "slice index"),
    (lambda: classify_multi_preserver(identity_superop((4,))), "at least two factors"),
    (lambda: classify_multi_preserver(trace_replacer(basis_state(6, 0), (2, 2), (2, 3))),
     "matching input/output dims"),
], ids=["slice-index-3", "multi-one-factor", "multi-dims-differ"])
def test_slice_and_multi_argument_errors(call, message):
    with pytest.raises(StructureError, match=message):
        call()


def test_soundness_mc_for_positive_classifications():
    rng = np.random.default_rng(8)
    for tag in (2, 6, 7):
        m, n = (2, 2)
        op = canonical_sep(random_sep_form(tag, m, n, rng), (m, n))
        c = classify_sep_preserver(op)
        assert c.kind == "form"
        assert mc_verify_product(op, 500, 3).passed


# ---------------------------------------------------------------------------
# multipartite

def test_multi_round_trip_permutation_and_flags():
    rng = np.random.default_rng(9)
    for _ in range(8):
        dims, perm, flags = random_multiform_setup(rng)
        isos = tuple(
            random_isometry(dims[j], dims[perm[j] - 1], rng, flags[j])
            for j in range(3)
        )
        op = canonical_multi(MultiForm(perm, isos), dims)
        c = classify_multi_preserver(op)
        assert c.kind == "multi_form", (dims, perm, c.kind, c.detail)
        assert c.form.perm == perm
        assert tuple(u.flag for u in c.form.isometries) == tuple(flags)
        assert c.residual <= 1e-8
        for j, u in enumerate(c.form.isometries):
            assert dims[c.form.perm[j] - 1] <= dims[j]


def test_multi_agrees_with_sep_on_forms_6_7():
    rng = np.random.default_rng(10)
    u1 = random_isometry(2, 2, rng, CONJUGATE)
    u2 = random_isometry(2, 2, rng)
    f6 = canonical_sep(SepForm(6, u1=u1, u2=u2), (2, 2))
    c = classify_multi_preserver(f6)
    assert c.kind == "multi_form" and c.form.perm == (1, 2)
    assert (c.form.isometries[0].flag, c.form.isometries[1].flag) == (CONJUGATE, LINEAR)

    f7 = canonical_sep(SepForm(7, u1=random_isometry(3, 3, rng),
                               u2=random_isometry(3, 3, rng)), (3, 3))
    c = classify_multi_preserver(f7)
    assert c.kind == "multi_form" and c.form.perm == (2, 1)


def _constants_then_carry(dims, traced, w, consts):
    """The map whose first output slots write the pure states ``consts`` and
    whose last slots carry the inputs other than ``traced`` through the
    unitary w; input ``traced`` is traced out."""
    n = len(dims)

    def action(a):
        kept = np.trace(a.matrix.reshape(dims * 2), axis1=traced, axis2=traced + n)
        block = w @ kept.reshape(w.shape) @ w.conj().T
        return HermitianOperator(reduce(np.kron, [r.projection.matrix for r in consts] + [block]),
                                 dims)

    return from_action(dims, dims, action)


def test_multi_insufficient_richness_for_constant_maps():
    rng = np.random.default_rng(11)
    factors = [random_pure(2, rng) for _ in range(3)]
    target = pure_state(np.kron(np.kron(factors[0].vector, factors[1].vector),
                                factors[2].vector))
    op = trace_replacer(target, (2, 2, 2), (2, 2, 2))
    c = classify_multi_preserver(op)
    assert c.kind == "insufficient_richness"
    assert c.detail

    # preservers with a constant slot 1: inputs 1 (x) 2 jointly carried into
    # slot 3 of (2,2,4), and inputs 2, 3 carried into slots 2, 3 of (2,3,3);
    # neither the joint carry nor the traced input is a doubling
    joint = _constants_then_carry((2, 2, 4), 2, random_unitary(4, rng),
                                  [random_pure(2, rng), random_pure(2, rng)])
    w = np.kron(random_unitary(3, rng), random_unitary(3, rng))
    pair = _constants_then_carry((2, 3, 3), 0, w, [random_pure(2, rng)])
    for op in (joint, pair):
        assert mc_verify_product(op, 200, 0).passed
        c = classify_multi_preserver(op)
        assert c.kind == "insufficient_richness"
        assert "output slot 1 " in c.detail


def test_multi_unfed_slot_needs_fitting_sections():
    """Slot 3 of this (2,2,2) map writes a pure rho plus eps Tr(sigma_y A_1) X,
    which vanishes at both probes.  The map does not fit the product map
    rebuilt from its read, so it is no preserver, not indeterminate."""
    sigma_y = np.array([[0, -1j], [1j, 0]])
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    corner = np.diag([1.0, 0, 0, 0])
    for eps in (1e-3, 0.1):
        rho = random_pure(2, np.random.default_rng(5)).projection.matrix

        def action(a, eps=eps, rho=rho):
            kept = np.einsum("abcdec->abde", a.matrix.reshape((2,) * 6)).reshape(4, 4)
            t = np.trace(np.kron(sigma_y, np.eye(4)) @ a.matrix)
            return HermitianOperator(np.kron(kept, rho) + eps * t * np.kron(corner, x), (2, 2, 2))

        op = from_action((2, 2, 2), (2, 2, 2), action)
        c = classify_multi_preserver(op)
        assert c.kind == "not_preserver", (eps, c.kind)
        assert not is_product_pure(apply(op, tensor_all(
            [s.projection for s in c.witness]).with_dims((2, 2, 2))))[0]


def test_product_forms_at_large_tol():
    """At tol = 0.5 a carried slot's trace replacer would pass a purity
    test at tol, but the read tests no proposal against tol, so exact forms
    keep their verdicts."""
    rng = np.random.default_rng(25)
    for tag in range(1, 8):
        for m, n in itertools.product((2, 3), repeat=2):
            if legal_dims(tag, m, n):
                c = classify_sep_preserver(canonical_sep(random_sep_form(tag, m, n, rng), (m, n)),
                                           0.5)
                assert (c.kind, c.tag) == ("form", tag), (tag, m, n, c.kind)
    for perm in itertools.permutations((1, 2, 3)):
        isos = tuple(random_isometry(2, 2, rng, random_flag(rng)) for _ in range(3))
        c = classify_multi_preserver(canonical_multi(MultiForm(perm, isos), (2, 2, 2)), 0.5)
        assert c.kind == "multi_form" and c.form.perm == perm, (perm, c.kind)


def _doubling_on_input_1(rng):
    """A (x) B (x) C -> Tr(B) Tr(C) G(A) (x) r on (2,2,2), with G linear, both
    marginals of G(A) equal to A, and G(p) = p (x) p at the basis_state(2, 0)
    and uniform projections (solved by least squares), so the images of the
    classifier's anchor products are product pure."""
    units = basis.basis_elements(4, 0, 16).reshape(16, 2, 2, 2, 2)
    marginals = np.vstack([basis.coords(np.einsum(spec, units)).T
                           for spec in ("kajbj->kab", "kjajb->kab")])
    anchors = [s.projection.matrix for s in (basis_state(2, 0), uniform_state(2))]
    x = np.column_stack([basis.coords(p) for p in anchors])
    y = np.column_stack([basis.coords(np.kron(p, p)) for p in anchors])
    # vec(M C) = (I (x) M) vec C and vec(C X) = (X^T (x) I) vec C, column-major
    lhs = np.vstack([np.kron(np.eye(4), marginals), np.kron(x.T, np.eye(16))])
    rhs = np.concatenate([np.vstack([np.eye(4)] * 2).ravel("F"), y.ravel("F")])
    g = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    assert np.max(np.abs(lhs @ g - rhs)) <= 1e-12
    g = g.reshape((16, 4), order="F")
    r = random_pure(2, rng).projection.matrix

    def action(a):
        kept = np.einsum("ajbj->ab", a.matrix.reshape(2, 4, 2, 4))
        return HermitianOperator(np.kron(basis.from_coords(g @ basis.coords(kept), 4), r),
                                 (2, 2, 2))

    return from_action((2, 2, 2), (2, 2, 2), action)


def test_multi_input_feeding_two_slots_is_rejected():
    """Input 1 of this map feeds slots 1 and 2 while slot 3 is unfed, and
    its images of the classifier's probes are product pure: the witness
    scan certifies a product pure state with an entangled image."""
    for seed in range(3):
        op = _doubling_on_input_1(np.random.default_rng(seed))
        c = classify_multi_preserver(op)
        assert c.kind == "not_preserver", (seed, c.kind)
        assert not is_product_pure(apply(op, tensor_all(
            [s.projection for s in c.witness]).with_dims((2, 2, 2))))[0]
        assert not mc_verify_product(op, 200, 0).passed


def test_multi_entangled_target_is_not_preserver():
    rng = np.random.default_rng(12)
    op = trace_replacer(random_pure(8, rng), (2, 2, 2), (2, 2, 2))
    c = classify_multi_preserver(op)
    assert c.kind == "not_preserver"
    img = apply(op, tensor(tensor(c.witness[0].projection, c.witness[1].projection),
                           c.witness[2].projection))
    assert not is_product_pure(img)[0]


def test_multi_noisy_product_replacers_get_a_verdict():
    """Product replacers with 3e-9 coefficient noise sit at the tolerance.
    Where the rebuilt map fails, the witness scan of the whole map decides
    instead of raising, and a map is indeterminate only if the uniform
    states' image is product pure."""
    for dims in ((2, 2), (2, 3)):
        uniform = tensor(uniform_state(dims[0]).projection, uniform_state(dims[1]).projection)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            target = pure_state(np.kron(random_pure(dims[0], rng).vector,
                                        random_pure(dims[1], rng).vector))
            flat = trace_replacer(target, dims, dims)
            op = make_superop(dims, dims, flat.coeff + 3e-9 * rng.standard_normal(flat.coeff.shape))
            c = classify_multi_preserver(op)
            if c.kind == "not_preserver":
                img = apply(op, tensor(c.witness[0].projection, c.witness[1].projection))
                assert not is_product_pure(img)[0], (dims, seed)
            else:
                assert c.kind == "insufficient_richness", (dims, seed)
                assert is_product_pure(apply(op, uniform))[0], (dims, seed)


def test_multi_dim_one_factor_insufficient():
    rng = np.random.default_rng(13)
    isos = (random_isometry(2, 2, rng), random_isometry(1, 1, rng))
    op = canonical_multi(MultiForm((1, 2), isos), (2, 1))
    c = classify_multi_preserver(op)
    assert c.kind == "insufficient_richness"


def test_multi_dim_one_factors_take_the_general_path():
    """A dimension-1 factor gets no special case: non-preservers on (2,1,2)
    get certified witnesses, while exact permutation maps and the identity
    on (1,1,1) stay indeterminate through their unfed dimension-1 slot."""
    rng = np.random.default_rng(60)
    dims = (2, 1, 2)
    bell = pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2))
    isos = (random_isometry(2, 2, rng), random_isometry(1, 1, rng), random_isometry(2, 2, rng))
    perm = canonical_multi(MultiForm((3, 2, 1), isos), dims)
    noisy = make_superop(dims, dims, perm.coeff + 1e-3 * rng.standard_normal(perm.coeff.shape))
    for op in (trace_replacer(bell, dims, dims), noisy):
        c = classify_multi_preserver(op)
        assert c.kind == "not_preserver"
        assert not is_product_pure(apply(op, tensor_all(
            [s.projection for s in c.witness]).with_dims(dims)))[0]
    pair = canonical_multi(MultiForm((1, 2), isos[:2]), (2, 1))
    for op in (pair, perm, identity_superop((1, 1, 1))):
        assert classify_multi_preserver(op).kind == "insufficient_richness"


def test_multi_perturbed_map_rejected():
    rng = np.random.default_rng(14)
    dims = (2, 2, 2)
    isos = tuple(random_isometry(2, 2, rng) for _ in range(3))
    base = canonical_multi(MultiForm((2, 3, 1), isos), dims)
    op = make_superop(dims, dims, base.coeff + 1e-3 * rng.standard_normal(base.coeff.shape))
    c = classify_multi_preserver(op)
    assert c.kind == "not_preserver"


def test_mc_verify_product_contract():
    rng = np.random.default_rng(15)
    good = canonical_sep(random_sep_form(6, 2, 3, rng), (2, 3))
    assert mc_verify_product(good, 300, 0).passed
    bell = pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2))
    bad = trace_replacer(bell, (2, 2), (2, 2))
    res = mc_verify_product(bad, 300, 0)
    assert not res.passed and res.samples == 1
    img = apply(bad, tensor(res.witness[0].projection, res.witness[1].projection))
    assert not is_product_pure(img)[0]


def test_dim_one_factors_allowed_everywhere():
    rng = np.random.default_rng(16)
    f3 = SepForm(3, r1=random_pure(1, rng), u2=random_isometry(3, 3, rng, CONJUGATE))
    c = classify_sep_preserver(canonical_sep(f3, (1, 3)))
    assert c.kind == "form" and c.form.tag == 3 and c.grid == ("a", "b′")

    f2 = SepForm(2, u1=random_isometry(2, 2, rng), r2=random_pure(1, rng))
    c = classify_sep_preserver(canonical_sep(f2, (2, 1)))
    assert c.kind == "form" and c.form.tag == 2 and c.grid == ("c", "a′")

    # on the 1x1 (x) 1x1 space the identity is the trace replacement onto the
    # unique state, and the classifier reports that deterministically
    from preservers import identity_superop

    c = classify_sep_preserver(identity_superop((1, 1)))
    assert c.kind == "form" and c.form.tag == 1


def test_multi_four_factors():
    rng = np.random.default_rng(17)
    dims = (2, 2, 2, 2)
    perm = (3, 1, 4, 2)
    flags = (LINEAR, CONJUGATE, LINEAR, CONJUGATE)
    isos = tuple(random_isometry(2, 2, rng, f) for f in flags)
    op = canonical_multi(MultiForm(perm, isos), dims)
    c = classify_multi_preserver(op)
    assert c.kind == "multi_form"
    assert c.form.perm == perm
    assert tuple(u.flag for u in c.form.isometries) == flags
    assert c.residual <= 1e-8


def test_convex_mixtures_of_forms_are_rejected():
    rng = np.random.default_rng(18)
    a = canonical_sep(random_sep_form(6, 2, 3, rng), (2, 3))
    b = canonical_sep(random_sep_form(6, 2, 3, rng), (2, 3))
    mix = make_superop((2, 3), (2, 3), 0.5 * a.coeff + 0.5 * b.coeff)
    c = classify_sep_preserver(mix)
    assert c.kind == "not_preserver"
    p, q = c.witness
    assert not is_product_pure(apply(mix, tensor(p.projection, q.projection)))[0]


# ---------------------------------------------------------------------------
# slice maps and witness scans against state-by-state references

def _noisy_sep(seed: int, m: int, n: int, noise: float):
    rng = np.random.default_rng(seed)
    tag = int(rng.choice([t for t in range(1, 8) if legal_dims(t, m, n)]))
    op = canonical_sep(random_sep_form(tag, m, n, rng), (m, n))
    return make_superop((m, n), op.out_dims,
                        op.coeff + noise * rng.standard_normal(op.coeff.shape))


def _pivot_cases():
    """Maps with all isometries under one flag, both flags, and noise from 0
    to 1e-3: single-factor m -> n conjugations (m <= n <= 5, m = 1
    included), form 6 on (2,3), multipartite forms on (2,2,2), and maps
    whose stacked reads are padded: factors (2,3,4), a dimension-1 factor
    in (2,1,3), and a rectangular (2,3) -> (3,4) map."""
    rng = np.random.default_rng(42)
    for flag, noise in itertools.product((LINEAR, CONJUGATE), (0.0, 1e-9, 1e-6, 1e-3)):
        maps = [conjugation(random_isometry(n, m, rng, flag))
                for n in range(1, 6) for m in range(1, n + 1)]
        maps.append(canonical_sep(SepForm(6, u1=random_isometry(2, 2, rng, flag),
                                          u2=random_isometry(3, 3, rng, flag)), (2, 3)))
        for dims in ((2, 2, 2), (2, 3, 4), (2, 1, 3)):
            perm = tuple(int(p) + 1 for p in rng.permutation(3))
            isos = tuple(random_isometry(dims[p - 1], dims[p - 1], rng, flag) for p in perm)
            maps.append(canonical_multi(MultiForm(perm, isos), dims))
        maps.append(canonical_multi(MultiForm((1, 2), (random_isometry(3, 2, rng, flag),
                                                       random_isometry(4, 3, rng, flag))), (2, 3)))
        for op in maps:
            yield make_superop(op.in_dims, op.out_dims,
                               op.coeff + noise * rng.standard_normal(op.coeff.shape))


def _choi_reference(op, a, c):
    """``to_choi(op)`` with the axes (out, in, out, in), after checking that
    the pivot (a, c) is its largest diagonal entry."""
    choi = to_choi(op)
    diag = np.diagonal(choi).real
    assert diag[a * op.in_dim + c] >= diag.max() - 1e-12
    return choi.reshape(op.out_dims + op.in_dims + op.out_dims + op.in_dims)


def _pivot_slices(op, a, c):
    """The pivot as per-factor indices, and for each output slot j the index
    of the Choi column over slot j with every other output at the pivot."""
    a, c = np.unravel_index(a, op.out_dims), np.unravel_index(c, op.in_dims)
    slots = [tuple(slice(None) if i == j else ai for i, ai in enumerate(a))
             for j in range(len(a))]
    return tuple(a) + tuple(c), tuple(c), slots


def test_pivot_column_matches_the_choi_matrix():
    """The reads gathered through the pivot are slices of the column of
    ``to_choi(op)`` at its largest diagonal entry, every other index at the
    pivot: each linear read over one input and one output slot, with zero
    padding in the stack, and each slot's joint read over all inputs."""
    for op in _pivot_cases():
        outs, ins = op.out_dims, op.in_dims
        n = len(ins)
        a, c = _pivot(op)
        pivot, cm, slots = _pivot_slices(op, a, c)
        ref = _choi_reference(op, a, c)[(Ellipsis,) + pivot]  # axes (out, in)
        reads = _feed_reads(op, a, c)
        for j, idx in enumerate(slots):
            joint = _carry_read(op, a, c, j, range(n), (LINEAR,) * n)
            assert np.max(np.abs(joint - ref[idx].reshape(outs[j], -1))) <= 1e-12, (ins, outs, j)
            for k in range(n):
                read = reads[k, 0, j]
                free = idx + tuple(slice(None) if i == k else ci for i, ci in enumerate(cm))
                assert np.max(np.abs(read[:outs[j], :ins[k]] - ref[free])) <= 1e-12, (ins, k, j)
                assert not read[outs[j]:].any() and not read[:, ins[k]:].any(), (ins, outs, k, j)


def test_conjugate_reads_match_the_partial_transpose():
    """Each conjugate read of input k is the slice of the pivot column of
    the Choi matrix's partial transpose on input k, every other index at the
    pivot; a slot's joint read, conjugate in input k and linear in the
    others, is that column over the slot."""
    for op in _pivot_cases():
        outs, ins = op.out_dims, op.in_dims
        p, n = len(outs), len(ins)
        a, c = _pivot(op)
        pivot, cm, slots = _pivot_slices(op, a, c)
        choi = _choi_reference(op, a, c)
        reads = _feed_reads(op, a, c)
        for k in range(n):
            gamma = choi.swapaxes(p + k, 2 * p + n + k)[(Ellipsis,) + pivot]
            flags = tuple(CONJUGATE if i == k else LINEAR for i in range(n))
            for j, idx in enumerate(slots):
                joint = _carry_read(op, a, c, j, range(n), flags)
                assert np.max(np.abs(joint - gamma[idx].reshape(outs[j], -1))) <= 1e-12, (ins, k, j)
                read = reads[k, 1, j]
                free = idx + tuple(slice(None) if i == k else ci for i, ci in enumerate(cm))
                assert np.max(np.abs(read[:outs[j], :ins[k]] - gamma[free])) <= 1e-12, (ins, k, j)
                assert not read[outs[j]:].any() and not read[:, ins[k]:].any(), (ins, outs, k, j)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3),
       st.lists(st.integers(1, 4), min_size=1, max_size=3),
       st.integers(0, 2**32 - 1))
def test_gathered_reads_match_the_choi_matrix_on_random_maps(ins, outs, seed):
    """On a random coefficient matrix with 1 to 3 input and output factors
    of dims 1 to 4, every read of the stack and every joint read, at any
    pivot, is the matching slice of ``to_choi(op)`` or of its partial
    transpose on the conjugated inputs."""
    ins, outs = tuple(ins), tuple(outs)
    assume(math.prod(ins) <= 16 and math.prod(outs) <= 16)
    rng = np.random.default_rng(seed)
    op = make_superop(ins, outs, rng.standard_normal((math.prod(outs) ** 2, math.prod(ins) ** 2)))
    p, n = len(outs), len(ins)
    a, c = int(rng.integers(op.out_dim)), int(rng.integers(op.in_dim))
    pivot, cm, slots = _pivot_slices(op, a, c)
    choi = to_choi(op).reshape(outs + ins + outs + ins)
    reads = _feed_reads(op, a, c)
    flags = tuple(rng.choice([LINEAR, CONJUGATE], size=n).tolist())
    gamma = choi
    for k, flag in enumerate(flags):
        if flag == CONJUGATE:
            gamma = gamma.swapaxes(p + k, 2 * p + n + k)
    gamma = gamma[(Ellipsis,) + pivot]
    for j, idx in enumerate(slots):
        joint = _carry_read(op, a, c, j, range(n), flags)
        assert np.max(np.abs(joint - gamma[idx].reshape(outs[j], -1))) <= 1e-12
        for k, f in itertools.product(range(n), (0, 1)):
            ref = choi.swapaxes(p + k, 2 * p + n + k) if f else choi
            free = idx + tuple(slice(None) if i == k else ci for i, ci in enumerate(cm))
            read = reads[k, f, j]
            assert np.max(np.abs(read[:outs[j], :ins[k]] - ref[(Ellipsis,) + pivot][free])) <= 1e-12
            assert not read[outs[j]:].any() and not read[:, ins[k]:].any()


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_entry_table_reproduces_from_coords(d, seed):
    """``basis._entries(d)`` gives every entry of ``basis.from_coords``."""
    vec = np.random.default_rng(seed).standard_normal((3, d * d))
    idx, w = basis._entries(d)
    got = np.einsum("rsq,trsq->trs", w, vec[:, idx])
    assert np.max(np.abs(got - basis.from_coords(vec, d))) <= 1e-12


def _witness_reference(op, tol, seed=0, random_tries=1000):
    """State-by-state scan; returns (witness, where it was found)."""
    for p in spanning_states(op.in_dim):
        if not is_pure(apply(op, p.projection.with_dims(op.in_dims)), tol)[0]:
            return p, "family"
    rng = as_rng(seed)
    for i in range(random_tries):
        p = random_pure(op.in_dim, rng)
        if not is_pure(apply(op, p.projection.with_dims(op.in_dims)), tol)[0]:
            return p, f"random {i}"
    return None, "none"


@pytest.mark.parametrize("seed, dims, fixed_slot, which, where", [
    (1, (2, 3), 2, 2, "family"),
    (0, (2, 2), 1, 2, "random 3"),
    (0, (2, 2), 1, 1, "none"),
])
def test_batched_witness_scan_on_boundary_slices(seed, dims, fixed_slot, which, where):
    # slices of canonical forms with 3e-9 coefficient noise, as in the
    # classifier's boundary cases
    op = _noisy_sep(seed, *dims, 3e-9)
    anchors = [basis_state(d, 0).projection for d in dims]
    k = 2 - fixed_slot

    def section(x):
        ab = list(anchors)
        ab[k] = x
        return slice_phi(op, *ab, which)

    sl = from_action((dims[k],), (dims[which - 1],), section)
    ref, found = _witness_reference(sl, 1e-8, seed=3)
    assert found == where
    got = find_impure_witness(sl, 1e-8, seed=3)
    if ref is None:
        assert got is None
    else:
        witness, image = got
        assert np.array_equal(witness.vector, ref.vector)
        assert np.allclose(image, apply(sl, ref.projection.with_dims(sl.in_dims)).matrix,
                           rtol=0, atol=1e-14)


def test_batched_witness_scan_across_blocks():
    # an 8 -> 9 embedding plus a rank-one leak onto the unused output
    # direction: the image is impure exactly when |<w|psi>|^2 > 0.6, which
    # first happens deep among the random tries, several blocks in
    tol = 1e-8
    w = random_pure(8, np.random.default_rng(2))
    leak = np.zeros((9, 9), dtype=complex)
    leak[8, 8] = 1.0
    coeff = (conjugation(isometry(np.eye(9, 8))).coeff
             + (tol / 0.6) * np.outer(basis.coords(leak), basis.coords(w.projection.matrix)))
    op = make_superop((8,), (9,), coeff)
    ref, found = _witness_reference(op, tol)
    assert found == "random 733"
    witness, image = find_impure_witness(op, tol)
    assert np.array_equal(witness.vector, ref.vector)
    assert np.allclose(image, apply(op, ref.projection.with_dims(op.in_dims)).matrix,
                       rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# product-purity scans against state-by-state references

def _first_not_product_reference(op, combos, tol):
    for combo in combos:
        img = apply(op, tensor_all([s.projection for s in combo]).with_dims(op.in_dims))
        if not is_product_pure(img, tol)[0]:
            return tuple(combo)
    return None


def _random_combos(op, seed, tries):
    rng = as_rng(seed)
    for _ in range(tries):
        yield tuple(random_pure(d, rng) for d in op.in_dims)


def _mc_product_reference(op, samples, seed, tol=1e-8):
    rng = as_rng(seed)
    for i in range(samples):
        combo = tuple(random_pure(d, rng) for d in op.in_dims)
        if _first_not_product_reference(op, [combo], tol) is not None:
            return False, i + 1, combo
    return True, samples, None


def _product_witness_reference(op, tol=1e-8, seed=0, det_cap=None, random_tries=1000):
    family = itertools.product(*[spanning_states(d) for d in op.in_dims])
    found = _first_not_product_reference(op, itertools.islice(family, det_cap), tol)
    if found is None:
        found = _first_not_product_reference(op, _random_combos(op, seed, random_tries), tol)
    return found


def _same_states(a, b):
    if a is None or b is None:
        return a is None and b is None
    return len(a) == len(b) and all(np.array_equal(x.vector, y.vector) for x, y in zip(a, b))


def _bipartite_replacer(theta):
    """A -> Tr(A) |psi><psi| with psi = cos(theta)|00> + sin(theta)|11>."""
    v = np.zeros(4)
    v[0], v[3] = np.cos(theta), np.sin(theta)
    return trace_replacer(pure_state(v), (2, 2), (2, 2))


# (map, failing sample of mc_verify_product with seed 0 or None)
PRODUCT_SCAN_CASES = {
    "noisy_fails_at_once": (lambda: _noisy_sep(0, 3, 3, 1e-3), 1),
    # a 3e-8-noise form 6 fails at the first sample; this leak fails deep
    "leak_in_a_later_block": (lambda: leaky_embedding((3, 3), 2, 0.7), 196),
    "leak_many_hits_per_block": (lambda: leaky_embedding((2, 2), 3, 0.3), 14),
    "leak_2x2": (lambda: leaky_embedding((2, 2), 2, 0.85), 220),
    "canonical_passes": (lambda: canonical_sep(
        random_sep_form(6, 3, 3, np.random.default_rng(50)), (3, 3)), None),
    # pure images whose reductions are mixed
    "bell_replacer": (lambda: _bipartite_replacer(np.pi / 4), 1),
    # reductions pure at 1e-8 (defect 1e-10), only the rebuild fails
    "weakly_entangled_replacer": (lambda: _bipartite_replacer(1e-5), 1),
    "dim_one_factor": (lambda: leaky_embedding((1, 3), 1, 0.85), 25),
}


@pytest.mark.parametrize("case", list(PRODUCT_SCAN_CASES))
def test_mc_verify_product_matches_reference(case):
    make, fails_at = PRODUCT_SCAN_CASES[case]
    op = make()
    for seed in (0, 1, np.random.default_rng(7)):
        want = _mc_product_reference(
            op, 1000, np.random.default_rng(7) if isinstance(seed, np.random.Generator) else seed)
        got = mc_verify_product(op, 1000, seed)
        assert (got.passed, got.samples) == want[:2]
        assert _same_states(got.witness, want[2])
        if seed == 0:
            assert got.samples == (fails_at or 1000) and got.passed == (fails_at is None)


@pytest.mark.parametrize("dims, noise", [((2, 2), 0.1), ((2, 2, 2), 0.05)])
def test_mc_verify_product_matches_reference_at_large_tol(dims, noise):
    # at tol 0.3 the first failing sample of some seeds fails only the image
    # purity, only one reduction, or only another reduction
    d = int(np.prod(dims))
    rng = np.random.default_rng(52)
    op = make_superop(dims, dims, np.eye(d * d) + noise * rng.standard_normal((d * d, d * d)))
    for seed in range(10):
        want = _mc_product_reference(op, 200, seed, tol=0.3)
        got = mc_verify_product(op, 200, seed, tol=0.3)
        assert (got.passed, got.samples) == want[:2]
        assert _same_states(got.witness, want[2])


@pytest.mark.parametrize("case", list(PRODUCT_SCAN_CASES))
def test_find_product_witness_matches_reference(case):
    op = PRODUCT_SCAN_CASES[case][0]()
    for seed in (0, 3):
        assert _same_states(find_product_witness(op, 1e-8, seed),
                            _product_witness_reference(op, seed=seed))


def test_product_witness_cases_cover_family_random_and_none():
    where = []
    for make, _ in PRODUCT_SCAN_CASES.values():
        op = make()
        w = _product_witness_reference(op)
        family = list(itertools.product(*[spanning_states(d) for d in op.in_dims]))
        where.append("none" if w is None else
                     "family" if any(_same_states(w, c) for c in family) else "random")
    assert set(where) == {"family", "random", "none"}


def test_product_purity_checks_each_decide_a_case():
    # the Bell replacer fails only on reductions, the weakly entangled one
    # only on the rebuild from the factors' top eigenvectors
    for theta, reductions_pure in ((np.pi / 4, False), (1e-5, True)):
        img = apply(_bipartite_replacer(theta), tensor(random_pure(2, 0).projection,
                                                       random_pure(2, 1).projection))
        assert is_pure(img)[0]
        assert all(is_pure(reduce_to_factor(img, k))[0] == reductions_pure for k in (1, 2))
        assert not is_product_pure(img)[0]


@pytest.mark.parametrize("make, det_caps", [
    (lambda: leaky_embedding((2, 2, 2), 1, 0.5), (10, 729)),
    (lambda: leaky_embedding((2, 3, 2), 1, 0.4), (20, 729)),
    (lambda: make_superop((2, 3, 2), (2, 3, 2), np.eye(144)
                          + 1e-3 * np.random.default_rng(51).standard_normal((144, 144))), (5,)),
    (lambda: identity_superop((2, 2, 2)), (10,)),
])
def test_multi_product_scans_match_reference(make, det_caps):
    op = make()
    for det_cap in det_caps:
        for seed in (0, np.random.default_rng(8)):
            want = _product_witness_reference(
                op, det_cap=det_cap,
                seed=np.random.default_rng(8) if isinstance(seed, np.random.Generator) else seed)
            assert _same_states(find_product_witness(op, 1e-8, seed, det_cap=det_cap), want)
    want = _mc_product_reference(op, 1000, 2)
    got = mc_verify_product(op, 1000, 2)
    assert (got.passed, got.samples) == want[:2]
    assert _same_states(got.witness, want[2])


@pytest.mark.parametrize("seed, noise, where", [
    (0, 2e-9, "none"), (4, 3e-9, "random"), (4, 4e-9, "family"),
])
def test_product_scans_onto_one_factor_take_the_spectral_test(seed, noise, where):
    """A noisy (2,2) -> (4,) conjugation has its images on one factor, where
    product purity is the spectral test: the witness of
    ``find_product_witness`` and the result of ``mc_verify_product`` are
    those of a state-by-state scan that tests every image with ``is_pure``."""
    rng = np.random.default_rng(seed)
    op = perturbed(make_superop((2, 2), (4,), conjugation(random_isometry(4, 4, rng)).coeff),
                   noise, rng)

    def first_impure(combos):
        for i, combo in enumerate(combos):
            img = apply(op, tensor_all([s.projection for s in combo]).with_dims(op.in_dims))
            if not is_pure(img, 1e-8)[0]:
                return i, combo
        return None, None

    family = list(itertools.product(spanning_states(2), repeat=2))
    want = first_impure(family)[1] or first_impure(_random_combos(op, 0, 1000))[1]
    assert where == ("none" if want is None else
                     "family" if any(_same_states(want, c) for c in family) else "random")
    assert _same_states(find_product_witness(op, 1e-8), want)
    i, want = first_impure(_random_combos(op, 1, 1000))
    got = mc_verify_product(op, 1000, 1)
    assert (got.passed, got.samples) == (i is None, 1000 if i is None else i + 1)
    assert _same_states(got.witness, want)


def test_slot_table_matches_grid():
    """Each form's slot sources, as feeds, name the form through the
    inverted table and label its grid cell: an input's letter is a if no
    slot carries it, c if slot 1 does and b if slot 2 does, primed for
    input 2.  Both inputs fed into one slot label cell (c,c') or (b,b')."""
    u = isometry(np.eye(2))
    letters = {None: "a", 0: "c", 1: "b"}
    for tag, sources in SEP_SOURCES.items():
        assert _SEP_TAGS[sources] == tag
        feeds = [[] if src is None else [(src, u)] for src in sources]
        carrier = [sources.index(k) if k in sources else None for k in (0, 1)]
        grid = (letters[carrier[0]], letters[carrier[1]] + "′")
        assert _grid(feeds) == grid == EXPECTED_GRID[tag]
    assert sorted(SEP_SOURCES) == sorted(EXPECTED_GRID)
    assert len(_SEP_TAGS) == len(SEP_SOURCES)
    assert _grid([[(0, u), (1, u)], []]) == ("c", "c′")
    assert _grid([[], [(0, u), (1, u)]]) == ("b", "b′")
