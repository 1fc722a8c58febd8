"""Pure-preserver classification: round trips, dichotomy, witnesses."""

import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import hidden_bump, leaky_embedding, perturbed
from preservers import (
    CONJUGATE,
    LINEAR,
    ClassificationError,
    HermitianOperator,
    StructureError,
    apply,
    classify_pure_preserver,
    conjugation,
    from_action,
    identity_superop,
    is_pure,
    isometry,
    make_superop,
    mc_verify_pure,
    pure_state,
    random_isometry,
    random_pure,
    superop_equal,
    to_choi,
    trace_replacer,
)
from preservers.linalg import as_rng, canonical_phase, spectral_defect
from preservers.pure_analysis import _feed_reads, _pivot, _propose, find_impure_witness


def test_trace_replacer_round_trip_exact():
    rng = np.random.default_rng(0)
    r = random_pure(4, rng)
    op = trace_replacer(r, (3,), (4,))
    c = classify_pure_preserver(op)
    assert c.kind == "trace_replacer"
    assert np.allclose(c.replacement.projection.matrix, r.projection.matrix, atol=1e-10)
    rebuilt = trace_replacer(c.replacement, (3,), (4,))
    assert superop_equal(op, rebuilt, 1e-9).equal


def test_transpose_is_conjugate_identity():
    op = from_action((2,), (2,), lambda a: HermitianOperator(a.matrix.T, (2,)))
    c = classify_pure_preserver(op)
    assert c.kind == "conjugation"
    assert c.isometry.flag == CONJUGATE
    assert np.allclose(np.abs(c.isometry.matrix), np.eye(2), atol=1e-10)


def test_symmetrizer_witness_is_sigma_y_projection():
    op = from_action((2,), (2,),
                     lambda a: HermitianOperator((a.matrix + a.matrix.T) / 2, (2,)))
    c = classify_pure_preserver(op)
    assert c.kind == "not_preserver"
    expected = 0.5 * np.array([[1, -1j], [1j, 1]])
    assert np.allclose(c.witness.projection.matrix, expected, atol=1e-10)
    img = apply(op, c.witness.projection.with_dims((2,)))
    assert np.allclose(img.matrix, np.eye(2) / 2, atol=1e-12)


@pytest.mark.parametrize("flag", [LINEAR, CONJUGATE])
def test_conjugation_round_trips(flag):
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, n + 1))
        iso = random_isometry(n, m, rng, flag)
        op = conjugation(iso)
        c = classify_pure_preserver(op)
        assert c.kind == "conjugation", (m, n, flag)
        assert c.isometry.flag == flag
        assert c.residual <= 1e-8
        # recovered isometry certified: V+V = I
        v = c.isometry.matrix
        assert np.linalg.norm(v.conj().T @ v - np.eye(m)) <= 1e-8
        rebuilt = conjugation(c.isometry)
        assert superop_equal(op, rebuilt, 1e-9).equal


def test_dim_one_input_classifies_as_trace_replacer():
    # on 1x1 inputs Tr(A) R and VAV+ coincide; the trace form is reported
    rng = np.random.default_rng(2)
    iso = random_isometry(3, 1, rng)
    c = classify_pure_preserver(conjugation(iso))
    assert c.kind == "trace_replacer"
    assert np.allclose(c.replacement.projection.matrix,
                       iso.matrix @ iso.matrix.conj().T, atol=1e-10)


def test_conjugation_decides_after_a_failed_trace_replacement_at_large_tol():
    """At tol >= 1 - 1/m an exact conjugation's Phi(I)/m would pass for
    pure, but the read tests no proposal against tol: the fed slot is a
    conjugation, and its rebuild decides.  Trace replacers stay such."""
    rng = np.random.default_rng(12)
    for m, n, tol in ((2, 2, 0.5), (2, 3, 0.5), (3, 3, 0.7), (2, 2, 0.6)):
        for flag in (LINEAR, CONJUGATE):
            c = classify_pure_preserver(conjugation(random_isometry(n, m, rng, flag)), tol)
            assert (c.kind, c.isometry.flag) == ("conjugation", flag), (m, n, tol)
            assert c.residual <= tol
        c = classify_pure_preserver(trace_replacer(random_pure(n, rng), (m,), (n,)), tol)
        assert c.kind == "trace_replacer", (m, n, tol)


def test_best_fitting_proposal_decides_at_large_tol():
    """At tol 0.7 an exact 3 -> 4 conjugation's trace-replacer rebuild may
    pass the coefficient comparison too, but the read proposes the
    conjugation, whose rebuild is exact.  Exact trace replacers keep their
    kind."""
    rng = np.random.default_rng(21)
    for _ in range(20):
        for flag in (LINEAR, CONJUGATE):
            c = classify_pure_preserver(conjugation(random_isometry(4, 3, rng, flag)), 0.7)
            assert (c.kind, c.isometry and c.isometry.flag) == ("conjugation", flag)
            assert c.residual <= 1e-12
        c = classify_pure_preserver(trace_replacer(random_pure(4, rng), (3,), (4,)), 0.7)
        assert c.kind == "trace_replacer" and c.residual <= 1e-12


def test_one_to_n_maps_near_tol_stay_trace_replacers():
    """On a 1 -> n map a trace replacer and a conjugation are the same map
    A -> Tr(A) vv+.  A dimension-1 input feeds nothing, so scaled pure images
    up to tol away from pure classify as trace replacers, as exact ones do."""
    rng = np.random.default_rng(13)
    for tol in (1e-8, 0.1, 0.5):
        for n in (2, 3):
            for frac in (-0.999, -0.5, 0.5, 0.999):
                u = random_pure(n, rng).vector
                p = (1 + frac * tol) * np.outer(u, u.conj())
                op = from_action((1,), (n,), lambda a, p=p: HermitianOperator(a.matrix[0, 0] * p))
                c = classify_pure_preserver(op, tol)
                assert c.kind == "trace_replacer" and c.residual <= tol, (tol, n, frac)


def _structured_isometries(m, n, rng):
    """Phased permutation columns, and isometries whose first rows vanish:
    the extraction pivot sits off (0, 0) and the first nonzero entry of the
    first column below row 0."""
    phases = np.exp(2j * np.pi * rng.random(m))
    yield np.eye(n)[:, rng.permutation(n)[:m]] * phases
    for zero_rows in range(1, n - m + 1):
        v = np.zeros((n, m), dtype=complex)
        v[zero_rows:] = random_isometry(n - zero_rows, m, rng).matrix
        yield v


@pytest.mark.parametrize("flag", [LINEAR, CONJUGATE])
def test_structured_isometries_recovered_up_to_phase(flag):
    rng = np.random.default_rng(6)
    for n in range(1, 6):
        for m in range(1, n + 1):
            for v in _structured_isometries(m, n, rng):
                op = conjugation(isometry(v, flag))
                c = classify_pure_preserver(op)
                if m == 1:
                    assert c.kind == "trace_replacer", (m, n)
                    assert np.allclose(c.replacement.projection.matrix,
                                       v @ v.conj().T, atol=1e-10)
                    continue
                assert c.kind == "conjugation", (m, n, flag)
                assert c.isometry.flag == flag
                got = c.isometry.matrix
                phase = np.vdot(v, got) / abs(np.vdot(v, got))
                assert np.max(np.abs(got - phase * v)) <= 1e-10, (m, n, flag)
                # canonical phase: the first column is its own pure_state representative
                assert np.allclose(pure_state(got[:, 0]).vector, got[:, 0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("flag", [LINEAR, CONJUGATE])
def test_proposed_isometry_is_the_pivot_column_of_the_choi_matrix(flag):
    """Checked against ``to_choi``, not the gather: the raw read of the
    proposal is the column of the Choi matrix (of its input partial
    transpose under the conjugate flag) at the largest diagonal entry, and
    the proposed V is its polar factor with the canonical phase of its first
    column."""
    rng = np.random.default_rng(9)
    for n in range(1, 6):
        for m in range(1, n + 1):
            for noise in (1e-9, 1e-6, 1e-3):
                base = conjugation(random_isometry(n, m, rng, flag))
                op = make_superop((m,), (n,), base.coeff
                                  + noise * rng.standard_normal(base.coeff.shape))
                feeds, slots = _propose(op)
                if m == 1:
                    assert feeds == [[]] and slots[0][0] is None, (n, noise)
                    continue
                src, iso = slots[0]
                assert (feeds, src, iso.flag) == ([[(0, flag)]], 0, flag), (m, n, noise)
                choi = to_choi(op).reshape(n, m, n, m)
                if flag == CONJUGATE:
                    choi = choi.swapaxes(1, 3)
                choi = choi.reshape(n * m, n * m)
                pivot = int(np.argmax(np.diagonal(choi).real))
                a, c = _pivot(op)
                assert (a * m + c) == pivot, (m, n, noise)
                raw = _feed_reads(op, a, c)[0, int(flag == CONJUGATE), 0]
                assert np.max(np.abs(raw - choi[:, pivot].reshape(n, m))) <= 1e-12, (m, n, noise)
                u, _, vh = np.linalg.svd(raw, full_matrices=False)
                ref = (u @ vh) * canonical_phase((u @ vh)[:, 0]).conjugate()
                assert np.max(np.abs(iso.matrix - ref)) <= 1e-12, (m, n, noise)


def test_classify_holds_no_second_stack_of_images():
    """A warm classify of an exact 32 -> 32 conjugation reads one column of
    the basis images, not all of them, and compares the map with its
    product map a row block at a time: its peak is below half the
    coefficient matrix."""
    op = conjugation(random_isometry(32, 32, 10, CONJUGATE))
    classify_pure_preserver(op)
    tracemalloc.start()
    try:
        c = classify_pure_preserver(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert c.kind == "conjugation"
    assert peak < 0.5 * op.coeff.nbytes, peak / op.coeff.nbytes


def test_small_noise_keeps_positive_verdicts():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, n + 1))
        flag = str(rng.choice([LINEAR, CONJUGATE]))
        if rng.random() < 0.25:
            base, want = trace_replacer(random_pure(n, rng), (m,), (n,)), ("trace_replacer", None)
        else:
            base = conjugation(random_isometry(n, m, rng, flag))
            want = ("trace_replacer", None) if m == 1 else ("conjugation", flag)
        noisy = make_superop((m,), (n,), base.coeff + 1e-10 * rng.standard_normal(base.coeff.shape))
        c = classify_pure_preserver(noisy)
        assert (c.kind, c.isometry and c.isometry.flag) == want, (m, n)


def test_soundness_positive_classifications_pass_mc():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, n + 1))
        if rng.random() < 0.5:
            op = trace_replacer(random_pure(n, rng), (m,), (n,))
        else:
            op = conjugation(random_isometry(n, m, rng,
                                             str(rng.choice([LINEAR, CONJUGATE]))))
        c = classify_pure_preserver(op)
        assert c.positive
        assert mc_verify_pure(op, 1000, int(rng.integers(0, 2**31))).passed


def test_witness_validity_invariant():
    rng = np.random.default_rng(4)
    for scale in (1e-2, 1e-3):
        base = conjugation(random_isometry(3, 3, rng))
        noise = rng.standard_normal(base.coeff.shape)
        noisy = make_superop((3,), (3,), base.coeff + scale * noise)
        c = classify_pure_preserver(noisy)
        assert c.kind == "not_preserver"
        assert is_pure(c.witness.projection)[0]
        img = apply(noisy, c.witness.projection.with_dims((3,)))
        assert not is_pure(img, 1e-8)[0]


def test_mixed_cross_term_signs_rejected():
    # a map agreeing with conjugation on diagonals but with one flipped
    # antisymmetric image cannot be a preserver
    ident = identity_superop((3,))
    coeff = ident.coeff.copy()
    # flip the Y01 column (index 3+2*0+1 = 4)
    coeff[:, 4] *= -1.0
    op = make_superop((3,), (3,), coeff)
    c = classify_pure_preserver(op)
    assert c.kind == "not_preserver"


def test_non_isometric_conjugation_rejected():
    # unit but non-orthogonal columns: every diagonal image is pure and
    # A -> WAW+ rebuilds the map exactly, but W is no isometry
    w = np.array([[1.0, 1.0], [0.0, 1.0]]) / np.array([1.0, np.sqrt(2.0)])
    op = from_action((2,), (2,), lambda a: HermitianOperator(w @ a.matrix @ w.conj().T, (2,)))
    c = classify_pure_preserver(op)
    assert c.kind == "not_preserver"
    assert not is_pure(apply(op, c.witness.projection.with_dims((2,))))[0]


def test_mc_verify_pure_contracts():
    rng = np.random.default_rng(5)
    assert mc_verify_pure(conjugation(random_isometry(4, 2, rng)), 500, 0).passed
    assert mc_verify_pure(trace_replacer(random_pure(2, rng), (2,), (2,)), 500, 0).passed
    sym = from_action((2,), (2,),
                      lambda a: HermitianOperator((a.matrix + a.matrix.T) / 2, (2,)))
    res = mc_verify_pure(sym, 500, 0)
    assert not res.passed
    # the failing sample is a checkable certificate
    img = apply(sym, res.witness.projection.with_dims((2,)))
    assert not is_pure(img)[0]
    # determinism
    res2 = mc_verify_pure(sym, 500, 0)
    assert res2.samples == res.samples
    assert np.allclose(res2.witness.vector, res.witness.vector)


@pytest.mark.parametrize("noise", [1e-3, 3e-9])
def test_witness_is_the_scan_witness(noise):
    """Whether the probe of e_0 decides or the scan runs from candidate 1,
    the witness and its residual are those of the public scan from 0."""
    rng = np.random.default_rng(29)
    later = 0
    for m, n in itertools.product((2, 3, 4), repeat=2):
        maps = [trace_replacer(random_pure(n, rng), (m,), (n,))]
        if m <= n:
            maps.append(conjugation(random_isometry(n, m, rng, (LINEAR, CONJUGATE)[m % 2])))
            maps.append(hidden_bump(maps[-1], 1e-3, rng))
        for op in [perturbed(op, noise, rng) for op in maps[:2]] + maps[2:]:
            c = classify_pure_preserver(op, 1e-8, seed=2)
            if c.kind != "not_preserver":
                continue
            witness, image = find_impure_witness(op, 1e-8, 2)
            assert np.array_equal(c.witness.vector, witness.vector), (m, n)
            assert c.residual == float(spectral_defect(np.linalg.eigvalsh(image))), (m, n)
            later += not np.array_equal(witness.vector, np.eye(m)[0])
    assert later >= 6


def test_classifier_argument_errors():
    op = identity_superop((2,))
    with pytest.raises(StructureError):
        classify_pure_preserver(op, tol=0.0)
    with pytest.raises(StructureError):
        classify_pure_preserver(identity_superop((2, 2)))


def test_boundary_map_without_witness_is_indeterminate():
    """A 2 -> 2 conjugation with 3e-9 coefficient noise fails the comparison
    at ``tol`` while no scanned image fails purity: the classifier raises
    rather than guess a verdict."""
    rng = np.random.default_rng(3)
    op = perturbed(conjugation(random_isometry(2, 2, rng)), 3e-9, rng)
    with pytest.raises(ClassificationError, match="indeterminate at tol=1e-08"):
        classify_pure_preserver(op)
    assert find_impure_witness(op, 1e-8) is None


def test_rank_deficient_map_gets_witness():
    # project onto the span of the identity: A -> Tr(A) I / 2 is not pure-valued
    op = from_action((2,), (2,),
                     lambda a: HermitianOperator(a.trace() * np.eye(2) / 2, (2,)))
    c = classify_pure_preserver(op)
    assert c.kind == "not_preserver"


def _mc_pure_reference(op, samples, seed, tol=1e-8):
    """State-by-state Monte-Carlo purity check."""
    rng = as_rng(seed)
    for i in range(samples):
        p = random_pure(op.in_dim, rng)
        img = apply(op, p.projection.with_dims(op.in_dims))
        if not is_pure(img, tol)[0]:
            return False, i + 1, p, spectral_defect(np.linalg.eigvalsh(img.matrix))
    return True, samples, None, 0.0


# (map, failing sample of mc_verify_pure with seed 0 or None)
PURE_SCAN_CASES = {
    "symmetrizer_fails_at_once": (lambda: from_action(
        (2,), (2,), lambda a: HermitianOperator((a.matrix + a.matrix.T) / 2, (2,))), 1),
    "leak_in_a_later_block": (lambda: leaky_embedding((4,), 4, 0.8), 105),
    "leak_many_hits_per_block": (lambda: leaky_embedding((4,), 3, 0.5), 6),
    "conjugation_passes": (lambda: conjugation(random_isometry(4, 3, 60)), None),
    "dim_one_input_passes": (lambda: trace_replacer(random_pure(3, 61), (1,), (3,)), None),
    "dim_one_input_fails": (lambda: leaky_embedding((1,), 0, 0.5), 1),
    "two_factor_input": (lambda: leaky_embedding((2, 2), 4, 0.8), 36),
}


@pytest.mark.parametrize("case", list(PURE_SCAN_CASES))
def test_mc_verify_pure_matches_reference(case):
    make, fails_at = PURE_SCAN_CASES[case]
    op = make()
    for seed in (0, 1, np.random.default_rng(7)):
        want = _mc_pure_reference(
            op, 1000, np.random.default_rng(7) if isinstance(seed, np.random.Generator) else seed)
        got = mc_verify_pure(op, 1000, seed)
        assert (got.passed, got.samples) == want[:2]
        if want[2] is None:
            assert got.witness is None
        else:
            assert np.array_equal(got.witness.vector, want[2].vector)
            assert abs(got.defect - want[3]) <= 1e-12
            assert abs(got.defect - spectral_defect(np.linalg.eigvalsh(
                apply(op, got.witness.projection.with_dims(op.in_dims)).matrix))) <= 1e-12
        if seed == 0:
            assert got.samples == (fails_at or 1000) and got.passed == (fails_at is None)
