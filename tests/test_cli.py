"""End-to-end command-line contract: exit codes, round trips, byte stability."""

import json

import numpy as np

from conftest import perturbed, random_multiform_setup, random_sep_form
from preservers import (
    CONJUGATE,
    LINEAR,
    SEP_SOURCES,
    MultiForm,
    SepForm,
    canonical_multi,
    canonical_sep,
    conjugation,
    make_superop,
    pure_state,
    random_isometry,
    random_pure,
    trace_replacer,
)
from preservers.cli import main
from preservers.linalg import as_rng
from preservers.serialize import dumps, superop_to_json


def run_cli(capsys, *args, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_make_classify_round_trip_all_forms(capsys, monkeypatch, tmp_path):
    cases = []
    for form in range(1, 8):
        for dims in ("2,2", "2,3", "3,2", "3,3"):
            m, n = (int(x) for x in dims.split(","))
            if form == 4 and m < n:
                continue
            if form == 5 and m > n:
                continue
            if form == 7 and m != n:
                continue
            cases.append((form, dims))
    for form, dims in cases:
        code, out, err = run_cli(capsys, "make", "--form", str(form),
                                 "--dims", dims, "--seed", "11")
        assert code == 0, (form, dims, err)
        path = tmp_path / f"map_{form}_{dims.replace(',', 'x')}.json"
        path.write_text(out, encoding="utf-8")
        code, out, err = run_cli(capsys, "classify", str(path))
        assert code == 0, (form, dims, err)
        rep = json.loads(out)
        assert rep["form"] == form, (form, dims, rep["form"])
        assert rep["residual"] <= 1e-8


def test_make_form8_refused(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "make", "--form", "8", "--dims", "2,2")
    assert code == 2
    assert "1..7" in err


def test_make_flags_go_to_isometries_in_order(capsys, monkeypatch):
    """The k-th isometry of a form takes the k-th flag, whatever its slot."""
    cases = [("3", "2,2", "conjugate", {"U2": "conjugate"}),
             ("5", "2,3", "conjugate", {"U2": "conjugate"}),
             ("7", "2,2", "linear,conjugate", {"U1": "linear", "U2": "conjugate"})]
    for form, dims, flags, expected in cases:
        code, out, err = run_cli(capsys, "make", "--form", form, "--dims", dims,
                                 "--flags", flags, "--seed", "4")
        assert code == 0, err
        code, rep_out, _ = run_cli(capsys, "classify", "-", stdin=out, monkeypatch=monkeypatch)
        rep = json.loads(rep_out)
        assert code == 0 and rep["form"] == int(form)
        got = {k: v["flag"] for k, v in rep["params"].items() if k.startswith("U")}
        assert got == expected, (form, flags, got)


def test_make_flags_count_follows_form(capsys, monkeypatch):
    """A bipartite form takes one flag per isometry: none for form 1, one
    for forms 2-5, two for forms 6-7."""
    code, _, err = run_cli(capsys, "make", "--form", "3", "--dims", "2,2",
                           "--flags", "conjugate")
    assert code == 0, err
    code, _, err = run_cli(capsys, "make", "--form", "1", "--dims", "2,2",
                           "--flags", "conjugate,conjugate")
    assert code == 2 and "--flags expects 0" in err
    code, _, err = run_cli(capsys, "make", "--form", "6", "--dims", "2,2",
                           "--flags", "conjugate")
    assert code == 2 and "--flags expects 2" in err
    code, _, err = run_cli(capsys, "make", "--pure", "trace_replacer", "--dims", "2,3",
                           "--flags", "conjugate")
    assert code == 2 and "--flags expects 0" in err


def test_make_draws_flags_then_slots(capsys):
    """make draws a flag per isometry, then each output slot in order, and
    writes the map of the public constructor on those parameters."""
    def draws(seed, d_in, d_out, sources):
        rng = as_rng(seed)
        flags = iter([str(rng.choice([LINEAR, CONJUGATE])) for s in sources if s is not None])
        return [random_pure(d, rng) if s is None
                else random_isometry(d, d_in[s], rng, next(flags))
                for d, s in zip(d_out, sources)]

    cases = []
    for tag in range(1, 8):
        for dims in ((2, 3), (3, 3)):
            if (tag, dims) in ((4, (2, 3)), (7, (2, 3))):
                continue
            params = draws(tag, dims, dims, SEP_SOURCES[tag])
            slots = {("r" if s is None else "u") + str(j + 1): p
                     for j, (s, p) in enumerate(zip(SEP_SOURCES[tag], params))}
            cases.append((["--form", str(tag), "--dims", "%d,%d" % dims, "--seed", str(tag)],
                          canonical_sep(SepForm(tag, **slots), dims)))
    isos = draws(8, (2, 2, 2), (2, 2, 2), (1, 2, 0))
    cases.append((["--multi", "--pi", "2,3,1", "--dims", "2,2,2", "--seed", "8"],
                  canonical_multi(MultiForm((2, 3, 1), isos), (2, 2, 2))))
    (u,) = draws(5, (2,), (4,), (0,))
    cases.append((["--pure", "conjugation", "--dims", "2,4", "--seed", "5"], conjugation(u)))
    (r,) = draws(6, (2,), (4,), (None,))
    cases.append((["--pure", "trace_replacer", "--dims", "2,4", "--seed", "6"],
                  trace_replacer(r, (2,), (4,))))
    for argv, op in cases:
        code, out, err = run_cli(capsys, "make", *argv)
        assert code == 0, (argv, err)
        assert out == dumps(superop_to_json(op)), argv


def test_make_constraint_violations(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "make", "--form", "7", "--dims", "2,3")
    assert code == 2 and "dimension law" in err
    code, _, err = run_cli(capsys, "make", "--form", "5", "--dims", "3,2")
    assert code == 2 and "dimension law" in err
    code, _, err = run_cli(capsys, "make", "--multi", "--pi", "2,1", "--dims", "2,3")
    assert code == 2 and "dimension law" in err
    # one kind flag at most, and --pi only with --multi: none is dropped
    for kinds in (("--form", "6", "--multi", "--pi", "2,1"),
                  ("--form", "6", "--pure", "conjugation"),
                  ("--pure", "conjugation", "--multi", "--pi", "2,1")):
        code, out, err = run_cli(capsys, "make", *kinds, "--dims", "2,2")
        assert code == 2 and not out and "not allowed with argument" in err, kinds
    code, out, err = run_cli(capsys, "make", "--form", "6", "--pi", "2,1", "--dims", "2,2")
    assert code == 2 and not out and "--pi" in err
    # a malformed --pi is named as --pi, not --dims
    for pi, what in (("2,x", "expects comma-separated integers"),
                     ("2,0", "entries must be positive")):
        code, out, err = run_cli(capsys, "make", "--multi", "--pi", pi, "--dims", "2,2")
        assert code == 2 and not out and f"--pi {what}" in err and "--dims" not in err
    # each kind names what its --pi or --dims lacks
    for argv, what in ((("--multi",), "--multi requires --pi"),
                       (("--multi", "--pi", "1,1"), "not a permutation of 1..2"),
                       (("--pure", "conjugation", "--dims", "2,3,4"), "--pure expects --dims m,n"),
                       (("--form", "6", "--dims", "2,2,2"), "bipartite forms expect --dims m,n")):
        if "--dims" not in argv:
            argv += ("--dims", "2,2")
        code, out, err = run_cli(capsys, "make", *argv)
        assert code == 2 and not out and what in err, argv


def test_classify_stdin_and_exit_codes(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "make", "--form", "6", "--dims", "2,2", "--seed", "3")
    assert code == 0
    code, rep_out, _ = run_cli(capsys, "classify", "-", stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    rep = json.loads(rep_out)
    assert rep["form"] == 6 and rep["both_directions"] is True
    assert rep["grid"] == ["c", "b′"]

    bell = pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2))
    bad = trace_replacer(bell, (2, 2), (2, 2))
    code, rep_out, _ = run_cli(capsys, "classify", "-",
                               stdin=dumps(superop_to_json(bad)), monkeypatch=monkeypatch)
    assert code == 1
    rep = json.loads(rep_out)
    assert rep["form"] == "none" and rep["witness"] is not None

    prod = pure_state(np.kron(np.kron([1, 0], [1, 0]), [1, 0]))
    flat = trace_replacer(prod, (2, 2, 2), (2, 2, 2))
    code, rep_out, _ = run_cli(capsys, "classify", "-",
                               stdin=dumps(superop_to_json(flat)), monkeypatch=monkeypatch)
    assert code == 3
    assert json.loads(rep_out)["form"] == "insufficient"


def test_classify_indeterminate_map_exits_3(capsys, monkeypatch):
    """A noisy 2 -> 2 conjugation that fails the comparison at tol while no
    scanned image fails purity: no report, an ``indeterminate:`` line."""
    rng = np.random.default_rng(3)
    op = conjugation(random_isometry(2, 2, rng))
    op = make_superop((2,), (2,), op.coeff + 3e-9 * rng.standard_normal(op.coeff.shape))
    code, out, err = run_cli(capsys, "classify", "-", stdin=dumps(superop_to_json(op)),
                             monkeypatch=monkeypatch)
    assert (code, out) == (3, "")
    assert err.startswith("indeterminate: ") and err.count("\n") == 1


def test_classify_malformed_json(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "classify", "-", stdin="{not json",
                           monkeypatch=monkeypatch)
    assert code == 2 and "malformed JSON" in err
    bad_basis = '{"in_dims":[2],"out_dims":[2],"basis":"mystery","coeff":[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]}'
    code, _, err = run_cli(capsys, "classify", "-", stdin=bad_basis,
                           monkeypatch=monkeypatch)
    assert code == 2 and "$.basis" in err
    code, _, err = run_cli(capsys, "classify", "/nonexistent/path.json")
    assert code == 2 and "cannot read" in err


def test_classify_refuses_text_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "map.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, "classify", str(path))
    assert code == 2 and out == "" and err.startswith("error:") and "not UTF-8" in err


def test_classify_refuses_json_nested_too_deeply(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "classify", "-", stdin="[" * 100_000,
                             monkeypatch=monkeypatch)
    assert code == 2 and out == "" and err.startswith("error:") and "nested too deeply" in err


def test_classify_refuses_numbers_too_large_for_a_float(capsys, monkeypatch):
    text = '{"in_dims":[1],"out_dims":[1],"basis":"gellmann-v1","coeff":[[1%s]]}' % ("0" * 400)
    code, out, err = run_cli(capsys, "classify", "-", stdin=text, monkeypatch=monkeypatch)
    assert code == 2 and out == "" and err.startswith("error: $.coeff: a number is too large")


def test_classify_rejects_boolean_dims(capsys, monkeypatch):
    """JSON true is not the factor dimension 1: a (2,2) map whose dims read
    [true, 4] is malformed input, not a (1,4) map to classify."""
    code, out, _ = run_cli(capsys, "make", "--form", "6", "--dims", "2,2", "--seed", "1")
    obj = json.loads(out)
    obj["in_dims"] = obj["out_dims"] = [True, 4]
    code, rep_out, err = run_cli(capsys, "classify", "-", stdin=json.dumps(obj),
                                 monkeypatch=monkeypatch)
    assert code == 2 and rep_out == "" and "$.in_dims" in err


def test_classify_rejects_entries_that_are_not_numbers(capsys, monkeypatch):
    """A coefficient written as a JSON string, boolean or null is malformed
    input (exit 2, naming the field), not a number to classify."""
    code, out, _ = run_cli(capsys, "make", "--form", "6", "--dims", "2,2", "--seed", "1")
    for bad in ("0.5", True, None):
        obj = json.loads(out)
        obj["coeff"][3][5] = bad
        code, rep_out, err = run_cli(capsys, "classify", "-", stdin=json.dumps(obj),
                                     monkeypatch=monkeypatch)
        assert code == 2 and rep_out == "" and "$.coeff: expected numbers" in err


def test_classify_pure_maps(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "make", "--pure", "conjugation", "--dims", "2,4",
                           "--seed", "5", "--flags", "conjugate")
    assert code == 0
    code, rep_out, _ = run_cli(capsys, "classify", "-", stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    rep = json.loads(rep_out)
    assert rep["kind"] == "conjugation" and rep["flag"] == "conjugate"

    code, out, _ = run_cli(capsys, "make", "--pure", "trace_replacer", "--dims", "3,3",
                           "--seed", "5")
    code, rep_out, _ = run_cli(capsys, "classify", "-", stdin=out, monkeypatch=monkeypatch)
    assert code == 0 and json.loads(rep_out)["kind"] == "trace_replacer"


def test_classify_multi_map(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "make", "--multi", "--pi", "2,3,1",
                           "--dims", "2,2,2", "--seed", "8", "--flags",
                           "linear,conjugate,linear")
    assert code == 0
    code, rep_out, _ = run_cli(capsys, "classify", "-", stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    rep = json.loads(rep_out)
    assert rep["form"] == "multi"
    assert rep["params"]["pi"] == [2, 3, 1]
    assert [u["flag"] for u in rep["params"]["isometries"]] == [
        "linear", "conjugate", "linear"]


def test_verify_pass_fail_and_witness(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "make", "--form", "7", "--dims", "3,3", "--seed", "2")
    code, rep_out, _ = run_cli(capsys, "verify", "-", "--samples", "300",
                               stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    rep = json.loads(rep_out)
    assert rep["passed"] is True and rep["samples"] == 300

    # identity plus noise fails with a serialized witness
    rng = np.random.default_rng(0)
    from preservers import identity_superop, make_superop

    ident = identity_superop((3,))
    noisy = make_superop((3,), (3,), ident.coeff + 1e-2 * rng.standard_normal((9, 9)))
    code, rep_out, _ = run_cli(capsys, "verify", "-", "--samples", "300",
                               stdin=dumps(superop_to_json(noisy)), monkeypatch=monkeypatch)
    assert code == 1
    rep = json.loads(rep_out)
    assert rep["passed"] is False and rep["witness"] is not None


PURE_KEYS = ["kind", "R", "V", "flag", "witness", "residual"]
SEP_KEYS = ["form", "params", "witness", "grid", "residual", "both_directions"]
MULTI_KEYS = ["form", "params", "witness", "residual"]
VERIFY_KEYS = ["passed", "samples", "witness"]
MATRIX_KEYS = ["dims", "re", "im"]


def test_report_schemas(capsys, monkeypatch):
    """Every report keeps its kind's key order; a one-factor witness is a
    bare matrix of the input dims, a product witness one matrix per factor."""
    rng = np.random.default_rng(28)
    conj = conjugation(random_isometry(3, 2, rng, CONJUGATE))
    sep = canonical_sep(random_sep_form(6, 2, 3, rng), (2, 3))
    dims, perm, flags = random_multiform_setup(rng)
    multi = canonical_multi(MultiForm(perm, tuple(
        random_isometry(d, dims[p - 1], rng, f) for d, p, f in zip(dims, perm, flags))), dims)
    replacer = trace_replacer(pure_state(np.kron(np.kron([1, 0], [0, 1]), [1, 1])),
                              (2, 2, 2), (2, 2, 2))
    cases = [  # command, map, exit code, keys, witness: None, "matrix" or a factor count
        ("classify", trace_replacer(random_pure(3, rng), (2,), (3,)), 0, PURE_KEYS, None),
        ("classify", conj, 0, PURE_KEYS, None),
        ("classify", perturbed(conj, 1e-2, rng), 1, PURE_KEYS, "matrix"),
        ("classify", sep, 0, SEP_KEYS, None),
        ("classify", perturbed(sep, 1e-2, rng), 1, SEP_KEYS, 2),
        ("classify", multi, 0, MULTI_KEYS, None),
        ("classify", perturbed(multi, 1e-2, rng), 1, MULTI_KEYS, 3),
        ("classify", replacer, 3, MULTI_KEYS, None),
        ("verify", conj, 0, VERIFY_KEYS, None),
        ("verify", perturbed(conj, 1e-2, rng), 1, VERIFY_KEYS, "matrix"),
        ("verify", sep, 0, VERIFY_KEYS, None),
        ("verify", perturbed(sep, 1e-2, rng), 1, VERIFY_KEYS, 2),
    ]
    for cmd, op, exit_code, keys, witness in cases:
        code, out, err = run_cli(capsys, cmd, "-", stdin=dumps(superop_to_json(op)),
                                 monkeypatch=monkeypatch)
        assert (code, err) == (exit_code, ""), (cmd, op.in_dims, err)
        rep = json.loads(out)
        assert list(rep) == keys, (cmd, op.in_dims)
        w = rep["witness"]
        if witness is None:
            assert w is None
        elif witness == "matrix":
            assert list(w) == MATRIX_KEYS and w["dims"] == list(op.in_dims)
        else:
            assert list(w) == ["factors"] and len(w["factors"]) == witness
            assert [f["dims"] for f in w["factors"]] == [[d] for d in op.in_dims]
            assert all(list(f) == MATRIX_KEYS for f in w["factors"])


def test_tolerance_and_samples_must_be_valid_numbers(capsys, monkeypatch):
    """A tolerance outside 0 < tol < inf, NaN included, and a sample count
    below one are malformed input (exit 2, no report) for every classifier
    and verifier, where NaN and inf used to pass a noisy map."""
    from preservers import identity_superop, make_superop

    rng = np.random.default_rng(3)
    noisy6 = make_superop((2, 2), (2, 2), identity_superop((2, 2)).coeff
                          + 1e-3 * rng.standard_normal((16, 16)))
    maps = [dumps(superop_to_json(op)) for op in
            (noisy6, identity_superop((2, 2)), identity_superop((2,)), identity_superop((2, 2, 2)))]
    code, out, _ = run_cli(capsys, "verify", "-", stdin=maps[0], monkeypatch=monkeypatch)
    assert code == 1 and json.loads(out)["passed"] is False
    for text in maps:
        for tol in ("nan", "inf", "-inf", "-1", "0"):
            for cmd in ("classify", "verify"):
                code, out, err = run_cli(capsys, cmd, "-", f"--tol={tol}",
                                         stdin=text, monkeypatch=monkeypatch)
                assert (code, out) == (2, ""), (cmd, tol, code, out)
                assert "tolerance" in err
    for text in maps[:3:2]:
        for samples in ("-5", "0"):
            code, out, err = run_cli(capsys, "verify", "-", f"--samples={samples}",
                                     stdin=text, monkeypatch=monkeypatch)
            assert (code, out) == (2, ""), (samples, code, out)
            assert "sample" in err


def test_negative_seed_is_malformed_input(capsys, monkeypatch):
    """A negative seed is malformed input (exit 2, an error line, no
    output) for make, classify and verify, even where no draw would read it."""
    code, made, _ = run_cli(capsys, "make", "--form", "6", "--dims", "2,2", "--seed", "1")
    assert code == 0
    for cmd in (("make", "--form", "6", "--dims", "2,2"), ("classify", "-"), ("verify", "-")):
        code, out, err = run_cli(capsys, *cmd, "--seed=-1", stdin=made, monkeypatch=monkeypatch)
        assert (code, out) == (2, ""), (cmd, code, out)
        assert err.startswith("error:") and "seed" in err, (cmd, err)


def test_verify_seed_byte_stability(capsys, monkeypatch):
    code, made, _ = run_cli(capsys, "make", "--form", "2", "--dims", "3,2", "--seed", "4")
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", "-", "--samples", "150", "--seed", "21",
                               stdin=made, monkeypatch=monkeypatch)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_make_byte_stability(capsys, monkeypatch):
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "make", "--form", "3", "--dims", "2,3", "--seed", "9")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert outs[0].endswith("\n") and outs[0].count("\n") == 1


def test_demo_runs(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "demo")
    assert code == 0
    assert "partial transpose" in out
    assert "form 6" in out


def test_unknown_arguments_exit_2(capsys, monkeypatch):
    code, _, _ = run_cli(capsys, "make", "--dims", "2,2")  # no kind selected
    assert code == 2
    code, _, _ = run_cli(capsys, "bogus")
    assert code == 2
