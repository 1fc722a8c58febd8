"""Per-layer metrics read from a traced run.

Figures are for one set-up plus one round: set-up is traced once, and the
rounds' totals are divided by the number of traced rounds. A layer that a
workload never calls reads 0. ``.s`` is busy time, ``.self_s`` busy time
minus child calls; ``bytes`` are computed from array sizes.
"""

# (metric, unit, source, key): source "calls" / "s" / "self_s" read the
# aggregate of a traced function, "count" a counter kept at a layer boundary.
PER_LAYER = [
    ("basis.coords.calls", "count", "calls", "basis.coords"),
    ("basis.coords.s", "s", "s", "basis.coords"),
    ("basis.from_coords.calls", "count", "calls", "basis.from_coords"),
    ("basis.from_coords.s", "s", "s", "basis.from_coords"),
    ("linalg.eig_hermitian.calls", "count", "calls", "linalg.eig_hermitian"),
    ("linalg.eig_hermitian.s", "s", "s", "linalg.eig_hermitian"),
    ("linalg.is_product_pure.calls", "count", "calls", "linalg.is_product_pure"),
    ("linalg.is_product_pure.s", "s", "s", "linalg.is_product_pure"),
    ("linalg.partial_trace.calls", "count", "calls", "linalg.partial_trace"),
    ("linalg.partial_trace.s", "s", "s", "linalg.partial_trace"),
    ("linalg.tensor.calls", "count", "calls", "linalg.tensor"),
    ("linalg.tensor.s", "s", "s", "linalg.tensor"),
    ("superop.from_action.calls", "count", "calls", "superop.from_action"),
    ("superop.from_action.columns", "count", "count", "superop.from_action.columns"),
    ("superop.from_action.s", "s", "s", "superop.from_action"),
    ("superop.apply.calls", "count", "calls", "superop.apply"),
    ("superop.apply.s", "s", "s", "superop.apply"),
    ("superop.apply.bytes", "B", "count", "superop.apply.bytes"),
    ("superop.canonical_sep.s", "s", "s", "superop.canonical_sep"),
    ("superop.canonical_multi.s", "s", "s", "superop.canonical_multi"),
    ("superop.superop_equal.calls", "count", "calls", "superop.superop_equal"),
    ("superop.superop_equal.s", "s", "s", "superop.superop_equal"),
    ("superop.superop_equal.bytes", "B", "count", "superop.superop_equal.bytes"),
    ("pure_analysis.classify_pure_preserver.calls", "count", "calls",
     "pure_analysis.classify_pure_preserver"),
    ("pure_analysis.classify_pure_preserver.self_s", "s", "self_s",
     "pure_analysis.classify_pure_preserver"),
    ("pure_analysis.find_impure_witness.calls", "count", "calls", "pure_analysis.find_impure_witness"),
    ("pure_analysis.find_impure_witness.s", "s", "s", "pure_analysis.find_impure_witness"),
    ("pure_analysis.mc_verify_pure.samples", "count", "count", "pure_analysis.mc_verify_pure.samples"),
    ("pure_analysis.mc_verify_pure.s", "s", "s", "pure_analysis.mc_verify_pure"),
    ("sep_analysis.classify_sep_preserver.self_s", "s", "self_s", "sep_analysis.classify_sep_preserver"),
    ("sep_analysis.classify_multi_preserver.self_s", "s", "self_s",
     "sep_analysis.classify_multi_preserver"),
    ("sep_analysis.slice_maps", "count", "count", "sep_analysis.slice_maps"),
    ("sep_analysis.slice_phi.calls", "count", "calls", "sep_analysis.slice_phi"),
    ("sep_analysis.find_product_witness.calls", "count", "calls", "sep_analysis.find_product_witness"),
    ("sep_analysis.find_product_witness.s", "s", "s", "sep_analysis.find_product_witness"),
    ("sep_analysis.find_product_witness.tries", "tries/witness", "tries", None),
    ("sep_analysis.mc_verify_product.samples", "count", "count", "sep_analysis.mc_verify_product.samples"),
    ("sep_analysis.mc_verify_product.s", "s", "s", "sep_analysis.mc_verify_product"),
    ("serialize.superop_to_json.s", "s", "s", "serialize.superop_to_json"),
    ("serialize.dumps.s", "s", "s", "serialize.dumps"),
    ("serialize.dumps.bytes", "B", "count", "serialize.dumps.bytes"),
    ("serialize.parse.s", "s", "s", "serialize.parse"),
    ("serialize.superop_from_json.s", "s", "s", "serialize.superop_from_json"),
    ("cli.import_s", "s", "import", None),
    ("cli.make.s", "s", "s", "cli.cmd_make"),
    ("cli.classify.s", "s", "s", "cli.cmd_classify"),
    ("cli.verify.s", "s", "s", "cli.cmd_verify"),
]
FIELDS = {"calls": 0, "s": 1, "self_s": 2}


def per_layer(setup, total, rounds, import_s):
    """Metrics from two snapshots of a tracer: after set-up, and at the end.
    A snapshot is (stats: name -> [calls, s, self_s], counts: name -> n)."""

    def value(source, key):
        if source == "count":
            a, b = setup[1].get(key, 0), total[1].get(key, 0)
        else:
            i = FIELDS[source]
            a = setup[0].get(key, [0, 0.0, 0.0])[i]
            b = total[0].get(key, [0, 0.0, 0.0])[i]
        return a + (b - a) / rounds

    out = {}
    for name, unit, source, key in PER_LAYER:
        if source == "tries":
            found = value("count", "sep_analysis.find_product_witness.found")
            tests = value("count", "sep_analysis.find_product_witness.purity_tests")
            v = tests / found if found else 0.0
        elif source == "import":
            v = import_s
        else:
            v = value(source, key)
        out[name] = (v, unit)
    return out
