"""Command-line interface: build canonical maps, classify map files, and run
Monte-Carlo verification.

Exit codes are a stable contract: 0 for a positive result, 1 for a
demonstrated non-preserver (or failed verification), 2 for malformed input or
violated construction constraints, 3 for indeterminate classifications
(insufficient richness, or a classifier that could neither verify a form
nor find a witness).
"""

import argparse
import json
import sys

from . import serialize
from .errors import ClassificationError, StructureError
from .linalg import as_rng, random_pure
from .pure_analysis import classify_pure_preserver, mc_verify_pure
from .sep_analysis import (
    INSUFFICIENT,
    classify_sep_preserver,
    classify_multi_preserver,
    mc_verify_product,
)
from .superop import (
    CONJUGATE,
    LINEAR,
    SepForm,
    _product_map,
    _sep_sources,
    canonical_sep,
    random_isometry,
    trace_replacer,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_BAD_INPUT = 2
EXIT_INDETERMINATE = 3


def _parse_dims(text: str, flag: str = "--dims") -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise StructureError(f"{flag} expects comma-separated integers, got {text!r}")
    if not dims or any(d < 1 for d in dims):
        raise StructureError(f"{flag} entries must be positive, got {text!r}")
    return dims


def _parse_flags(text, count: int, rng) -> list[str]:
    if text is None:
        return [str(rng.choice([LINEAR, CONJUGATE])) for _ in range(count)]
    flags = text.split(",")
    if len(flags) != count or any(f not in (LINEAR, CONJUGATE) for f in flags):
        raise StructureError(
            f"--flags expects {count} comma-separated values from "
            f"{{{LINEAR},{CONJUGATE}}}, got {text!r}"
        )
    return flags


def cmd_make(args) -> int:
    """Write a canonical map named by its input dims, output dims and slot
    sources (the input factor a slot carries, or None where it writes a pure
    state).  Draw order: a flag per carried slot unless ``--flags`` gives
    them, then each slot in turn, a pure state or an isometry."""
    rng = as_rng(args.seed)
    dims = _parse_dims(args.dims)
    if args.pi is not None and not args.multi:
        raise StructureError("--pi applies to --multi only")
    if args.multi:
        if args.pi is None:
            raise StructureError("--multi requires --pi")
        perm = _parse_dims(args.pi, "--pi")
        if sorted(perm) != list(range(1, len(dims) + 1)):
            raise StructureError(f"--pi {args.pi!r} is not a permutation of 1..{len(dims)}")
        in_dims, out_dims, sources = dims, dims, [p - 1 for p in perm]
    elif args.pure is not None:
        if len(dims) != 2:
            raise StructureError("--pure expects --dims m,n (input and output dimension)")
        in_dims, out_dims = dims[:1], dims[1:]
        sources = (0,) if args.pure == "conjugation" else (None,)
    else:
        if args.form is None:
            raise StructureError("make needs one of --form, --pure or --multi")
        sources = _sep_sources(args.form)
        if len(dims) != 2:
            raise StructureError("bipartite forms expect --dims m,n")
        in_dims, out_dims = dims, dims
    flags = iter(_parse_flags(args.flags, sum(src is not None for src in sources), rng))
    slots = [(src, random_pure(d, rng) if src is None
              else random_isometry(d, in_dims[src], rng, next(flags)))
             for d, src in zip(out_dims, sources)]
    serialize.write_superop(_product_map(in_dims, slots), sys.stdout)
    return EXIT_OK


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise StructureError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise StructureError(f"{path}: not UTF-8 text ({exc})")


def _parse(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"malformed JSON: {exc}")
    except RecursionError:
        raise StructureError("malformed JSON: nested too deeply")


def _load_superop(path: str):
    # the text is freed when _parse returns, before the array is built
    return serialize.superop_from_json(_parse(_read_text(path)))


def cmd_classify(args) -> int:
    op = _load_superop(args.path)
    if len(op.in_dims) == 1 and len(op.out_dims) == 1:
        classify = classify_pure_preserver
    elif len(op.in_dims) == 2:
        classify = classify_sep_preserver
    else:
        classify = classify_multi_preserver
    c = classify(op, args.tol, args.seed)
    sys.stdout.write(serialize.dumps(serialize.report(c)))
    if c.positive:
        return EXIT_OK
    return EXIT_INDETERMINATE if c.kind == INSUFFICIENT else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    op = _load_superop(args.path)
    verify = mc_verify_pure if len(op.in_dims) == 1 else mc_verify_product
    res = verify(op, args.samples, args.seed, args.tol)
    sys.stdout.write(serialize.dumps(serialize.report(res)))
    return EXIT_OK if res.passed else EXIT_NEGATIVE


def cmd_demo(args) -> int:
    rng = as_rng(args.seed)
    lines = []
    tr = trace_replacer(random_pure(3, rng), (2,), (3,))
    lines.append(f"trace replacer (2 -> 3): {classify_pure_preserver(tr).kind}")
    from .linalg import HermitianOperator, partial_transpose
    from .superop import from_action

    transpose = from_action((2,), (2,), lambda a: HermitianOperator(a.matrix.T, (2,)))
    c = classify_pure_preserver(transpose)
    lines.append(f"transpose map: {c.kind} with flag {c.isometry.flag}")
    pt = from_action((2, 2), (2, 2), lambda a: partial_transpose(a, 1))
    c = classify_sep_preserver(pt)
    lines.append(
        f"partial transpose on factor 1: form {c.form.tag}, "
        f"flags ({c.form.u1.flag}, {c.form.u2.flag})"
    )
    form6 = canonical_sep(
        SepForm(6, u1=random_isometry(2, 2, rng), u2=random_isometry(2, 2, rng, CONJUGATE)),
        (2, 2),
    )
    c = classify_sep_preserver(form6)
    lines.append(
        f"random factorwise conjugation: form {c.form.tag}, "
        f"grid ({c.grid[0]},{c.grid[1]})"
    )
    for line in lines:
        sys.stdout.write(line + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preservers",
        description="Construct, classify and verify product-pure-state preserving maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_make = sub.add_parser("make", help="emit a canonical map as JSON")
    kind = p_make.add_mutually_exclusive_group()
    kind.add_argument("--form", type=int, help="bipartite canonical form tag 1..7")
    kind.add_argument("--pure", choices=["trace_replacer", "conjugation"],
                      help="single-factor map kind")
    kind.add_argument("--multi", action="store_true", help="multipartite form")
    p_make.add_argument("--pi", help="factor permutation for --multi, e.g. 2,3,1")
    p_make.add_argument("--dims", required=True, help="factor dimensions, e.g. 2,3")
    p_make.add_argument("--flags", help="conjugation flags, one per isometry, e.g. linear,conjugate")
    p_make.add_argument("--seed", type=int, default=0)
    p_make.set_defaults(func=cmd_make)

    p_cls = sub.add_parser("classify", help="classify a map JSON file ('-' for stdin)")
    p_cls.add_argument("path")
    p_cls.add_argument("--tol", type=float, default=1e-8)
    p_cls.add_argument("--seed", type=int, default=0)
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify", help="Monte-Carlo purity verification")
    p_ver.add_argument("path")
    p_ver.add_argument("--samples", type=int, default=500)
    p_ver.add_argument("--tol", type=float, default=1e-8)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.set_defaults(func=cmd_verify)

    p_demo = sub.add_parser("demo", help="run a small classification walkthrough")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except StructureError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    except ClassificationError as exc:
        sys.stderr.write(f"indeterminate: {exc}\n")
        return EXIT_INDETERMINATE


if __name__ == "__main__":
    sys.exit(main())
