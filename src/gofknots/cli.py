"""Command line front end.

Every subcommand prints a single JSON document (or a TSV table for
``enumerate --format tsv``) on stdout and is deterministic: identical argv
yields byte-identical output.  Exit codes: 0 on success, 1 on invalid input
(the message names the offending token) or when ``braid twist`` or
``braid identify`` would build a word past MAX_WORD_LETTERS letters, 2 when
``braid identify`` does not recognise the closure.

Braid words are given as trailing arguments, e.g. ``braid nf 1 1 -2``; the
two words of ``braid conj`` are separated by ``--``.  The braid subcommand is
dispatched by hand because its letters look like option flags to argparse.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import braid, classify, cover, twobridge, verify

# longest word `braid twist` prints (each twist count step adds 12 letters),
# and largest closure determinant `braid identify` accepts: its torus
# witnesses are that long
MAX_WORD_LETTERS = 1_000_000


def _emit(obj) -> None:
    print(json.dumps(obj))


def _fraction_json(f: twobridge.Fraction) -> list[int]:
    return [f.alpha, f.beta]


def _report_json(report: classify.AxisReport, alpha: int, beta: int, count_key: str) -> dict:
    out = {
        "alpha": alpha,
        "beta": beta,
        "canonical": _fraction_json(report.fraction),
        count_key: report.count,
        "witnesses": [list(w.word) for w in report.witnesses],
        "labels": [w.label for w in report.witnesses],
        "notes": list(report.notes),
    }
    if count_key == "count":
        fp = report.family
        out["family"] = None if fp is None else {"family": fp.family, "p": fp.p, "q": fp.q}
    return out


def _cmd_gof(args) -> int:
    report = classify.gof_count(args.alpha, args.beta)
    _emit(_report_json(report, args.alpha, args.beta, "gof_count"))
    return 0


def _cmd_classify(args) -> int:
    report = classify.axis_classes(args.alpha, args.beta)
    _emit(_report_json(report, args.alpha, args.beta, "count"))
    return 0


def _cmd_equiv(args) -> int:
    result = twobridge.equivalent(
        (args.alpha1, args.beta1),
        (args.alpha2, args.beta2),
        oriented=args.oriented,
        mirror=not args.no_mirror,
    )
    _emit({"equivalent": result})
    return 0


def _cmd_normalize(args) -> int:
    f = twobridge.canonical(args.alpha, args.beta)
    _emit({"alpha": args.alpha, "beta": args.beta, "canonical": _fraction_json(f)})
    return 0


def _cmd_conway(args) -> int:
    try:
        digits = tuple(int(tok) for tok in args.digits.split(","))
    except ValueError:
        print(f"error: conway digits must be integers, got {args.digits!r}", file=sys.stderr)
        return 1
    raw, canon = twobridge.cf_to_fraction(digits)
    _emit({"digits": list(digits), "raw": list(raw), "canonical": _fraction_json(canon)})
    return 0


def _cmd_enumerate(args) -> int:
    # rows are written as they are classified; the JSON separators are the
    # ones json.dumps puts between list items, so the array reads the same
    out = sys.stdout
    if args.format == "json":
        out.write("[")
        sep = ""
        for report in classify.census(args.max):
            f = report.fraction
            row = {
                "alpha": f.alpha,
                "beta": f.beta,
                "count": report.count,
                "witnesses": [list(w.word) for w in report.witnesses],
            }
            out.write(sep + json.dumps(row))
            sep = ", "
        out.write("]\n")
    else:
        for report in classify.census(args.max):
            f = report.fraction
            ws = report.witnesses
            words = ";".join([braid.format_word(w.word) for w in ws]) if ws else ""
            out.write(f"{f.alpha}\t{f.beta}\t{len(ws)}\t{words}\n")
    return 0


def _cmd_verify(args) -> int:
    violations = verify.run_suites(args.suite, args.max)
    _emit([v.as_json() for v in violations])
    return 0 if not violations else 1


def _non_negative_int(token: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {token!r}")
    return value


def _parse_braid_word(tokens: list[str]) -> braid.Word:
    return braid.parse_word(" ".join(tokens))


def _run_braid(argv: list[str]) -> int:
    if not argv:
        print("error: braid needs an operation (nf|exp|mirror|identify|det|homology|conj|twist)", file=sys.stderr)
        return 1
    op, rest = argv[0], argv[1:]
    if op == "conj":
        if "--" not in rest:
            print("error: braid conj needs two words separated by --", file=sys.stderr)
            return 1
        split = rest.index("--")
        w1 = _parse_braid_word(rest[:split])
        w2 = _parse_braid_word(rest[split + 1:])
        _emit({"conjugate": braid.is_conjugate(w1, w2)})
        return 0
    if op == "twist":
        if not rest:
            print("error: braid twist needs a twist count", file=sys.stderr)
            return 1
        try:
            n = int(rest[0])
        except ValueError:
            print(f"error: invalid twist count {rest[0]!r}", file=sys.stderr)
            return 1
        word = _parse_braid_word(rest[1:])
        if len(word) + 12 * abs(n) > MAX_WORD_LETTERS:
            print(
                f"error: twist count {rest[0]!r} gives more than {MAX_WORD_LETTERS} letters",
                file=sys.stderr,
            )
            return 1
        _emit({"word": list(braid.surgery_twist(word, n))})
        return 0
    word = _parse_braid_word(rest)
    if op == "nf":
        nf = braid.normal_form(word)
        _emit({"delta_power": nf.delta_power, "factors": [list(w) for w in nf.factor_words()]})
        return 0
    if op == "exp":
        _emit({"exponent_sum": braid.exponent_sum(word)})
        return 0
    if op == "mirror":
        _emit({"word": list(braid.mirror(word))})
        return 0
    if op == "det":
        _emit({"determinant": cover.closure_determinant(word)})
        return 0
    if op == "homology":
        _emit({"invariant_factors": list(cover.dbc_homology(word).invariant_factors)})
        return 0
    if op == "identify":
        det = cover.closure_determinant(word)
        if det > MAX_WORD_LETTERS:
            print(
                f"error: closure determinant {det} is above the {MAX_WORD_LETTERS}-letter witness limit",
                file=sys.stderr,
            )
            return 1
        result = classify.identify_closure(word)
        if result is None:
            _emit({"unrecognized": True, "determinant": det})
            return 2
        _emit({
            "fraction": _fraction_json(result.fraction),
            "mirrored": result.mirrored,
            "matched_witness": list(result.matched_witness),
        })
        return 0
    print(f"error: unknown braid operation {op!r}", file=sys.stderr)
    return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gofknots",
        description="Count genus-one fibered knots in lens spaces via closed 3-braids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gof", help="GOF-knot count of a lens space L(alpha, beta)")
    p.add_argument("alpha", type=int)
    p.add_argument("beta", type=int)
    p.set_defaults(func=_cmd_gof)

    p = sub.add_parser("classify", help="axis classes of a two-bridge link b(alpha, beta)")
    p.add_argument("alpha", type=int)
    p.add_argument("beta", type=int)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("equiv", help="two-bridge fraction equivalence")
    p.add_argument("alpha1", type=int)
    p.add_argument("beta1", type=int)
    p.add_argument("alpha2", type=int)
    p.add_argument("beta2", type=int)
    p.add_argument("--oriented", action="store_true")
    p.add_argument("--no-mirror", action="store_true")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("normalize", help="canonical form of a fraction")
    p.add_argument("alpha", type=int)
    p.add_argument("beta", type=int)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("conway", help="evaluate Conway digits D1,D2,...")
    p.add_argument("digits")
    p.set_defaults(func=_cmd_conway)

    p = sub.add_parser("enumerate", help="census of canonical fractions up to --max")
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run the oracle suites")
    p.add_argument("--suite", choices=("all",) + verify.SUITES, default="all")
    p.add_argument(
        "--max",
        type=_non_negative_int,
        default=None,
        help="bound of the selected suite; with --suite all, only the alpha bound "
        "of the counts and orientation suites",
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "braid":
        try:
            return _run_braid(argv[1:])
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    # a leading negative Conway digit looks like an option flag to argparse
    if len(argv) >= 2 and argv[0] == "conway" and re.match(r"-\d", argv[1]):
        argv.insert(1, "--")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
