"""Command line front end.

Every subcommand prints a single JSON document (or a TSV table for
``enumerate --format tsv``) on stdout and is deterministic: identical argv
yields byte-identical output.  Exit codes: 0 on success, 1 on invalid input
(the message names the offending token) or when ``gof``, ``classify``,
``braid twist`` or ``braid identify`` would print a word past
MAX_WORD_LETTERS letters, 2 when ``braid identify`` does not recognise the
closure; only then does it compute the closure determinant it prints.

One argparse tree parses every command.  Braid words are trailing arguments,
e.g. ``braid nf 1 1 -2``; ``braid conj`` separates its two words with ``--``.
The parsers of ``conway`` and of the braid operations take no options, so
tokens such as ``-1,-1,2``, ``-3,2``, ``+5`` and ``-h`` reach them as data,
where argparse would read a dash-leading token as a flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import braid, classify, cover, twobridge, verify

# keywords of a parser that takes no options: no argv string can hold a NUL
# byte, so with it as the only prefix character every token is data
_RAW_TOKENS = {"prefix_chars": "\0", "add_help": False}

# longest word `gof`, `classify`, `braid twist` and `braid identify` print
# (each twist count step adds 12 letters)
MAX_WORD_LETTERS = 1_000_000


def _emit(obj) -> None:
    print(json.dumps(obj))


def _check_letters(syllables: braid.Syllables, what: str) -> None:
    letters = sum(abs(e) for _, e in syllables)
    if letters > MAX_WORD_LETTERS:
        raise ValueError(f"{what} has {letters} letters, above the {MAX_WORD_LETTERS}-letter limit")


def _report_json(report: classify.AxisReport, alpha: int, beta: int, count_key: str) -> dict:
    for w in report.witnesses:
        _check_letters(w.syllables, f"the {w.label} witness of b({alpha},{beta})")
    out = {
        "alpha": alpha,
        "beta": beta,
        "canonical": list(report.fraction),
        count_key: report.count,
        "witnesses": [list(w.word) for w in report.witnesses],
        "labels": [w.label for w in report.witnesses],
        "notes": list(report.notes),
    }
    if count_key == "count":
        fp = report.family
        out["family"] = None if fp is None else fp._asdict()
    return out


def _cmd_axes(args) -> None:
    # gof and classify print the same report under their own count key
    report = classify.axis_classes(args.alpha, args.beta)
    _emit(_report_json(report, args.alpha, args.beta, args.count_key))


def _cmd_equiv(args) -> None:
    result = twobridge.equivalent(
        (args.alpha1, args.beta1),
        (args.alpha2, args.beta2),
        oriented=args.oriented,
        mirror=not args.no_mirror,
    )
    _emit({"equivalent": result})


def _cmd_normalize(args) -> None:
    f = twobridge.canonical(args.alpha, args.beta)
    _emit({"alpha": args.alpha, "beta": args.beta, "canonical": list(f)})


def _cmd_conway(args) -> None:
    try:
        digits = tuple(int(tok) for tok in args.digits.split(","))
    except ValueError:
        raise ValueError(f"conway digits must be integers, got {args.digits!r}") from None
    raw, canon = twobridge.cf_to_fraction(digits)
    _emit({"digits": list(digits), "raw": list(raw), "canonical": list(canon)})


def _cmd_enumerate(args) -> None:
    # one string per alpha, written once that alpha is classified: the betas
    # with a report are formatted from it, every other row has count 0.  The
    # JSON separators are the ones json.dumps puts between list items, so
    # the array reads the same
    out = sys.stdout
    census = classify.census_by_alpha(args.max)
    if args.format == "json":
        out.write("[")
        sep = ""
        for alpha, betas, reports in census:
            rows = {
                b: json.dumps({
                    "alpha": alpha,
                    "beta": b,
                    "count": r.count,
                    "witnesses": [list(w.word) for w in r.witnesses],
                })
                for b, r in reports.items()
            }
            out.write(sep + ", ".join([
                rows[b] if b in rows else f'{{"alpha": {alpha}, "beta": {b}, "count": 0, "witnesses": []}}'
                for b in betas
            ]))
            sep = ", "
        out.write("]\n")
    else:
        for alpha, betas, reports in census:
            rows = {
                b: f"{alpha}\t{b}\t{r.count}\t"
                + ";".join([braid.format_syllables(w.syllables) for w in r.witnesses]) + "\n"
                for b, r in reports.items()
            }
            out.write("".join([rows[b] if b in rows else f"{alpha}\t{b}\t0\t\n" for b in betas]))


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


def _word(tokens: list[str]) -> braid.Word:
    return braid.parse_word(" ".join(tokens))


def _cmd_nf(args) -> None:
    nf = braid.normal_form(_word(args.tokens))
    _emit({"delta_power": nf.delta_power, "factors": [list(w) for w in nf.factor_words()]})


def _cmd_exp(args) -> None:
    _emit({"exponent_sum": braid.exponent_sum(_word(args.tokens))})


def _cmd_mirror(args) -> None:
    _emit({"word": list(braid.mirror(_word(args.tokens)))})


def _cmd_det(args) -> None:
    _emit({"determinant": cover.closure_determinant(_word(args.tokens))})


def _cmd_homology(args) -> None:
    _emit({"invariant_factors": list(cover.dbc_homology(_word(args.tokens)))})


def _cmd_identify(args) -> int | None:
    word = _word(args.tokens)
    result = classify.identify_closure(word)
    if result is None:
        _emit({"unrecognized": True, "determinant": cover.closure_determinant(word)})
        return 2
    f = result.fraction
    _check_letters(result.matched_syllables, f"the matched witness of b({f.alpha},{f.beta})")
    _emit({"fraction": list(f), "mirrored": result.mirrored, "matched_witness": list(result.matched_witness)})
    return None


def _cmd_conj(args) -> None:
    if "--" not in args.tokens:
        raise ValueError("braid conj needs two words separated by --")
    split = args.tokens.index("--")
    w1, w2 = _word(args.tokens[:split]), _word(args.tokens[split + 1:])
    _emit({"conjugate": braid.is_conjugate(w1, w2)})


def _cmd_twist(args) -> None:
    if not args.tokens:
        raise ValueError("braid twist needs a twist count")
    count = args.tokens[0]
    try:
        n = int(count)
    except ValueError:
        raise ValueError(f"invalid twist count {count!r}") from None
    word = _word(args.tokens[1:])
    if len(word) + 12 * abs(n) > MAX_WORD_LETTERS:
        raise ValueError(f"twist count {count!r} gives more than {MAX_WORD_LETTERS} letters")
    _emit({"word": list(braid.surgery_twist(word, n))})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gofknots",
        description="Count genus-one fibered knots in lens spaces via closed 3-braids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, count_key, summary in (
        ("gof", "gof_count", "GOF-knot count of a lens space L(alpha, beta)"),
        ("classify", "count", "axis classes of a two-bridge link b(alpha, beta)"),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("alpha", type=int)
        p.add_argument("beta", type=int)
        p.set_defaults(func=_cmd_axes, count_key=count_key)

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

    p = sub.add_parser("conway", help="evaluate Conway digits D1,D2,...", **_RAW_TOKENS)
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
        help=f"bound of the selected suite: at most {verify.MAX_CENSUS_ALPHA} for counts and orientation, "
        "refused for conjugacy, which takes none; "
        "with --suite all, only the alpha bound of the counts and orientation suites",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("braid", help="operations on 3-braid words")
    ops = p.add_subparsers(dest="operation", required=True)
    for name, func, summary in (
        ("nf", _cmd_nf, "left normal form"),
        ("exp", _cmd_exp, "exponent sum"),
        ("mirror", _cmd_mirror, "mirror word"),
        ("identify", _cmd_identify, "two-bridge fraction of the closure"),
        ("det", _cmd_det, "determinant of the closure"),
        ("homology", _cmd_homology, "homology of the branched double cover"),
        ("conj", _cmd_conj, "conjugacy of two words separated by --"),
        ("twist", _cmd_twist, "insert N full twists on the braid axis"),
    ):
        p = ops.add_parser(name, help=summary, **_RAW_TOKENS)
        # REMAINDER keeps every `--`, which conj splits at and the others reject
        p.add_argument("tokens", nargs=argparse.REMAINDER)
        p.set_defaults(func=func)

    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after help, 2 on a usage error
        return 0 if exc.code == 0 else 1
    # argparse before Python 3.12 fills a positional with [] when the only
    # token left for it is a second `--`; only the braid tokens are a list
    if any(isinstance(value, list) for name, value in vars(args).items() if name != "tokens"):
        print("error: `--` given in place of an argument", file=sys.stderr)
        return 1
    try:
        return args.func(args) or 0  # a handler returns None on success
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush at
        # interpreter exit cannot fail again and print a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
