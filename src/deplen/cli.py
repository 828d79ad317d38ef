"""Command-line interface.

Subcommands: analyze, optimize, predict, pair, casestudy.  All output
is deterministic: same input, flags and seed give byte-identical bytes.
Exit status: 0 on success (and all checks passing), 1 when an asserted
check fails, 2 on input or usage errors.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from collections import Counter
from fractions import Fraction

from . import __version__
from .casestudy import compare_fixture
from .conllu import drop_punctuation, parse_conllu
from .costs import (
    IDENTITY,
    cost_function_from_spec,
    optimal_pairing,
    verify_pairing_optimal,
)
from .errors import DeplenError, EmptyCorpusError, TooLargeError
from .metrics import LengthHistogram, cost_D, frac_dec, frac_str
from .optimize import (
    BRUTE_FORCE_MAX,
    brute_force_mla,
    projective_enum_mla,
    projective_mla,
)
from .tree import Unit

UNIT_BY_NAME = {"words": Unit.WORDS, "chars": Unit.CHARACTERS}
RATIONAL_FIELDS = ("observed", "optimal", "gap")  # optimize rows, exact and decimal


def _render(value) -> str:
    """Human rendering of a rational: exact decimal if finite, else p/q."""
    value = Fraction(value)
    den = value.denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    if den == 1:
        return frac_dec(value) if value.denominator > 1 else str(value.numerator)
    return frac_str(value)


def _table(rows, header) -> str:
    """Align rows of strings under a header, two spaces between columns."""
    all_rows = [header] + rows
    widths = [max(len(r[i]) for r in all_rows) for i in range(len(header))]
    lines = []
    for r in all_rows:
        lines.append(
            "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
        )
    return "\n".join(lines)


def _csv(rows, header) -> str:
    import csv as _csvmod

    buf = io.StringIO()
    writer = _csvmod.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit_json(payload, out) -> None:
    out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_corpus(args):
    with open(args.input, encoding="utf-8") as fh:
        text = fh.read()
    trees = parse_conllu(text)
    if args.drop_punct:
        trees = [drop_punctuation(t) for t in trees]
    if not trees:
        raise EmptyCorpusError("no sentences in %s" % args.input)
    return trees


def _cost_fn(args):
    return cost_function_from_spec(
        args.g, allow_nonmonotone=args.allow_nonmonotone_g
    )


def cmd_analyze(args, out) -> int:
    trees = _load_corpus(args)
    unit = UNIT_BY_NAME[args.unit]
    g = _cost_fn(args)
    reports = [cost_D(t, t.identity_linearization(), g, unit) for t in trees]
    histogram = None
    if unit is Unit.WORDS:
        counts = Counter()
        for r in reports:
            counts.update(r.histogram.counts)
        if counts:
            histogram = LengthHistogram(dict(counts), sum(counts.values()))

    if args.format == "json":
        payload = {
            "command": "analyze",
            "unit": unit.value,
            "g": g.spec(),
            "seed": args.seed,
            "sentences": [
                dict(r.to_json_dict(), sentence=i)
                for i, r in enumerate(reports, start=1)
            ],
            "histogram": histogram.to_json_dict() if histogram else None,
        }
        _emit_json(payload, out)
        return 0

    rows = [
        [str(i), str(r.n), _render(r.sum_lengths), _render(r.D)]
        for i, r in enumerate(reports, start=1)
    ]
    if args.format == "csv":
        text = _csv(rows, ["sentence", "n", "sum_lengths", "D"])
        if histogram:
            text += "\n" + histogram.to_csv()
        out.write(text)
        return 0
    out.write(
        "analyze: %d sentence(s), unit=%s, g=%s\n"
        % (len(reports), unit.value, g.spec())
    )
    out.write(_table(rows, ["sentence", "n", "sum_lengths", "D"]) + "\n")
    if histogram:
        hrows = [
            [str(d), str(c), _render(Fraction(c, histogram.total_edges))]
            for d, c in sorted(histogram.counts.items())
        ]
        out.write("\ndistance histogram (words)\n")
        out.write(_table(hrows, ["d", "count", "p"]) + "\n")
    return 0


def _optimize_one(tree, unit, g, max_n, exact):
    lin = tree.identity_linearization()
    observed = cost_D(tree, lin, g, unit).D
    if exact or tree.n <= max_n:
        result = brute_force_mla(tree, unit=unit, g=g)
        mode = "exhaustive"
        optimal_count = len(result.optimal_orders)
    elif unit is Unit.WORDS and g.kind == "identity":
        result = projective_mla(tree)
        mode = "projective"
        optimal_count = None
    else:
        result = projective_enum_mla(tree, unit, g)
        mode = "projective-enum"
        optimal_count = None
    gap = observed / result.min_cost if result.min_cost else Fraction(1)
    return {
        "n": tree.n,
        "observed": observed,
        "optimal": result.min_cost,
        "gap": gap,
        "search": mode,
        "optimal_count": optimal_count,
        "searched": result.searched,
        "representative": list(result.representative.seq),
    }


def cmd_optimize(args, out) -> int:
    if args.max_n > BRUTE_FORCE_MAX:
        raise TooLargeError(
            "--max-n is capped at %d (exhaustive search)" % BRUTE_FORCE_MAX
        )
    trees = _load_corpus(args)
    unit = UNIT_BY_NAME[args.unit]
    g = _cost_fn(args)
    rows = [_optimize_one(t, unit, g, args.max_n, args.exact) for t in trees]

    if args.format == "json":
        payload = {
            "command": "optimize",
            "unit": unit.value,
            "g": g.spec(),
            "seed": args.seed,
            "max_n": args.max_n,
            "sentences": [
                dict(
                    r,
                    sentence=i,
                    **{k: frac_str(r[k]) for k in RATIONAL_FIELDS},
                    **{k + "_dec": frac_dec(r[k]) for k in RATIONAL_FIELDS},
                )
                for i, r in enumerate(rows, start=1)
            ],
        }
        _emit_json(payload, out)
        return 0

    cells = [
        [
            str(i),
            str(r["n"]),
            _render(r["observed"]),
            _render(r["optimal"]),
            _render(r["gap"]),
            r["search"],
            " ".join(str(t) for t in r["representative"]),
        ]
        for i, r in enumerate(rows, start=1)
    ]
    header = ["sentence", "n", "observed", "optimal", "gap", "search", "best_order"]
    if args.format == "csv":
        out.write(_csv(cells, header))
        return 0
    out.write(
        "optimize: %d sentence(s), unit=%s, g=%s, max_n=%d\n"
        % (len(rows), unit.value, g.spec(), args.max_n)
    )
    out.write(_table(cells, header) + "\n")
    return 0


def cmd_predict(args, out) -> int:
    from .predictions import run_default_suite

    reports = run_default_suite()
    all_hold = all(r.holds for r in reports)
    payload = {
        "command": "predict",
        "seed": args.seed,
        "all_hold": all_hold,
        "reports": [r.to_json_dict() for r in reports],
    }
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            _emit_json(payload, fh)
    if args.format == "json":
        _emit_json(payload, out)
    else:
        rows = [
            [r.name, "pass" if r.holds else "FAIL", frac_str(r.witness.min_cost)]
            for r in reports
        ]
        header = ["scenario", "result", "min_cost"]
        if args.format == "csv":
            out.write(_csv(rows, header))
        else:
            out.write(_table(rows, header) + "\n")
            out.write(
                "all scenarios: %s\n" % ("pass" if all_hold else "FAIL")
            )
    return 0 if all_hold else 1


def _parse_values(text):
    return [v.strip() for v in text.split(",") if v.strip()]


def cmd_pair(args, out) -> int:
    p_values = _parse_values(args.p)
    g_values = _parse_values(args.costs)
    result = optimal_pairing(p_values, g_values)
    verified = (
        verify_pairing_optimal(p_values, g_values)
        if len(p_values) <= 8
        else None
    )
    if args.format == "json":
        payload = {
            "command": "pair",
            "seed": args.seed,
            "p": [frac_str(Fraction(v)) for v in p_values],
            "costs": [frac_str(Fraction(v)) for v in g_values],
            "assignment": {
                str(rank): frac_str(v)
                for rank, v in sorted(result.assignment.items())
            },
            "total": frac_str(result.total),
            "total_dec": frac_dec(result.total),
            "verified_optimal": verified,
        }
        _emit_json(payload, out)
    else:
        rows = [
            [
                str(rank),
                _render(Fraction(p_values[rank - 1])),
                _render(v),
            ]
            for rank, v in sorted(result.assignment.items())
        ]
        header = ["rank", "p", "cost"]
        if args.format == "csv":
            rows.append(["total", "", _render(result.total)])
            out.write(_csv(rows, header))
        else:
            out.write(_table(rows, header) + "\n")
            out.write("total: %s (%s)\n" % (frac_str(result.total), frac_dec(result.total)))
            if verified is not None:
                out.write(
                    "verified against all assignments: %s\n"
                    % ("yes" if verified else "NO")
                )
    return 0 if verified in (True, None) else 1


def cmd_casestudy(args, out) -> int:
    unit = UNIT_BY_NAME[args.unit]
    report = compare_fixture(unit=unit)
    if args.format == "json":
        payload = dict(report.to_json_dict(), command="casestudy", seed=args.seed)
        _emit_json(payload, out)
    else:
        rows = [
            [e.label, e.gloss, _render(e.total)] for e in report.entries
        ]
        header = ["fixture", "gloss", "total_%s" % unit.value]
        if args.format == "csv":
            out.write(_csv(rows, header))
        else:
            out.write(_table(rows, header) + "\n")
            out.write("ranking: %s\n" % " < ".join(report.ranking))
            out.write(
                "clitic (b) shorter than heavy verb-final (c): %s\n"
                % ("yes" if report.holds else "NO")
            )
            out.write("svo (a) vs clitic (b): %s\n" % report.svo_vs_clitic)
    return 0 if report.holds else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deplen",
        description="Dependency length measurement, optimization and "
        "word-order placement checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, corpus=False):
        p.add_argument(
            "--format",
            choices=("table", "json", "csv"),
            default="table",
            help="output format (default: table)",
        )
        p.add_argument("--seed", type=int, default=None, help="recorded in JSON output")
        if corpus:
            p.add_argument("input", help="CoNLL-U file")
            p.add_argument(
                "--unit",
                choices=("words", "chars"),
                default="words",
                help="length unit (default: words)",
            )
            p.add_argument(
                "--g",
                default="identity",
                help="cost spec: identity, power:A, log, table:PATH",
            )
            p.add_argument(
                "--allow-nonmonotone-g",
                action="store_true",
                help="accept a non-increasing cost table",
            )
            p.add_argument(
                "--drop-punct",
                action="store_true",
                help="drop punctuation-only leaf tokens before measuring",
            )

    p = sub.add_parser("analyze", help="measure dependency lengths in a corpus")
    common(p, corpus=True)
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser("optimize", help="compare observed orders to minima")
    common(p, corpus=True)
    p.add_argument(
        "--max-n",
        type=int,
        default=8,
        help="largest n searched exhaustively (cap %d)" % BRUTE_FORCE_MAX,
    )
    p.add_argument(
        "--exact",
        action="store_true",
        help="force exhaustive search for every sentence",
    )
    p.set_defaults(handler=cmd_optimize)

    p = sub.add_parser("predict", help="run the word-order placement checks")
    common(p)
    p.add_argument("--json-out", default=None, help="also write the JSON report here")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("pair", help="pair distance proportions with costs")
    common(p)
    p.add_argument("--p", default="0.5,0.3,0.2", help="comma-separated proportions")
    p.add_argument("--costs", default="1,2,3", help="comma-separated cost values")
    p.set_defaults(handler=cmd_pair)

    p = sub.add_parser("casestudy", help="compare the three French exemplars")
    common(p)
    p.add_argument(
        "--unit",
        choices=("words", "chars"),
        default="chars",
        help="length unit (default: chars)",
    )
    p.set_defaults(handler=cmd_casestudy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, sys.stdout)
    except DeplenError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
