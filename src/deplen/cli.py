"""Command-line interface.

Subcommands: analyze, optimize, predict, pair, casestudy.  All output
is deterministic: same input, flags and seed give byte-identical bytes.
Exit status: 0 on success (and all checks passing), 1 when an asserted
check fails, 2 on input or usage errors.
"""

from __future__ import annotations

import argparse
import sys

from . import BRUTE_FORCE_MAX, UNIT_NAMES, __version__

# Each command imports what it runs, so that --version, --help and usage
# errors load no measuring module.

RATIONAL_FIELDS = ("observed", "optimal", "gap")  # optimize rows, exact and decimal


def _render(p, q=1) -> str:
    """Human rendering of the rational p/q for tables and csv.

    p is an int or a rational, q a positive int.  A finite decimal
    (lowest-terms denominator 2**a * 5**b) is shown as the repr of the
    nearest float, so a long one is rounded: 1 + 1/2**60 shows as 1.0.
    An integer, any other rational and a finite decimal past the double
    range are shown exactly, as p or p/q.  JSON output carries every
    value exactly.
    """
    p, q = p.numerator, p.denominator * q
    if p % q == 0:
        return str(p // q)
    rest = q >> ((q & -q).bit_length() - 1)  # q without its factors 2
    while rest % 5 == 0:
        rest //= 5
    if p % rest == 0:  # so p/q in lowest terms has no other factor
        try:
            return repr(p / q)
        except OverflowError:
            pass
    from .metrics import frac_str

    return frac_str(p, q)


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
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(args, out, payload, header, rows, as_table=None, as_csv=None):
    """Write a command's output in args.format, and to --json-out if set.

    payload() gives the JSON object; the command and seed fields every
    payload shares are added here.  rows() gives the table and csv rows
    under header.  as_table(body) and as_csv(body), when given, add to
    the rendered rows the text only that form prints.  Only what the
    chosen format prints is built, and payload() once per JSON text, as
    it may hold iterators.
    """
    def write_json(sink):
        _json_text(dict(payload(), command=args.command, seed=args.seed), sink.write)
        sink.write("\n")

    json_out = getattr(args, "json_out", None)
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            write_json(fh)
    if args.format == "json":
        write_json(out)
        return
    if args.format == "csv":
        body, finish = _csv(rows(), header), as_csv
    else:
        body, finish = _table(rows(), header) + "\n", as_table
    out.write(finish(body) if finish else body)


JSON_PIECE = 4096  # strings _json_text gathers before it writes them
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spelling


def _json_text(doc, out_write) -> None:
    """Write json.dumps(doc, sort_keys=True, indent=2) through out_write(str).

    With an indent, json.dumps runs its pure-Python encoder, a generator
    per container; this writes the same text from one recursive function.
    doc holds dicts with str keys, lists, tuples, iterators (written as
    lists), str, int, float, bool and None.  The text goes out in pieces
    of about JSON_PIECE strings, so an iterator is never held whole.
    """
    from collections.abc import Iterator
    from json.encoder import encode_basestring_ascii as quote

    chunks = []
    write = chunks.append

    def value(v, newline):
        if isinstance(v, str):
            write(quote(v))
        elif v is None:
            write("null")
        elif v is True:
            write("true")
        elif v is False:
            write("false")
        elif isinstance(v, int):
            write(int.__repr__(v))
        elif isinstance(v, float):
            text = float.__repr__(v)
            write(_JSON_NONFINITE.get(text, text))
        elif isinstance(v, dict):
            if not v:
                write("{}")
                return
            inner, sep = newline + "  ", "{"
            for key in sorted(v):
                write(sep + inner + quote(key) + ": ")
                value(v[key], inner)
                sep = ","
            write(newline + "}")
        elif isinstance(v, (list, tuple, Iterator)):
            inner, sep = newline + "  ", "["
            for item in v:
                write(sep + inner)
                value(item, inner)
                sep = ","
                if len(chunks) >= JSON_PIECE:
                    out_write("".join(chunks))
                    chunks.clear()
            write("[]" if sep == "[" else newline + "]")
        else:
            raise TypeError("Object of type %s is not JSON serializable"
                            % type(v).__name__)

    value(doc, "\n")
    out_write("".join(chunks))


def _corpus(args):
    """(number, tree) for each sentence of args.input, parsed as it is read.

    Errors rank as when the file was decoded, parsed and rid of punctuation
    whole, in turn: after a parse error the rest is still decoded, and the
    first --drop-punct error, or else an empty corpus, is raised at the end.
    """
    from .conllu import drop_punctuation, iter_conllu, read_lines
    from .errors import DeplenError, EmptyCorpusError

    lines, drop_error, i = read_lines(args.input), None, 0
    try:
        for i, tree in enumerate(iter_conllu(lines), start=1):
            if args.drop_punct and not drop_error:
                try:
                    tree = _in_sentence(i, drop_punctuation, tree)
                except DeplenError as e:
                    drop_error = e
            if not drop_error:
                yield i, tree
    except DeplenError:  # a parse error
        for _ in lines:
            pass
        raise
    if drop_error or not i:
        raise drop_error or EmptyCorpusError("no sentences in %s" % args.input)


def _in_sentence(i, fn, tree, *more):
    """fn(tree, *more); a DeplenError names sentence i: its number and any sent_id."""
    from .errors import DeplenError

    try:
        return fn(tree, *more)
    except DeplenError as e:
        sent_id = "" if tree.sent_id is None else " (sent_id %s)" % tree.sent_id
        raise type(e)("sentence %d%s: %s" % (i, sent_id, e)) from e


def _cost_fn(args):
    from .costs import cost_function_from_spec

    return cost_function_from_spec(
        args.g, allow_nonmonotone=args.allow_nonmonotone_g
    )


def _histogram_table(histogram) -> str:
    if not histogram:
        return ""
    rows = [
        [str(d), str(c), _render(c, histogram.total_edges)]
        for d, c in sorted(histogram.counts.items())
    ]
    return "\ndistance histogram (words)\n" + _table(rows, ["d", "count", "p"]) + "\n"


def cmd_analyze(args, out) -> int:
    from .errors import DeplenError
    from .metrics import CostReport, LengthHistogram, cost_D
    from .tree import Unit

    # Each sentence is measured as it is parsed, and a few integers of it
    # kept.  A cost spec or measuring error ranks below every corpus error.
    unit, error = Unit(args.unit), None
    try:
        g = _cost_fn(args)
    except (DeplenError, ValueError, OSError) as e:
        error = e
    keep_counts = unit is Unit.WORDS and args.format == "json"  # per-sentence histograms
    measured = []  # per sentence: n, half_sum, D_numerator, and half_counts if kept
    halves = {}  # edges by half-unit length, over the corpus, in words
    for i, tree in _corpus(args):
        if error:
            continue
        try:
            r = _in_sentence(i, cost_D, tree, None, g, unit)
        except DeplenError as e:
            error = e
            continue
        measured.append((r.n, r.half_sum, r.D_numerator, r.half_counts if keep_counts else None))
        if unit is Unit.WORDS:
            for h, c in r.half_counts.items():
                halves[h] = halves.get(h, 0) + c
    if error:
        raise error
    histogram = None
    if halves:
        counts = {h // 2: c for h, c in halves.items()}
        histogram = LengthHistogram(counts, sum(counts.values()))
    scale = g.half_table.scale
    head = "analyze: %d sentence(s), unit=%s, g=%s\n" % (
        len(measured), unit.value, g.spec()
    )
    _emit(
        args,
        out,
        payload=lambda: {
            "unit": unit.value,
            "g": g.spec(),
            "sentences": (
                dict(CostReport(n, unit, counts, s, d, scale).to_json_dict(), sentence=i)
                for i, (n, s, d, counts) in enumerate(measured, start=1)
            ),
            "histogram": histogram.to_json_dict() if histogram else None,
        },
        header=["sentence", "n", "sum_lengths", "D"],
        rows=lambda: [
            [str(i), str(n), _render(s, 2), _render(d, scale)]
            for i, (n, s, d, _) in enumerate(measured, start=1)
        ],
        as_table=lambda body: head + body + _histogram_table(histogram),
        as_csv=lambda body: body + ("\n" + histogram.to_csv() if histogram else ""),
    )
    return 0


def cmd_optimize(args, out) -> int:
    from .metrics import frac_dec, frac_str
    from .optimize import _plan_one, check_max_n
    from .tree import Unit

    check_max_n(args.max_n)
    corpus = list(_corpus(args))
    unit = Unit(args.unit)
    g = _cost_fn(args)
    searches = [  # every size limit, before any search
        _in_sentence(i, _plan_one, t, unit, g, args.max_n, args.exact) for i, t in corpus
    ]
    results = [_in_sentence(i, lambda _: s(), t) for (i, t), s in zip(corpus, searches)]
    head = "optimize: %d sentence(s), unit=%s, g=%s, max_n=%d\n" % (
        len(results), unit.value, g.spec(), args.max_n
    )
    _emit(
        args,
        out,
        payload=lambda: {
            "unit": unit.value,
            "g": g.spec(),
            "max_n": args.max_n,
            "sentences": [
                dict(
                    r,
                    sentence=i,
                    **{k: frac_str(r[k]) for k in RATIONAL_FIELDS},
                    **{k + "_dec": frac_dec(r[k]) for k in RATIONAL_FIELDS},
                )
                for i, r in enumerate(results, start=1)
            ],
        },
        header=["sentence", "n", "observed", "optimal", "gap", "search", "best_order"],
        rows=lambda: [
            [
                str(i),
                str(r["n"]),
                _render(r["observed"]),
                _render(r["optimal"]),
                _render(r["gap"]),
                r["search"],
                " ".join(str(t) for t in r["representative"]),
            ]
            for i, r in enumerate(results, start=1)
        ],
        as_table=lambda body: head + body,
    )
    return 0


def cmd_predict(args, out) -> int:
    from .metrics import frac_str
    from .predictions import run_default_suite

    reports = run_default_suite()
    all_hold = all(r.holds for r in reports)
    tail = "all scenarios: %s\n" % ("pass" if all_hold else "FAIL")
    _emit(
        args,
        out,
        payload=lambda: {
            "all_hold": all_hold,
            "reports": [r.to_json_dict() for r in reports],
        },
        header=["scenario", "result", "min_cost"],
        rows=lambda: [
            [r.name, "pass" if r.holds else "FAIL", frac_str(r.witness.min_cost)]
            for r in reports
        ],
        as_table=lambda body: body + tail,
    )
    return 0 if all_hold else 1


def _parse_values(text):
    return [v.strip() for v in text.split(",") if v.strip()]


def cmd_pair(args, out) -> int:
    from fractions import Fraction

    from .costs import PAIRING_VERIFY_MAX, optimal_pairing, verify_pairing_optimal
    from .metrics import frac_dec, frac_str

    p_values = _parse_values(args.p)
    g_values = _parse_values(args.costs)
    result = optimal_pairing(p_values, g_values)
    verified = (
        verify_pairing_optimal(p_values, g_values)
        if len(p_values) <= PAIRING_VERIFY_MAX
        else None
    )
    assignment = sorted(result.assignment.items())
    tail = "total: %s (%s)\n" % (frac_str(result.total), frac_dec(result.total))
    if verified is not None:
        tail += "verified against all assignments: %s\n" % (
            "yes" if verified else "NO"
        )
    _emit(
        args,
        out,
        payload=lambda: {
            "p": [frac_str(Fraction(v)) for v in p_values],
            "costs": [frac_str(Fraction(v)) for v in g_values],
            "assignment": {str(rank): frac_str(v) for rank, v in assignment},
            "total": frac_str(result.total),
            "total_dec": frac_dec(result.total),
            "verified_optimal": verified,
        },
        header=["rank", "p", "cost"],
        rows=lambda: [
            [str(rank), _render(Fraction(p_values[rank - 1])), _render(v)]
            for rank, v in assignment
        ],
        as_table=lambda body: body + tail,
        as_csv=lambda body: body + "total,,%s\n" % _render(result.total),
    )
    return 0 if verified in (True, None) else 1


def cmd_casestudy(args, out) -> int:
    from .casestudy import compare_fixture
    from .tree import Unit

    unit = Unit(args.unit)
    report = compare_fixture(unit=unit)
    tail = (
        "ranking: %s\n" % " < ".join(report.ranking)
        + "clitic (b) shorter than heavy verb-final (c): %s\n"
        % ("yes" if report.holds else "NO")
        + "svo (a) vs clitic (b): %s\n" % report.svo_vs_clitic
    )
    _emit(
        args,
        out,
        payload=report.to_json_dict,
        header=["fixture", "gloss", "total_%s" % unit.value],
        rows=lambda: [[e.label, e.gloss, _render(e.total)] for e in report.entries],
        as_table=lambda body: body + tail,
    )
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
                choices=UNIT_NAMES,
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
        choices=UNIT_NAMES,
        default="chars",
        help="length unit (default: chars)",
    )
    p.set_defaults(handler=cmd_casestudy)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .errors import DeplenError

    # Exact values are printed whatever their length: the interpreter's cap
    # on int-to-str digits (CPython 3.10.7 and later) is lifted for the run
    # and restored after it, so library callers keep theirs.
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        return args.handler(args, sys.stdout)
    except (DeplenError, ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
