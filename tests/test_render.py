"""Output rendering: the JSON writer against json.dumps, and the integer-pair
renderers against the Fraction-based ones they replaced."""

import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from deplen.cli import _json_text, _render
from deplen.metrics import frac_dec, frac_str


def fraction_str(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def fraction_dec(value):  # raises OverflowError past the double range
    value = Fraction(value)
    return repr(value.numerator / value.denominator)


def fraction_render(value):
    value = Fraction(value)
    den = value.denominator
    while den % 2 == 0:
        den //= 2
    while den % 5 == 0:
        den //= 5
    if den == 1:
        return fraction_dec(value) if value.denominator > 1 else str(value.numerator)
    return fraction_str(value)


json_docs = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(),
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner),
    max_leaves=25,
)


@settings(max_examples=120, deadline=None)
@given(json_docs)
@example({"": [], "a": {}, "b": [{}, [], ()], "é\x00\"\\\n ": -0.0})
@example([float("nan"), float("inf"), -float("inf"), 1e300, 5e-324, True, False, None])
@example({"sentences": [{"D": "4", "n": 4, "histogram": {"counts": {"1": 2}}}]})
def test_the_json_writer_is_json_dumps_indented_and_sorted(doc):
    assert json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


def json_text(doc):
    pieces = []
    _json_text(doc, pieces.append)
    return "".join(pieces)


def test_an_iterator_is_written_as_a_list_a_few_items_at_a_time(monkeypatch):
    import deplen.cli as cli_mod

    monkeypatch.setattr(cli_mod, "JSON_PIECE", 8)
    rows = [{"n": i, "h": {"1": i}} for i in range(100)]
    pieces = []
    _json_text({"rows": iter(rows), "none": iter([])}, pieces.append)
    assert "".join(pieces) == json.dumps({"rows": rows, "none": []}, sort_keys=True, indent=2)
    assert len(pieces) > 20 and max(map(len, pieces)) < 200


numerators = (
    st.integers(-(10**40), 10**40)
    | st.integers(-(2**20), 2**20).map(lambda k: k * 2**53)
    | st.integers(-(2**1100), 2**1100)
)
denominators = (
    st.integers(1, 10**12)
    | st.integers(1, 2**20).map(lambda k: k * 2**53)
    | st.builds(
        lambda a, b, c: 2**a * 5**b * c,
        st.integers(0, 80),
        st.integers(0, 30),
        st.sampled_from([1, 1, 1, 3, 7, 10]),
    )
)


@settings(max_examples=500, deadline=None)
@given(numerators, denominators)
@example(2**1024 - 2**970 - 1, 1)  # the largest value below the double range
@example(2**1024 - 2**970, 1)  # rounds to an infinity
@example(-(2**1100) * 5, 2**20 * 5**3)
@example(1 + 2**60, 2**60)
def test_integer_pairs_render_as_their_fraction(p, q):
    value = Fraction(p, q)
    assert frac_str(p, q) == frac_str(value) == fraction_str(value)
    try:
        decimal = fraction_dec(value)
    except OverflowError:  # past the double range: the nearest double
        assert frac_dec(p, q) == frac_dec(value) == ("inf" if p > 0 else "-inf")
        assert _render(p, q) == fraction_str(value)
    else:
        assert frac_dec(p, q) == frac_dec(value) == decimal
        assert _render(p, q) == _render(value) == fraction_render(value)
