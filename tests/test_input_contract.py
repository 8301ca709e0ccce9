"""Any text, and any near-miss of the spec grammar, gives a report or a typed error.

``parse_spec`` either returns a tree or raises a ``RinglabError``, and
``ringlab analyze`` exits 0 with a JSON report or 1, 2 or 3 with one JSON
error line carrying its ``kind``; it never ends in a traceback.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ringlab.cli import main
from ringlab.errors import RinglabError
from ringlab.specparse import parse_spec

# pieces of the grammar, including ones that do not fit where they land,
# numbers far out of range and unbalanced brackets
PIECES = [
    "Z", "Z0", "Z1", "Z2", "Z4", "Z6", "Z8", "Z9", "Z64", "Z65", "Z99999", "Z" + "9" * 5000,
    " x ", "x", "[t]/(", "[t]/", "t", "t^", "t^2", "t^0", "t^17", "t^99999999999", "3t", "+", "*",
    "1", "2", "0", "99999999999", "(", ")", "[", "]", ",", " ",
    "quot(", "idealize(", "mquot(", "free(", "free(0)", "free(99999999999)", "self", ",self)",
    ",[", "[1]", "[0]", "[2,3]", "block(", "٣", "²", "\x00", "é",
]

near_misses = st.lists(st.sampled_from(PIECES), min_size=1, max_size=24).map("".join)
specs = st.one_of(st.text(max_size=40), near_misses)

CONTRACT = settings(max_examples=150, deadline=2000, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@CONTRACT
@given(specs)
def test_parse_spec_returns_a_tree_or_raises_typed(text):
    try:
        parse_spec(text)
    except RinglabError:
        pass


@CONTRACT
@given(specs)
def test_analyze_gives_a_report_or_a_typed_error(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", text, "--max-ring-size", "64"])
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert set(json.loads(out.getvalue())) == {"report", "meta"}
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["kind"], err.getvalue()


@pytest.mark.parametrize("text,code,kind", [
    ("quot(" * 400 + "Z2", 1, "ParseError"),                  # nesting past the recursion limit
    ("Z2 x " * 400 + "Z2", 1, "ParseError"),
    ("idealize(Z2," + "mquot(" * 400, 1, "ParseError"),
    ("Z" + "9" * 5000, 1, "ParseError"),                      # more digits than int() converts
    ("Z2[t]/(t^99999999999+1)", 3, "CapacityExceeded"),      # no coefficient tuple of that length
    ("idealize(Z2,free(99999999999))", 3, "CapacityExceeded"),  # no power of that size
])
def test_extreme_specs_are_typed_errors(capsys, text, code, kind):
    assert main(["analyze", text]) == code
    assert json.loads(capsys.readouterr().err)["kind"] == kind
