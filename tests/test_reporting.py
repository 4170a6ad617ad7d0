import json

from hypothesis import given, settings, strategies as st

from ramval.cli import main
from ramval.reporting import Report, render_table, to_json


ROWS = [{"i": 1, "ok": True, "value": "1/2"}, {"i": 2, "ok": False, "value": "17/16"}]


def test_render_tsv():
    out = render_table(ROWS, "tsv")
    lines = out.strip().splitlines()
    assert lines[0] == "i\tok\tvalue"
    assert lines[1] == "1\tyes\t1/2"
    assert lines[2] == "2\tno\t17/16"


def test_render_md():
    out = render_table(ROWS, "md", title="demo")
    assert "### demo" in out
    assert "| i | ok | value |" in out
    assert "| 2 | no | 17/16 |" in out


def test_render_text_alignment():
    out = render_table(ROWS, "text")
    header, row1, _ = out.splitlines()
    assert header.index("value") == row1.index("1/2")


def test_render_ragged_rows():
    rows = [{"a": 1}, {"a": 2, "b": 3}]
    out = render_table(rows, "tsv")
    assert out.splitlines()[0] == "a\tb"
    assert out.splitlines()[1] == "1\t"


def test_report_json_schema_and_ok_flag():
    rep = Report({"p": 2, "c": 1, "fmt": "json"})
    rep.add("first", ROWS, ok=True)
    rep.add("second", ROWS, ok=False)
    payload = json.loads(rep.render())
    assert payload["config"]["schema"] == 1
    assert payload["ok"] is False
    assert [s["title"] for s in payload["sections"]] == ["first", "second"]


def test_header_echoes_the_parsed_options(capsys):
    assert main(["tower", "--p", "2", "--levels", "2", "--length", "4",
                 "--format", "json"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert "samples" not in config  # tower samples nothing
    assert list(config) == ["p", "c", "q", "levels", "length", "fmt", "seed", "schema"]
    assert main(["report", "--p", "2", "--levels", "2", "--length", "4",
                 "--samples", "3", "--format", "md"]) == 0
    header = capsys.readouterr().out.splitlines()[2]
    assert header == ('`{"p": 2, "c": 1, "q": null, "levels": 2, "length": 4, "samples": 3, '
                      '"fmt": "md", "seed": 0, "schema": 1}`')


_JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
                | st.fractions(max_denominator=9))
_JSON_KEYS = st.text(max_size=3) | st.integers(-9, 9) | st.booleans() | st.none()
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda kids: (st.lists(kids, max_size=3) | st.lists(kids, max_size=3).map(tuple)
                  | st.dictionaries(_JSON_KEYS, kids, max_size=3)),
    max_leaves=12)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_JSON_TREES)
def test_to_json_matches_indented_json_dumps(obj):
    # the same text as the standard indented encoder: empty and nested
    # containers, tuples as lists, non-string keys, non-ASCII text, NaN and
    # the default=str leaves (a Fraction)
    assert to_json(obj) == json.dumps(obj, indent=2, default=str)

