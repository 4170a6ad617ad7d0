"""Delimited / JSON / Markdown rendering of report tables.

Reports are pure functions of the run configuration; the options a command
parsed, seed included, are embedded in every header so runs are reproducible.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

SCHEMA_VERSION = 1


def _cell(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def to_json(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2, default=str)``, written by hand for lists,
    tuples and dicts.  An exact ``int`` leaf is its ``int.__repr__`` and a
    ``str`` leaf its ``encode_basestring_ascii``, which is what
    ``json.dumps`` writes for them; any other leaf takes
    ``json.dumps(leaf, default=str)``.  An indented ``json.dumps`` takes the
    pure-Python encoder, whose nested closures refer to themselves and so
    outlive every call until a cyclic collection; the unindented leaf calls
    take the C encoder, which builds none."""
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        items = [inner + to_json(v, inner) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"
    if isinstance(obj, dict):
        items = [f"{inner}{_json_key(k)}: {to_json(v, inner)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}" if items else "{}"
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    return json.dumps(obj, default=str)


def _json_key(k) -> str:
    """A dict key as ``json.dumps`` writes it: a string, or the JSON text of
    a number, bool or None in quotes."""
    return encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k))


def render_table(rows: list[dict], fmt: str, title: str = "") -> str:
    if not rows:
        return f"{title}: (empty)\n" if fmt == "text" else ""
    cols = list(rows[0].keys())
    for r in rows[1:]:
        for k in r:
            if k not in cols:
                cols.append(k)
    if fmt == "tsv":
        lines = ["\t".join(cols)]
        lines += ["\t".join(_cell(r.get(c, "")) for c in cols) for r in rows]
        return "\n".join(lines) + "\n"
    if fmt == "md":
        lines = []
        if title:
            lines.append(f"### {title}")
            lines.append("")
        lines.append("| " + " | ".join(cols) + " |")
        lines.append("|" + "|".join("---" for _ in cols) + "|")
        lines += ["| " + " | ".join(_cell(r.get(c, "")) for c in cols) + " |" for r in rows]
        return "\n".join(lines) + "\n"
    # text
    widths = [max(len(c), *(len(_cell(r.get(c, ""))) for r in rows)) for c in cols]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
    for r in rows:
        lines.append("  ".join(_cell(r.get(c, "")).ljust(w) for c, w in zip(cols, widths)))
    return "\n".join(lines) + "\n"


class Report:
    __slots__ = ("config", "sections", "ok")

    def __init__(self, config: dict):
        self.config = config  # the parsed options, header order; "fmt" is the output format
        self.sections = []  # (title, rows) pairs
        self.ok = True

    def add(self, title: str, rows: list[dict], ok: bool = True):
        self.sections.append((title, rows))
        self.ok = self.ok and ok

    def render(self) -> str:
        fmt = self.config["fmt"]
        head = {**self.config, "schema": SCHEMA_VERSION}
        if fmt == "json":
            payload = {
                "config": head,
                "ok": self.ok,
                "sections": [
                    {"title": title, "rows": rows} for title, rows in self.sections
                ],
            }
            return to_json(payload) + "\n"
        parts = []
        if fmt == "md":
            parts.append("## ramval report")
            parts.append("")
            parts.append("`" + json.dumps(head, default=str) + "`")
            parts.append("")
        else:
            parts.append("# config: " + json.dumps(head, default=str))
        for title, rows in self.sections:
            parts.append(render_table(rows, fmt, title))
        parts.append(("verified: yes" if self.ok else "verified: NO") + "\n")
        return "\n".join(parts)
