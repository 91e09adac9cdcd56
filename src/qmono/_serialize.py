"""Deterministic text rendering for reports and tables.

Floats always print with 17 significant digits (lossless decimal round-trip
for doubles), keys keep insertion order, and there is no environment- or
time-dependent content, so identical inputs render byte-identically.

One rule for missing and non-finite values covers both formats: `None` is
the only empty value (`null` in JSON, an empty CSV cell), and a non-finite
float raises `ValueError`.

One rule for report rows covers both formats too: a report states each row
once, as the tuple its CSV line holds, and its JSON row is that tuple keyed
by the CSV header (`keyed`).
"""

from __future__ import annotations

import math

__all__ = ["format17", "format_cell", "keyed", "render_csv", "render_json"]


def format17(v: float) -> str:
    """17-significant-digit decimal rendering of a finite float."""
    if not math.isfinite(v):
        raise ValueError(f"refusing to serialize non-finite value {v!r}")
    return "%.17g" % (v,)


def _quoted(s: str) -> str:
    escaped = s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def _render(obj, out: list[str]) -> None:
    # exact float, str, dict and list first: the cells and containers of a
    # report tree.  Every other object, a subclass of those four included,
    # goes down the isinstance chain.
    cls = type(obj)
    if cls is float:
        out.append(format17(obj))
    elif cls is str:
        out.append(_quoted(obj))
    elif cls is dict:
        _render_dict(obj, out)
    elif cls is list:
        _render_list(obj, out)
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format17(obj))
    elif isinstance(obj, str):
        out.append(_quoted(obj))
    elif isinstance(obj, dict):
        _render_dict(obj, out)
    elif isinstance(obj, (list, tuple)) and not hasattr(obj, "_fields"):
        _render_list(obj, out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _render_dict(obj: dict, out: list[str]) -> None:
    out.append("{")
    for i, (k, v) in enumerate(obj.items()):
        if i:
            out.append(", ")
        out.append(_quoted(str(k)))
        out.append(": ")
        _render(v, out)
    out.append("}")


def _render_list(obj, out: list[str]) -> None:
    out.append("[")
    for i, v in enumerate(obj):
        if i:
            out.append(", ")
        _render(v, out)
    out.append("]")


def render_json(obj) -> str:
    """Render a tree of dict/list/tuple/str/int/float/bool/None as JSON text
    with floats at 17 significant digits.  A record (a tuple with `_fields`)
    raises TypeError like any other type: trees hold keyed rows."""
    out: list[str] = []
    _render(obj, out)
    out.append("\n")
    return "".join(out)


def format_cell(v) -> str:
    """One CSV cell: floats at 17 significant digits, `None` empty, booleans
    as `true`/`false`, anything else as `str`."""
    if isinstance(v, float):
        return format17(v)
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def keyed(keys, rows) -> list[dict]:
    """JSON rows of CSV rows: each row as a dict of `keys` to its cells, in
    key order."""
    return [dict(zip(keys, row)) for row in rows]


def render_csv(header, rows) -> str:
    """Comma-separated text with LF line endings: the header line, then one
    line per row."""
    lines = [",".join(header)]
    lines.extend(",".join(map(format_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"
