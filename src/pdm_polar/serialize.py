"""Deterministic text output: JSON with insertion-ordered keys, and CSV.

Both formats print floats through :func:`format_float`, at 17 significant
digits, so identical inputs produce byte-identical text.
"""

from __future__ import annotations

import json
import math

from .errors import DomainError


def format_float(x: float) -> str:
    """A finite float at 17 significant digits; DomainError for nan and inf.

    Neither JSON nor a numeric CSV column can carry a non-finite value, so a
    result that overflowed or lost its meaning is refused rather than printed.
    """
    if not math.isfinite(x):
        raise DomainError(f"refusing to print non-finite value {x!r}")
    return format(x, ".17g")


def dump_json(obj, indent: int = 0) -> str:
    """Serialize with insertion-ordered keys and 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        text = format_float(float(obj))
        # keep the token a valid JSON number
        if "." not in text and "e" not in text and "E" not in text:
            text += ".0"
        return text
    if isinstance(obj, (list, tuple)):
        items = [dump_json(item, indent + 1) for item in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(inner + item for item in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f'{inner}"{key}": {dump_json(value, indent + 1)}' for key, value in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def to_csv(header, rows) -> str:
    """A header line, then one line per row of cells; None is an empty cell."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for value in row:
            if value is None:
                cells.append("")
            elif isinstance(value, float):
                cells.append(format_float(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
