"""Text format for problem instances.

Layout::

    TATINST <n> <d>
    A1
    <n rows of d whitespace-separated decimals>
    ...
    Y2
    <d rows of d decimals>

The eleven blocks appear in the fixed order A1 A2 A3 A4 A5 E X1 X2 X3 Y1 Y2.
Values are serialized with the shortest representation that round-trips a
double, so write(parse(text)) reproduces files this module wrote byte for
byte.  The parser is strict: wrong order, wrong counts, non-finite values
or a non-ASCII byte fail with a line-numbered message.
"""

import math

import numpy as np

from .errors import ValidationError
from .instance import MATRIX_FIELDS, AttnInstance, matrix_shape

HEADER = "TATINST"


def format_instance(inst):
    lines = [f"{HEADER} {inst.n} {inst.d}"]
    for name in MATRIX_FIELDS:
        lines.append(name)
        for row in getattr(inst, name):
            lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _fail(lineno, msg):
    raise ValidationError(f"line {lineno}: {msg}")


def parse_instance(text):
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    pos = 0

    def next_line(what):
        nonlocal pos
        if pos >= len(lines):
            _fail(len(lines) + 1, f"unexpected end of file, expected {what}")
        pos += 1
        return lines[pos - 1], pos

    header, ln = next_line("header")
    parts = header.split()
    if len(parts) != 3 or parts[0] != HEADER:
        _fail(ln, f"expected header '{HEADER} <n> <d>', got {header!r}")
    try:
        n, d = int(parts[1]), int(parts[2])
    except ValueError:
        _fail(ln, f"header dimensions must be integers, got {header!r}")
    if n < 1 or d < 1:
        _fail(ln, f"header dimensions must be positive, got n={n} d={d}")

    blocks = {}
    for name in MATRIX_FIELDS:
        label, ln = next_line(f"block label {name}")
        if label != name:
            _fail(ln, f"expected block {name!r}, got {label!r}")
        rows, cols = matrix_shape(name, n, d)
        block = []  # filled as rows are read: a header larger than the file allocates nothing
        for r in range(rows):
            line, ln = next_line(f"row {r + 1} of {name}")
            vals = line.split()
            if len(vals) != cols:
                _fail(ln, f"{name} row {r + 1}: expected {cols} values, got {len(vals)}")
            for tok in vals:
                try:
                    v = float(tok)
                except ValueError:
                    _fail(ln, f"{name} row {r + 1}: bad number {tok!r}")
                if not math.isfinite(v):
                    _fail(ln, f"{name} row {r + 1}: non-finite value {tok!r}")
                block.append(v)
        blocks[name] = np.array(block).reshape(rows, cols)
        blocks[name].flags.writeable = False  # fresh: the instance keeps it uncopied
    if pos != len(lines):
        _fail(pos + 1, f"trailing content after the {MATRIX_FIELDS[-1]} block")
    return AttnInstance(n=n, d=d, **blocks)


def read_instance(path):
    with open(path, "rb") as fh:
        # newlines as text mode reads them, so a decode error's line is the parser's
        data = fh.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as e:
        _fail(data.count(b"\n", 0, e.start) + 1, f"non-ASCII byte {data[e.start]:#04x}")
    return parse_instance(text)
