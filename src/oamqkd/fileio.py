"""Text-file plumbing: key=value configs, CSV emission, atomic writes.

Every output file is written to a temporary sibling and renamed into place,
so readers never observe a partially written artifact.  Floats are rendered
with 10 significant digits.
"""

from __future__ import annotations

import csv
import io
import os
import tempfile
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError

FLOAT_FORMAT = "{:.10g}"
#: Round-trip exact float rendering, for analysis outputs consumed numerically.
FULL_FLOAT_FORMAT = "{:.17g}"


def format_value(value, float_format: str = FLOAT_FORMAT) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return float_format.format(float(value))
    return str(value)


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + rename in the same directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def write_csv(
    path, header: Sequence[str], rows: Iterable[Sequence], float_format: str = FLOAT_FORMAT
) -> None:
    """Emit a CSV file with a mandatory header row, atomically."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_value(v, float_format) for v in row])
    atomic_write_text(path, buffer.getvalue())


def write_key_values(path, items: Mapping[str, object]) -> None:
    """Emit ``key=value`` lines in the mapping's order, atomically."""
    lines = [f"{key}={format_value(value)}" for key, value in items.items()]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_key_values(path) -> dict[str, str]:
    """Parse a ``key=value`` file; '#' starts a comment, blank lines are skipped."""
    result: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            result[key.strip()] = value.strip()
    return result

