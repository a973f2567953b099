"""CSV/JSON export and the run manifest.

CSV bodies are deterministic (12 significant digits, no timestamps); wall
clock and provenance live in the JSON manifest sidecar.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from .params import ModelParams, SimConfig

__all__ = [
    "SCHEMA_VERSION",
    "fmt",
    "write_csv",
    "write_json",
    "read_xy_csv",
    "RunManifest",
]

SCHEMA_VERSION = 1


def fmt(value) -> str:
    """One CSV cell: floats at 12 significant digits, '.' separator, booleans 1/0."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(path, header, columns) -> None:
    """Write a headered CSV from one sequence per column, in ``header`` order.

    The bytes are those of :func:`fmt` on each cell.  A column of ``str``
    cells only is written as it is, so a caller can format a repeated value
    once.  Rows are streamed, 256 to a write.  Raises ``ValueError`` unless
    the columns match the header and share one length.
    """
    if len(columns) != len(header) or len(set(map(len, columns))) > 1:
        raise ValueError(f"need {len(header)} columns of one length, got {list(map(len, columns))}")
    cells = [col if set(map(type, col)) == {str} else map(fmt, col) for col in columns]
    lines = map(",".join, zip(*cells))
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while block := list(itertools.islice(lines, 256)):  # ~3x faster than a write per row
            fh.write("\n".join(block) + "\n")


def write_json(path, payload: dict) -> None:
    body = {"schema_version": SCHEMA_VERSION}
    body.update(payload)
    Path(path).write_text(json.dumps(body, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_xy_csv(path, xcol: str, ycol: str):
    """Read two named columns from a headered CSV into float lists.

    Raises ``ValueError`` naming the line of a row that lacks either column
    or holds a cell that is not a finite number.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in lines[0].split(",")]
    try:
        xi, yi = header.index(xcol), header.index(ycol)
    except ValueError as exc:
        raise ValueError(f"{path}: need columns {xcol!r} and {ycol!r}, have {header}") from exc
    xs, ys = [], []
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        cells = line.split(",")
        try:
            x, y = float(cells[xi]), float(cells[yi])
        except (IndexError, ValueError):
            x = y = math.nan
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"{path}:{lineno}: need finite {xcol!r} and {ycol!r}, got {line!r}")
        xs.append(x)
        ys.append(y)
    return xs, ys


@dataclasses.dataclass
class RunManifest:
    """Provenance record written next to every output file."""

    subcommand: str
    params: ModelParams
    cfg: SimConfig
    outputs: list
    tool_version: str
    duration_s: float
    argv: list

    def write(self, path) -> None:
        payload = {
            "subcommand": self.subcommand,
            "params": dataclasses.asdict(self.params),
            "config": dataclasses.asdict(self.cfg),
            "outputs": [str(p) for p in self.outputs],
            "tool_version": self.tool_version,
            "duration_s": self.duration_s,
            "argv": self.argv,
            "written_at_unix": time.time(),
        }
        write_json(path, payload)
