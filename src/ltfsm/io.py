"""Delimited output, flat config files and run manifests.

CSV files carry a header line, comma separators, ``\\n`` line endings and no
quoting; every float is printed with ``%.17g`` so re-parsing reproduces the
binary value exactly.  Config files and manifests are flat ``key = value``
text; a manifest is itself a valid config file, which is how a run is
reproduced (``--config <manifest>``).  A ``#`` starts a comment only at the
start of a line or after whitespace, so a value such as ``x#y.csv`` survives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "format_value",
    "config_value_problem",
    "write_csv",
    "read_config",
    "RunManifest",
    "manifest_path",
]


def format_value(value) -> str:
    """Round-trip text for one cell (17 significant digits for floats)."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length columns under ``header`` (numeric cells only)."""
    if len(header) != len(columns):
        raise ValueError("header and columns must have equal length")
    n = len(columns[0])
    for col in columns:
        if len(col) != n:
            raise ValueError("columns must have equal length")
    lines = [",".join(header)]
    for i in range(n):
        lines.append(",".join(format_value(col[i]) for col in columns))
    _write_lines(path, lines)


def _write_lines(path: str, lines: list[str]) -> None:
    """Write ``lines`` to ``path``, each ended by ``\\n``: the bytes of every
    CSV, manifest and report file."""
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


_COMMENT = re.compile(r"(?:^|\s)#")


def config_value_problem(value: str) -> str | None:
    """Why ``value`` would not read back unchanged from a config file, or None."""
    if "\n" in value or "\r" in value:
        return "contains a line break"
    if value != value.strip():
        return "starts or ends with whitespace"
    if _COMMENT.search(" " + value):  # after "key = "
        return "holds a '#' at its start or after whitespace"
    return None


def read_config(path: str) -> dict[str, str]:
    """Parse a flat ``key = value`` file (``#`` comments, blank lines ok)."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _COMMENT.split(raw, 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            key = key.strip()
            if not key:
                raise ValueError(f"{path}:{lineno}: empty key")
            out[key] = value.strip()
    return out


def manifest_path(output_path: str) -> str:
    """Manifest file written alongside ``output_path``."""
    return output_path + ".manifest"


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one CLI run byte-for-byte."""

    command: str
    version: str
    config: dict
    outputs: tuple[str, ...]

    def write(self, path: str) -> None:
        lines = [
            f"command = {self.command}",
            f"version = {self.version}",
        ]
        for key in sorted(self.config):
            lines.append(f"{key} = {format_value(self.config[key])}")
        for out in self.outputs:
            lines.append(f"output = {out}")
        _write_lines(path, lines)
