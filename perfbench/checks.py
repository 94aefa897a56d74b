"""Correctness check of one CLI call's CSV output.

A data row is invalid if it has the wrong number of fields, a value column
that is not a finite number, or an accuracy outside [0, 1].  Missing and
surplus rows count against the expected total, so ``failed / expected`` is
the call's error rate.
"""

import csv
import hashlib
import io
import math
from dataclasses import dataclass

from .workloads import RIEMANN_ACCURATE_BELOW, VALUE_COLUMNS


@dataclass(frozen=True)
class CsvCheck:
    expected: int
    found: int  # data rows present
    failed: int  # expected rows that are missing or invalid, at most ``expected``
    mean_accuracy: float  # over valid rows; a riemann row counts 1 when accurate
    sha256: str | None  # of the file's bytes; None when there is no file
    problem: str | None  # first problem seen, for the report


def all_failed(expected: int, problem: str, sha256: str | None = None) -> CsvCheck:
    return CsvCheck(expected, 0, expected, 0.0, sha256, problem)


def _row_accuracy(command: str, values: dict) -> float | None:
    """The row's accuracy, or None when the row is invalid."""
    if any(not math.isfinite(v) for v in values.values()):
        return None
    if command == "riemann":
        return 1.0 if values["rel_error"] < RIEMANN_ACCURATE_BELOW else 0.0
    accuracy = values["accuracy"]
    return accuracy if 0.0 <= accuracy <= 1.0 else None


def check_csv(path, command: str, expected: int) -> CsvCheck:
    """Validate the CSV a ``command`` call wrote to ``path``."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return all_failed(expected, "no CSV written")
    sha = hashlib.sha256(data).hexdigest()
    lines = data.decode("utf-8", errors="replace").splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        return all_failed(expected, "CSV lacks the config comment and header", sha)
    reader = csv.reader(io.StringIO("\n".join(lines[1:])))
    header = next(reader)
    columns = VALUE_COLUMNS[command]
    missing_columns = [c for c in columns if c not in header]
    if missing_columns:
        return all_failed(expected, f"CSV lacks columns {missing_columns}", sha)
    positions = {c: header.index(c) for c in columns}

    found = 0
    invalid = 0
    accuracy_sum = 0.0
    problem = None
    for row in reader:
        found += 1
        accuracy = None
        if len(row) == len(header):
            try:
                values = {c: float(row[i]) for c, i in positions.items()}
            except ValueError:
                values = None
            if values is not None:
                accuracy = _row_accuracy(command, values)
        if accuracy is None:
            invalid += 1
            problem = problem or f"invalid row {found}: {row}"
        else:
            accuracy_sum += accuracy
    if found != expected:
        problem = problem or f"{found} rows, expected {expected}"
    failed = min(expected, invalid + abs(expected - found))
    valid = found - invalid
    mean_accuracy = accuracy_sum / valid if valid else 0.0
    return CsvCheck(expected, found, failed, mean_accuracy, sha, problem)
