"""Machine-readable result output (CSV rows, JSON with fit and provenance)."""

from __future__ import annotations

import csv
import dataclasses
import json
import os

from .harness import ScalingResult

# the frozen CSV schema: each column, in order, with the type it holds; an
# empty gm_bound cell (no bound outside QST) is the only cell read as None
CSV_COLUMNS = dict(
    task=str, method=str, target=str, alpha=float, N=int, repetitions=int,
    mean_infidelity=float, std_infidelity=float, mean_infidelity_dp=float,
    mean_mse=float, mean_tail_eigensum=float, gm_bound=float, excluded_trials=int,
)
CSV_HEADER = ",".join(CSV_COLUMNS)


def _cell(value, kind) -> str:
    if value is None:
        return ""
    # by the column's type: 17 significant digits round-trip any float64
    return format(float(value), ".17g") if kind is float else str(value)


def _csv_rows(result: ScalingResult):
    for row in result.rows:
        values = {**vars(result.config), **vars(row), "N": row.n}
        yield [_cell(values[name], kind) for name, kind in CSV_COLUMNS.items()]


def write_csv(result: ScalingResult, out):
    """Write ``result`` as CSV to the path or open text stream ``out``."""
    if isinstance(out, (str, os.PathLike)):
        with open(out, "w", newline="", encoding="utf-8") as fh:
            write_csv(result, fh)
        return out
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(_csv_rows(result))
    return out


def result_to_dict(result: ScalingResult) -> dict:
    rows = [dataclasses.asdict(row) for row in result.rows]
    for row in rows:
        row["N"] = row.pop("n")
    data = {
        "rows": rows,
        "slope": result.slope,
        "intercept": result.intercept,
        "r2": result.r2,
        "config": result.config.to_dict(),
        "seed": result.config.seed,
        "version": result.version,
    }
    data.update(result.series)
    return data


def write_json(result: ScalingResult, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result_to_dict(result), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def emit_results(result: ScalingResult, path: str, fmt: str = "csv") -> list:
    """Write a result as CSV, JSON, or both; returns the written paths.

    With ``fmt='both'`` the extensions ``.csv`` and ``.json`` are attached to
    (or substituted into) ``path``.
    """
    if fmt not in ("csv", "json", "both"):
        raise ValueError("format must be csv, json or both")
    written = []
    if fmt in ("csv", "both"):
        target = path if fmt == "csv" else _with_ext(path, ".csv")
        written.append(write_csv(result, target))
    if fmt in ("json", "both"):
        target = path if fmt == "json" else _with_ext(path, ".json")
        written.append(write_json(result, target))
    return written


def _with_ext(path: str, ext: str) -> str:
    root, old = os.path.splitext(path)
    return (root if old in (".csv", ".json") else path) + ext


def read_result_csv(path: str) -> list:
    """Read rows written by :func:`write_csv` back into typed dicts.

    A row with more or fewer cells than the header, or a cell that its
    column's type cannot read, raises ``ValueError`` naming the line (and
    the column).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader, rows = csv.reader(fh), []
        if next(reader, None) != list(CSV_COLUMNS):
            raise ValueError(f"unexpected CSV header in {path}")
        for cells in filter(None, reader):  # blank lines are skipped
            where = f"line {reader.line_num} of {path}"
            if len(cells) != len(CSV_COLUMNS):
                raise ValueError(f"{where} has {len(cells)} cells, not {len(CSV_COLUMNS)}")
            row = {}
            for (name, kind), cell in zip(CSV_COLUMNS.items(), cells):
                try:
                    row[name] = None if name == "gm_bound" and not cell else kind(cell)
                except ValueError:
                    msg = f"column {name} cannot read {cell!r} as {kind.__name__}"
                    raise ValueError(f"{where}: {msg}") from None
            rows.append(row)
        return rows
