"""Machine-readable result output (CSV rows, JSON with fit and provenance)."""

from __future__ import annotations

import csv
import json
import os

from .harness import ScalingResult

CSV_HEADER = (
    "task,method,target,alpha,N,repetitions,mean_infidelity,std_infidelity,"
    "mean_infidelity_dp,mean_mse,mean_tail_eigensum,gm_bound,excluded_trials"
)
CSV_FIELDS = CSV_HEADER.split(",")


def _fmt(x: float) -> str:
    # 17 significant digits round-trips any float64 exactly
    return format(float(x), ".17g")


def _csv_rows(result: ScalingResult):
    cfg = result.config
    for row in result.rows:
        yield [
            cfg.task,
            cfg.method,
            cfg.target,
            _fmt(cfg.alpha),
            str(row.n),
            str(cfg.repetitions),
            _fmt(row.mean_infidelity),
            _fmt(row.std_infidelity),
            _fmt(row.mean_infidelity_dp),
            _fmt(row.mean_mse),
            _fmt(row.mean_tail_eigensum),
            "" if row.gm_bound is None else _fmt(row.gm_bound),
            str(row.excluded_trials),
        ]


def write_csv(result: ScalingResult, path: str) -> str:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        writer.writerows(_csv_rows(result))
    return path


def result_to_dict(result: ScalingResult) -> dict:
    rows = []
    for row in result.rows:
        rows.append(
            {
                "N": row.n,
                "mean_infidelity": row.mean_infidelity,
                "std_infidelity": row.std_infidelity,
                "mean_infidelity_dp": row.mean_infidelity_dp,
                "mean_mse": row.mean_mse,
                "mean_tail_eigensum": row.mean_tail_eigensum,
                "gm_bound": row.gm_bound,
                "excluded_trials": row.excluded_trials,
            }
        )
    data = {
        "rows": rows,
        "slope": result.slope,
        "intercept": result.intercept,
        "r2": result.r2,
        "config": result.config.to_dict(),
        "seed": result.config.seed,
        "version": result.version,
    }
    if result.sigma_out_mean is not None:
        data["sigma_out_mean_infidelity"] = result.sigma_out_mean
        data["sigma_out_std_infidelity"] = result.sigma_out_std
    if result.element_infidelities is not None:
        data["element_mean_infidelity"] = result.element_infidelities
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
    """Read rows written by :func:`write_csv` back into typed dicts."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_FIELDS:
            raise ValueError(f"unexpected CSV header in {path}")
        rows = []
        for rec in reader:
            rows.append(
                {
                    "task": rec["task"],
                    "method": rec["method"],
                    "target": rec["target"],
                    "alpha": float(rec["alpha"]),
                    "N": int(rec["N"]),
                    "repetitions": int(rec["repetitions"]),
                    "mean_infidelity": float(rec["mean_infidelity"]),
                    "std_infidelity": float(rec["std_infidelity"]),
                    "mean_infidelity_dp": float(rec["mean_infidelity_dp"]),
                    "mean_mse": float(rec["mean_mse"]),
                    "mean_tail_eigensum": float(rec["mean_tail_eigensum"]),
                    "gm_bound": float(rec["gm_bound"]) if rec["gm_bound"] else None,
                    "excluded_trials": int(rec["excluded_trials"]),
                }
            )
    return rows


def read_result_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
