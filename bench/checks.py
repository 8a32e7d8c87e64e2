"""Output checks of the pipeline benchmark against the generator's ground truth.

The checks read the output files as plain JSON and CSV, without the program's
own readers, so that a defect in a reader cannot hide a wrong output. Each
check returns ``None`` when the output is right, else the reason it is not.
The thresholds are the values the benchmark passes on the command line.
"""

from __future__ import annotations

import csv
import hashlib
import json
from datetime import date, timedelta
from pathlib import Path

INCLUSION_THRESHOLD = 10
DAILY_LIMIT = 2400
MIN_UNLIKES = 5
MIN_COMPONENT = 10
WINDOW_DAYS = 30


def digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every file under a directory, by relative path."""
    return {
        str(path.relative_to(directory)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def _csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class Truth:
    """The parts of ``ground_truth.json`` the checks compare against."""

    def __init__(self, path: Path):
        raw = json.loads(path.read_text(encoding="utf-8"))
        start = date.fromisoformat(raw["start_day"])
        deletions = raw["daily_deletions"]
        farms = raw["farms"]
        self.events = sum(sum(days) for days in deletions.values()) + sum(
            len(farm["spoke_ids"]) * farm["spoke_unlikes"] for farm in farms
        )
        self.daily_records = sum(
            1
            for days in deletions.values()
            for count in days
            if count >= INCLUSION_THRESHOLD
        )
        self.unlike_records = sum(len(farm["spoke_ids"]) for farm in farms)
        self.flood_days = {
            (int(account), (start + timedelta(days=day)).isoformat())
            for account, days in raw["flood_days"].items()
            for day in days
        }
        self.categories = {int(k): v for k, v in raw["categories"].items()}
        self.components = {
            (farm["hub_id"], 1 + len(farm["spoke_ids"]), len(farm["spoke_ids"]))
            for farm in farms
            if farm["spoke_unlikes"] >= MIN_UNLIKES
            and 1 + len(farm["spoke_ids"]) >= MIN_COMPONENT
        }


def _check_generate(out: Path, truth: Truth) -> str | None:
    lines = count_lines(out / "events.ndjson")
    if lines != truth.events:
        return f"events.ndjson has {lines} events, ground truth has {truth.events}"
    return None


def _check_aggregate(out: Path, truth: Truth) -> str | None:
    daily = count_lines(out / "daily_deletions.ndjson")
    if daily != truth.daily_records:
        return f"{daily} daily deletion records, expected {truth.daily_records}"
    unlikes = count_lines(out / "unlikes.ndjson")
    if unlikes != truth.unlike_records:
        return f"{unlikes} unlike records, expected {truth.unlike_records}"
    return None


def _check_estimate(out: Path, truth: Truth) -> str | None:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    if not report["pair_count"]:
        return "no estimate pairs"
    if not report["mean_estimated"] < report["mean_actual"]:
        return (
            f"no underestimation: mean estimated {report['mean_estimated']}"
            f" >= mean actual {report['mean_actual']}"
        )
    return None


def _check_flooding(out: Path, truth: Truth) -> str | None:
    found = {
        (int(row["account_id"]), row["day"])
        for row in _csv_rows(out / "violations.csv")
    }
    if found != truth.flood_days:
        return (
            f"violations differ from flood days: {len(found - truth.flood_days)}"
            f" unexpected, {len(truth.flood_days - found)} missed"
        )
    return None


def _check_stats(out: Path, truth: Truth) -> str | None:
    labels = {
        int(row["account_id"]): row["category"]
        for row in _csv_rows(out / "summaries.csv")
    }
    if labels != truth.categories:
        wrong = {k for k in labels.keys() | truth.categories.keys()
                 if labels.get(k) != truth.categories.get(k)}
        return f"{len(wrong)} account categories differ from ground truth"
    return None


def _check_coordination(out: Path, truth: Truth) -> str | None:
    found = {
        (int(row["component_id"]), int(row["node_count"]), int(row["edge_count"]))
        for row in _csv_rows(out / "components.csv")
    }
    if found != truth.components:
        return (
            f"components differ from planted farms: {len(found - truth.components)}"
            f" unexpected, {len(truth.components - found)} missed"
        )
    return None


CHECKS = {
    "generate": _check_generate,
    "aggregate": _check_aggregate,
    "estimate": _check_estimate,
    "detect-flooding": _check_flooding,
    "stats": _check_stats,
    "detect-coordination": _check_coordination,
}


def check_stage(stage: str, out: Path, truth: Truth) -> str | None:
    """Compare one stage's outputs in ``out`` with the ground truth."""
    try:
        return CHECKS[stage](out, truth)
    except (OSError, ValueError, KeyError, TypeError, csv.Error) as err:
        return f"unreadable output: {err!r}"
