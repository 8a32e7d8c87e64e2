"""The package namespace: one table of public names, each module loaded on
first use."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import delstream

#: The public names, written out: the table must keep every one.
PUBLIC_NAMES = [
    "AccountBehaviorSummary", "AccountSnapshot", "AccountStatus", "AccountTimeline",
    "BehaviorProfile", "Category", "Cohort", "ComparisonReport", "ComplianceNotice",
    "CoordinationGraph", "CoordinationNode", "DailyDeletionRecord", "DeletionDay",
    "DeletionEstimate", "DuplicateSnapshotError", "FloodingViolation",
    "FrequencyBucket", "GroundTruth", "KsResult", "NoticeKind", "PairedDeletion",
    "PlantedFarm", "PopulationSpec", "ProfileKind", "RecordParseError",
    "SuspensionRow", "SuspensionTable", "SyntheticDataset", "TripartiteNetwork",
    "TweetCreationTime", "UnknownKindError", "UnlikeFunnel", "UnlikeRecord",
    "ViolatorProfile", "aggregate_daily", "aggregate_daily_sharded",
    "aggregate_events", "aggregate_unlikes", "build_timelines", "build_tripartite",
    "ccdf", "compare", "daily_volume_ccdf", "decode_creation_time", "detect",
    "detect_coordination", "estimate_consecutive", "estimate_from_sampled_tweets",
    "estimate_gap", "estimate_timeline", "filter_components", "filter_unlikers",
    "frequency_buckets", "generate", "ks_two_sample", "median_age_ccdf",
    "parse_notice", "profile_terms", "profile_violators", "project_bipartite",
    "raw_role_ratio", "role_ratio", "serialize_notice", "summarize",
    "suspension_stats", "total_posted",
]

MODULES = ["behavior", "coordination", "estimate", "flooding", "ingest", "records", "synth"]


def _fresh(code: str) -> object:
    """Run ``code`` in a new interpreter; it prints one JSON value."""
    child = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


_LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'delstream')))"


@pytest.mark.parametrize(
    "statement, loaded",
    [
        ("import delstream", ["delstream"]),
        ("import delstream.records", ["delstream", "delstream.records"]),
    ],
)
def test_import_loads_only_what_it_names(statement, loaded):
    assert _fresh(f"import json, sys\n{statement}\n{_LOADED}") == loaded


def test_public_name_loads_its_module_and_not_synth():
    loaded = _fresh(f"import json, sys\nfrom delstream import detect_coordination\n{_LOADED}")
    assert "delstream.coordination" in loaded
    assert "delstream.synth" not in loaded


def test_module_reachable_as_attribute_in_a_fresh_interpreter():
    code = "import json, delstream\nprint(json.dumps(delstream.ingest.__name__))"
    assert _fresh(code) == "delstream.ingest"


def test_all_is_the_public_names():
    assert delstream.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_is_the_defining_modules_object(name):
    value = getattr(delstream, name)
    assert value.__module__.split(".")[0] == "delstream"
    assert value is getattr(importlib.import_module(value.__module__), name)


@pytest.mark.parametrize("name", MODULES)
def test_module_name_gives_the_submodule(name):
    assert getattr(delstream, name) is importlib.import_module(f"delstream.{name}")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from delstream import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC_NAMES)
    assert all(namespace[name] is getattr(delstream, name) for name in PUBLIC_NAMES)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        delstream.no_such_name  # noqa: B018
    assert not hasattr(delstream, "_private")


def test_dir_lists_every_public_name_before_any_is_loaded():
    listed = _fresh("import json, delstream\nprint(json.dumps(dir(delstream)))")
    assert set(PUBLIC_NAMES) <= set(listed)
