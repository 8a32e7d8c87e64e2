"""Deletion-event stream analytics: estimators, behavior statistics, and
detection of limit-circumventing flooding and coordinated like/unlike abuse.

Every public name is listed once, in ``_EXPORTS`` under the module that
defines it, and that module is imported on the first access to one of its
names (PEP 562). So ``import delstream`` loads no submodule, and
``import delstream.records`` loads only what ``records`` imports.
``from delstream import X``, ``from delstream import *`` and
``delstream.<module>`` work as if every name were imported eagerly.
"""

import importlib

__version__ = "0.1.0"

#: Public names by the module that defines them.
_EXPORTS = {
    "behavior": (
        "AccountBehaviorSummary", "Category", "FrequencyBucket", "SuspensionRow",
        "SuspensionTable", "daily_volume_ccdf", "frequency_buckets",
        "median_age_ccdf", "profile_terms", "summarize", "suspension_stats",
    ),
    "coordination": (
        "CoordinationGraph", "CoordinationNode", "TripartiteNetwork", "UnlikeFunnel",
        "build_tripartite", "detect_coordination", "filter_components",
        "filter_unlikers", "project_bipartite", "raw_role_ratio", "role_ratio",
    ),
    "estimate": (
        "ComparisonReport", "DeletionEstimate", "KsResult", "PairedDeletion", "ccdf",
        "compare", "estimate_consecutive", "estimate_from_sampled_tweets",
        "estimate_gap", "estimate_timeline", "ks_two_sample",
    ),
    "flooding": (
        "FloodingViolation", "ViolatorProfile", "detect", "profile_violators",
        "total_posted",
    ),
    "ingest": (
        "AccountTimeline", "DailyDeletionRecord", "DeletionDay",
        "DuplicateSnapshotError", "UnlikeRecord", "aggregate_daily",
        "aggregate_daily_sharded", "aggregate_events", "aggregate_unlikes",
        "build_timelines",
    ),
    "records": (
        "AccountSnapshot", "AccountStatus", "ComplianceNotice", "NoticeKind",
        "RecordParseError", "TweetCreationTime", "UnknownKindError",
        "decode_creation_time", "parse_notice", "serialize_notice",
    ),
    "synth": (
        "BehaviorProfile", "Cohort", "GroundTruth", "PlantedFarm", "PopulationSpec",
        "ProfileKind", "SyntheticDataset", "generate",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    """Import the submodule ``name``, or the module defining the public name
    ``name``, and cache the value in the package namespace."""
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _MODULE_OF:
        module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
        value = getattr(module, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
