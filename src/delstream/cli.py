"""Command-line entry point wiring the analysis stages together.

Every run writes a machine-readable manifest alongside its outputs recording
the command, inputs, and parameters, so a run can be reproduced from its
manifest alone. Outputs are deterministic for deterministic inputs: no
timestamps, sorted records, stable float formatting.

Exit codes: 0 success, 2 usage errors or paths that cannot be opened
(missing input files included), 3 malformed input records or invalid
configuration.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import __version__
from .behavior import (
    DEFAULT_WINDOW_DAYS,
    Category,
    daily_volume_ccdf,
    frequency_buckets,
    median_age_ccdf,
    profile_terms,
    summarize,
    suspension_stats,
    volume_slices,
)
from .coordination import (
    DEFAULT_MIN_COMPONENT,
    DEFAULT_MIN_UNLIKES,
    detect_coordination,
)
from .estimate import (
    DEFAULT_ESTIMATE_FLOOR,
    DEFAULT_PERMUTATIONS,
    compare,
    estimate_timeline,
    ks_two_sample,
)
from .flooding import DEFAULT_DAILY_LIMIT, detect, write_violations, read_violations
from .ingest import (
    DEFAULT_INCLUSION_THRESHOLD,
    aggregate_events,
    build_timelines,
    read_daily_records,
    read_timelines,
    read_unlike_records,
    write_daily_records,
    write_timelines,
    write_unlike_records,
)
from .records import (
    RecordParseError,
    check_at_least,
    float_text_field,
    parse_account_id,
    read_account_ids,
    read_csv,
    read_json,
    read_snapshots,
    write_csv,
    write_json,
)
from .synth import generate, read_population_spec, write_dataset

# Not called here since aggregate reads events in one pass and
# detect-coordination runs detect_coordination. The traced benchmark
# (bench/tracing.py) reports a time for each layer function this module
# imports, and BENCHMARK.json names these; they stay imported, and read 0,
# until the benchmark's per-layer metrics are re-keyed.
from .coordination import (  # noqa: F401
    build_tripartite,
    filter_components,
    filter_unlikers,
    project_bipartite,
)
from .ingest import aggregate_daily, aggregate_unlikes  # noqa: F401
from .records import read_notices  # noqa: F401

logger = logging.getLogger(__name__)


class _Outputs:
    """A stage's output directory and the files the stage has written there."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.names: list[str] = []

    def path(self, name: str) -> Path:
        """Where to write output ``name``; the manifest lists it from now on."""
        self.names.append(name)
        return self.directory / name

    def manifest(self, command: str, inputs: dict, parameters: dict,
                 name: str = "manifest.json") -> None:
        """Write the run's manifest, listing every output and the manifest itself."""
        path = self.path(name)
        tool = {"name": "delstream", "version": __version__}
        write_json(path, {"command": command, "inputs": inputs, "parameters": parameters,
                          "outputs": sorted(self.names), "tool": tool})


def _resolve_timelines(path_arg) -> Path:
    path = Path(path_arg)
    return path / "timelines.ndjson" if path.is_dir() else path


def _read_bot_scores(path) -> dict[int, float]:
    scores: dict[int, float] = {}

    def score(row: dict[str, str]) -> None:
        account_id = parse_account_id(row["account_id"])
        if account_id in scores:
            raise ValueError(f"a second score for account {account_id}")
        value = float_text_field(row["bot_score"], "bot_score")
        if not 0.0 <= value <= 1.0:  # NaN fails both comparisons
            raise ValueError(f"bot_score {row['bot_score']!r} is outside [0, 1]")
        scores[account_id] = value

    for _ in read_csv(path, ("account_id", "bot_score"), score):
        pass
    return scores


def _cmd_generate(args) -> int:
    spec = read_population_spec(args.spec)
    dataset = generate(spec, args.seed)
    out = _Outputs(args.out)
    out.names.extend(write_dataset(dataset, out.directory).values())
    out.manifest(
        "generate",
        {"spec": str(args.spec)},
        {
            "seed": args.seed,
            "days": spec.days,
            "start_day": spec.start_day.isoformat(),
            "accounts": len(dataset.truth.kinds),
            "events": len(dataset.event_ms),
        },
    )
    return 0


def _cmd_aggregate(args) -> int:
    # Snapshots first, so a bad snapshot file fails before the event pass.
    snapshots = list(read_snapshots(args.snapshots)) if args.snapshots else []
    daily, unlikes = aggregate_events(args.events, args.threshold)
    timelines = build_timelines(snapshots, daily)
    out = _Outputs(args.out)
    write_daily_records(out.path("daily_deletions.ndjson"), daily)
    write_unlike_records(out.path("unlikes.ndjson"), unlikes)
    write_timelines(out.path("timelines.ndjson"), timelines)
    out.manifest(
        "aggregate",
        {"events": str(args.events), "snapshots": str(args.snapshots or "")},
        {"threshold": args.threshold},
    )
    return 0


def _cmd_estimate(args) -> int:
    check_at_least("--permutations", args.permutations, 0)
    check_at_least("--seed", args.seed, 0)
    timelines = list(read_timelines(_resolve_timelines(args.timelines)))
    estimates = [e for tl in timelines for e in estimate_timeline(tl)]
    report = compare(
        estimates,
        (
            (tl.account_id, day, count)
            for tl in timelines
            for day, count in zip(tl.deletion_days, tl.deletion_counts)
        ),
        floor=args.floor,
        include_gaps=not args.no_gaps,
        per_account_median=args.per_account_median,
    )
    p_value = None
    if args.permutations > 0 and not report.is_empty:
        p_value = ks_two_sample(
            [p.estimated for p in report.paired],
            [p.actual for p in report.paired],
            permutations=args.permutations,
            seed=args.seed,
        ).p_value

    out = _Outputs(args.out)
    write_json(
        out.path("report.json"),
        {
            "pair_count": len(report.paired),
            "account_count": len({p.account_id for p in report.paired}),
            "mean_estimated": report.mean_estimated,
            "mean_actual": report.mean_actual,
            "underestimation_fraction": report.underestimation_fraction,
            "ks_statistic": report.ks_statistic,
            "ks_p_value": p_value,
            "floor": args.floor,
            "include_gaps": not args.no_gaps,
            "per_account_median": args.per_account_median,
        },
    )
    write_csv(
        out.path("pairs.csv"),
        ["account_id", "day", "estimated", "actual"],
        ((p.account_id, p.day, p.estimated, p.actual) for p in report.paired),
    )
    write_csv(out.path("ccdf_estimated.csv"), ["value", "fraction"], report.ccdf_estimated)
    write_csv(out.path("ccdf_actual.csv"), ["value", "fraction"], report.ccdf_actual)
    out.manifest(
        "estimate",
        {"timelines": str(args.timelines)},
        {
            "floor": args.floor,
            "include_gaps": not args.no_gaps,
            "per_account_median": args.per_account_median,
            "permutations": args.permutations,
            "seed": args.seed,
        },
    )
    return 0


def _span_days(timelines) -> int:
    """Days from the earliest to the latest snapshot or deletion day, inclusive.

    0 when no timeline has a day. Days ascend within a timeline, so its first
    and last rows suffice.
    """
    ends = []
    for tl in timelines:
        if tl.snapshot_days:
            ends += (tl.snapshot_days[0], tl.snapshot_days[-1])
        if tl.deletion_days:
            ends += (tl.deletion_days[0], tl.deletion_days[-1])
    return (max(ends) - min(ends)).days + 1 if ends else 0


def _cmd_stats(args) -> int:
    timelines = list(read_timelines(_resolve_timelines(args.timelines)))
    violations = read_violations(args.violations) if args.violations else []
    bot_scores = _read_bot_scores(args.bot_scores) if args.bot_scores else None
    # The default window is the paper's collection length and is always
    # allowed, so a run without --window behaves the same on any input.
    span = _span_days(timelines)
    if args.window > max(span, DEFAULT_WINDOW_DAYS):
        raise ValueError(
            f"--window {args.window} exceeds the collection span of {span} days "
            f"and the default of {DEFAULT_WINDOW_DAYS}"
        )
    if span < args.window:
        logger.warning(
            "the timelines span %d day%s, fewer than the window of %d: "
            "no account can be labelled %s",
            span, "" if span == 1 else "s", args.window, Category.THIRTY_DAY.value,
        )
    summaries = summarize(
        timelines, violations, window_days=args.window, bot_scores=bot_scores
    )
    buckets = frequency_buckets(summaries, window_days=args.window)
    final_statuses = {
        tl.account_id: status
        for tl in timelines
        if (status := tl.final_status()) is not None
    }
    suspensions = suspension_stats(summaries, final_statuses)
    descriptions = {tl.account_id: tl.description for tl in timelines}

    def texts(members) -> list[str]:
        return [descriptions[s.account_id] for s in members]

    suspicious = [s for s in summaries if s.category is Category.SUSPICIOUS]
    top_30, bottom_30 = volume_slices(summaries, Category.THIRTY_DAY, 0.1)
    term_rows = []
    for group, members in (
        ("suspicious", suspicious),
        ("thirty_day_top", top_30),
        ("thirty_day_bottom", bottom_30),
    ):
        for term, count in profile_terms(texts(members), args.top_terms):
            term_rows.append((group, term, count))

    out = _Outputs(args.out)
    write_csv(
        out.path("summaries.csv"),
        [
            "account_id",
            "deleting_days",
            "mean_daily_deletions",
            "median_deleted_age_days",
            "category",
            "bot_score",
        ],
        (
            (
                s.account_id,
                s.deleting_days,
                s.mean_daily_deletions,
                s.median_deleted_age_days,
                s.category.value,
                s.bot_score,
            )
            for s in summaries
        ),
    )
    write_csv(
        out.path("buckets.csv"),
        ["deleting_days", "count", "min", "q1", "median", "q3", "max"],
        (
            (b.deleting_days, b.count, b.minimum, b.q1, b.median, b.q3, b.maximum)
            for b in buckets
        ),
    )
    write_csv(
        out.path("age_ccdf.csv"),
        ["category", "age_days", "fraction"],
        (
            (category.value, age, fraction)
            for category in Category
            for age, fraction in median_age_ccdf(summaries, category)
        ),
    )
    write_csv(
        out.path("daily_volume_ccdf.csv"),
        ["deletions", "fraction"],
        daily_volume_ccdf(count for tl in timelines for count in tl.deletion_counts),
    )
    write_csv(
        out.path("suspensions.csv"),
        ["category", "suspended", "total", "unknown", "fraction"],
        (
            (r.category.value, r.suspended, r.total, r.unknown, r.fraction)
            for r in suspensions
        ),
    )
    write_csv(out.path("terms.csv"), ["group", "term", "count"], term_rows)
    out.manifest(
        "stats",
        {
            "timelines": str(args.timelines),
            "violations": str(args.violations or ""),
            "bot_scores": str(args.bot_scores or ""),
        },
        {"window": args.window, "top_terms": args.top_terms},
    )
    return 0


def _cmd_detect_flooding(args) -> int:
    timelines = read_timelines(_resolve_timelines(args.timelines))
    allowlist = frozenset(read_account_ids(args.allowlist) if args.allowlist else ())
    violations = detect(
        timelines,
        limit=args.limit,
        allowlist=allowlist,
        exclude_stale=args.exclude_stale,
    )
    out_file = Path(args.out)
    out = _Outputs(out_file.parent)
    write_violations(out.path(out_file.name), violations)
    out.manifest(
        "detect-flooding",
        {"timelines": str(args.timelines), "allowlist": str(args.allowlist or "")},
        {
            "limit": args.limit,
            "exclude_stale": args.exclude_stale,
            "violations": len(violations),
        },
        name=out_file.name + ".manifest.json",
    )
    return 0


def _cmd_detect_coordination(args) -> int:
    daily = list(read_daily_records(args.deletions))
    unlikes = list(read_unlike_records(args.unlikes))
    graph = detect_coordination(daily, unlikes, args.min_unlikes, args.min_component)
    funnel = graph.funnel

    component_of = {node.account_id: node.component_id for node in graph.nodes}
    edge_counts: dict[int, int] = {members[0]: 0 for members in graph.components}
    for source, _ in graph.edges:
        edge_counts[component_of[source]] += 1

    out = _Outputs(args.out)
    write_csv(out.path("edges.csv"), ["source", "target"], graph.edges)
    write_csv(
        out.path("nodes.csv"),
        ["account_id", "unlike_total", "deletion_total", "role_ratio", "component_id"],
        (
            (n.account_id, n.unlike_total, n.deletion_total, n.role_ratio, n.component_id)
            for n in graph.nodes
        ),
    )
    write_csv(
        out.path("components.csv"),
        ["component_id", "node_count", "edge_count"],
        (
            (members[0], len(members), edge_counts[members[0]])
            for members in graph.components
        ),
    )
    out.manifest(
        "detect-coordination",
        {"deletions": str(args.deletions), "unlikes": str(args.unlikes)},
        {
            "min_unlikes": args.min_unlikes,
            "min_component": args.min_component,
            # The repeat-unlike filter reported both ways: edges and accounts.
            "liker_edges_before": funnel.liker_edges_before,
            "liker_edges_after": funnel.liker_edges_after,
            "liker_accounts_before": funnel.liker_accounts_before,
            "liker_accounts_after": funnel.liker_accounts_after,
        },
    )
    return 0


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="delstream",
        description="Deletion-event stream analytics and abuse detection.",
    )
    parser.add_argument("--version", action="version", version=f"delstream {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", metavar="COMMAND")
    registry: dict[str, argparse.ArgumentParser] = {}

    def register(name: str, func, help_text: str) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument(
            "--config",
            default=None,
            help="JSON file of option defaults; explicit flags override it",
        )
        sub.set_defaults(func=func)
        registry[name] = sub
        return sub

    sub = register("generate", _cmd_generate, "generate a labeled synthetic dataset")
    sub.add_argument("--spec", required=True, help="population spec (JSON)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True, help="output directory")

    sub = register("aggregate", _cmd_aggregate, "aggregate raw events into daily records")
    sub.add_argument("--events", required=True, help="newline-delimited event file")
    sub.add_argument("--snapshots", default=None, help="newline-delimited snapshot file")
    sub.add_argument("--threshold", type=int, default=DEFAULT_INCLUSION_THRESHOLD)
    sub.add_argument("--out", required=True, help="output directory")

    sub = register("estimate", _cmd_estimate, "score count-based deletion estimates")
    sub.add_argument("--timelines", required=True, help="timelines file or aggregate output dir")
    sub.add_argument("--floor", type=int, default=DEFAULT_ESTIMATE_FLOOR)
    sub.add_argument("--no-gaps", action="store_true", help="ignore gap intervals")
    sub.add_argument("--per-account-median", action="store_true")
    sub.add_argument("--permutations", type=int, nargs="?", default=0,
                     const=DEFAULT_PERMUTATIONS,
                     help="enable a permutation KS significance estimate; bare flag "
                          f"uses {DEFAULT_PERMUTATIONS:,} permutations (0 = off)")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", required=True, help="output directory")

    sub = register("stats", _cmd_stats, "behavioral statistics and category labels")
    sub.add_argument("--timelines", required=True, help="timelines file or aggregate output dir")
    sub.add_argument("--violations", default=None, help="violations CSV from detect-flooding")
    sub.add_argument("--bot-scores", default=None, help="CSV of externally computed bot scores")
    sub.add_argument("--window", type=int, default=DEFAULT_WINDOW_DAYS,
                     help="collection window length in days; above the default, "
                          "at most the span of the timelines")
    sub.add_argument("--top-terms", type=int, default=25)
    sub.add_argument("--out", required=True, help="output directory")

    sub = register("detect-flooding", _cmd_detect_flooding, "find daily-limit violations")
    sub.add_argument("--timelines", required=True, help="timelines file or aggregate output dir")
    sub.add_argument("--limit", type=int, default=DEFAULT_DAILY_LIMIT)
    sub.add_argument("--allowlist", default=None, help="file of sanctioned account IDs")
    sub.add_argument("--exclude-stale", action="store_true",
                     help="drop violations flagged as stale-count suspects")
    sub.add_argument("--out", required=True, help="output CSV file")

    sub = register(
        "detect-coordination", _cmd_detect_coordination, "find coordinated like/unlike clusters"
    )
    sub.add_argument("--deletions", required=True, help="daily deletion records (NDJSON)")
    sub.add_argument("--unlikes", required=True, help="unlike records (NDJSON)")
    sub.add_argument("--min-unlikes", type=int, default=DEFAULT_MIN_UNLIKES)
    sub.add_argument("--min-component", type=int, default=DEFAULT_MIN_COMPONENT)
    sub.add_argument("--out", required=True, help="output directory")

    return parser, registry


def _apply_config_defaults(argv: list[str], registry: dict) -> None:
    pre = argparse.ArgumentParser(prog="delstream", add_help=False, exit_on_error=False)
    pre.add_argument("subcommand", nargs="?")
    pre.add_argument("--config")
    try:
        known, _ = pre.parse_known_args(argv)
    except argparse.ArgumentError:
        return  # parse_args reports it with the subcommand's usage
    if known.config is None or known.subcommand not in registry:
        return
    config_path = known.config
    raw = read_json(config_path, f"{config_path}: config")
    if not isinstance(raw, dict):
        raise ValueError(f"{config_path}: config must be a JSON object")
    sub = registry[known.subcommand]
    valid = {action.dest for action in sub._actions}
    unknown = set(raw) - valid
    if unknown:
        raise ValueError(f"{config_path}: unknown config keys {sorted(unknown)}")
    for action in sub._actions:
        if action.dest not in raw:
            continue
        # The type the flag gives, or a string, which argparse converts with
        # the option's type as it converts the flag's argument.
        if isinstance(action, argparse._StoreTrueAction):
            allowed = (bool,)
        else:
            allowed = (str,) if action.type is None else (action.type, str)
        if type(raw[action.dest]) not in allowed:  # so a bool is not an int
            raise ValueError(f"{config_path}: config key {action.dest!r} must be "
                             f"{' or '.join(t.__name__ for t in allowed)}")
        action.required = False
    sub.set_defaults(**raw)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, registry = build_parser()
    try:
        _apply_config_defaults(argv, registry)
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_usage(sys.stderr)
            return 2
        return args.func(args)
    except OSError as err:  # a path that is missing, a directory, or unreadable
        print(f"delstream: cannot open: {err}", file=sys.stderr)
        return 2
    except (RecordParseError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"delstream: invalid input: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
