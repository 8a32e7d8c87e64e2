#!/usr/bin/env python3
"""Pipeline benchmark of the delstream CLI.

Usage, from the root of the repository:

    python3 bench/run.py --workload baseline --seed 1 --seconds 55 --trace 0

Every ``SETUP_EVERY``-th repetition generates the workload's inputs with
``delstream generate`` from the given seed (the set-up). Each repetition
then runs the five analysis stages the way an analyst would, one
``delstream`` process per stage and one stage at a time. Repetitions go on
until ``--seconds`` have passed. Wall time and peak RSS of each stage are
taken from outside the process (``os.wait4``). The first repetition's
outputs are checked against the generator's ground truth, and every later
one must be byte-identical to it.

With ``--trace 1`` the same untraced runs are followed by one traced pass
that calls ``delstream.cli.main`` in this process with a timing wrapper on
each layer function (see ``tracing.py``); the run then reports the per-layer
metrics of ``BENCHMARK.json`` instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record (host,
versions, spec hash, input sizes, every sample, the host-speed probe) and,
for traced runs, the spans are written under ``.bench_work/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from statistics import mean, median
from time import perf_counter

import checks
import tracing
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

STAGES = (
    "generate", "aggregate", "estimate", "detect-flooding", "stats",
    "detect-coordination",
)
ANALYZE = ("estimate", "detect-flooding", "stats")
OUT_DIRS = {
    "generate": "data",
    "aggregate": "agg",
    "estimate": "est",
    "detect-flooding": "flood",
    "stats": "stats",
    "detect-coordination": "coord",
}
INTERMEDIATES = ("daily_deletions.ndjson", "unlikes.ndjson", "timelines.ndjson")
BEHAVIOR_TABLES = (
    "frequency_buckets", "suspension_stats", "median_age_ccdf",
    "daily_volume_ccdf", "profile_terms", "volume_slices",
)

#: Runs of ``delstream --version`` that time a stage process's start-up.
STARTUP_REPEATS = 3
#: The set-up runs in every this-many-th repetition (the first included); the
#: repetitions between reuse its data, so more of the run goes to the stages.
SETUP_EVERY = 4
#: The set-up runs at least this often, however short ``--seconds`` is.
MIN_SETUPS = 3
#: Children still running this long after the start are killed, so that a
#: hung stage fails the run inside the 180 s a run may take.
RUN_DEADLINE_S = 165.0
MB = 1 << 20


@dataclass
class StageRun:
    wall_s: float
    rss_mb: float
    code: int


class Ledger:
    """Stages attempted and the reasons those that failed did."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, stage: str, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{stage} [{label}]: {reason}")


def stage_argv(stage: str, workload: Workload, seed: int) -> list[str]:
    """CLI arguments of a stage; paths are relative to the run's directory."""
    return {
        "generate": ["generate", "--spec", "spec.json", "--seed", str(seed),
                     "--out", "data"],
        "aggregate": ["aggregate", "--events", "data/events.ndjson",
                      "--snapshots", "data/snapshots.ndjson",
                      "--threshold", str(checks.INCLUSION_THRESHOLD), "--out", "agg"],
        "estimate": ["estimate", "--timelines", "agg", *workload.estimate_flags,
                     "--out", "est"],
        "detect-flooding": ["detect-flooding", "--timelines", "agg",
                            "--limit", str(checks.DAILY_LIMIT),
                            "--out", "flood/violations.csv"],
        "stats": ["stats", "--timelines", "agg", "--violations", "flood/violations.csv",
                  "--window", str(checks.WINDOW_DAYS), "--out", "stats"],
        "detect-coordination": ["detect-coordination",
                                "--deletions", "agg/daily_deletions.ndjson",
                                "--unlikes", "agg/unlikes.ndjson",
                                "--min-unlikes", str(checks.MIN_UNLIKES),
                                "--min-component", str(checks.MIN_COMPONENT),
                                "--out", "coord"],
    }[stage]


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop. Reported only, never used to scale."""
    start = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return perf_counter() - start


def file_stats(path: Path) -> dict:
    if not path.is_file():
        return {"lines": 0, "bytes": 0}
    return {"lines": checks.count_lines(path), "bytes": path.stat().st_size}


class Launcher:
    """The small process that starts each stage process (see ``launcher.py``)."""

    def __init__(self):
        env = dict(os.environ)
        path = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def run(self, argv: list[str], cwd: Path, stderr: Path, timeout_s: float) -> StageRun:
        request = {"argv": argv, "cwd": str(cwd), "stderr": str(stderr),
                   "timeout_s": timeout_s}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process ended unexpectedly")
        reply = json.loads(line)
        return StageRun(reply["wall_s"], reply["maxrss_kb"] / 1024, reply["exit_code"])

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


class Run:
    """One benchmark run of one workload and seed in its own directory."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 launcher: Launcher):
        self.name = name
        self.launcher = launcher
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = perf_counter()
        self.dir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
        self.ledger = Ledger()
        self.truth: checks.Truth | None = None
        self.reference: dict[str, dict[str, str]] = {}

    # -- running and checking one stage ------------------------------------

    def _spawn(self, name: str, cli_args: list[str]) -> StageRun:
        remaining = max(RUN_DEADLINE_S - (perf_counter() - self.started), 0.0)
        return self.launcher.run(
            [sys.executable, "-m", "delstream.cli", *cli_args],
            self.dir, self.dir / f"{name}.stderr", remaining,
        )

    def _stderr_tail(self, stage: str) -> str:
        path = self.dir / f"{stage}.stderr"
        text = path.read_text(encoding="utf-8", errors="replace") if path.exists() else ""
        return text.strip().splitlines()[-1] if text.strip() else ""

    def _check(self, stage: str) -> str | None:
        """The first time against the ground truth, afterwards for byte
        identity with the outputs of that first time."""
        out = self.dir / OUT_DIRS[stage]
        got = checks.digests(out)
        expected = self.reference.get(stage)
        if expected is not None:
            changed = sorted(k for k in got.keys() | expected.keys()
                             if got.get(k) != expected.get(k))
            return f"outputs differ from the first run: {changed}" if changed else None
        if self.truth is None:
            try:
                self.truth = checks.Truth(self.dir / "data" / "ground_truth.json")
            except (OSError, ValueError, KeyError, TypeError) as err:
                return f"unreadable ground truth: {err!r}"
        failure = checks.check_stage(stage, out, self.truth)
        if failure is None:
            self.reference[stage] = got
        return failure

    def _run_stage(self, stage: str, label: str) -> StageRun:
        shutil.rmtree(self.dir / OUT_DIRS[stage], ignore_errors=True)
        run = self._spawn(stage, stage_argv(stage, self.workload, self.seed))
        if run.code != 0:
            failure = f"exit code {run.code}: {self._stderr_tail(stage)}"
        else:
            failure = self._check(stage)
        self.ledger.record(stage, label, failure)
        return run

    # -- the run -----------------------------------------------------------

    def repetitions(self) -> list[dict[str, StageRun]]:
        """Repeat the pipeline while another repetition, as long as the mean
        one so far, still ends within ``--seconds``.

        Every ``SETUP_EVERY``-th repetition starts with the set-up, so that
        its runs spread over the whole run like those of the other stages,
        rather than all falling into one slow spell of the host at the start.
        """
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        (self.dir / "spec.json").write_text(
            json.dumps(self.workload.spec, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        reps: list[dict[str, StageRun]] = []
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            if (len(reps) > SETUP_EVERY * (MIN_SETUPS - 1)
                    and elapsed * (len(reps) + 1) / len(reps) > self.seconds):
                return reps
            stages = STAGES if len(reps) % SETUP_EVERY == 0 else STAGES[1:]
            reps.append({s: self._run_stage(s, f"rep {len(reps)}") for s in stages})

    def startup(self) -> list[StageRun]:
        """Process start, imports and parser set-up: ``delstream --version``."""
        return [self._spawn("startup", ["--version"]) for _ in range(STARTUP_REPEATS)]

    def traced(self) -> tracing.Tracer:
        """One pass of all six stages in this process, with spans."""
        sys.path.insert(0, str(SRC))
        from delstream import cli

        if Path(cli.__file__).resolve().parent != SRC / "delstream":
            raise RuntimeError(f"imported delstream from {cli.__file__}, not {SRC}")
        tracer = tracing.Tracer()
        cwd = Path.cwd()
        os.chdir(self.dir)
        try:
            with tracing.installed(tracer, cli):
                for stage in STAGES:
                    shutil.rmtree(OUT_DIRS[stage], ignore_errors=True)
                    with tracer.stage(stage):
                        try:
                            code = cli.main(stage_argv(stage, self.workload, self.seed))
                        except SystemExit as exit_:
                            code = exit_.code
                        except Exception as err:
                            traceback.print_exc()
                            code = repr(err)
                    if code != 0:
                        failure = f"traced run ended with {code}"
                    else:
                        failure = self._check(stage)
                    self.ledger.record(stage, "traced", failure)
        finally:
            os.chdir(cwd)
        return tracer


#: Share of a stage's repetitions cut from each end before averaging.
TRIM = 0.1


def typical(values) -> float:
    """Mean of a run's repetitions of a stage, without the fastest and the
    slowest tenth.

    On a shared host a run may see no fast spell as long as a whole stage,
    and then its shortest repetition is the noisiest figure; the mean over
    the whole run is steadier, and the cut keeps one stalled repetition
    from moving it (see README.md).
    """
    ordered = sorted(values)
    cut = int(len(ordered) * TRIM)
    return mean(ordered[cut:len(ordered) - cut])


def end_to_end_metrics(run: Run, reps, event_lines: int) -> dict[str, float]:
    aggregate_s = typical(r["aggregate"].wall_s for r in reps)
    analyze_s = sum(typical(r[s].wall_s for r in reps) for s in ANALYZE)
    coordination_s = typical(r["detect-coordination"].wall_s for r in reps)
    intermediate = sum(
        (run.dir / "agg" / name).stat().st_size
        for name in INTERMEDIATES
        if (run.dir / "agg" / name).is_file()
    )
    return {
        "setup_s": typical(r["generate"].wall_s for r in reps if "generate" in r),
        "aggregate_s": aggregate_s,
        "analyze_s": analyze_s,
        "coordination_s": coordination_s,
        "pipeline_s": aggregate_s + analyze_s + coordination_s,
        "ingest_events_per_s": event_lines / aggregate_s,
        "aggregate_rss_mb": median(r["aggregate"].rss_mb for r in reps),
        "analyze_rss_mb": median(max(r[s].rss_mb for s in ANALYZE) for r in reps),
        "coordination_rss_mb": median(r["detect-coordination"].rss_mb for r in reps),
        "intermediate_mb": intermediate / MB,
        "stage_pass_ratio": 1 - len(run.ledger.failures) / run.ledger.attempted,
    }


def layer_metrics(run: Run, tracer: tracing.Tracer, reps, startup,
                  event_lines: int, probes: list[float]) -> dict[str, float]:
    selfs = tracing.self_times(tracer)
    metrics = {f"{name}.self_s": selfs.get(name, 0.0) for name in tracer.layers}
    metrics["behavior.tables.self_s"] = sum(
        selfs.get(f"behavior.{name}", 0.0) for name in BEHAVIOR_TABLES
    )
    notices = tracing.items(tracer, "records.read_notices")
    metrics["records.notice_passes"] = notices / event_lines if event_lines else 0.0
    counts = tracer.counts
    for name in ("ingest.daily_records", "ingest.unlike_records", "estimate.pairs",
                 "flooding.violations", "coordination.deleter_edges",
                 "coordination.components"):
        metrics[name] = counts[name]
    edges = counts["coordination.deleter_edges"]
    metrics["coordination.useful_edge_ratio"] = (
        counts["coordination.useful_deleter_edges"] / edges if edges else 0.0
    )
    timelines = run.dir / "agg" / "timelines.ndjson"
    metrics["ingest.timelines_mb"] = (
        timelines.stat().st_size / MB if timelines.is_file() else 0.0
    )
    metrics["cli.startup_s"] = min(r.wall_s for r in startup)
    stage_spans = {s.name: s for s in tracer.spans if s.kind == "stage"}
    for stage in STAGES:
        walls = [r[stage].wall_s for r in reps if stage in r]
        metrics[f"cli.{stage}.wall_s"] = typical(walls)
        metrics[f"cli.{stage}.rss_mb"] = median(r[stage].rss_mb for r in reps
                                                 if stage in r)
        span = stage_spans.get(stage)
        metrics[f"cli.{stage}.self_s"] = span.self_s if span else 0.0
        # The single traced pass is set against the typical untraced run. It
        # runs in this process, which has already started and imported the
        # program, so the start-up each stage process pays is taken off the
        # untraced time.
        metrics[f"trace.{stage}.overhead_s"] = (span.total_s if span else 0.0) - (
            typical(walls) - median(r.wall_s for r in startup)
        )
    metrics["host.probe_s"] = mean(probes)
    metrics["failed_stage_ratio"] = len(run.ledger.failures) / run.ledger.attempted
    return metrics


def spec_hash(spec: dict) -> str:
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_record(run: Run, reps, inputs: dict, probes: list[float],
                 measured: dict, tracer: tracing.Tracer | None) -> None:
    """The run record, and for a traced run its spans, under ``.bench_work``."""
    samples = {stage: [vars(r[stage]) for r in reps if stage in r] for stage in STAGES}
    record = {
        "workload": run.name,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "platform": platform.platform(),
        },
        "spec_sha256": spec_hash(run.workload.spec),
        "inputs": inputs,
        "host_probe_s": probes,
        "samples": samples,
        "wall_s_summary": {
            stage: {"n": len(runs), "min": min(r["wall_s"] for r in runs),
                    "median": median(r["wall_s"] for r in runs),
                    "max": max(r["wall_s"] for r in runs)}
            for stage, runs in samples.items()
        },
        "failures": run.ledger.failures,
        "metrics": measured,
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = run.dir.name
    (records / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n",
                                          encoding="utf-8")
    if tracer is not None:
        (records / f"{stem}.spans.json").write_text(
            json.dumps(tracer.to_json(), indent=2) + "\n", encoding="utf-8"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "delstream" / "cli.py").is_file():
        print(f"bench: no delstream sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    launcher = Launcher()
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), launcher)
        probes = [host_probe()]
        reps = run.repetitions()
        probes.append(host_probe())
        inputs = {
            name: file_stats(run.dir / "data" / name)
            for name in ("events.ndjson", "snapshots.ndjson")
        }
        event_lines = inputs["events.ndjson"]["lines"]
        measured = end_to_end_metrics(run, reps, event_lines)
        tracer = None
        if run.trace:
            startup = run.startup()
            tracer = run.traced()
            measured.update(layer_metrics(run, tracer, reps, startup, event_lines,
                                          probes))
    finally:
        launcher.close()

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted}

    write_record(run, reps, inputs, probes, measured, tracer)
    shutil.rmtree(run.dir, ignore_errors=True)

    for failure in run.ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{run.name} seed {run.seed}: {len(reps)} pipeline repetitions, "
          f"host probe {probes}")
    for name, metric in metrics.items():
        print(f"  {name:36} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not run.ledger.failures,
        "attempted": run.ledger.attempted,
        "failed": len(run.ledger.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
