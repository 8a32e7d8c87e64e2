from __future__ import annotations

import ast
import csv
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from delstream import cli
from delstream.flooding import read_violations
from delstream.synth import read_ground_truth

SPEC = {
    "days": 8,
    "cohorts": [
        {
            "kind": "normal_deleter",
            "count": 10,
            "post_rate": 4,
            "delete_rate": 16,
            "delete_days": [1, 5],
            "age_median_days": 50,
        },
        {"kind": "flooder", "count": 2, "post_rate": 2, "flood_days": [4]},
        {
            "kind": "like_farm_hub",
            "count": 1,
            "farm_size": 11,
            "farm_day": 2,
            "spoke_unlikes": 7,
        },
    ],
}


def write_spec(path: Path, spec=SPEC) -> Path:
    spec_path = path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    return spec_path


def run(*argv) -> int:
    return cli.main([str(arg) for arg in argv])


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_spec(tmp_path)
    assert run("generate", "--spec", "spec.json", "--seed", 5, "--out", "data") == 0
    assert (
        run(
            "aggregate",
            "--events", "data/events.ndjson",
            "--snapshots", "data/snapshots.ndjson",
            "--out", "agg",
        )
        == 0
    )
    return tmp_path


class TestExitCodes:
    def test_unknown_subcommand_usage_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            run("frobnicate")
        assert err.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand_exit_2(self):
        assert run() == 2

    def test_missing_input_exit_2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("aggregate", "--events", "nope.ndjson", "--out", "out") == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect-flooding", "--timelines", "agg", "--allowlist", "agg",
             "--out", "x/v.csv"],
            ["stats", "--timelines", "agg", "--violations", "agg", "--out", "x"],
            ["stats", "--timelines", "agg", "--bot-scores", "agg/manifest.json/x",
             "--out", "x"],
        ],
        ids=["allowlist-directory", "violations-directory", "bot-scores-under-a-file"],
    )
    def test_unopenable_input_path_exit_2(self, workspace, argv):
        assert run(*argv) == 2

    def test_missing_snapshot_file_exit_2_before_the_event_pass(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        Path("bad.ndjson").write_text('{"kind":"tweet_delete"}\n')
        argv = ["aggregate", "--events", "bad.ndjson", "--snapshots", "nope.ndjson",
                "--out", "out"]
        assert run(*argv) == 2

    def test_negative_permutations_exit_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("timelines.ndjson").write_text(
            '{"account_id":1,"snapshots":[],"deletion_days":[]}\n'
        )
        argv = ["estimate", "--timelines", "timelines.ndjson", "--permutations", -5,
                "--out", "out"]
        assert run(*argv) == 3
        assert "--permutations must be >= 0" in capsys.readouterr().err
        assert not Path("out").exists()

    def test_malformed_record_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("events.ndjson").write_text('{"kind":"tweet_delete"}\n')
        assert run("aggregate", "--events", "events.ndjson", "--out", "out") == 3

    def test_timestamp_outside_range_in_utc_exit_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("events.ndjson").write_text(
            '{"kind":"tweet_delete","actor_id":1,"object_id":2,'
            '"observed_at":"0001-01-01T00:30:00+01:00"}\n'
        )
        assert run("aggregate", "--events", "events.ndjson", "--out", "out") == 3
        assert "line 1: bad timestamp" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "deletion",
        [
            '{"account_id":1,"day":"2021-04-26","deletion_count":1,'
            '"deleted_ages_days":[],"tweet_ids":[[5]]}',
            '{"account_id":"x","day":"2021-04-26","deletion_count":1,'
            '"deleted_ages_days":[],"tweet_ids":["5"]}',
        ],
    )
    def test_non_integer_deletion_record_exit_3(self, tmp_path, monkeypatch, deletion):
        monkeypatch.chdir(tmp_path)
        Path("daily.ndjson").write_text(deletion + "\n")
        Path("unlikes.ndjson").write_text('{"liker_id":2,"tweet_id":5,"unlike_count":5}\n')
        argv = ["detect-coordination", "--deletions", "daily.ndjson",
                "--unlikes", "unlikes.ndjson", "--min-component", 1, "--out", "out"]
        assert run(*argv) == 3

    @pytest.mark.parametrize(
        "unlike",
        [
            '{"liker_id":2,"tweet_id":[5],"unlike_count":5}',
            '{"liker_id":"2","tweet_id":5,"unlike_count":5}',
        ],
    )
    def test_non_integer_unlike_record_exit_3(self, tmp_path, monkeypatch, unlike):
        monkeypatch.chdir(tmp_path)
        Path("daily.ndjson").write_text(
            '{"account_id":1,"day":"2021-04-26","deletion_count":1,'
            '"deleted_ages_days":[],"tweet_ids":[5]}\n'
        )
        Path("unlikes.ndjson").write_text(unlike + "\n")
        argv = ["detect-coordination", "--deletions", "daily.ndjson",
                "--unlikes", "unlikes.ndjson", "--min-component", 1, "--out", "out"]
        assert run(*argv) == 3

    def test_non_integer_timeline_account_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("timelines.ndjson").write_text(
            '{"account_id":"x","snapshots":[],"deletion_days":[]}\n'
            '{"account_id":2,"snapshots":[],"deletion_days":[]}\n'
        )
        assert run("stats", "--timelines", "timelines.ndjson", "--out", "out") == 3

    @pytest.mark.parametrize(
        "change",
        [
            {"account_id": "7"},
            {"account_id": True},
            {"account_id": None},
            {"account_id": ...},
            {"snapshots": ...},
            {"snapshots": "x"},
            {"snapshots": [{"snapshot_day": "2021-04-26", "status": "active",
                            "statuses_count": 5}]},
            {"snapshots": [["2021-04-26", "active"]]},
            {"snapshots": [[20210426, "active", 5]]},
            {"snapshots": [["2021-02-30", "active", 5]]},
            {"snapshots": [["2021-04-26", "gone", 5]]},
            {"snapshots": [["2021-04-26", ["active"], 5]]},
            {"snapshots": [["2021-04-26", "active", "5"]]},
            {"snapshots": [["2021-04-26", "active", 5.0]]},
            {"snapshots": [["2021-04-26", "active", True]]},
            {"snapshots": [["2021-04-26", "active", -1]]},
            {"snapshots": [["2021-04-26", "active", None]]},
            {"snapshots": [["2021-04-27", "active", 5], ["2021-04-26", "active", 5]]},
            {"description": 5},
            {"description": None},
            {"snapshots": [], "description": "orphan"},
            {"deletion_days": ...},
            {"deletion_days": {}},
            {"deletion_days": [["2021-04-27", 10]]},
            {"deletion_days": [["x", 10, []]]},
            {"deletion_days": [["2021-04-27", "10", []]]},
            {"deletion_days": [["2021-04-27", True, []]]},
            {"deletion_days": [["2021-04-27", 0, []]]},
            {"deletion_days": [["2021-04-27", 10, "1,2"]]},
            {"deletion_days": [["2021-04-27", 10, [1.5]]]},
            {"deletion_days": [["2021-04-27", 10, [False]]]},
            {"deletion_days": [["2021-04-27", 1, [1, 2]]]},
            {"deletion_days": [["2021-04-27", 10, []], ["2021-04-27", 10, []]]},
            {"deletion_days": [{"account_id": 7, "day": "2021-04-27",
                                "deletion_count": 10, "deleted_ages_days": [],
                                "tweet_ids": list(range(1, 11))}]},
        ],
        ids=lambda change: repr(change)[:60],
    )
    def test_malformed_timeline_field_exit_3_with_its_line(
        self, tmp_path, monkeypatch, capsys, change
    ):
        monkeypatch.chdir(tmp_path)
        good = {"account_id": 7,
                "snapshots": [["2021-04-26", "active", 5], ["2021-04-27", "suspended", None]],
                "description": "hi", "deletion_days": [["2021-04-27", 10, [1, 2]]]}
        # ... drops the key
        bad = {key: value for key, value in {**good, **change}.items() if value is not ...}
        Path("timelines.ndjson").write_text(f"{json.dumps(good)}\n{json.dumps(bad)}\n")
        for stage, out in (("estimate", "est"), ("detect-flooding", "v.csv"),
                           ("stats", "stats")):
            assert run(stage, "--timelines", "timelines.ndjson", "--out", out) == 3
            assert "line 2: bad timeline" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, content, error",
        [
            ("--violations",
             "account_id,day,count_diff,deletions,total_posted,stale_suspect\n"
             "1,2021-04-26,10,2500,2510\n",
             "line 2: row has 5 cells, the header 6"),
            ("--violations",
             "account_id,day,count_diff,deletions,total_posted\n"
             "1,2021-04-26,10,2500,2510\n",
             "line 1: CSV header lacks ['stale_suspect']"),
            ("--bot-scores", "account_id,bot_score\n1,0.5\n2\n",
             "line 3: row has 1 cells, the header 2"),
            ("--bot-scores", "account_id\n1\n", "line 1: CSV header lacks ['bot_score']"),
        ],
        ids=["violations-cell", "violations-column", "bot-scores-cell", "bot-scores-column"],
    )
    def test_csv_missing_cell_or_column_exit_3(
        self, tmp_path, monkeypatch, capsys, flag, content, error
    ):
        monkeypatch.chdir(tmp_path)
        Path("timelines.ndjson").write_text(
            '{"account_id":1,"snapshots":[],"deletion_days":[]}\n'
        )
        Path("input.csv").write_text(content)
        argv = ["stats", "--timelines", "timelines.ndjson", flag, "input.csv", "--out", "out"]
        assert run(*argv) == 3
        assert error in capsys.readouterr().err

    def test_bot_scores_duplicate_account_exit_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("timelines.ndjson").write_text(
            '{"account_id":1,"snapshots":[],"deletion_days":[["2021-01-01",10,[]]]}\n'
        )
        Path("scores.csv").write_text("account_id,bot_score\n1,0.1\n2,0.5\n1,0.9\n")
        argv = ["stats", "--timelines", "timelines.ndjson", "--bot-scores", "scores.csv",
                "--out", "out"]
        assert run(*argv) == 3
        assert "line 4: bad row: a second score for account 1" in capsys.readouterr().err
        assert not Path("out").exists()

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_day_exit_3(self, tmp_path, monkeypatch, window):
        monkeypatch.chdir(tmp_path)
        Path("timelines.ndjson").write_text(
            '{"account_id":1,"snapshots":[],"deletion_days":[]}\n'
        )
        argv = ["stats", "--timelines", "timelines.ndjson", "--window", window, "--out", "out"]
        assert run(*argv) == 3

    @pytest.mark.parametrize(
        "lines, window, code, error",
        [
            (['{"account_id":1,"snapshots":[["2021-01-01","active",5]],'
              '"deletion_days":[["2021-02-10",10,[]]]}'], 41, 0, None),
            (['{"account_id":1,"snapshots":[["2021-01-01","active",5]],'
              '"deletion_days":[["2021-02-10",10,[]]]}'], 42, 3,
             "--window 42 exceeds the collection span of 41 days"),
            (['{"account_id":1,"snapshots":[["2021-01-05","active",5]],'
              '"deletion_days":[]}',
              '{"account_id":2,"snapshots":[],"deletion_days":[["2021-01-01",10,[]],'
              '["2021-01-08",10,[]]]}'], 31, 3,
             "--window 31 exceeds the collection span of 8 days and the default of 30"),
            (['{"account_id":1,"snapshots":[["2021-01-05","active",5]],'
              '"deletion_days":[]}'], 30, 0, None),
            ([], 100_000, 3, "--window 100000 exceeds the collection span of 0 days"),
            ([], None, 0, None),
            (['{"account_id":1,"snapshots":[],"deletion_days":[["2021-01-01",10,[]],'
              '["2021-01-02",10,[]]]}'], 1, 3,
             "account 1 deleted on 2 days, more than the window of 1"),
        ],
        ids=["span", "span+1", "short-span+1", "short-default", "empty", "empty-default",
             "account-beyond-window"],
    )
    def test_window_bounded_by_the_collection_span(
        self, tmp_path, monkeypatch, capsys, lines, window, code, error
    ):
        monkeypatch.chdir(tmp_path)
        Path("timelines.ndjson").write_text("".join(line + "\n" for line in lines))
        argv = ["stats", "--timelines", "timelines.ndjson", "--out", "out"]
        if window is not None:
            argv += ["--window", window]
        assert run(*argv) == code
        if error:
            assert error in capsys.readouterr().err
            assert not Path("out").exists()
        else:
            buckets = Path("out/buckets.csv").read_text().splitlines()
            assert len(buckets) == 1 + (window or 30)

    @pytest.mark.parametrize(
        "stage, name",
        [("aggregate", "events.ndjson"), ("aggregate", "snapshots.ndjson"),
         ("estimate", "timelines.ndjson")],
    )
    def test_invalid_utf8_exit_3_with_its_line(
        self, tmp_path, monkeypatch, capsys, stage, name
    ):
        monkeypatch.chdir(tmp_path)
        for empty in ("events.ndjson", "snapshots.ndjson", "timelines.ndjson"):
            Path(empty).write_text("")
        Path(name).write_bytes(b"\n\n" + b"x" * 5000 + b'{"a":"\xff"}\n')
        argv = {
            "aggregate": ["aggregate", "--events", "events.ndjson",
                          "--snapshots", "snapshots.ndjson", "--out", "out"],
            "estimate": ["estimate", "--timelines", "timelines.ndjson", "--out", "out"],
        }[stage]
        assert run(*argv) == 3
        assert "line 3: invalid UTF-8" in capsys.readouterr().err

    def test_config_without_value_usage_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            run("estimate", "--timelines", "agg", "--out", "est", "--config")
        assert err.value.code == 2
        assert "--config: expected one argument" in capsys.readouterr().err

    def test_bad_spec_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("spec.json").write_text('{"cohorts": [{"kind": "idle"}]}')
        assert run("generate", "--spec", "spec.json", "--out", "out") == 3

    def test_empty_event_file_exit_0(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("events.ndjson").write_text("")
        assert run("aggregate", "--events", "events.ndjson", "--out", "out") == 0
        assert Path("out/daily_deletions.ndjson").read_text() == ""
        assert Path("out/timelines.ndjson").read_text() == ""


class TestGenerate:
    def test_outputs_and_manifest(self, workspace):
        data = workspace / "data"
        for name in ("events.ndjson", "snapshots.ndjson", "ground_truth.json", "manifest.json"):
            assert (data / name).exists()
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["parameters"]["seed"] == 5
        assert manifest["inputs"]["spec"] == "spec.json"
        assert sorted(manifest["outputs"]) == manifest["outputs"]


class TestPipeline:
    def test_detect_flooding_recovers_planted_flooders(self, workspace):
        assert (
            run(
                "detect-flooding",
                "--timelines", "agg",
                "--out", "flood/violations.csv",
            )
            == 0
        )
        truth = read_ground_truth(workspace / "data" / "ground_truth.json")
        flooders = {
            account
            for account, posts in truth.daily_posts.items()
            if max(posts) > 2400
        }
        violations = read_violations(workspace / "flood" / "violations.csv")
        assert {v.account_id for v in violations} == flooders
        assert (workspace / "flood" / "violations.csv.manifest.json").exists()

    def test_allowlist_suppresses(self, workspace):
        truth = read_ground_truth(workspace / "data" / "ground_truth.json")
        flooder = sorted(
            account
            for account, posts in truth.daily_posts.items()
            if max(posts) > 2400
        )[0]
        (workspace / "allow.txt").write_text(f"# partner\n{flooder}\n")
        assert (
            run(
                "detect-flooding",
                "--timelines", "agg",
                "--allowlist", "allow.txt",
                "--out", "flood2/violations.csv",
            )
            == 0
        )
        violations = read_violations(workspace / "flood2" / "violations.csv")
        assert flooder not in {v.account_id for v in violations}

    def test_bad_allowlist_line_exit_3_with_its_number(self, workspace, capsys):
        (workspace / "allow.txt").write_text("# partner\n1\nabc\n")
        assert (
            run(
                "detect-flooding",
                "--timelines", "agg",
                "--allowlist", "allow.txt",
                "--out", "flood2/violations.csv",
            )
            == 3
        )
        assert "line 3" in capsys.readouterr().err

    def test_estimate_report(self, workspace):
        assert (
            run(
                "estimate",
                "--timelines", "agg",
                "--permutations", 100,
                "--out", "est",
            )
            == 0
        )
        report = json.loads((workspace / "est" / "report.json").read_text())
        assert report["pair_count"] > 0
        assert 0.0 <= report["ks_statistic"] <= 1.0
        assert report["ks_p_value"] is not None
        with open(workspace / "est" / "ccdf_actual.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["fraction"] == "1.0"

    def test_stats_outputs(self, workspace):
        assert (
            run(
                "detect-flooding",
                "--timelines", "agg",
                "--out", "flood/violations.csv",
            )
            == 0
        )
        scores_path = workspace / "scores.csv"
        scores_path.write_text("account_id,bot_score\n1,0.9\n")
        assert (
            run(
                "stats",
                "--timelines", "agg",
                "--violations", "flood/violations.csv",
                "--bot-scores", "scores.csv",
                "--window", 8,
                "--out", "stats",
            )
            == 0
        )
        with open(workspace / "stats" / "summaries.csv") as fh:
            summaries = list(csv.DictReader(fh))
        truth = read_ground_truth(workspace / "data" / "ground_truth.json")
        assert {int(r["account_id"]): r["category"] for r in summaries} == {
            account: category.value for account, category in truth.categories.items()
        }
        score_by_account = {int(r["account_id"]): r["bot_score"] for r in summaries}
        assert score_by_account[1] == "0.9"
        with open(workspace / "stats" / "buckets.csv") as fh:
            buckets = list(csv.DictReader(fh))
        assert len(buckets) == 8
        suspensions = (workspace / "stats" / "suspensions.csv").read_text()
        assert "suspicious" in suspensions
        with open(workspace / "stats" / "daily_volume_ccdf.csv") as fh:
            volume = list(csv.DictReader(fh))
        assert volume and volume[0]["fraction"] == "1.0"

    def test_detect_coordination_outputs(self, workspace):
        assert (
            run(
                "detect-coordination",
                "--deletions", "agg/daily_deletions.ndjson",
                "--unlikes", "agg/unlikes.ndjson",
                "--out", "coord",
            )
            == 0
        )
        truth = read_ground_truth(workspace / "data" / "ground_truth.json")
        farm = truth.farms[0]
        with open(workspace / "coord" / "nodes.csv") as fh:
            nodes = list(csv.DictReader(fh))
        assert {int(r["account_id"]) for r in nodes} == {farm.hub_id, *farm.spoke_ids}
        with open(workspace / "coord" / "edges.csv") as fh:
            edges = list(csv.DictReader(fh))
        assert len(edges) == len(farm.spoke_ids)
        manifest = json.loads((workspace / "coord" / "manifest.json").read_text())
        assert manifest["parameters"]["liker_edges_before"] >= manifest["parameters"][
            "liker_edges_after"
        ]

    def test_config_file_defaults_with_flag_override(self, workspace):
        config = workspace / "flood.json"
        config.write_text(json.dumps({"limit": 100_000, "timelines": "agg"}))
        assert (
            run(
                "detect-flooding",
                "--config", "flood.json",
                "--out", "fl_cfg/violations.csv",
            )
            == 0
        )
        assert read_violations(workspace / "fl_cfg" / "violations.csv") == []

        assert (
            run(
                "detect-flooding",
                "--config", "flood.json",
                "--limit", 2400,
                "--out", "fl_over/violations.csv",
            )
            == 0
        )
        assert read_violations(workspace / "fl_over" / "violations.csv") != []

    def test_config_equals_form_applied(self, workspace):
        config = workspace / "flood.json"
        config.write_text(json.dumps({"limit": 100_000, "timelines": "agg"}))
        assert (
            run(
                "detect-flooding",
                "--config=flood.json",
                "--out", "fl_eq/violations.csv",
            )
            == 0
        )
        assert read_violations(workspace / "fl_eq" / "violations.csv") == []

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["aggregate", "--events", "data/events.ndjson", "--out", "x"],
             {"threshold": [1]}),
            (["estimate", "--timelines", "agg", "--out", "x"], {"no_gaps": "no"}),
            (["detect-flooding", "--timelines", "agg", "--out", "x/v.csv"],
             {"limit": 2400.5}),
        ],
        ids=["list-for-int", "string-for-store-true", "float-for-int"],
    )
    def test_config_value_of_wrong_type_exit_3(self, workspace, capsys, argv, config):
        (workspace / "bad.json").write_text(json.dumps(config))
        assert run(*argv, "--config", "bad.json") == 3
        [key] = config
        assert f"config key {key!r} must be" in capsys.readouterr().err
        assert not (workspace / "x").exists()

    def test_config_values_of_the_flag_type_or_string_accepted(self, workspace):
        (workspace / "ok.json").write_text(
            json.dumps({"limit": "100000", "exclude_stale": True, "timelines": "agg"})
        )
        assert run("detect-flooding", "--config", "ok.json", "--out", "ok/v.csv") == 0
        manifest = json.loads((workspace / "ok" / "v.csv.manifest.json").read_text())
        assert manifest["parameters"]["limit"] == 100_000
        assert manifest["parameters"]["exclude_stale"] is True

    def test_manifest_outputs_are_the_files_written(self, workspace):
        for argv in (
            ["estimate", "--timelines", "agg", "--out", "est"],
            ["detect-flooding", "--timelines", "agg", "--out", "flood/violations.csv"],
            ["stats", "--timelines", "agg", "--violations", "flood/violations.csv",
             "--out", "stats"],
            ["detect-coordination", "--deletions", "agg/daily_deletions.ndjson",
             "--unlikes", "agg/unlikes.ndjson", "--out", "coord"],
        ):
            assert run(*argv) == 0
        manifests = [workspace / name / "manifest.json"
                     for name in ("data", "agg", "est", "stats", "coord")]
        manifests.append(workspace / "flood" / "violations.csv.manifest.json")
        for manifest in manifests:
            written = sorted(path.name for path in manifest.parent.iterdir())
            assert json.loads(manifest.read_text())["outputs"] == written

    @pytest.mark.parametrize("window, warned", [(None, True), (9, True), (8, False), (5, False)])
    def test_stats_warns_when_no_account_can_be_thirty_day(
        self, workspace, caplog, window, warned
    ):
        argv = ["stats", "--timelines", "agg", "--out", "stats"]
        if window is not None:
            argv += ["--window", window]
        with caplog.at_level("WARNING", logger="delstream.cli"):
            assert run(*argv) == 0
        messages = [r.getMessage() for r in caplog.records if r.name == "delstream.cli"]
        if warned:
            assert messages == [
                f"the timelines span 8 days, fewer than the window of {window or 30}: "
                "no account can be labelled thirty_day"
            ]
        else:
            assert messages == []

    def test_unknown_config_key_exit_3(self, workspace):
        config = workspace / "bad.json"
        config.write_text(json.dumps({"bogus_key": 1}))
        assert (
            run(
                "detect-flooding",
                "--config", "bad.json",
                "--timelines", "agg",
                "--out", "x/v.csv",
            )
            == 3
        )


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory) -> Path:
    """Aggregated records and a violations file, shared by the fuzz examples."""
    root = tmp_path_factory.mktemp("pipeline")
    write_spec(root)
    assert run("generate", "--spec", root / "spec.json", "--seed", 5,
               "--out", root / "data") == 0
    assert run("aggregate", "--events", root / "data" / "events.ndjson",
               "--snapshots", root / "data" / "snapshots.ndjson",
               "--out", root / "agg") == 0
    assert run("detect-flooding", "--timelines", root / "agg",
               "--out", root / "flood" / "violations.csv") == 0
    (root / "allow.txt").write_text("# partner\n1\n2\n")
    return root


def exit_code(*argv) -> int:
    try:
        return run(*argv)
    except SystemExit as err:  # argparse's usage errors
        return err.code


_NOISE = st.sampled_from(
    [b"", b",", b'"', b"\n", b"\r", b"#", b"-1", b"0", b"1.5", b"x", b"[1]", b'"x"',
     b"true", b"null", b"\xff", b"\x00", b" "]
) | st.binary(min_size=1, max_size=3)

#: Corruption works on the pieces between these bytes, so that dropping a
#: piece can merge two cells, drop a value or unbalance a quote or bracket.
_SEPARATORS = re.compile(rb'([,\n:{}\[\]"])')


@st.composite
def corrupted(draw, base: bytes) -> bytes:
    """``base`` with one to three of its pieces dropped, doubled or replaced."""
    pieces = _SEPARATORS.split(base)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(pieces) - 1))
        pieces[at:at + 1] = draw(
            st.sampled_from([[], [pieces[at]] * 2]) | st.lists(_NOISE, min_size=1, max_size=2)
        )
    return b"".join(pieces)


@pytest.mark.parametrize(
    "kind",
    ["violations", "bot-scores", "allowlist", "config",
     "events", "snapshots", "daily-deletions", "unlikes", "timelines"],
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_corrupted_input_files_exit_0_2_or_3(pipeline, kind, data):
    data_dir, agg, out = pipeline / "data", pipeline / "agg", pipeline / "fuzz-out"
    path = pipeline / f"fuzzed-{kind}"
    base, argvs = {
        "violations": (
            (pipeline / "flood" / "violations.csv").read_bytes(),
            [["stats", "--timelines", agg, "--violations", path, "--out", out / "stats"]],
        ),
        "bot-scores": (
            b"account_id,bot_score\n1,0.9\n2,0.25\n",
            [["stats", "--timelines", agg, "--bot-scores", path, "--out", out / "stats"]],
        ),
        "allowlist": (
            (pipeline / "allow.txt").read_bytes(),
            [["detect-flooding", "--timelines", agg, "--allowlist", path,
              "--out", out / "v.csv"]],
        ),
        "config": (
            json.dumps({"limit": 2400, "exclude_stale": True,
                        "allowlist": str(pipeline / "allow.txt")}).encode(),
            [["detect-flooding", "--timelines", agg, "--config", path,
              "--out", out / "v.csv"]],
        ),
        "events": (
            (data_dir / "events.ndjson").read_bytes(),
            [["aggregate", "--events", path, "--snapshots", data_dir / "snapshots.ndjson",
              "--out", out / "agg"]],
        ),
        "snapshots": (
            (data_dir / "snapshots.ndjson").read_bytes(),
            [["aggregate", "--events", data_dir / "events.ndjson", "--snapshots", path,
              "--out", out / "agg"]],
        ),
        "daily-deletions": (
            (agg / "daily_deletions.ndjson").read_bytes(),
            [["detect-coordination", "--deletions", path,
              "--unlikes", agg / "unlikes.ndjson", "--out", out / "coord"]],
        ),
        "unlikes": (
            (agg / "unlikes.ndjson").read_bytes(),
            [["detect-coordination", "--deletions", agg / "daily_deletions.ndjson",
              "--unlikes", path, "--out", out / "coord"]],
        ),
        "timelines": (
            (agg / "timelines.ndjson").read_bytes(),
            [["estimate", "--timelines", path, "--out", out / "est"],
             ["detect-flooding", "--timelines", path, "--out", out / "v.csv"],
             ["stats", "--timelines", path, "--out", out / "stats"]],
        ),
    }[kind]
    # Only the first dozen lines are corrupted, so that each example stays
    # cheap on the long NDJSON files; shorter files are corrupted whole.
    lines = base.splitlines(keepends=True)
    head, tail = b"".join(lines[:12]), b"".join(lines[12:])
    path.write_bytes(data.draw(corrupted(head)) + tail)
    for argv in argvs:
        assert exit_code(*argv) in (0, 2, 3)


def test_stages_that_use_no_numpy_start_without_it(tmp_path):
    """aggregate, detect-flooding, detect-coordination and stats never import numpy."""
    write_spec(tmp_path)
    assert run("generate", "--spec", tmp_path / "spec.json", "--seed", 5,
               "--out", tmp_path / "data") == 0
    script = """
import json, sys
from delstream.cli import main
codes = [
    main(["aggregate", "--events", "data/events.ndjson",
          "--snapshots", "data/snapshots.ndjson", "--out", "agg"]),
    main(["detect-flooding", "--timelines", "agg", "--out", "flood/violations.csv"]),
    main(["detect-coordination", "--deletions", "agg/daily_deletions.ndjson",
          "--unlikes", "agg/unlikes.ndjson", "--out", "coord"]),
    main(["stats", "--timelines", "agg", "--violations", "flood/violations.csv",
          "--bot-scores", "scores.csv", "--out", "stats"]),
]
print(json.dumps({"codes": codes, "numpy_loaded": "numpy" in sys.modules}))
"""
    (tmp_path / "scores.csv").write_text("account_id,bot_score\n1,0.9\n")
    child = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {"codes": [0, 0, 0, 0], "numpy_loaded": False}


#: Values an input option is given when it is meant to work, by option dest.
_GOOD_INPUTS = {
    "spec": ["spec.json"],
    "events": ["data/events.ndjson"],
    "snapshots": ["data/snapshots.ndjson"],
    "timelines": ["agg", "agg/timelines.ndjson"],
    "violations": ["flood/violations.csv"],
    "bot_scores": ["scores.csv"],
    "allowlist": ["allow.txt"],
    "deletions": ["agg/daily_deletions.ndjson"],
    "unlikes": ["agg/unlikes.ndjson"],
}
#: Inputs of the wrong kind, directories and paths that cannot be opened.
_OTHER_INPUTS = [
    "data", "nope.ndjson", "agg/timelines.ndjson/x", "data/ground_truth.json",
    "flood/violations.csv.manifest.json", *[p for ps in _GOOD_INPUTS.values() for p in ps],
]
#: Where a stage may write: a new directory, a file in one, an existing file
#: and a path under a file. Nothing else is ever given as --out.
_OUTS = ["argv-out/new", "argv-out/new/v.csv", "argv-out/file", "argv-out/file/x"]
_SMALL_INTS = st.integers(-60, 60)
_WORDS = st.sampled_from(["", "x", "-", "--", "-1", "1.5", "1e3", "true", "null", "é"])


@pytest.fixture(scope="module")
def argv_root(pipeline) -> Path:
    (pipeline / "scores.csv").write_text("account_id,bot_score\n1,0.9\n2,0.25\n")
    return pipeline


def _outs(root: Path):
    return st.sampled_from([str(root / out) for out in _OUTS])


def _value_for(action, root: Path, good: bool):
    """A strategy for one option's value: one meant to work, or any other."""
    if action.dest == "out":
        return _outs(root)
    if action.type is int:
        return st.integers(1, 60).map(str) if good else _SMALL_INTS.map(str) | _WORDS
    paths = st.sampled_from([str(root / p) for p in _OTHER_INPUTS])
    if good and action.dest in _GOOD_INPUTS:
        return st.sampled_from([str(root / p) for p in _GOOD_INPUTS[action.dest]])
    return paths | _WORDS


@st.composite
def _config(draw, root: Path, actions) -> str:
    """A --config file's text: mostly a JSON object of option values."""
    keys = [a.dest for a in actions] + ["help", "config", "bogus"]
    raw = {}
    for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
        action = next((a for a in actions if a.dest == key), None)
        if key == "out":  # only the writable paths, or a value of the wrong type
            raw[key] = draw(_outs(root) | st.integers(0, 1))
        elif action is not None and draw(st.booleans()):
            raw[key] = draw(_value_for(action, root, draw(st.booleans())))
        else:
            raw[key] = draw(st.one_of(
                _SMALL_INTS, st.booleans(), st.none(), st.floats(-60, 60), _WORDS,
                st.lists(_SMALL_INTS, max_size=2),
            ))
    return draw(st.sampled_from([json.dumps(raw)] * 4 + [json.dumps([raw]), "{", ""]))


@st.composite
def _argvs(draw, root: Path) -> list[str]:
    """A subcommand's argv: each option given a value meant to work, another
    value, no value or left out, then a few stray tokens and sometimes a
    --config file."""
    _, registry = cli.build_parser()
    name = draw(st.sampled_from(sorted(registry)))
    actions = [a for a in registry[name]._actions
               if a.option_strings and a.dest not in ("help", "config")]
    argv = [name]
    for action in actions:
        choice = draw(st.sampled_from(["good"] * 5 + ["other", "omit", "bare"]))
        if choice == "omit" or (action.nargs == 0 and draw(st.booleans())):
            continue
        argv.append(action.option_strings[0])
        if choice != "bare" and action.nargs != 0:
            argv.append(draw(_value_for(action, root, choice == "good")))
    every_flag = sorted({flag for sub in registry.values() for a in sub._actions
                         for flag in a.option_strings} - {"--out"})
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        token = draw(st.sampled_from(["--version", "-h", *every_flag]) | _WORDS
                     | _SMALL_INTS.map(str))
        argv.insert(draw(st.integers(1, len(argv))), token)
    if draw(st.integers(0, 3)) == 3:
        config = root / "argv-out" / "config.json"
        config.write_text(draw(_config(root, actions)))
        argv += ["--config", str(config)]
    return argv


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_random_argv_exit_0_2_or_3(argv_root, data):
    """Any argv over a small aggregated dataset exits 0, 2 or 3, never 1."""
    scratch = argv_root / "argv-out"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    (scratch / "file").write_text("")
    argv = data.draw(_argvs(argv_root))
    # A stray token after a bare --out is a relative output path: keep it here.
    cwd = os.getcwd()
    os.chdir(scratch)
    try:
        code = exit_code(*argv)
    finally:
        os.chdir(cwd)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 2, 3)


BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_cli_imports_every_layer_the_benchmark_declares(monkeypatch):
    """The traced benchmark times the layer functions in ``cli``'s namespace;
    each ``<module>.<function>.self_s`` it declares must be one of them."""
    spec = importlib.util.spec_from_file_location("_bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    wrapped = {name for name, _ in tracing.layer_functions(cli).values()}
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    expected = set()
    for metric in declared:
        module, _, rest = metric["name"].partition(".")
        function, _, unit = rest.partition(".")
        if module in tracing.LAYER_MODULES and unit == "self_s":
            expected.add(f"{module}.{function}")
    # behavior.tables sums the table functions that bench/run.py lists.
    expected.discard("behavior.tables")
    run_py = ast.parse((BENCH / "run.py").read_text())
    [tables] = [
        ast.literal_eval(node.value)
        for node in run_py.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["BEHAVIOR_TABLES"]
    ]
    expected.update(f"behavior.{name}" for name in tables)
    assert len(expected) > len(tables)
    assert expected - wrapped == set()
