from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

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
