from __future__ import annotations

import ast
import csv
import functools
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from datetime import date
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import oracles
from delstream import cli, records, synth
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


#: A spec that generates a handful of events.
_SMALL_SPEC = {
    "days": 2,
    "start_day": "2021-04-26",
    "cohorts": [
        {"kind": "flooder", "count": 1, "post_rate": 1, "cycle_posts": 2,
         "cycles_per_day": 1, "flood_days": [1], "initial_count": 10},
    ],
}


def _is_int(value) -> bool:
    return type(value) is int


def _is_int_list(value) -> bool:
    return type(value) is list and all(type(item) is int for item in value)


def _is_number(value) -> bool:
    return type(value) in (int, float)


#: Whether a value has the JSON type of a spec field, a cohort's ``count``
#: or a profile field.
_SPEC_TYPES = {
    "days": _is_int,
    "start_day": lambda v: type(v) is str,
    "cohorts": lambda v: type(v) is list,
    "count": _is_int,
    "kind": lambda v: type(v) is str,
    "delete_days": lambda v: v is None or _is_int_list(v),
    **dict.fromkeys(
        ["post_rate", "delete_rate", "age_median_days", "age_sigma"], _is_number
    ),
    **dict.fromkeys(
        ["min_daily_deletions", "cycle_posts", "cycles_per_day", "farm_size",
         "farm_tweets", "farm_day", "spoke_unlikes", "initial_count", "seed"],
        _is_int,
    ),
    **dict.fromkeys(["flood_days", "gap_days", "stale_days"], _is_int_list),
}

_json_scalars = st.one_of(
    st.text(max_size=4), st.integers(-3, 3), st.floats(), st.booleans(), st.none()
)
#: Values of every JSON type: string, number, true/false, null, array, object.
_json_values = st.one_of(
    _json_scalars,
    st.lists(_json_scalars, max_size=3),
    st.dictionaries(st.text(max_size=3), _json_scalars, max_size=2),
)


_GOOD_RECORDS = {
    "daily.ndjson": {"account_id": 1, "day": "2021-04-26", "tweet_ids": [5, 6]},
    "unlikes.ndjson": {"liker_id": 2, "tweet_id": 5, "unlike_count": 5},
    "timelines.ndjson": {"account_id": 1, "snapshots": [["2021-04-26", "active", 5]],
                         "description": "", "deletion_days": [["2021-04-26", 10]],
                         "median_deleted_age_days": 1},
}
_BAD_JSON_IDS = st.sampled_from([0, -5, True, "5", 5.0])
_BAD_TEXT_IDS = st.sampled_from(
    ["0", "-5", "true", "5.0", "007", "+5", "1_000", "\u0661\u0662", " 5"])
_BAD_AGES = st.integers(max_value=-1)
#: Day values that are not ``YYYY-MM-DD``; Python 3.11+ reads the first two
#: as ISO 8601 dates.
_BAD_DAYS = st.sampled_from(
    ["20210426", "2021-W17-1", "2021-W17", "2021-116", "2021-04-26T00:00",
     "2021-4-26", "2021-02-30", " 2021-04-26", "\u0662021-04-26", 20210426, None])


def _second_record(name: str, *keys):
    """The good record of ``name``, then a copy with the value at ``keys``."""
    def text(value) -> str:
        good = _GOOD_RECORDS[name]
        bad = target = json.loads(json.dumps(good))
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return f"{json.dumps(good)}\n{json.dumps(bad)}\n"
    return text


_COORDINATION = [["detect-coordination", "--deletions", "daily.ndjson", "--unlikes",
                  "unlikes.ndjson", "--min-component", "1", "--out", "out"]]
_ON_TIMELINES = [[stage, "--timelines", "timelines.ndjson", "--out", out]
                 for stage, out in (("estimate", "out"), ("stats", "out"),
                                    ("detect-flooding", "out.csv"))]
_VIOLATIONS = ("account_id,day,count_diff,deletions,total_posted,stale_suspect\n"
               "1,2021-04-26,10,2500,2510,0\n{},2021-04-26,10,2500,2510,0\n")
_GOOD_DAILY = json.dumps(_GOOD_RECORDS["daily.ndjson"]) + "\n"
_GOOD_UNLIKE = json.dumps(_GOOD_RECORDS["unlikes.ndjson"]) + "\n"
_STATS_ON_VIOLATIONS = [["stats", "--timelines", "timelines.ndjson", "--violations",
                         "v.csv", "--out", "out"]]

#: Case -> (the input file, its text given the bad value, stage argvs, the
#: line of the bad value, bad values).
_BAD_FIELD_CASES = {
    "daily account_id": ("daily.ndjson", _second_record("daily.ndjson", "account_id"),
                         _COORDINATION, 2, _BAD_JSON_IDS),
    "daily tweet_ids": ("daily.ndjson", _second_record("daily.ndjson", "tweet_ids", 1),
                        _COORDINATION, 2, _BAD_JSON_IDS),
    "daily day": ("daily.ndjson", _second_record("daily.ndjson", "day"),
                  _COORDINATION, 2, _BAD_DAYS),
    "unlike liker_id": ("unlikes.ndjson", _second_record("unlikes.ndjson", "liker_id"),
                        _COORDINATION, 2, _BAD_JSON_IDS),
    "unlike tweet_id": ("unlikes.ndjson", _second_record("unlikes.ndjson", "tweet_id"),
                        _COORDINATION, 2, _BAD_JSON_IDS),
    "timeline account_id": ("timelines.ndjson",
                            _second_record("timelines.ndjson", "account_id"),
                            _ON_TIMELINES, 2, _BAD_JSON_IDS),
    "timeline age": ("timelines.ndjson",
                     _second_record("timelines.ndjson", "median_deleted_age_days"),
                     _ON_TIMELINES, 2, _BAD_AGES),
    "timeline day": ("timelines.ndjson",
                     _second_record("timelines.ndjson", "deletion_days", 0, 0),
                     _ON_TIMELINES, 2, _BAD_DAYS),
    "violations account_id": ("v.csv", _VIOLATIONS.format, _STATS_ON_VIOLATIONS, 3,
                              _BAD_TEXT_IDS),
    "violations day": ("v.csv", _VIOLATIONS.replace("{},2021-04-26", "1,{}").format,
                       _STATS_ON_VIOLATIONS, 3, _BAD_DAYS),
    "bot-scores account_id": ("b.csv", "account_id,bot_score\n1,0.5\n{},0.5\n".format, [
        ["stats", "--timelines", "timelines.ndjson", "--bot-scores", "b.csv",
         "--out", "out"]], 3, _BAD_TEXT_IDS),
    # Lines are stripped of surrounding whitespace, as in every line-framed
    # input, so an allowlist line " 5" is the ID 5.
    "allowlist": ("allow.txt", "# partners\n1\n{}\n".format, [
        ["detect-flooding", "--timelines", "timelines.ndjson", "--allowlist",
         "allow.txt", "--out", "out.csv"]], 3, _BAD_TEXT_IDS.filter(lambda v: v != " 5")),
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
            '{"account_id":1,"snapshots":[],"deletion_days":[],"median_deleted_age_days":null}\n'
        )
        argv = ["estimate", "--timelines", "timelines.ndjson", "--permutations", -5,
                "--out", "out"]
        assert run(*argv) == 3
        assert "--permutations must be >= 0" in capsys.readouterr().err
        assert not Path("out").exists()

    @pytest.mark.parametrize("permutations", [0, 5])
    def test_negative_seed_exit_3(self, tmp_path, monkeypatch, capsys, permutations):
        monkeypatch.chdir(tmp_path)
        Path("timelines.ndjson").write_text(
            '{"account_id":1,"snapshots":[],"deletion_days":[],"median_deleted_age_days":null}\n'
        )
        argv = ["estimate", "--timelines", "timelines.ndjson", "--seed", -1,
                "--permutations", permutations, "--out", "out"]
        assert run(*argv) == 3
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err
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

    @pytest.mark.parametrize("name", ["events.ndjson", "snapshots.ndjson"])
    @pytest.mark.parametrize(
        "stamp",
        ["20210426T000000Z", "2021-04-26T00:00:00+0000", "2021-04-26T00:00:00,5Z",
         "2021-W17-1T00:00:00Z"],
    )
    def test_timestamp_in_a_later_pythons_form_exit_3_with_its_line(
        self, tmp_path, monkeypatch, capsys, name, stamp
    ):
        """Forms 3.11's ``fromisoformat`` reads and 3.10's does not, on the
        general path of the event and the snapshot reader."""
        monkeypatch.chdir(tmp_path)
        event = {"kind": "tweet_delete", "actor_id": 1, "object_id": 2,
                 "observed_at": "2021-04-26T00:00:01Z"}
        snapshot = {"account_id": 1, "snapshot_day": "2021-04-26", "statuses_count": 5,
                    "status": "active", "description": "", "created_at": None,
                    "queried_at": "2021-04-27T00:35:00Z"}
        good = {"events.ndjson": event, "snapshots.ndjson": snapshot}
        field = {"events.ndjson": "observed_at", "snapshots.ndjson": "queried_at"}[name]
        for each, record in good.items():
            lines = [record, {**record, field: stamp}] if each == name else [record]
            Path(each).write_text("".join(f"{json.dumps(x)}\n" for x in lines))
        argv = ["aggregate", "--events", "events.ndjson", "--snapshots", "snapshots.ndjson",
                "--out", "out"]
        assert run(*argv) == 3
        assert f"line 2: bad timestamp {stamp!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("wrapped", [False, True])
    def test_tweet_created_at_the_id_epoch_gets_a_unique_id(
        self, tmp_path, monkeypatch, wrapped
    ):
        """10,591 deletions on 2010-11-04: the 586th is created 30 minutes
        before it is deleted, exactly at the ID scheme's epoch, where a
        time-encoded ID would be 0 (sequence field wrapped) or equal the
        first legacy ID, 1."""
        monkeypatch.chdir(tmp_path)
        if wrapped:
            monkeypatch.setattr(
                synth, "_tweet_ids", functools.partial(synth._tweet_ids, sequence=0x3FFFFF)
            )
        write_spec(tmp_path, {"days": 1, "start_day": "2010-11-04", "cohorts": [
            {"kind": "normal_deleter", "count": 1, "delete_rate": 1,
             "min_daily_deletions": 10591}]})
        assert run("generate", "--spec", "spec.json", "--seed", 1, "--out", "data") == 0
        with open("data/events.ndjson", encoding="utf-8") as fh:
            ids = [json.loads(line)["object_id"] for line in fh]
        assert len(ids) == 10591
        assert len(set(ids)) == 10591

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
            '{"account_id":"x","snapshots":[],"deletion_days":[],"median_deleted_age_days":null}\n'
            '{"account_id":2,"snapshots":[],"deletion_days":[],"median_deleted_age_days":null}\n'
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
            {"deletion_days": [["2021-04-27", 10, [1, 2]]]},
            {"deletion_days": [["2021-04-27"]]},
            {"deletion_days": [["x", 10]]},
            {"deletion_days": [["2021-04-27", "10"]]},
            {"deletion_days": [["2021-04-27", True]]},
            {"deletion_days": [["2021-04-27", 0]]},
            {"median_deleted_age_days": ...},
            {"median_deleted_age_days": "1"},
            {"median_deleted_age_days": 1.5},
            {"median_deleted_age_days": False},
            {"median_deleted_age_days": -1},
            {"median_deleted_age_days": [1, 2]},
            {"deletion_days": [], "median_deleted_age_days": 1},
            {"deletion_days": [["2021-04-27", 10], ["2021-04-27", 10]]},
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
                "description": "hi", "deletion_days": [["2021-04-27", 10]],
                "median_deleted_age_days": 1}
        # ... drops the key
        bad = {key: value for key, value in {**good, **change}.items() if value is not ...}
        Path("timelines.ndjson").write_text(f"{json.dumps(good)}\n{json.dumps(bad)}\n")
        for stage, out in (("estimate", "est"), ("detect-flooding", "v.csv"),
                           ("stats", "stats")):
            assert run(stage, "--timelines", "timelines.ndjson", "--out", out) == 3
            assert "line 2: bad timeline" in capsys.readouterr().err

    @pytest.mark.parametrize("earlier, message", [
        ('{"account_id":8,"snapshots":[],"description":"",'
         '"deletion_days":[["2021-04-27",2,[373]]]}',
         "'deletion_days' must be a list of [day, deletion_count] rows"),
        ('{"account_id":8,"snapshots":[],"description":"","deletion_days":[]}',
         "'median_deleted_age_days' is missing"),
    ], ids=["ages-per-day", "no-deletion-days"])
    def test_earlier_runs_timeline_line_exit_3_naming_the_form(
        self, tmp_path, monkeypatch, capsys, earlier, message
    ):
        """A line an earlier run wrote, with each deletion day's ages, is
        refused with its line number; re-running ``aggregate`` rewrites it."""
        monkeypatch.chdir(tmp_path)
        Path("timelines.ndjson").write_text(
            '{"account_id":7,"snapshots":[],"description":"","deletion_days":[],'
            '"median_deleted_age_days":null}\n' + earlier + "\n"
        )
        for stage, out in (("estimate", "est"), ("detect-flooding", "v.csv"),
                           ("stats", "stats")):
            assert run(stage, "--timelines", "timelines.ndjson", "--out", out) == 3
            assert (f"delstream: invalid input: line 2: bad timeline: {message}"
                    in capsys.readouterr().err)
            assert not Path(out).exists()

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
            '{"account_id":1,"snapshots":[],"deletion_days":[],"median_deleted_age_days":null}\n'
        )
        Path("input.csv").write_text(content)
        argv = ["stats", "--timelines", "timelines.ndjson", flag, "input.csv", "--out", "out"]
        assert run(*argv) == 3
        assert error in capsys.readouterr().err

    def test_bot_scores_duplicate_account_exit_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        Path("timelines.ndjson").write_text(
            '{"account_id":1,"snapshots":[],"deletion_days":[["2021-01-01",10]],"median_deleted_age_days":null}\n'
        )
        Path("scores.csv").write_text("account_id,bot_score\n1,0.1\n2,0.5\n1,0.9\n")
        argv = ["stats", "--timelines", "timelines.ndjson", "--bot-scores", "scores.csv",
                "--out", "out"]
        assert run(*argv) == 3
        assert "line 4: bad row: a second score for account 1" in capsys.readouterr().err
        assert not Path("out").exists()

    @pytest.mark.parametrize("row", ["999999,7", "999999,nan", "1,1.5"])
    def test_bot_score_outside_unit_interval_exit_3(self, tmp_path, monkeypatch, capsys, row):
        """Rejected with its line, whether or not the account has deletion days."""
        monkeypatch.chdir(tmp_path)
        Path("timelines.ndjson").write_text(
            '{"account_id":1,"snapshots":[],"deletion_days":[["2021-01-01",10]],"median_deleted_age_days":null}\n'
        )
        Path("scores.csv").write_text(f"account_id,bot_score\n{row}\n")
        argv = ["stats", "--timelines", "timelines.ndjson", "--bot-scores", "scores.csv",
                "--out", "out"]
        assert run(*argv) == 3
        score = row.split(",")[1]
        assert (f"line 2: bad row: bot_score '{score}' is outside [0, 1]"
                in capsys.readouterr().err)
        assert not Path("out").exists()

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_day_exit_3(self, tmp_path, monkeypatch, window):
        monkeypatch.chdir(tmp_path)
        Path("timelines.ndjson").write_text(
            '{"account_id":1,"snapshots":[],"deletion_days":[],"median_deleted_age_days":null}\n'
        )
        argv = ["stats", "--timelines", "timelines.ndjson", "--window", window, "--out", "out"]
        assert run(*argv) == 3

    @pytest.mark.parametrize(
        "lines, window, code, error",
        [
            (['{"account_id":1,"snapshots":[["2021-01-01","active",5]],'
              '"deletion_days":[["2021-02-10",10]],"median_deleted_age_days":null}'], 41, 0, None),
            (['{"account_id":1,"snapshots":[["2021-01-01","active",5]],'
              '"deletion_days":[["2021-02-10",10]],"median_deleted_age_days":null}'], 42, 3,
             "--window 42 exceeds the collection span of 41 days"),
            (['{"account_id":1,"snapshots":[["2021-01-05","active",5]],'
              '"deletion_days":[],"median_deleted_age_days":null}',
              '{"account_id":2,"snapshots":[],"deletion_days":[["2021-01-01",10],'
              '["2021-01-08",10]],"median_deleted_age_days":null}'], 31, 3,
             "--window 31 exceeds the collection span of 8 days and the default of 30"),
            (['{"account_id":1,"snapshots":[["2021-01-05","active",5]],'
              '"deletion_days":[],"median_deleted_age_days":null}'], 30, 0, None),
            ([], 100_000, 3, "--window 100000 exceeds the collection span of 0 days"),
            ([], None, 0, None),
            (['{"account_id":1,"snapshots":[],"deletion_days":[["2021-01-01",10],'
              '["2021-01-02",10]],"median_deleted_age_days":null}'], 1, 3,
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
        "files, argv, code, error",
        [
            ({"daily.ndjson": "{}\n", "unlikes.ndjson": _GOOD_UNLIKE + '{"liker_id":0}\n'},
             _COORDINATION[0], 3,
             "invalid input: line 2: bad unlike record: 'liker_id' must be an integer >= 1, "
             "got 0"),
            ({"unlikes.ndjson": '{"liker_id":0}\n'}, _COORDINATION[0], 2,
             "cannot open: [Errno 2] No such file or directory: 'daily.ndjson'"),
            ({"daily.ndjson": _GOOD_DAILY + "{}\n", "unlikes.ndjson": _GOOD_UNLIKE},
             [*_COORDINATION[0], "--min-unlikes", "0"], 3,
             "invalid input: min_unlikes must be >= 1, got 0"),
            ({"timelines.ndjson": "{}\n", "v.csv": "x\n"}, _STATS_ON_VIOLATIONS[0], 3,
             "invalid input: line 1: bad timeline: 'snapshots' must be a list of "
             "[day, status, statuses_count] rows"),
            ({"timelines.ndjson": "{}\n"}, [*_STATS_ON_VIOLATIONS[0], "--window", "0"], 3,
             "invalid input: line 1: bad timeline: 'snapshots' must be a list of "
             "[day, status, statuses_count] rows"),
        ],
        ids=["both-coordination-inputs", "coordination-daily-missing",
             "coordination-threshold", "both-stats-inputs", "stats-window"],
    )
    def test_of_two_faults_the_one_read_first_is_reported(
        self, tmp_path, monkeypatch, capsys, files, argv, code, error
    ):
        # detect-coordination opens the daily file, reads the unlike file,
        # checks its thresholds, then reads the daily file; stats reads the
        # timelines before the violations and checks --window after both.
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            Path(name).write_text(text)
        assert run(*argv) == code
        assert capsys.readouterr().err == f"delstream: {error}\n"
        assert not Path("out").exists()

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

    @given(field=st.sampled_from(sorted(_SPEC_TYPES)), value=_json_values)
    @settings(max_examples=300, deadline=None)
    def test_spec_field_of_the_wrong_json_type_exit_3(self, field, value):
        assume(not _SPEC_TYPES[field](value))
        spec = json.loads(json.dumps(_SMALL_SPEC))
        target = spec if field in ("days", "start_day", "cohorts") else spec["cohorts"][0]
        target[field] = value
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as directory, redirect_stderr(err):
            spec_path = write_spec(Path(directory), spec)
            out = Path(directory) / "out"
            assert run("generate", "--spec", spec_path, "--out", out) == 3
            assert not out.exists()
        assert err.getvalue().startswith("delstream: invalid input:")
        assert field in err.getvalue()

    @pytest.mark.parametrize(
        "field, value",
        [("start_day", "0001-01-01"), ("start_day", "9999-12-30"),
         ("post_rate", float("nan")), ("delete_rate", float("nan")),
         ("age_median_days", float("nan")), ("age_median_days", -5),
         ("age_sigma", float("nan")), ("age_sigma", float("inf"))],
    )
    def test_spec_value_out_of_range_exit_3(self, tmp_path, capsys, field, value):
        spec = json.loads(json.dumps(_SMALL_SPEC))
        spec["cohorts"][0].update(kind="normal_deleter", delete_rate=12, age_median_days=30)
        (spec if field == "start_day" else spec["cohorts"][0])[field] = value
        out = tmp_path / "out"
        assert run("generate", "--spec", write_spec(tmp_path, spec), "--out", out) == 3
        assert not out.exists()
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("account", ["-5", "0", "1_000", "\u0661\u0662", "007", "+5"])
    def test_bad_account_id_exit_3_with_its_line(
        self, tmp_path, monkeypatch, capsys, account
    ):
        monkeypatch.chdir(tmp_path)
        Path("timelines.ndjson").write_text(
            '{"account_id":1,"snapshots":[],"deletion_days":[],"median_deleted_age_days":null}\n'
        )
        Path("allow.txt").write_text(f"# partner\n1\n{account}\n", encoding="utf-8")
        argv = ["detect-flooding", "--timelines", "timelines.ndjson",
                "--allowlist", "allow.txt", "--out", "v.csv"]
        assert run(*argv) == 3
        assert f"line 3: bad account ID {account!r}" in capsys.readouterr().err
        Path("scores.csv").write_text(
            f"account_id,bot_score\n1,0.5\n{account},0.5\n", encoding="utf-8"
        )
        argv = ["stats", "--timelines", "timelines.ndjson", "--bot-scores", "scores.csv",
                "--out", "out"]
        assert run(*argv) == 3
        assert f"line 3: bad row: bad account ID {account!r}" in capsys.readouterr().err
        assert not Path("v.csv").exists() and not Path("out").exists()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bad_id_or_age_in_any_analysis_input_exit_3_with_its_line(self, data):
        """Every ID field of every input of the analysis stages is a positive
        integer, in JSON and in text, every age is at least 0, and every day
        is ``YYYY-MM-DD``."""
        case = data.draw(st.sampled_from(sorted(_BAD_FIELD_CASES)), label="case")
        name, text, argvs, line, values = _BAD_FIELD_CASES[case]
        value = data.draw(values, label="value")
        argv = data.draw(st.sampled_from(argvs), label="argv")
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as directory, redirect_stderr(err):
            root = Path(directory)
            for good, record in _GOOD_RECORDS.items():
                (root / good).write_text(json.dumps(record) + "\n")
            (root / name).write_text(text(value), encoding="utf-8")
            assert run(*[root / a if "." in a or a == "out" else a for a in argv]) == 3
            assert not (root / "out").exists() and not (root / "out.csv").exists()
        assert err.getvalue().startswith(f"delstream: invalid input: line {line}:")
        assert "Traceback" not in err.getvalue()

    def test_daily_record_without_ids_exit_3_with_its_line(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        good = _GOOD_RECORDS["daily.ndjson"]
        Path("daily.ndjson").write_text(
            f"{json.dumps(good)}\n{json.dumps({**good, 'tweet_ids': []})}\n"
        )
        Path("unlikes.ndjson").write_text(json.dumps(_GOOD_RECORDS["unlikes.ndjson"]) + "\n")
        assert run(*_COORDINATION[0]) == 3
        err = capsys.readouterr().err
        assert "line 2: bad deletion record: tweet_ids must not be empty" in err
        assert not Path("out").exists()

    @pytest.mark.parametrize("stage", ["detect-coordination", "aggregate"])
    def test_deeply_nested_json_exit_3_with_its_line(
        self, tmp_path, monkeypatch, capsys, stage
    ):
        monkeypatch.chdir(tmp_path)
        for good, record in _GOOD_RECORDS.items():
            Path(good).write_text(json.dumps(record) + "\n")
        event = {"kind": "unlike", "actor_id": 1, "object_id": 2,
                 "observed_at": "2021-04-26T00:00:01Z"}
        deep = "[" * 200_000 + "]" * 200_000
        name, argv = {
            "detect-coordination": ("daily.ndjson", _COORDINATION[0]),
            "aggregate": ("events.ndjson", ["aggregate", "--events", "events.ndjson",
                                            "--out", "out"]),
        }[stage]
        first = _GOOD_RECORDS.get(name, event)
        Path(name).write_text(f"{json.dumps(first)}\n{deep}\n")
        assert run(*argv) == 3
        assert "line 2: invalid JSON" in capsys.readouterr().err
        assert not Path("out").exists()

    @pytest.mark.parametrize("argv", [
        ["generate", "--spec", "deep.json", "--out", "out"],
        ["estimate", "--timelines", "timelines.ndjson", "--config", "deep.json",
         "--out", "out"],
    ])
    def test_deeply_nested_spec_or_config_exit_3(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        Path("timelines.ndjson").write_text(json.dumps(_GOOD_RECORDS["timelines.ndjson"]))
        Path("deep.json").write_text("[" * 200_000 + "]" * 200_000)
        assert run(*argv) == 3
        assert "nested too deeply" in capsys.readouterr().err
        assert not Path("out").exists()

    @pytest.mark.parametrize("field", ["count_diff", "deletions", "total_posted"])
    @pytest.mark.parametrize("value", ["\u0661\u0662", " 12", "1_2", "+5", "-0"])
    def test_violation_count_not_in_str_int_form_exit_3(
        self, tmp_path, monkeypatch, capsys, field, value
    ):
        """The count cells of a violations row are integers in the form
        ``str(int)`` writes, as ``detect-flooding`` writes them."""
        monkeypatch.chdir(tmp_path)
        Path("timelines.ndjson").write_text(json.dumps(_GOOD_RECORDS["timelines.ndjson"]))
        header, good = _VIOLATIONS.splitlines()[:2]
        cells = good.split(",")
        cells[header.split(",").index(field)] = value
        Path("v.csv").write_text(f"{header}\n{good}\n{','.join(cells)}\n", encoding="utf-8")
        argv = ["stats", "--timelines", "timelines.ndjson", "--violations", "v.csv",
                "--out", "out"]
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert f"line 3: bad row: {field!r} must be an integer" in err
        assert not Path("out").exists()

    def test_empty_event_file_exit_0(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("events.ndjson").write_text("")
        assert run("aggregate", "--events", "events.ndjson", "--out", "out") == 0
        assert Path("out/daily_deletions.ndjson").read_text() == ""
        assert Path("out/timelines.ndjson").read_text() == ""


class TestGenerate:
    def test_builds_no_notice(self, tmp_path, monkeypatch):
        """``generate`` writes its events from integer rows: with every
        ComplianceNotice refused, it still writes them all, and the
        manifest counts the lines of the event file."""

        def refuse(notice):
            raise AssertionError("generate built a ComplianceNotice")

        monkeypatch.setattr(records.ComplianceNotice, "__post_init__", refuse)
        monkeypatch.chdir(tmp_path)
        write_spec(tmp_path)
        assert run("generate", "--spec", "spec.json", "--seed", 5, "--out", "data") == 0
        manifest = json.loads(Path("data/manifest.json").read_text())
        lines = Path("data/events.ndjson").read_bytes().count(b"\n")
        assert manifest["parameters"]["events"] == lines > 0

    def test_builds_no_row_notice_or_snapshot(self, tmp_path, monkeypatch):
        """``generate`` writes from the dataset's columns: with its ``rows``,
        ``notices`` and ``snapshots`` refused, it exits 0 and writes what
        the row-at-a-time generator writes."""

        def refuse(dataset):
            raise AssertionError("generate built Python records")

        for name in ("rows", "notices", "snapshots"):
            monkeypatch.setattr(synth.SyntheticDataset, name, property(refuse))
        monkeypatch.chdir(tmp_path)
        write_spec(tmp_path)
        assert run("generate", "--spec", "spec.json", "--seed", 5, "--out", "data") == 0
        rows, snapshots, truth = oracles.generated_dataset_oracle(
            synth.spec_from_dict(SPEC), 5
        )
        records.write_notices("events.ndjson", oracles.generated_notices_oracle(rows))
        records.write_snapshots("snapshots.ndjson", snapshots)
        synth.write_ground_truth("ground_truth.json", truth)
        for name in ("events.ndjson", "snapshots.ndjson", "ground_truth.json"):
            assert Path("data", name).read_bytes() == Path(name).read_bytes()
        manifest = json.loads(Path("data/manifest.json").read_text())
        assert manifest["parameters"]["events"] == len(rows) > 0

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

    def test_detect_coordination_reads_an_earlier_runs_daily_file_alike(self, workspace):
        """The daily deletions file in the form earlier runs wrote, with each
        line's ``deletion_count`` and ``deleted_ages_days``, gives the same
        graph, byte for byte."""
        current = workspace / "agg" / "daily_deletions.ndjson"
        earlier = workspace / "earlier_daily_deletions.ndjson"
        lines = []
        for line in current.read_text().splitlines():
            raw = json.loads(line)
            assert list(raw) == ["account_id", "day", "tweet_ids"]
            day = date.fromisoformat(raw["day"])
            ages = [oracles.age_days_oracle(day, i) for i in raw["tweet_ids"]]
            lines.append(json.dumps({
                "account_id": raw["account_id"],
                "day": raw["day"],
                "deletion_count": len(raw["tweet_ids"]),
                "deleted_ages_days": sorted(age for age in ages if age is not None),
                "tweet_ids": raw["tweet_ids"],
            }, separators=(",", ":")))
        earlier.write_text("".join(f"{line}\n" for line in lines))
        for deletions, out in ((current, "coord"), (earlier, "coord_earlier")):
            argv = ["detect-coordination", "--deletions", deletions,
                    "--unlikes", "agg/unlikes.ndjson", "--out", out]
            assert run(*argv) == 0
        assert (workspace / "coord" / "edges.csv").read_text().count("\n") > 1
        for name in ("edges.csv", "nodes.csv", "components.csv"):
            assert (workspace / "coord_earlier" / name).read_bytes() == (
                workspace / "coord" / name
            ).read_bytes()

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

    def test_stats_warning_says_one_day(self, tmp_path, monkeypatch, caplog):
        monkeypatch.chdir(tmp_path)
        Path("timelines.ndjson").write_text(
            '{"account_id":1,"snapshots":[],"deletion_days":[["2021-01-01",10]],"median_deleted_age_days":null}\n'
        )
        with caplog.at_level("WARNING", logger="delstream.cli"):
            assert run("stats", "--timelines", "timelines.ndjson", "--out", "stats") == 0
        messages = [r.getMessage() for r in caplog.records if r.name == "delstream.cli"]
        assert messages == [
            "the timelines span 1 day, fewer than the window of 30: "
            "no account can be labelled thirty_day"
        ]

    def test_stats_reads_each_accounts_last_snapshot_and_description(
        self, tmp_path, monkeypatch
    ):
        """An account's final status is its last snapshot's: account 1 was
        active, then suspended. Account 3 never deleted, so it is counted in
        no category, and its description in no group's terms."""
        monkeypatch.chdir(tmp_path)
        lines = [
            {"account_id": 1, "snapshots": [["2021-01-01", "active", 50],
                                            ["2021-01-02", "suspended", None]],
             "description": "promo deals", "deletion_days": [["2021-01-01", 10]],
             "median_deleted_age_days": 3},
            {"account_id": 2, "snapshots": [["2021-01-02", "active", 5]],
             "description": "coffee", "deletion_days": [["2021-01-01", 12],
                                                         ["2021-01-03", 12]],
             "median_deleted_age_days": None},
            {"account_id": 3, "snapshots": [["2021-01-04", "suspended", None]],
             "description": "promo promo", "deletion_days": [],
             "median_deleted_age_days": None},
        ]
        Path("timelines.ndjson").write_text("".join(json.dumps(line) + "\n" for line in lines))
        Path("v.csv").write_text(_VIOLATIONS.splitlines()[0] + "\n1,2021-01-01,10,2500,2510,0\n")
        assert run("stats", "--timelines", "timelines.ndjson", "--violations", "v.csv",
                   "--out", "stats") == 0
        assert Path("stats/suspensions.csv").read_text().splitlines() == [
            "category,suspended,total,unknown,fraction",
            "one_day,0,0,0,0.0",
            "thirty_day,0,0,0,0.0",
            "suspicious,1,1,0,1.0",
            "other,0,1,0,0.0",
        ]
        assert Path("stats/terms.csv").read_text().splitlines() == [
            "group,term,count", "suspicious,deals,1", "suspicious,promo,1",
        ]

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
    """aggregate, detect-flooding, detect-coordination, stats and estimate
    without --permutations never import numpy."""
    write_spec(tmp_path)
    assert run("generate", "--spec", tmp_path / "spec.json", "--seed", 5,
               "--out", tmp_path / "data") == 0
    script = """
import json, sys
from pathlib import Path
from delstream.cli import main
codes = [
    main(["aggregate", "--events", "data/events.ndjson",
          "--snapshots", "data/snapshots.ndjson", "--out", "agg"]),
    main(["detect-flooding", "--timelines", "agg", "--out", "flood/violations.csv"]),
    main(["detect-coordination", "--deletions", "agg/daily_deletions.ndjson",
          "--unlikes", "agg/unlikes.ndjson", "--out", "coord"]),
    main(["stats", "--timelines", "agg", "--violations", "flood/violations.csv",
          "--bot-scores", "scores.csv", "--out", "stats"]),
    main(["estimate", "--timelines", "agg", "--out", "est"]),
    main(["estimate", "--timelines", "agg", "--per-account-median", "--floor", "1",
          "--out", "est-median"]),
]
reports = [json.loads(Path(out, "report.json").read_text()) for out in ("est", "est-median")]
assert all(report["pair_count"] > 0 for report in reports), reports
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
    assert json.loads(child.stdout) == {"codes": [0] * 6, "numpy_loaded": False}


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
