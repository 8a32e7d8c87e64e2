"""Stage inputs the CLI refuses with exit 3, naming the line: a repeated or
out-of-order line in a sorted intermediate file, a bot-score cell that is
not ASCII decimal text, a violations row whose ``total_posted`` is not
``count_diff + deletions``, and a CSV input whose header names a column twice
or whose line is not UTF-8; and a spec whose cohort has an unknown kind or a
rate past the largest float."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from delstream import cli

SPEC = {
    "days": 6,
    "start_day": "2021-04-26",
    "cohorts": [
        {"kind": "normal_deleter", "count": 4, "post_rate": 4, "delete_rate": 16,
         "delete_days": [1, 3], "age_median_days": 50},
        {"kind": "like_farm_hub", "count": 1, "farm_size": 11, "farm_day": 2,
         "spoke_unlikes": 7},
    ],
}


def run(*argv) -> int:
    return cli.main([str(arg) for arg in argv])


@pytest.fixture(scope="module")
def agg(tmp_path_factory) -> Path:
    """The intermediate files of a small generated collection."""
    root = tmp_path_factory.mktemp("inputs")
    (root / "spec.json").write_text(json.dumps(SPEC))
    assert run("generate", "--spec", root / "spec.json", "--seed", 1,
               "--out", root / "data") == 0
    assert run("aggregate", "--events", root / "data" / "events.ndjson",
               "--snapshots", root / "data" / "snapshots.ndjson",
               "--out", root / "agg") == 0
    return root / "agg"


#: Each intermediate file's sort key.
_KEYS = {
    "timelines.ndjson": ("account_id",),
    "daily_deletions.ndjson": ("account_id", "day"),
    "unlikes.ndjson": ("liker_id", "tweet_id"),
}


def _lines(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    assert len(lines) >= 3
    return lines


def _repeated(lines: list[str]) -> list[str]:
    """The lines with the second repeated as the third."""
    return lines[:2] + lines[1:]


def _swapped(lines: list[str]) -> list[str]:
    """The lines with the second and third swapped."""
    return [lines[0], lines[2], lines[1]] + lines[3:]


_STAGES = [
    ("timelines.ndjson", ["estimate", "--timelines", "{path}", "--out", "{out}"]),
    ("timelines.ndjson", ["detect-flooding", "--timelines", "{path}", "--out", "{out}"]),
    ("timelines.ndjson", ["stats", "--timelines", "{path}", "--out", "{out}"]),
    ("daily_deletions.ndjson", ["detect-coordination", "--deletions", "{path}",
                                "--unlikes", "{agg}/unlikes.ndjson", "--out", "{out}"]),
    ("unlikes.ndjson", ["detect-coordination", "--deletions",
                        "{agg}/daily_deletions.ndjson", "--unlikes", "{path}",
                        "--out", "{out}"]),
]


@pytest.mark.parametrize("name, argv", _STAGES,
                         ids=["estimate", "detect-flooding", "stats",
                              "coordination-deletions", "coordination-unlikes"])
@pytest.mark.parametrize("change", [_repeated, _swapped], ids=["repeated", "swapped"])
def test_repeated_or_out_of_order_line_exit_3(agg, tmp_path, capsys, name, argv, change):
    """Line 3 holds the file's second record, after one with an equal or
    greater key."""
    lines = _lines(agg / name)
    path = tmp_path / name
    path.write_text("".join(f"{line}\n" for line in change(lines)))
    out = tmp_path / "out"
    assert run(*(arg.format(path=path, agg=agg, out=out) for arg in argv)) == 3
    raw = json.loads(lines[1])
    key = ", ".join(f"{field} {raw[field]}" for field in _KEYS[name])
    assert f"line 3: {key} repeats or precedes the line before" in capsys.readouterr().err
    assert not out.exists()


def test_an_extra_unlike_line_for_a_counted_pair_exit_3(agg, tmp_path, capsys):
    """Summed, the extra line would add a liker edge; it is refused instead."""
    lines = _lines(agg / "unlikes.ndjson")
    extra = {**json.loads(lines[0]), "unlike_count": 1}
    path = tmp_path / "unlikes.ndjson"
    path.write_text("".join(f"{line}\n" for line in [lines[0], json.dumps(extra)] + lines[1:]))
    assert run("detect-coordination", "--deletions", agg / "daily_deletions.ndjson",
               "--unlikes", path, "--out", tmp_path / "out") == 3
    liker, tweet = extra["liker_id"], extra["tweet_id"]
    assert (f"line 2: liker_id {liker}, tweet_id {tweet} repeats or precedes the line before"
            in capsys.readouterr().err)


@pytest.mark.parametrize(
    "score",
    [" 0.5", "0.5 ", "0.0_1", "٠.٥", "+0.5", ".5", "5.", "1E-05", "1e5",
     "0x1", "", "NaN", "Infinity", "1/2"],
)
def test_bot_score_not_decimal_text_exit_3(tmp_path, monkeypatch, capsys, score):
    monkeypatch.chdir(tmp_path)
    Path("timelines.ndjson").write_text(
        '{"account_id":1,"snapshots":[],"deletion_days":[["2021-01-01",10,[]]]}\n'
    )
    Path("scores.csv").write_text(f"account_id,bot_score\n2,0.5\n1,{score}\n",
                                  encoding="utf-8")
    assert run("stats", "--timelines", "timelines.ndjson", "--bot-scores", "scores.csv",
               "--out", "out") == 3
    assert (f"line 3: bad row: 'bot_score' must be a decimal number, got {score!r}"
            in capsys.readouterr().err)
    assert not Path("out").exists()


@pytest.mark.parametrize("score, value", [
    ("0.5", 0.5), ("1", 1.0), ("0", 0.0), ("1.0", 1.0), ("1e-05", 1e-05),
    ("0.30000000000000004", 0.30000000000000004), ("5e-324", 5e-324), ("-0.0", 0.0),
])
def test_bot_score_decimal_text_read(tmp_path, monkeypatch, score, value):
    monkeypatch.chdir(tmp_path)
    Path("timelines.ndjson").write_text(
        '{"account_id":1,"snapshots":[],"deletion_days":[["2021-01-01",10,[]]]}\n'
    )
    Path("scores.csv").write_text(f"account_id,bot_score\n1,{score}\n")
    assert run("stats", "--timelines", "timelines.ndjson", "--bot-scores", "scores.csv",
               "--out", "out") == 0
    [row] = Path("out/summaries.csv").read_text().splitlines()[1:]
    assert float(row.split(",")[-1]) == value


@pytest.mark.parametrize("total", ["2511", "-2510"])
def test_violation_total_posted_not_the_sum_exit_3(tmp_path, monkeypatch, capsys, total):
    monkeypatch.chdir(tmp_path)
    Path("timelines.ndjson").write_text(
        '{"account_id":1,"snapshots":[],"deletion_days":[["2021-01-01",10,[]]]}\n'
    )
    Path("v.csv").write_text("account_id,day,count_diff,deletions,total_posted,stale_suspect\n"
                             f"1,2021-04-26,10,2500,2510,0\n2,2021-04-26,10,2500,{total},0\n")
    assert run("stats", "--timelines", "timelines.ndjson", "--violations", "v.csv",
               "--out", "out") == 3
    assert ("line 3: bad row: total_posted must equal count_diff + deletions"
            in capsys.readouterr().err)
    assert not Path("out").exists()


#: For each CSV input of ``stats``: its flag, its header and a good row.
_CSV_INPUTS = {
    "violations": ("--violations", "account_id,day,count_diff,deletions,total_posted,"
                   "stale_suspect", "1,2021-04-26,10,2500,2510,0"),
    "bot-scores": ("--bot-scores", "account_id,bot_score", "1,0.5"),
}


def _stats_with_csv(name: str, text: bytes) -> int:
    Path("timelines.ndjson").write_text(
        '{"account_id":1,"snapshots":[],"deletion_days":[["2021-01-01",10,[]]]}\n'
    )
    Path("input.csv").write_bytes(text)
    return run("stats", "--timelines", "timelines.ndjson", _CSV_INPUTS[name][0], "input.csv",
               "--out", "out")


@pytest.mark.parametrize("name", sorted(_CSV_INPUTS))
def test_csv_header_naming_a_column_twice_exit_3(tmp_path, monkeypatch, capsys, name):
    """Read by header name, a repeated column would keep only its last cell."""
    monkeypatch.chdir(tmp_path)
    _, header, row = _CSV_INPUTS[name]
    repeated = header.split(",")[1]
    text = f"{header},{repeated}\n{row},{row.split(',')[1]}\n"
    assert _stats_with_csv(name, text.encode()) == 3
    assert f"line 1: CSV header repeats [{repeated!r}]" in capsys.readouterr().err
    assert not Path("out").exists()


@pytest.mark.parametrize("name", sorted(_CSV_INPUTS))
def test_csv_line_of_invalid_utf8_exit_3_with_its_line(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    _, header, row = _CSV_INPUTS[name]
    bad = row.encode().replace(b",", b",\xff", 1)
    assert _stats_with_csv(name, f"{header}\n{row}\n".encode() + bad + b"\n") == 3
    assert "line 3: invalid UTF-8" in capsys.readouterr().err
    assert not Path("out").exists()


def test_spec_with_an_unknown_kind_exit_3(tmp_path, capsys):
    spec = {**SPEC, "cohorts": [{**SPEC["cohorts"][0], "kind": "bot"}]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert run("generate", "--spec", tmp_path / "spec.json", "--out", tmp_path / "out") == 3
    assert ("delstream: invalid input: 'bot' is not a valid ProfileKind"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_spec_rate_past_the_largest_float_exit_3(tmp_path, capsys):
    """A JSON integer too large for a float is refused, not an overflow."""
    spec = {**SPEC, "cohorts": [{**SPEC["cohorts"][0], "post_rate": 10**400}]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    assert run("generate", "--spec", tmp_path / "spec.json", "--out", tmp_path / "out") == 3
    assert ("delstream: invalid input: post_rate must be finite and >= 0, got 1000"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()
