"""CLI subcommands, exit codes, configuration, and output files."""

import csv
import json
import os

import pytest

from x16class import cli
from x16class.cli import Config, load_config, main


def test_config_validation():
    assert Config().format == "jsonl"
    with pytest.raises(ValueError):
        Config(trial_bound=0)
    with pytest.raises(ValueError):
        Config(format="xml")


def test_config_from_file_and_env(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"trial_bound": 500, "height_bound": 7}))
    cfg = load_config(str(path))
    assert cfg.trial_bound == 500 and cfg.height_bound == 7
    monkeypatch.setenv(cli.CONFIG_ENV, str(path))
    assert load_config().trial_bound == 500
    monkeypatch.delenv(cli.CONFIG_ENV)
    assert load_config().trial_bound == 10000


def test_factor_exit_codes(capsys, tmp_path):
    assert main(["factor", "8120"]) == 0
    assert "2^3 * 5 * 7 * 29" in capsys.readouterr().out
    # a budget too small to split a product of two large primes
    cfgpath = tmp_path / "small.json"
    cfgpath.write_text(json.dumps({"trial_bound": 100, "rho_iterations": 1000}))
    n = (2**89 - 1) * (2**107 - 1)
    assert main(["--config", str(cfgpath), "factor", str(n)]) == 2


def test_classgroup(capsys):
    assert main(["classgroup", "--disc", "-8120", "--structure"]) == 0
    out = capsys.readouterr().out
    assert "h(-8120) = 40" in out and "[2, 2, 10]" in out


def test_census_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "census.jsonl"
    assert main(["census", "--height", "6", "--jsonl", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    summary = lines[-1]
    assert summary["summary"] and summary["violations"] == []
    assert sorted(summary["exceptions"]) == ["-3", "1/3"]
    recs = lines[:-1]
    assert all(isinstance(r["h"], str) for r in recs)  # big ints as strings
    assert len(recs) == summary["records"]


def test_census_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["census", "--height", "6", "--jsonl", str(a)]) == 0
    assert main(["census", "--height", "6", "--jsonl", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "config, height, code",
    [({"trial_bound": 10, "rho_iterations": 1}, 20, 2), ({}, 8, 0)],
)
def test_census_pool_matches_serial(tmp_path, capsys, config, height, code):
    """worker_count 2 writes the same bytes as the serial census, error rows
    included: a failing record is recorded, it does not abort the pool."""
    outputs = []
    for workers in (1, 2):
        cfgpath = tmp_path / f"cfg{workers}.json"
        cfgpath.write_text(json.dumps({**config, "worker_count": workers}))
        out = tmp_path / f"census{workers}.jsonl"
        argv = ["--config", str(cfgpath), "census", "--height", str(height), "--jsonl", str(out)]
        assert main(argv) == code
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    summary = json.loads(outputs[0].splitlines()[-1])
    assert len(summary["errors"]) == (88 if code else 0)


def test_census_csv_matches_jsonl(tmp_path, capsys):
    """The summary row has its own keys, so it starts a second header line;
    its list fields are JSON-encoded."""
    jsonl, csvout = tmp_path / "census.jsonl", tmp_path / "census.csv"
    assert main(["census", "--height", "6", "--jsonl", str(jsonl)]) == 0
    cfgpath = tmp_path / "csv.json"
    cfgpath.write_text(json.dumps({"format": "csv"}))
    assert main(["--config", str(cfgpath), "census", "--height", "6", "--jsonl", str(csvout)]) == 0
    expected = [json.loads(l) for l in jsonl.read_text().splitlines()]
    with open(csvout, newline="") as fh:
        lines = list(csv.reader(fh))
    header, *body = lines
    assert header == list(expected[0])
    assert len(body) == len(expected) + 1  # one more header, before the summary
    for row, rec in zip(body, expected[:-1]):
        assert row == [str(v) for v in rec.values()]
    summary = dict(zip(*body[-2:]))
    assert list(summary) == list(expected[-1])
    assert {k: json.loads(v) if v.startswith("[") else v for k, v in summary.items()} == {
        k: v if isinstance(v, list) else str(v) for k, v in expected[-1].items()
    }


def test_pullback(capsys):
    assert main(["pullback", "--t", "-5"]) == 0
    assert "order = 5" in capsys.readouterr().out
    assert main(["pullback", "--t", "-3"]) == 0
    assert "order = 1" in capsys.readouterr().out


def test_verify_claims(capsys):
    assert main(["verify-claims"]) == 0
    out = capsys.readouterr().out
    assert "claim9" in out and "external" in out and "fail" not in out
    assert main(["verify-claims", "--only", "claim21"]) == 0
    assert main(["verify-claims", "--only", "claim99"]) == 1  # unknown claim


def test_verify_table1(capsys):
    assert main(["verify-table1"]) == 0
    out = capsys.readouterr().out
    assert "h(Q(sqrt(-15))) = 2" in out and "h(Q(sqrt(-2030))) = 40" in out


def test_verify_example6(capsys):
    assert main(["verify-example6"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_lemmas(capsys):
    assert main(["verify-lemmas"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ok  B_h^2 - A_h^2 h16 = (r - s)^10",
        "ok  U A + V B = 64",
    ]


def test_heuristic(tmp_path):
    out = tmp_path / "heur.jsonl"
    assert main(["heuristic", "--mmax", "4", "--jsonl", str(out)]) == 0
    recs = [json.loads(l) for l in out.read_text().splitlines()]
    assert [r["m"] for r in recs] == [0, 1, 2, 3, 4]
    assert recs[1]["certified"] and recs[1]["p_digits"] == 2


def test_pi2(capsys):
    assert main(["pi2", "--n", "20"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["count"] == "11"
    assert main(["pi2", "--n", str(10**9)]) == 2  # over the memory cap
    capsys.readouterr()
    for bad in ("0", "-5"):
        assert main(["pi2", "--n", bad]) == 3
        assert "--n" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert main(["no-such-command"]) == 3
    assert main(["pullback", "--t", "zebra"]) == 3
    for bad in ("0", "-3"):
        assert main(["census", "--height", bad]) == 3
        assert "--height" in capsys.readouterr().err
