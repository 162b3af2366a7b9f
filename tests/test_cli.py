"""CLI subcommands, exit codes, configuration, and output files."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import x16class
from x16class import arith, cli, ecq, quadform, x16
from x16class.cli import Config, load_config, main


def test_config_validation(tmp_path, capsys):
    assert Config().format == "jsonl"
    with pytest.raises(ValueError):
        Config(trial_bound=0)
    with pytest.raises(ValueError):
        Config(format="xml")
    for bad in (
        {"trial_bound": 1.5},
        {"rho_iterations": 2.5},
        {"rho_iterations": True},
        {"trial_bound": "100"},
        {"rng_seed": 1.0},
        {"rng_seed": False},
    ):
        with pytest.raises(ValueError):
            Config(**bad)
    assert Config(rng_seed=-5).rng_seed == -5
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"rho_iterations": 2.5}))
    assert main(["--config", str(path), "factor", "12"]) == 3
    assert "bad configuration" in capsys.readouterr().err
    # the primality test has no round count to configure
    path.write_text(json.dumps({"prime_rounds": 40}))
    assert main(["--config", str(path), "factor", "12"]) == 3
    assert "bad configuration" in capsys.readouterr().err
    # the census height and the output path are flags only, and the census's
    # process count is the CPUs it may use
    assert cli.parse_args(["census"])[1].height == 50
    for key, value in (("height_bound", 7), ("output_path", "out.jsonl"), ("worker_count", 2)):
        path.write_text(json.dumps({key: value}))
        assert main(["--config", str(path), "factor", "12"]) == 3
        assert "bad configuration" in capsys.readouterr().err


def test_config_from_file_and_env(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"trial_bound": 500, "format": "csv"}))
    cfg = load_config(str(path))
    assert cfg.trial_bound == 500 and cfg.format == "csv"
    monkeypatch.setenv(cli.CONFIG_ENV, str(path))
    assert load_config().trial_bound == 500
    monkeypatch.delenv(cli.CONFIG_ENV)
    assert load_config().trial_bound == 10000


def test_config_defaults_are_stated_once():
    """Config's defaults are the factoring budget's."""
    assert Config().budget() == arith.DEFAULT_BUDGET


def test_factor_exit_codes(capsys, tmp_path):
    """Both output lines print the factorisation as FactoredInt does; the
    incomplete one names the cofactor C after the primes found."""
    assert main(["factor", "8120"]) == 0
    assert capsys.readouterr().out == "8120 = 2^3 * 5 * 7 * 29\n"
    assert main(["factor", "--", "-360"]) == 0
    assert capsys.readouterr().out == "-360 = -2^3 * 3^2 * 5\n"
    # a budget too small to split a product of two large primes
    cfgpath = tmp_path / "small.json"
    cfgpath.write_text(json.dumps({"trial_bound": 100, "rho_iterations": 1000}))
    n = (2**89 - 1) * (2**107 - 1)
    assert main(["--config", str(cfgpath), "factor", str(n)]) == 2
    assert capsys.readouterr().out == f"{n} = 1 * C where C = {n} (incomplete)\n"
    assert main(["--config", str(cfgpath), "factor", "--", str(-12 * n)]) == 2
    assert capsys.readouterr().out == f"{-12 * n} = -2^2 * 3 * C where C = {n} (incomplete)\n"


def test_classgroup(capsys, monkeypatch):
    assert main(["classgroup", "--disc", "-8120", "--structure"]) == 0
    out = capsys.readouterr().out
    assert "h(-8120) = 40" in out and "[2, 2, 10]" in out
    # above the class-number size cap: a budget exit, not an allocation
    disc = -(quadform.CLASS_NUMBER_DISC_CAP + 3)
    assert main(["classgroup", "--disc", str(disc)]) == 2
    assert "budget exceeded" in capsys.readouterr().err
    assert main(["classgroup", "--disc", "-16219"]) == 3  # 7^2 * (-331)
    assert "not a fundamental discriminant" in capsys.readouterr().err
    # above the class-group cap, --structure and --forms stop before any form
    # is listed; h itself is still printed
    def refuse(disc):
        raise AssertionError("enumerate_reduced ran above the cap")

    monkeypatch.setattr(quadform, "enumerate_reduced", refuse)
    disc = -134217731  # the first fundamental discriminant beyond -2^27
    assert -disc > quadform.CLASS_GROUP_DISC_CAP >= -disc - 4
    for flag in ("--structure", "--forms"):
        assert main(["classgroup", "--disc", str(disc), flag]) == 2
        captured = capsys.readouterr()
        assert f"h({disc}) = " in captured.out
        assert "budget exceeded" in captured.err


def test_classgroup_forms(capsys, monkeypatch):
    """--forms lists the reduced forms and computes no structure; with
    --structure too, both are printed."""
    forms = ["  (1, 0, 21)", "  (2, 2, 11)", "  (3, 0, 7)", "  (5, 4, 5)"]
    assert main(["classgroup", "--disc", "-84", "--forms", "--structure"]) == 0
    assert capsys.readouterr().out.splitlines() == ["h(-84) = 4", "elementary divisors: [2, 2]", *forms]

    def refuse(cg):
        raise AssertionError("--forms computed the group structure")

    monkeypatch.setattr(quadform, "group_structure", refuse)
    assert main(["classgroup", "--disc", "-84", "--forms"]) == 0
    assert capsys.readouterr().out.splitlines() == ["h(-84) = 4", *forms]


def test_classgroup_mismatch(capsys, monkeypatch):
    """A sieved h that disagrees with the enumerated forms exits 1; the
    enumerator does not use the sieve, so it still lists 40 forms."""
    real = quadform.class_numbers
    monkeypatch.setattr(quadform, "class_numbers", lambda discs: [h + 1 for h in real(discs)])
    assert main(["classgroup", "--disc", "-8120", "--structure"]) == 1
    captured = capsys.readouterr()
    assert "h(-8120) = 41" in captured.out and "MISMATCH: 40 reduced forms" in captured.err


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


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "config, height, code",
    [({"CLASS_NUMBER_DISC_CAP": 2**20}, 20, 2), ({}, 8, 0)],
)
def test_census_pool_matches_serial(tmp_path, capsys, monkeypatch, config, height, code):
    """On 2 and 3 CPUs the census writes the same bytes as on 1, error rows
    included: a failing record is recorded, it does not abort the census.
    config lowers quadform's size cap, so that the 30 records of height
    <= 20 whose |disc| exceeds 2^20 fail.  The cap is checked in the parent,
    before any fork.  With any cost enough for a fork, the 35 fields below
    the cap at height 20, and the 8 of height 8, are cut into one contiguous
    share per CPU; this process computes the first share, each share beyond
    it is one forked child, and none is left after the census."""
    for name, value in config.items():
        monkeypatch.setattr(quadform, name, value)
    monkeypatch.setattr(x16, "CENSUS_MIN_WORK", 1)
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or real_fork())
    outputs, children = [], []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(x16, "census_processes", lambda: cpus)
        out = tmp_path / f"census{cpus}.jsonl"
        argv = ["census", "--height", str(height), "--jsonl", str(out)]
        forks.clear()
        assert main(argv) == code
        _no_child_left()
        children.append(len(forks))
        outputs.append(out.read_bytes())
    assert children == [0, 1, 2] and outputs[0] == outputs[1] == outputs[2]
    summary = json.loads(outputs[0].splitlines()[-1])
    assert len(summary["errors"]) == (30 if code else 0)
    assert all(msg.startswith("BudgetExceeded: ") for _, msg in summary["errors"])


CENSUS_SHA256 = {
    36: "a20f2c4dfb548c1253745250b95d90637e54ffd85ce3e6c44d18acc8422de2f4",
    50: "165b701784c1ae4eed7432df14ace5111a17880e7b2eaf774515704a76da3d1b",
}


@pytest.mark.parametrize("height, sha256", CENSUS_SHA256.items())
def test_census_jsonl_pinned(tmp_path, capsys, height, sha256):
    """The census output under the default configuration, byte for byte."""
    out = tmp_path / "census.jsonl"
    assert main(["census", "--height", str(height), "--jsonl", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


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
    assert main(["pullback", "--t", "2"]) == 3  # d = 70: not an imaginary field
    assert "NotImaginary" in capsys.readouterr().err
    # a negative fraction is the value of --t, as a negative integer is; at
    # -1014976681/109765576, h16 leaves a 24-digit cofactor that the default
    # budget does not split, but each of its four pieces factors
    for t, order in (("-242/29", 1), ("29/242", 1), ("-5", 5), ("-1014976681/109765576", 5)):
        for argv in (["--t", t], [f"--t={t}"]):
            assert main(["pullback", *argv]) == 0
            out = capsys.readouterr().out
            assert out.startswith(f"t = {t}: ") and out.endswith(f"order = {order}\n")


def test_pullback_budget_names_the_piece(capsys, tmp_path):
    """A budget too small for one of h16's pieces exits 2 and names it."""
    t = "-1014976681/109765576"
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps({"trial_bound": 3, "rho_iterations": 1}))
    assert main(["--config", str(cfgpath), "pullback", f"--t={t}"]) == 2
    err = capsys.readouterr().err
    assert "factorization budget exhausted" in err and f"t = {t}: piece C1014976681" in err


def test_verify_claims(capsys):
    assert main(["verify-claims"]) == 0
    out = capsys.readouterr().out
    assert "claim9" in out and "external" in out and "fail" not in out
    assert main(["verify-claims", "--only", "claim21"]) == 0
    assert main(["verify-claims", "--only", "claim99"]) == 3  # unknown claim


def test_verify_claims_stdout_is_deterministic(capsys):
    """Each claim's wall time goes to stderr, so stdout is the same on every
    run: one line per claim, its id, status and description."""
    outputs = []
    for _ in range(2):
        assert main(["verify-claims"]) == 0
        captured = capsys.readouterr()
        outputs.append(captured.out)
        lines = captured.out.splitlines()
        assert len(lines) == len(captured.err.splitlines()) == 42
        assert all(line.endswith(" ms") for line in captured.err.splitlines())
    assert outputs[0] == outputs[1]
    statuses = [line.split()[1] for line in outputs[0].splitlines()]
    assert (statuses.count("pass"), statuses.count("external")) == (24, 18)


def test_verify_table1(capsys):
    assert main(["verify-table1"]) == 0
    out = capsys.readouterr().out
    assert "h(Q(sqrt(-15))) = 2" in out and "h(Q(sqrt(-2030))) = 40" in out


def test_verify_example6(capsys):
    assert main(["verify-example6"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_main_reuses_its_parser(capsys):
    """One process, one command table: each command through main still gets
    its own exit code and output, so no parse leaks into the next, and a
    value given once does not become the next parse's default."""
    assert cli.parse_args(["census", "--height", "7"])[1].height == 7
    assert cli.parse_args(["census"])[1].height == 50
    assert main(["pi2"]) == 3
    captured = capsys.readouterr()
    assert "--n" in captured.err and captured.out == ""
    assert main(["pi2", "--n", "20"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["count"] == "11" and captured.err == ""
    assert main(["verify-lemmas"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "ok  B_h^2 - A_h^2 h16 = (r - s)^10",
        "ok  U A + V B = 64",
    ]
    assert captured.err == ""


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
    assert recs[0]["status"] == "non_hit" and recs[0]["certified"]  # 4 = 2^2
    assert main(["heuristic", "--mmax", "0", "--jsonl", str(out)]) == 0
    assert [json.loads(l)["m"] for l in out.read_text().splitlines()] == [0]
    assert main(["heuristic", "--mmax", "-1"]) == 3


@pytest.mark.parametrize("command", [["census", "--height", "36"], ["heuristic", "--mmax", "30"]])
def test_unwritable_output(tmp_path, capsys, monkeypatch, command):
    """An output file that cannot be opened is a usage error: one stderr line
    naming it, before the census or the search starts."""

    def refuse(*args):
        raise AssertionError("the work started before the output was opened")

    monkeypatch.setattr(x16, "census", refuse)
    monkeypatch.setattr(ecq, "heuristic_search", refuse)
    path = tmp_path / "missing" / "out.jsonl"
    assert main([*command, "--jsonl", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"usage error: cannot open {path}: No such file or directory\n"


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


def test_env(capsys, monkeypatch):
    assert main(["env"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert list(rec) == ["x16class", "python", "numpy", "cpu_count", "workers", "fork", "platform"]
    assert rec["x16class"] == x16class.__version__
    assert rec["cpu_count"] == os.cpu_count()
    # the census's process count: one per CPU this process may use
    assert rec["fork"] is hasattr(os, "fork")
    assert rec["workers"] == x16.census_processes()
    monkeypatch.setattr(x16, "FORK", False)  # as where os.fork is missing
    assert main(["env"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert (rec["workers"], rec["fork"]) == (1, False)


def test_python_dash_m(tmp_path):
    """python -m x16class runs the CLI from the source tree, exit code included."""
    env = {**os.environ, "PYTHONPATH": str(Path(x16class.__file__).parent.parent)}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "x16class", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )

    done = run("env")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["x16class"] == x16class.__version__
    assert run("no-such-command").returncode == 3


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_cli_on_one_cpu(tmp_path):
    """Started on one CPU (as by `taskset -c 0`), the CLI reports one census
    process and writes the pinned census without a fork: the child process
    runs main with os.fork replaced by a function that raises."""
    env = {**os.environ, "PYTHONPATH": str(Path(x16class.__file__).parent.parent)}
    cpu = min(os.sched_getaffinity(0))
    no_fork = (
        "import os, sys\n"
        "def refuse(): raise AssertionError('the census forked')\n"
        "os.fork = refuse\n"
        "from x16class.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-c", no_fork, *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )

    done = run("env")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["workers"] == 1
    out = tmp_path / "census.jsonl"
    done = run("census", "--height", "36", "--jsonl", str(out))
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CENSUS_SHA256[36]


def test_census_into_closed_pipe(tmp_path, monkeypatch):
    """A reader that stops after one line (``| head -1``) ends the census
    with exit 141 and no traceback, not with exit 1, which means a violation.
    The census runs on the CPUs it may use, forked when there are several;
    in process, on 2 CPUs and with the pipe's reader closed at once, the
    write that fails kills and reaps the child."""
    env = {**os.environ, "PYTHONPATH": str(Path(x16class.__file__).parent.parent)}
    with subprocess.Popen(
        [sys.executable, "-m", "x16class", "census", "--height", "36"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert json.loads(first)["t_num"] == "-3"
    assert "Traceback" not in stderr
    assert code == 141, stderr
    r, w = os.pipe()
    os.close(r)
    with open(w, "w") as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        monkeypatch.setattr(x16, "census_processes", lambda: 2)
        assert main(["census", "--height", "36"]) == 141
    _no_child_left()


def test_census_fork_failure_exits_2(capsys, monkeypatch):
    """A fork that fails (a process limit: BlockingIOError) is a budget
    exit, 2, with one stderr line, not a traceback and exit 1, which means a
    violation.  On 3 processes the first fork succeeds and the second fails;
    the child already forked is killed and reaped."""
    monkeypatch.setattr(x16, "census_processes", lambda: 3)
    monkeypatch.setattr(x16, "CENSUS_MIN_WORK", 1)
    forks, real_fork = [], os.fork

    def fork_once():
        if forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork_once)
    assert main(["census", "--height", "20"]) == 2
    _no_child_left()
    assert len(forks) == 1
    assert capsys.readouterr().err == "budget exceeded: cannot fork a census process: [Errno 11] Resource temporarily unavailable\n"


# each command's required tokens, and every option it then holds
PARSED = {
    "factor": (["12"], {"n": 12}),
    "classgroup": (["--disc", "-84"], {"disc": -84, "forms": False, "structure": False}),
    "census": ([], {"height": 50, "jsonl": None}),
    "pullback": (["--t", "-242/29"], {"t": Fraction(-242, 29)}),
    "verify-claims": ([], {"only": None}),
    "verify-table1": ([], {}),
    "verify-example6": ([], {}),
    "verify-lemmas": ([], {}),
    "heuristic": (["--mmax", "0"], {"mmax": 0, "jsonl": None}),
    "pi2": (["--n", "20"], {"n": 20}),
    "env": ([], {}),
}

REQUIRED_OPTION = {"factor": "n", "classgroup": "--disc", "pullback": "--t", "heuristic": "--mmax", "pi2": "--n"}


@pytest.mark.parametrize("command", PARSED)
def test_command_defaults_and_required_options(command):
    """Each command's defaults; without its required option, the usage
    error names that option."""
    assert list(PARSED) == list(cli.COMMANDS)
    required, expected = PARSED[command]
    name, args = cli.parse_args([command, *required])
    assert name == command and vars(args) == {"config": None, **expected}
    if command in REQUIRED_OPTION:
        with pytest.raises(ValueError, match=f"^{command} needs {REQUIRED_OPTION[command]}$"):
            cli.parse_args([command])
    else:
        assert cli.parse_args([command])[0] == command


def test_option_forms():
    """--opt VALUE and --opt=VALUE; the token after an option is its value,
    a negative one included; after --, a token is positional."""
    for argv in (["--disc", "-16219"], ["--disc=-16219"]):
        assert cli.parse_args(["classgroup", *argv, "--forms"])[1].disc == -16219
    for argv in (["--t", "-242/29"], ["--t=-242/29"], ["--t", "-5"]):
        assert cli.parse_args(["pullback", *argv])[1].t == Fraction(argv[-1].rpartition("=")[2])
    assert cli.parse_args(["census", "--jsonl", "-h"])[1].jsonl == "-h"  # a value, not help
    assert cli.parse_args(["factor", "--", "-360"])[1].n == -360
    assert cli.parse_args(["factor", "-360"])[1].n == -360
    assert cli.parse_args(["--config=cfg.json", "env"])[1].config == "cfg.json"
    assert cli.parse_args(["--config", "cfg.json", "env"])[1].config == "cfg.json"
    # the last of a repeated option holds
    assert cli.parse_args(["census", "--height", "7", "--height=9"])[1].height == 9


@pytest.mark.parametrize(
    "argv, error",
    [
        (["census", "--height", "x"], "--height: invalid int value 'x'"),
        (["census", "--height", "0"], "--height: must be at least 1, got 0"),
        (["census", "--height"], "--height needs a value"),
        (["pullback", "--t", "1/0"], "--t: invalid Fraction value '1/0'"),
        (["pullback", "--t", "zebra"], "--t: invalid Fraction value 'zebra'"),
        (["heuristic", "--mmax", "-1"], "--mmax: must be at least 0, got -1"),
        (["factor", "--", "-h"], "n: invalid int value '-h'"),
        (["factor", "1", "2"], "factor takes no argument 2"),
        (["classgroup", "--disc", "-84", "--forms=yes"], "--forms takes no value"),
        (["--config"], "--config needs a value"),
        (["census", "--hei", "36"], "unknown option --hei for census"),  # no abbreviations
        (["census", "--config", "cfg.json"], "unknown option --config for census"),
        (["--height", "36", "census"], "unknown option --height"),
        (["no-such-command"], "unknown command no-such-command; x16class -h lists them"),
        ([], "no command given; x16class -h lists them"),
    ],
)
def test_usage_error_names_the_option(capsys, argv, error):
    """A usage error is one stderr line, naming the option, and exit 3."""
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"usage error: {error}\n")


def test_config_equals_form(tmp_path, capsys):
    cfgpath = tmp_path / "small.json"
    cfgpath.write_text(json.dumps({"trial_bound": 100, "rho_iterations": 1000}))
    n = (2**89 - 1) * (2**107 - 1)
    assert main([f"--config={cfgpath}", "factor", str(n)]) == 2
    assert capsys.readouterr().out == f"{n} = 1 * C where C = {n} (incomplete)\n"


def test_help(capsys):
    """-h and --help print usage and exit 0: at the top level each command
    and its help line; for a command its options, bracketed unless required
    and with the default where there is one, and its help line."""
    for flag in ("-h", "--help"):
        assert main([flag]) == 0
        usage, _, *rows = capsys.readouterr().out.splitlines()
        assert usage == "usage: x16class [--config CONFIG] COMMAND ..."
        assert [row.split(maxsplit=1) for row in rows] == [[name, about] for name, (_, about, _) in cli.COMMANDS.items()]
    usages = {
        "factor": "factor N",
        "classgroup": "classgroup --disc DISC [--forms] [--structure]",
        "census": "census [--height=50] [--jsonl JSONL]",
        "pullback": "pullback --t T",
        "verify-claims": "verify-claims [--only ONLY]",
        "heuristic": "heuristic --mmax MMAX [--jsonl JSONL]",
        "pi2": "pi2 --n N",  # --n is not needed for help
    }
    for command, (_, about, _) in cli.COMMANDS.items():
        assert main([command, "-h"]) == 0
        assert capsys.readouterr().out == f"usage: x16class {usages.get(command, command)}\n{about}\n"


def test_cli_imports_no_argparse(tmp_path):
    """The command table replaced argparse: neither it nor gettext is loaded."""
    env = {**os.environ, "PYTHONPATH": str(Path(x16class.__file__).parent.parent)}
    probe = (
        "import sys\n"
        "from x16class.cli import main\n"
        "assert main(['env']) == 0\n"
        "print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
