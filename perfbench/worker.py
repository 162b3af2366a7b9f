"""One timed run of one workload, in a fresh interpreter.

Started by run.py, never by hand.  The process imports the package, loads the
config, prepares the workload's inputs (that is its set-up), runs the
workload, checks the output against pinned verdicts and prints one JSON line.
Every run is a new process, so the lru_caches in quadform never carry over.

Usage: worker.py WORKLOAD CONFIG WORKDIR MODE SPAWNED_AT
  MODE is setup (stop after set-up), plain or traced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import x16class
    from x16class import arith, cli, ecq, identities, poly, quadfield, quadform, x16  # noqa: F401

    if Path(x16class.__file__).resolve().parent != SRC / "x16class":
        raise ImportError(f"x16class imported from {x16class.__file__}, not {SRC}")
    return x16class


def _cli(pkg, argv: list[str]) -> tuple[int, str]:
    """cli.main with its output captured; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = pkg.cli.main(argv)
    return rc, out.getvalue()


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _jsonl(path: Path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


class Outcome:
    """What a workload's check found: operation counts and gate failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rows_written = 0

    def expect(self, ok: bool, message: str):
        if not ok:
            self.problems.append(message)

    @classmethod
    def crashed(cls, exc: Exception) -> "Outcome":
        o = cls()
        o.attempted = o.failed = 1
        o.problems.append(f"{type(exc).__name__}: {exc}")
        return o


# ---------------------------------------------------------------------------
# workloads: each prepares its inputs and returns (run, check); run() is the
# timed part and check(result) the correctness gate
# ---------------------------------------------------------------------------

# Sized so that ten fresh-interpreter runs fit in the benchmark's 55 s: the
# census at height 50 takes ~20 s a run, at height 36 ~4.5 s.
CENSUS_HEIGHT = 36
CENSUS_RECORDS = 328
# sha256 over "t,disc,h,two_rank,five_order" per census record of height <= 36
CENSUS_DIGEST = "e015a5210373b16e1f7dffdda437d542a5f924c1997618cb76a2bb075d82a9d2"


def census(pkg, config: str, work: Path):
    out = work / "census.jsonl"
    argv = ["--config", config, "census", "--height", str(CENSUS_HEIGHT), "--jsonl", str(out)]

    def run():
        return _cli(pkg, argv)

    def check(result) -> Outcome:
        rc, _ = result
        o = Outcome()
        rows = _jsonl(out)
        o.rows_written = len(rows)
        summary = rows[-1]
        records = rows[:-1]
        o.attempted = summary["records"] + len(summary["errors"])
        o.failed = len(summary["errors"])
        o.expect(rc == 0, f"exit code {rc}, expected 0")
        o.expect(len(records) == CENSUS_RECORDS, f"{len(records)} records, expected {CENSUS_RECORDS}")
        o.expect(not summary["violations"], f"violations {summary['violations']}")
        o.expect(not summary["errors"], f"errors {summary['errors'][:3]}")
        o.expect(summary["exceptions"] == ["-3", "1/3"], f"exceptions {summary['exceptions']}")
        digest = _digest(
            f"{Fraction(int(r['t_num']), int(r['t_den']))},{r['disc']},{r['h']},"
            f"{r['two_rank']},{r['five_order']}"
            for r in records
        )
        o.expect(digest == CENSUS_DIGEST, f"record digest {digest}")
        return o

    return run, check


def verify_all(pkg, config: str, work: Path):
    commands = (
        ["verify-claims"],
        ["verify-table1"],
        ["verify-example6"],
        ["pi2", "--n", "50000000"],
    )

    def run():
        results = []
        for command in commands:
            try:
                results.append(_cli(pkg, ["--config", config, *command]))
            except Exception as exc:  # a raising command is counted, not fatal
                results.append((None, f"{type(exc).__name__}: {exc}"))
        return results

    def check(results) -> Outcome:
        o = Outcome()
        o.attempted = len(commands)
        o.failed = sum(1 for rc, _ in results if rc in (None, 2))
        (rc_c, claims), (rc_t, table), (rc_e, example), (rc_p, pi2) = results
        statuses = [line.split()[1] for line in claims.splitlines()]
        counts = {s: statuses.count(s) for s in ("pass", "external", "fail")}
        o.expect(
            rc_c == 0 and counts == {"pass": 24, "external": 18, "fail": 0},
            f"verify-claims exit {rc_c}, statuses {counts}",
        )
        table_lines = table.splitlines()
        o.expect(
            rc_t == 0 and len(table_lines) == 4 and all(l.endswith(": ok") for l in table_lines),
            f"verify-table1 exit {rc_t}: {table_lines}",
        )
        checks = example.splitlines()
        o.expect(
            rc_e == 0 and len(checks) == 7 and all(l.startswith("ok ") for l in checks),
            f"verify-example6 exit {rc_e}: {checks}",
        )
        count = json.loads(pi2)["count"] if rc_p == 0 else None
        o.expect(count == "5423946", f"pi2(5*10^7) = {count}, expected 5423946")
        return o

    return run, check


WORKLOADS = {
    f"census-h{CENSUS_HEIGHT}": census,
    "verify-all": verify_all,
}


def environment(pkg) -> dict:
    import numpy

    try:
        numba = metadata.version("numba")
    except metadata.PackageNotFoundError:
        numba = "absent"
    try:
        from x16class._kernels import HAVE_NUMBA

        kernel = "numba" if HAVE_NUMBA else "python"
    except ImportError:
        kernel = "builtin"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba": numba,
        "nproc": os.cpu_count(),
        "class_number_kernel": kernel,
    }


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def main(argv: list[str]) -> int:
    workload, config, work, mode, spawned_at = argv
    work = Path(work)
    tracer = None
    pkg = _import_package()
    if mode == "traced":
        from spans import Tracer  # this script's own directory is on sys.path

        tracer = Tracer(f"{workload}-{os.getpid()}")
        tracer.install(pkg)
    run, check = WORKLOADS[workload](pkg, config, work)
    ready = time.monotonic()
    report = {"setup_s": ready - float(spawned_at)}
    if mode == "setup":
        print(json.dumps(report))
        return 0

    outcome = None
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        result = run()
    except Exception as exc:  # a crashed workload fails its gate
        outcome = Outcome.crashed(exc)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if outcome is None:
        try:
            outcome = check(result)
        except Exception as exc:  # output the check cannot read fails the gate
            outcome = Outcome.crashed(exc)
    report.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=rss_mb,
        attempted=outcome.attempted,
        failed=outcome.failed,
        problems=outcome.problems,
        env=environment(pkg),
    )
    if tracer is not None:
        layers = tracer.layer_metrics(wall)
        layers["metrics"]["cli.rows_written"] = outcome.rows_written
        report["layers"] = layers
        tracer.write(work / f"spans-{workload}.tsv")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
