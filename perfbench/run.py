"""Benchmark of the x16class verifier.

    python3 perfbench/run.py --workload census-h36 --seed 1 --seconds 55 --trace 0

Run from the repository root.  The workloads and their correctness gates are
in worker.py; BENCHMARK.json says why each was chosen and declares every
metric's name and unit.  Each timed run of a workload is a fresh interpreter
(worker.py), one at a time, so no cache carries over between runs and at most
two processes exist.  The seed reaches the program only as Config.rng_seed,
through a --config file.  An untimed set-up run comes first; then at least
five timed runs are made, and further ones start only while they are
expected to end within --seconds.  The figures are medians over the runs.

--trace 0 reports the end-to-end metrics: wall_s (first call into the package
to the verdict), setup_s (interpreter start until the package is imported,
the config loaded and the first timed call ready; sampled by every timed run
and by two set-up-only runs after each, so that a slow phase of the host hits
set-up and timed runs alike) and peak_rss_mb (the run's ru_maxrss).
--trace 1 alternates untraced and traced runs, reports the per-layer metrics
of the traced runs, their overhead, and checks that the exact operation
counts repeat between traced runs.

Every run checks its output against pinned verdicts.  A failed check prints
the result with "correct": false and exits 1; a run that cannot start (no
package source next to the benchmark) exits 2 without a result.  Scratch
files go to .perfbench/ under the root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
MIN_RUNS = 5  # timed runs per invocation, untraced
SETUP_RUNS_EACH = 2  # set-up-only runs after each untraced timed run
RUN_LIMIT_S = 170  # one invocation must end within 180 s
# a traced run's counts that must repeat exactly for one seed
EXACT_COUNTS = (
    "quadform.class_number.work", "arith.factor.calls",
    "arith.factor.incomplete", "ecq.pi2_count.bytes",
)

# which end-to-end metric each layer's metrics should move, and where
PREDICTIONS = (
    ("arith", "wall_s on census-h36 (~1%: factoring the discriminants) and verify-all (~4%: Example 6's primality test)"),
    ("quadform", "wall_s on census-h36 (class_number, most of it); ~0% of verify-all (ten Table 1 class numbers)"),
    ("quadfield", "wall_s on census-h36 (the Cl5 pullback's ideal arithmetic)"),
    ("x16", "wall_s on census-h36"),
    ("ecq", "wall_s and peak_rss_mb on verify-all (the pi2 sieve holds 9 bytes per n)"),
    ("identities, poly", "wall_s on verify-all"),
    ("cli", "peak_rss_mb on census-h36 (every row is buffered until the end)"),
)


def declared() -> tuple[list[str], dict[str, str], dict[str, str]]:
    """Workload names and the units of the end-to-end and per-layer metrics,
    as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return [w["name"] for w in spec["workloads"]], e2e, layer


class BenchmarkFailed(RuntimeError):
    """A run could not produce a result: a worker crashed or timed out, or the
    metrics differ from the ones BENCHMARK.json declares."""


def spawn(workload: str, config: Path, mode: str, timeout: float) -> dict:
    start = time.monotonic()
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(config), str(WORK), mode, repr(start)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkFailed(f"{workload} ({mode}) did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkFailed(f"{workload} ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["duration"] = time.monotonic() - start
    return report


def schedule(workload: str, config: Path, seconds: int, trace: bool) -> list[dict]:
    """Starts timed runs while the next one is expected to end within
    `seconds`.  Untraced, MIN_RUNS runs are always made, each followed by
    SETUP_RUNS_EACH set-up-only runs; traced, untraced and traced runs
    alternate and the first four are always made."""
    modes = ("plain", "traced") if trace else ("plain",)
    setup_runs = 0 if trace else SETUP_RUNS_EACH
    least = 4 if trace else MIN_RUNS
    begin = time.monotonic()
    reports: list[dict] = []

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - begin)

    # an untimed set-up run first: in a fresh checkout it compiles the .pyc
    # files, which no later run pays
    spawn(workload, config, "setup", remaining())
    runs = 0
    while True:
        started = time.monotonic()
        reports.append(spawn(workload, config, modes[runs % len(modes)], remaining()))
        for _ in range(setup_runs):
            reports.append(spawn(workload, config, "setup", remaining()))
        runs += 1
        now = time.monotonic()
        if runs >= least and now - begin + (now - started) > seconds:
            break
    return reports


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def summarise(samples: dict[str, list[float]], units: dict[str, str]) -> dict:
    """Prints each metric's median with quartiles and returns the medians;
    the metrics must be exactly the declared ones."""
    if set(samples) != set(units):
        raise BenchmarkFailed(
            f"metrics differ from BENCHMARK.json: measured only {sorted(set(samples) - set(units))}, "
            f"declared only {sorted(set(units) - set(samples))}"
        )
    for name in sorted(samples):
        q1, med, q3 = quartiles(samples[name])
        print(f"  {name:40s} {med:14.6g} {units[name]:5s} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples[name])})")
    return {name: {"value": statistics.median(xs), "unit": units[name]} for name, xs in samples.items()}


def end_to_end(workload: str, reports: list[dict], units: dict[str, str]) -> dict:
    runs = [r for r in reports if "wall_s" in r]
    samples = {
        "wall_s": [r["wall_s"] for r in runs],
        "setup_s": [r["setup_s"] for r in reports],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    print(f"end-to-end, {workload}:")
    return summarise(samples, units)


def per_layer(workload: str, reports: list[dict], units: dict[str, str]) -> tuple[dict, list[str]]:
    plain = [r for r in reports if r.get("layers") is None and "wall_s" in r]
    traced = [r for r in reports if r.get("layers") is not None]
    problems = []
    first = traced[0]["layers"]["metrics"]
    for r in traced[1:]:
        for name in EXACT_COUNTS:
            if r["layers"]["metrics"][name] != first[name]:
                problems.append(f"{name} differs between traced runs: {first[name]} vs {r['layers']['metrics'][name]}")
    samples = {name: [r["layers"]["metrics"][name] for r in traced] for name in first}
    samples["run.cpu_s"] = [r["cpu_s"] for r in plain]
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
    samples["run.trace_overhead_s"] = [overhead]
    print(f"per-layer, {workload} ({len(traced)} traced, {len(plain)} untraced runs):")
    metrics = summarise(samples, units)

    share = traced[0]["layers"]["share"]
    top = sorted(share.items(), key=lambda kv: -kv[1])[:6]
    print("  inclusive share of traced wall: " + ", ".join(f"{n} {s:.0%}" for n, s in top))
    class_number_share = share.get("quadform.class_number", 0)
    expected = {
        "census-h36": ("quadform.class_number covers most of the wall", class_number_share > 0.5),
        "verify-all": ("ecq.pi2_count covers most of the wall", share.get("ecq.pi2_count", 0) > 0.5),
    }
    what, holds = expected[workload]
    print(f"  profile: {what}: {'yes' if holds else 'NO (the profile has moved)'}")
    for layer, moves in PREDICTIONS:
        print(f"  {layer} should move {moves}")
    return metrics, problems


def main() -> int:
    workloads, e2e_units, layer_units = declared()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "x16class" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'x16class'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    config = WORK / "config.json"
    config.write_text(json.dumps({"rng_seed": args.seed}))
    try:
        reports = schedule(args.workload, config, args.seconds, bool(args.trace))
        env = dict(reports[0]["env"])
        env.update(git_sha=git_sha(), seed=args.seed, workload=args.workload)
        print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
        runs = [r for r in reports if "wall_s" in r]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        problems = [p for r in runs for p in r["problems"]]
        if args.trace:
            metrics, count_problems = per_layer(args.workload, reports, layer_units)
            problems += count_problems
        else:
            metrics = end_to_end(args.workload, reports, e2e_units)
    except BenchmarkFailed as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} ({failed} of {attempted} operations)")
    for p in dict.fromkeys(problems):
        print(f"GATE FAILED: {p}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
