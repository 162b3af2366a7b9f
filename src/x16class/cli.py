"""Command-line interface.

Exit codes: 0 success, 1 mathematical violation found, 2 budget, size cap
or incompleteness, 3 usage error, including input outside the domain (an
unknown claim id, a parameter whose field is not imaginary), 141 the reader
closed standard output early (128 + SIGPIPE, as for ``yes | head``).  All big
integers are serialized as decimal strings so JSON consumers never lose
precision.  Identical configuration (including the RNG seed) produces
byte-identical output files, whatever the process count: census records
stream to the output as they are made, in canonical order, and name no
process count.  The census runs on x16.census_processes() processes, the
CPUs this process may use (`env` prints that count; `taskset -c 0` makes it
one), or on fewer where its fields do not repay a fork.  An output file
that cannot be opened is a usage error, found before any work starts.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from math import log
from typing import Optional

import numpy as np

from . import __version__, arith, ecq, identities, quadform, x16
from .arith import DEFAULT_BUDGET, FactorBudget
from .errors import BudgetExceeded, IncompleteFactorization, NotImaginary, UnknownClaim, X16Error

CONFIG_ENV = "X16CLASS_CONFIG"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3
EXIT_PIPE = 141


@dataclass
class Config:
    trial_bound: int = DEFAULT_BUDGET.trial_bound
    rho_iterations: int = DEFAULT_BUDGET.rho_iterations
    rng_seed: int = DEFAULT_BUDGET.rng_seed
    format: str = "jsonl"

    def __post_init__(self):
        for name in ("trial_bound", "rho_iterations", "rng_seed"):
            if type(getattr(self, name)) is not int:  # a JSON float or bool is not a count
                raise ValueError(f"{name} must be an integer")
        if min(self.trial_bound, self.rho_iterations) <= 0:
            raise ValueError("trial_bound and rho_iterations must be positive")
        if self.format not in ("jsonl", "csv"):
            raise ValueError("format must be jsonl or csv")

    def budget(self) -> FactorBudget:
        return FactorBudget(self.trial_bound, self.rho_iterations, self.rng_seed)


def load_config(path: Optional[str] = None) -> Config:
    """Config from an explicit path, the environment, or defaults."""
    path = path or os.environ.get(CONFIG_ENV)
    if not path:
        return Config()
    with open(path) as fh:
        return Config(**json.load(fh))


def _s(x) -> str:
    """Decimal-string serialization for unbounded integers and fractions."""
    if isinstance(x, Fraction):
        return str(x)
    return str(int(x))


class _Writer:
    """JSONL/CSV record writer bound to a path or stdout; each row is written
    when it is given.  In CSV, a row whose keys differ from the current
    header starts a new header line, and list values are JSON-encoded."""

    def __init__(self, path: Optional[str], fmt: str):
        self.fmt = fmt
        try:
            self.out = open(path, "w") if path else sys.stdout
        except OSError as exc:  # a usage error, unlike a failed os.fork
            raise ValueError(f"cannot open {path}: {exc.strerror}") from exc
        self.csv: Optional[csv.DictWriter] = None

    def __enter__(self) -> "_Writer":
        return self

    def __exit__(self, *exc_info):
        if self.out is not sys.stdout:
            self.out.close()

    def write(self, row: dict):
        if self.fmt == "jsonl":
            self.out.write(json.dumps(row) + "\n")
            return
        if self.csv is None or list(row) != self.csv.fieldnames:
            self.csv = csv.DictWriter(self.out, fieldnames=list(row))
            self.csv.writeheader()
        self.csv.writerow({k: json.dumps(v) if isinstance(v, list) else v for k, v in row.items()})


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text}") from exc


def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text}") from exc
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    return parse


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_factor(args, cfg: Config) -> int:
    f = arith.factor(args.n, cfg.budget())
    if f.complete:
        print(f"{args.n} = {f}")
        return EXIT_OK
    print(f"{args.n} = {replace(f, cofactor=None)} * C where C = {f.cofactor} (incomplete)")
    return EXIT_BUDGET


def _cmd_classgroup(args, cfg: Config) -> int:
    h = quadform.class_number(args.disc)
    print(f"h({args.disc}) = {h}")
    if args.forms or args.structure:
        cg = quadform.class_group(args.disc)
        if len(cg.reduced_forms) != h:  # the sieve and the enumerator disagree
            print(f"MISMATCH: {len(cg.reduced_forms)} reduced forms listed", file=sys.stderr)
            return EXIT_VIOLATION
        if args.structure:
            print(f"elementary divisors: {cg.elementary_divisors}")
        for f in cg.reduced_forms if args.forms else ():
            print(f"  {f}")
    return EXIT_OK


def _record_to_row(rec: x16.CensusRecord) -> dict:
    return {
        "t_num": _s(rec.t.numerator),
        "t_den": _s(rec.t.denominator),
        "d": _s(rec.d),
        "disc": _s(rec.disc),
        "h": _s(rec.h),
        "two_rank": rec.two_rank,
        "five_order": rec.five_order,
        "div10": rec.div10,
    }


def _cmd_census(args, cfg: Config) -> int:
    height, path = args.height, args.jsonl
    with _Writer(path, cfg.format) as writer:
        summary = x16.census(height, lambda rec: writer.write(_record_to_row(rec)), x16.census_processes())
        writer.write(
            {
                "summary": True,
                "height": height,
                "records": summary.records,
                "exceptions": [str(t) for t in summary.exceptions],
                "violations": [str(t) for t in summary.violations],
                "errors": [[str(t), msg] for t, msg in summary.errors],
            }
        )
    print(
        f"census height <= {height}: {summary.records} records, "
        f"{len(summary.exceptions)} exceptional-field points, "
        f"{len(summary.violations)} violations, {len(summary.errors)} errors",
        file=sys.stderr if path is None else sys.stdout,
    )
    if summary.violations:
        return EXIT_VIOLATION
    if summary.errors:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_pullback(args, cfg: Config) -> int:
    p = x16.point_from_t(args.t, cfg.budget())
    res = x16.cl5_pullback(p)
    print(f"t = {res.t}: disc = {res.disc}, class = {res.ideal_class_form}, order = {res.order}")
    return EXIT_OK


def _cmd_verify_claims(args, cfg: Config) -> int:
    results = identities.verify_all(args.only)
    failed = False
    for r in results:
        print(f"{r.id:22s} {r.status:8s} {r.elapsed * 1000:8.2f} ms  {r.description}")
        failed = failed or r.status == "fail"
    return EXIT_VIOLATION if failed else EXIT_OK


def _cmd_verify_table1(args, cfg: Config) -> int:
    ok, table = True, ((-15, 2), (-2030, 40))
    # the table's class numbers and the corollary's in one batch
    discs = [arith.fundamental_discriminant(d) for d in (*dict(table), *x16.COROLLARY15_FIELDS)]
    hs = dict(zip(discs, quadform.class_numbers(discs)))
    for d, expected in table:
        h = hs[arith.fundamental_discriminant(d)]
        line_ok = h == expected
        ok = ok and line_ok
        print(f"h(Q(sqrt({d}))) = {h} (expected {expected}): {'ok' if line_ok else 'MISMATCH'}")
    points_ok = x16.verify_prop34_points()
    print(f"sextic-curve point list and x-images: {'ok' if points_ok else 'MISMATCH'}")
    cor_ok = x16.corollary15_check(hs)
    print(f"5 does not divide h for the eight listed fields: {'ok' if cor_ok else 'MISMATCH'}")
    return EXIT_OK if ok and points_ok and cor_ok else EXIT_VIOLATION


def _report_checks(checks: list[tuple[str, bool]]) -> int:
    for name, good in checks:
        print(f"{'ok' if good else 'FAIL'}  {name}")
    return EXIT_OK if all(good for _, good in checks) else EXIT_VIOLATION


def _cmd_verify_example6(args, cfg: Config) -> int:
    return _report_checks(ecq.section6_checks())


def _cmd_verify_lemmas(args, cfg: Config) -> int:
    return _report_checks(x16.verify_lemmas())


def _cmd_heuristic(args, cfg: Config) -> int:
    with _Writer(args.jsonl, cfg.format) as writer:
        records = ecq.heuristic_search(args.mmax, cfg.budget())
        for r in records:
            writer.write(
                {
                    "m": r.m,
                    "u_digits": r.u_digits,
                    "v_digits": r.v_digits,
                    "p_digits": r.p_digits,
                    "z": _s(r.z),
                    "status": r.status,
                    "certified": r.status in ("hit_certified", "non_hit"),
                }
            )
    hits = sum(1 for r in records if r.is_hit)
    untested = sum(1 for r in records if r.status == "untested")
    print(f"{len(records)} multiples tested: {hits} hits, {untested} untested", file=sys.stderr)
    return EXIT_BUDGET if untested else EXIT_OK


def _cmd_pi2(args, cfg: Config) -> int:
    count = ecq.pi2_count(args.n)
    print(json.dumps({"n": _s(args.n), "count": _s(count), "ratio": count * log(args.n) / args.n}))
    return EXIT_OK


def _cmd_env(args, cfg: Config) -> int:
    env = {
        "x16class": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "workers": x16.census_processes(),
        "fork": hasattr(os, "fork"),
        "platform": platform.platform(),
    }
    print(json.dumps(env))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@cache  # built once per process: main may run several commands
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="x16class",
        description="class-number divisibility toolkit for imaginary quadratic fields",
    )
    ap.add_argument("--config", help=f"config JSON path (default: ${CONFIG_ENV})")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor an integer within the budget")
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_factor)

    p = sub.add_parser("classgroup", help="class number / group structure of a discriminant")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--forms", action="store_true", help="also list the reduced forms")
    p.add_argument("--structure", action="store_true", help="also print elementary divisors")
    p.set_defaults(handler=_cmd_classgroup)

    p = sub.add_parser("census", help="divisibility census over bounded-height parameters")
    p.add_argument("--height", type=_int_at_least(1), default=50)
    p.add_argument("--jsonl", help="output path (default stdout)")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("pullback", help="order-5 ideal class pullback at a parameter t")
    p.add_argument("--t", type=_parse_rational, required=True, help="the parameter, such as -5 or -242/29")
    p.set_defaults(handler=_cmd_pullback)

    p = sub.add_parser("verify-claims", help="run the algebraic claim registry")
    p.add_argument("--only", help="single claim id")
    p.set_defaults(handler=_cmd_verify_claims)

    p = sub.add_parser("verify-table1", help="class numbers, point list, and 5-indivisibility checks")
    p.set_defaults(handler=_cmd_verify_table1)

    p = sub.add_parser("verify-example6", help="verify the pinned 181-digit example")
    p.set_defaults(handler=_cmd_verify_example6)

    p = sub.add_parser("verify-lemmas", help="polynomial identities behind the pullback's closed form")
    p.set_defaults(handler=_cmd_verify_lemmas)

    p = sub.add_parser("heuristic", help="p z^2 search along multiples of the generator")
    p.add_argument("--mmax", type=_int_at_least(0), required=True)
    p.add_argument("--jsonl", help="output path (default stdout)")
    p.set_defaults(handler=_cmd_heuristic)

    p = sub.add_parser("pi2", help="count integers below n of the form p z^2")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.set_defaults(handler=_cmd_pi2)

    p = sub.add_parser("env", help="print versions, CPU count, census workers, fork support and platform")
    p.set_defaults(handler=_cmd_env)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse takes -242/29, unlike -5, for an option
        if argv[i - 1] == "--t" and argv[i].startswith("-"):
            argv[i - 1 : i + 1] = [f"--t={argv[i]}"]
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
        print(f"bad configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code = args.handler(args, cfg)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone (``| head``); send what is still buffered to
        # the null device so the flush at shutdown cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except IncompleteFactorization as exc:
        print(f"factorization budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (UnknownClaim, NotImaginary) as exc:
        print(f"usage error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except X16Error as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
