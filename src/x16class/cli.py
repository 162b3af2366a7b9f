"""Command-line interface: ``x16class [--config PATH] COMMAND [OPTION ...]``.

COMMANDS holds each command's handler, help line and options.  An option's
value follows "=" or is the next token, a negative one included
(``--t -242/29``, ``--t=-242/29``); a negative positional follows ``--``
(``factor -- -360``).  Option names are not abbreviated.  -h or --help lists
the commands, or after a command its options.  verify-claims prints each
claim's time on stderr, so its stdout is the same on every run.

Exit codes: 0 success, 1 mathematical violation found, 2 budget, size cap
or incompleteness, 3 usage error, including input outside the domain (an
unknown claim id, a parameter whose field is not imaginary), 141 the reader
closed standard output early (128 + SIGPIPE, as for ``yes | head``).  All big
integers are serialized as decimal strings so JSON consumers never lose
precision.  Identical configuration (including the RNG seed) produces
byte-identical output files, whatever the process count: census records
stream to the output as they are made, in canonical order, and name no
process count.  The census runs as the library's x16.census does, on at
most x16.census_processes() processes (its docstring states the rule;
`env` prints the count as "workers", `taskset -c 0` makes it one); a fork
that fails is a budget exit.  An output file that cannot be opened is a
usage error, found before any work starts.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from math import log
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

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
        summary = x16.census(height, lambda rec: writer.write(_record_to_row(rec)))
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
    for r in results:  # the time on stderr, so that stdout is the same on every run
        print(f"{r.id:22s} {r.status:8s} {r.description}")
        print(f"{r.id:22s} {r.elapsed * 1000:8.2f} ms", file=sys.stderr)
    return EXIT_VIOLATION if any(r.status == "fail" for r in results) else EXIT_OK


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
        "fork": x16.FORK,
        "platform": platform.platform(),
    }
    print(json.dumps(env))
    return EXIT_OK


# ---------------------------------------------------------------------------
# the command table and its parser
# ---------------------------------------------------------------------------

REQUIRED = object()  # the default of an option that must be given


class Option(NamedTuple):
    """A command's option: the type of its value (bool for a flag, which
    takes none), its default or REQUIRED, and the least value of an integer.
    A name without "--" is positional."""

    type: type
    default: object = None
    least: Optional[int] = None


GLOBAL_OPTIONS = {"--config": Option(str)}  # the options before the command

# command: (handler, help line, options)
COMMANDS: dict[str, tuple[Callable[[SimpleNamespace, Config], int], str, dict[str, Option]]] = {
    "factor": (_cmd_factor, "factor an integer within the budget", {"n": Option(int, REQUIRED)}),
    "classgroup": (_cmd_classgroup, "class number of a discriminant, and its group structure or reduced forms",
                   {"--disc": Option(int, REQUIRED), "--forms": Option(bool, False), "--structure": Option(bool, False)}),
    "census": (_cmd_census, "divisibility census over bounded-height parameters, to --jsonl or stdout",
               {"--height": Option(int, 50, least=1), "--jsonl": Option(str)}),
    "pullback": (_cmd_pullback, "order-5 ideal class pullback at a parameter t", {"--t": Option(Fraction, REQUIRED)}),
    "verify-claims": (_cmd_verify_claims, "run the algebraic claim registry, or one claim", {"--only": Option(str)}),
    "verify-table1": (_cmd_verify_table1, "class numbers, point list, and 5-indivisibility checks", {}),
    "verify-example6": (_cmd_verify_example6, "verify the pinned 181-digit example", {}),
    "verify-lemmas": (_cmd_verify_lemmas, "polynomial identities behind the pullback's closed form", {}),
    "heuristic": (_cmd_heuristic, "p z^2 search along multiples of the generator, to --jsonl or stdout",
                  {"--mmax": Option(int, REQUIRED, least=0), "--jsonl": Option(str)}),
    "pi2": (_cmd_pi2, "count integers below n of the form p z^2", {"--n": Option(int, REQUIRED, least=1)}),
    "env": (_cmd_env, "print versions, CPU count, census workers, fork support and platform", {}),
}


def _convert(name: str, option: Option, text: Optional[str]):
    """An option's value from its text, which is None where argv ended."""
    if text is None:
        raise ValueError(f"{name} needs a value")
    try:
        value = option.type(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{name}: invalid {option.type.__name__} value {text!r}") from None
    if option.least is not None and value < option.least:
        raise ValueError(f"{name}: must be at least {option.least}, got {value}")
    return value


def parse_args(argv: list[str]) -> tuple[Optional[str], Optional[SimpleNamespace]]:
    """The command argv names and its options, named without "--", the config
    path as `config`; no options where -h or --help asks for help.  An
    option's value follows "=" or is the next token, even one that starts
    with "-"; after "--" every token is positional.  A usage error raises
    ValueError naming the option."""
    command, options, values, positional = None, GLOBAL_OPTIONS, {"--config": None}, []
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return command, None
        if token == "--" and command:
            positional += tokens
        elif token.startswith("--"):
            name, eq, text = token.partition("=")
            option = options.get(name)
            if option is None:
                raise ValueError(f"unknown option {name}" + (f" for {command}" if command else ""))
            if option.type is bool and eq:
                raise ValueError(f"{name} takes no value")
            values[name] = True if option.type is bool else _convert(name, option, text if eq else next(tokens, None))
        elif command is None:
            if token not in COMMANDS:
                raise ValueError(f"unknown command {token}; x16class -h lists them")
            command, options = token, COMMANDS[token][2]
        else:
            positional.append(token)
    if command is None:
        raise ValueError("no command given; x16class -h lists them")
    slots = [name for name in options if not name.startswith("--")]
    if len(positional) > len(slots):
        raise ValueError(f"{command} takes no argument {positional[len(slots)]}")
    values.update((name, _convert(name, options[name], text)) for name, text in zip(slots, positional))
    for name, option in options.items():
        if values.setdefault(name, option.default) is REQUIRED:
            raise ValueError(f"{command} needs {name}")
    return command, SimpleNamespace(**{name.lstrip("-"): value for name, value in values.items()})


def _help(command: Optional[str]) -> str:
    """The top level's usage and each command's help line, or a command's
    usage, each option bracketed unless required and shown with its default
    if it has one, and its help line."""
    if command is None:
        width = max(map(len, COMMANDS))
        rows = (f"  {name:{width}}  {about}" for name, (_, about, _) in COMMANDS.items())
        about = f"class-number divisibility toolkit; --config names a JSON file (default: ${CONFIG_ENV})"
        return "\n".join(["usage: x16class [--config CONFIG] COMMAND ...", about, *rows])
    _, about, options = COMMANDS[command]
    words = ["usage: x16class", command]
    for name, option in options.items():
        if option.type is bool:
            form = name
        elif not name.startswith("--"):
            form = name.upper()
        elif option.default is None or option.default is REQUIRED:
            form = f"{name} {name[2:].upper()}"
        else:
            form = f"{name}={option.default}"
        words.append(form if option.default is REQUIRED else f"[{form}]")
    return f"{' '.join(words)}\n{about}"


def main(argv: Optional[list[str]] = None) -> int:
    try:
        command, args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(_help(command))
            return EXIT_OK
        try:
            cfg = load_config(args.config)
        except (OSError, ValueError, TypeError, json.JSONDecodeError) as exc:
            print(f"bad configuration: {exc}", file=sys.stderr)
            return EXIT_USAGE
        code = COMMANDS[command][0](args, cfg)
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
