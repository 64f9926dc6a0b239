"""Command-line front end.

Subcommands: ``web`` (list web permutations with their paths and
matchings), ``matrix`` (transition matrices), ``verify`` (identity
suites), ``seidel`` (the boustrophedon triangle).

Verification commands exit nonzero iff any check fails.  The oracle seed
defaults to the WEBPERM_SEED environment variable when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from array import array
from collections.abc import Iterable, Iterator
from itertools import islice

from . import andre, enumeration, grid, oracle, transition, webs
from .combinat import (
    CapExceeded,
    all_permutations,
    catalan,
    dyck_of_matching,
    dyck_of_permutation,
    dyck_paths,
    matching_to_json,
    noncrossing_arcs,
    perm_to_str,
)
from .oracle import DEFAULT_SEED

# Every command fits in 60 s and 2 GiB at this n; the slowest is ``matrix 8
# --verify``, 0.9-1.0 s and 28 MiB cold (Python 3.11.7 on a 2-vCPU KVM guest).
# At n = 9 it took 7.0-10.5 s there and peaks at 115 MiB, but 9 becomes the
# default only once the benchmark records that run.  ``--cap`` raises it.
DEFAULT_CAP = 8

# The most rows ``seidel`` prints; it has no --cap.  The rows are printed as
# they are built, so time sets the limit, not memory: cold, stdout to a file
# (Python 3.11.7 on a 2-vCPU KVM guest), 1,450 rows take 53.6 s and 26 MiB
# peak RSS, and 1,500 rows took 60.2 s.
MAX_SEIDEL_ROWS = 1450

# The most samples ``verify --trials`` draws per oracle row; no flag raises
# it.  Time grows linearly in it, while memory stays at one batch of
# samples: cold, ``verify --suite all --max-n 8 --trials 100000`` takes
# 20.7-24.9 s and 37 MiB peak RSS (Python 3.11.7 on a loaded 2-vCPU KVM
# guest, where the default 20 trials take 0.4 s).
MAX_TRIALS = 100_000


def _default_seed() -> int:
    env = os.environ.get("WEBPERM_SEED")
    if not env:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"WEBPERM_SEED must be an integer, got {env!r}") from None


def _check_cap(name: str, n: int, cap: int) -> None:
    if n > cap:
        raise CapExceeded(f"{name} = {n} exceeds the cap {cap}; "
                          f"pass a larger --cap to force it")


def _print_json(payload: object) -> None:
    # in batches of the encoder's chunks: json.dumps holds the whole text,
    # and json.dump writes each chunk apart, a system call each unbuffered
    chunks = json.JSONEncoder(indent=1).iterencode(payload)
    while batch := "".join(islice(chunks, 8192)):
        sys.stdout.write(batch)
    print()


class _Rows(list):
    """``count`` rows that the JSON encoder makes one at a time from the
    iterable ``rows`` as it walks them, so one row is alive at a time.  The
    encoder reads the length only to print an empty list as ``[]``."""

    def __init__(self, rows: Iterable, count: int) -> None:
        super().__init__()
        self._rows, self._count = rows, count

    def __iter__(self) -> Iterator:
        return iter(self._rows)

    def __len__(self) -> int:
        return self._count


# ---------------------------------------------------------------------------
# web
# ---------------------------------------------------------------------------

def _web_widths(n: int) -> tuple[int, int]:
    """The widths of the word and cycle columns of the ``web`` listing.

    Every word of S_n has the same length.  A cycle of length L prints
    L + 1 characters besides its entries, at most the 2L of L fixed
    points, so the identity, a web permutation, has the widest cycle
    notation.  Every Dyck path of the listing has length 2n.
    """
    identity = tuple(range(1, n + 1))
    return len(perm_to_str(identity)), len(webs.cycle_notation(identity))


def cmd_web(args: argparse.Namespace) -> int:
    _check_cap("n", args.n, args.cap)
    agreement = None
    if args.source == "resolve":
        try:
            table = webs.web_records(grid.web_permutations(args.n))
        except grid.RepeatedTerminals as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
    else:
        table = webs.web_table(args.n)
    if args.source == "both":
        # resolution's terminals are struck off the table's sigmas as they
        # come: a miss or a repeat is a disagreement, and so is a leftover;
        # a sigma the construction repeated would hide in the set, hence
        # the sizes
        unseen = {r.sigma for r in table}
        agreement = len(unseen) == len(table)
        for s in grid.terminals(grid.empty_configuration(args.n)):
            if s not in unseen:
                agreement = False
                break
            unseen.remove(s)
        agreement = agreement and not unseen
        del unseen
        if not agreement:
            print("source disagreement: resolution and the Andre-cycle "
                  "construction produce different sets", file=sys.stderr)
            return 1
    elif args.source == "resolve" and args.format == "json":
        # The construction's set without running it: every resolved sigma
        # passes the cycle-type test, and there are zigzag(n + 1) of them,
        # which is |{sigma in S_n : every cycle Andre}| by the paper's
        # characterization theorem; test_c04 (n <= 7) and --source both
        # check that count.  Only JSON output reports it.
        agreement = (len(table) == enumeration.euler_numbers(args.n + 1)[-1]
                     and all(andre.is_web(r.sigma) for r in table))
    if args.format == "json":
        def row(r: webs.WebRecord) -> dict:
            return {"sigma": perm_to_str(r.sigma),
                    "cycles": webs.cycle_notation(r.sigma), "dyck": r.dyck,
                    "matching_dyck": r.path,
                    "matching": matching_to_json(noncrossing_arcs(r.path))}
        payload = {
            "n": args.n,
            "source": args.source,
            "rows": _Rows(map(row, table), len(table)),
        }
        if agreement is not None:
            payload["agreement"] = agreement
        _print_json(payload)
    else:
        word, cyc = _web_widths(args.n)
        # Web_0 is the empty word, whose row is all padding: print it empty.
        lines = (f"{perm_to_str(r.sigma):<{word}}  "
                 f"{webs.cycle_notation(r.sigma):<{cyc}}  "
                 f"{r.dyck}  {r.path}".rstrip() for r in table)
        while chunk := list(islice(lines, 1024)):
            sys.stdout.write("\n".join(chunk) + "\n")
        if args.source == "both":
            print(f"agreement OK ({len(table)} permutations)")
    return 0


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------

def _is_row(coeffs: dict[int, int], row: array) -> bool:
    """True iff the expansion ``coeffs``, column index to coefficient, is
    ``row``: it has no zero term, and written out as a row of the same
    typecode it equals ``row``, compared in C.  A key off the row or a
    coefficient the typecode cannot hold is no row."""
    if 0 in coeffs.values():
        return False
    dense = array(row.typecode, bytes(len(row) * row.itemsize))
    try:
        for c, v in coeffs.items():
            dense[c] = v
    except (IndexError, OverflowError, TypeError):
        return False
    return dense == row


def cmd_matrix(args: argparse.Namespace) -> int:
    _check_cap("n", args.n, args.cap)
    a = transition.matrix(args.n)
    if args.format == "csv":
        for line in transition.csv_lines(a):
            print(line)
    elif args.format == "json":
        _print_json(transition.to_json(a))
    else:
        for line in transition.latex_lines(a):
            print(line)
    if not args.verify:
        return 0

    failures = [f"entry methods disagree on row {a.rows[r]}"
                for r in transition.resolution_refuted_rows(a)]
    disagree = [r for r, coeffs in oracle.check_rows(a.rows, a.cols)
                if coeffs is None or not _is_row(coeffs, a.entries[r])]
    failures.extend(f"syzygy expansion disagrees on row {a.rows[r]}"
                    for r in sorted(disagree))
    failures.extend(f"numeric identity refuted on row {a.rows[r]}"
                    for r in oracle.refuted_rows(a, oracle.MATRIX_TRIALS,
                                                 args.seed))
    failures.extend(f"{v['reason']} at ({v['row']},{v['col']}): "
                    f"row {v['row_path']}, col {v['col_path']}"
                    for v in transition.support_check(a))
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    if not failures:
        print(f"verify OK (methods, syzygy oracle with seed {args.seed}, "
              f"support)", file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# seidel
# ---------------------------------------------------------------------------

def cmd_seidel(args: argparse.Namespace) -> int:
    if args.rows > MAX_SEIDEL_ROWS:
        raise CapExceeded(f"--rows = {args.rows} exceeds the limit "
                          f"{MAX_SEIDEL_ROWS}")
    for i, row in enumerate(enumeration.seidel_rows(args.rows), start=1):
        flagged = len(row) - 1 if i % 2 == 1 else 0
        cells = [f"[{v}]" if j == flagged else str(v)
                 for j, v in enumerate(row)]
        print(" ".join(cells))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _check(claim: str, n, k, lhs, rhs) -> dict:
    return {"claim": claim, "n": n, "k": k, "lhs": lhs, "rhs": rhs,
            "pass": lhs == rhs}


def _suite_euler(max_n: int) -> list[dict]:
    eulers = enumeration.euler_numbers(max_n + 1)
    return [_check(f"|Web_{n}| = zigzag({n + 1})", n, None,
                   enumeration.web_count(n), eulers[n + 1])
            for n in range(1, max_n + 1)]


def _suite_entringer(max_n: int) -> list[dict]:
    return [_check(f"#{{sigma in Web_{n} : sigma_1 = {n + 1 - k}}} = E({n},{k})",
                   n, k, enumeration.census(n)[0].get(n + 1 - k, 0),
                   enumeration.entringer(n, k))
            for n in range(1, max_n + 1) for k in range(1, n + 1)]


def _suite_genocchi(max_n: int) -> list[dict]:
    gen = enumeration.genocchi(max_n)
    checks = [_check(f"f({n}) = g_{n}", n, None, enumeration.f(n), gen[n - 1])
              for n in range(1, max_n + 1)]
    for n in range(1, max_n + 1):
        for k in range(2, n + 1, 2):
            checks.append(_check(f"f({n},{k}) = 0", n, k,
                                 enumeration.f_nk(n, k), 0))
        if n > 1:
            checks.append(_check(f"f({n},{n}) = 0", n, n,
                                 enumeration.f_nk(n, n), 0))
    witnesses = {4: ["1234", "3412"], 5: ["12345", "14523", "34125"]}
    for n, expected in witnesses.items():
        if n <= max_n:
            found = [perm_to_str(s) for s in enumeration.f_witnesses(n)]
            checks.append(_check(f"f({n}) witnesses", n, None, found, expected))
    return checks


def _suite_oracle(max_n: int, seed: int, trials: int) -> list[dict]:
    checks = []
    for n in range(1, min(max_n, 5) + 1):
        a = transition.matrix(n)
        # the numeric check first: it refuses trials below 1 before any
        # row is expanded
        refuted = set(oracle.refuted_rows(a, trials, seed))
        expansions = dict(oracle.check_rows(a.rows, a.cols))
        for r, (m, row) in enumerate(zip(a.rows, a.entries)):
            coeffs = expansions[r]
            checks.append(_check(
                f"syzygy expansion of {dyck_of_matching(m)} matches matrix row",
                n, None,
                None if coeffs is None
                else [coeffs.get(c, 0) for c in range(len(row))],
                list(row)))
            checks.append(_check(
                f"numeric identity for {dyck_of_matching(m)} "
                f"({trials} samples, seed {seed})",
                n, None, r not in refuted, True))
    return checks


def _suite_bijections(max_n: int) -> list[dict]:
    checks = []
    for n in range(1, min(max_n, 6) + 1):
        bad = sum(1 for s in all_permutations(n)
                  if andre.foata_inverse(andre.foata(s)) != s)
        checks.append(_check(f"foata round-trips on S_{n}", n, None, bad, 0))
    for n in range(1, min(max_n, 5) + 1):
        image = frozenset(map(andre.phi, andre.andre_cycle_permutations(n)))
        target = andre.andre_full_cycles(n + 2)
        checks.append(_check(f"phi(Web_{n}) equals the Andre (n+2)-cycles",
                             n, None, image == target, True))
    for n in range(1, min(max_n, 6) + 1):
        avoiders = [s for s in all_permutations(n) if andre.is_312_avoiding(s)]
        image = {dyck_of_permutation(s) for s in avoiders}
        ok = (len(avoiders) == catalan(n) == len(image)
              and image == set(dyck_paths(n)))
        checks.append(_check(
            f"paths of 312-avoiders biject onto Dyck paths at n = {n}",
            n, None, ok, True))
    return checks


# Suite name -> its checks for the parsed arguments, in report order.  The
# suites reach ``enumeration`` and ``andre`` through this module's names
# when they run, never through a reference bound at import.
_SUITES = {
    "euler": lambda a: _suite_euler(a.max_n),
    "entringer": lambda a: _suite_entringer(a.max_n),
    "genocchi": lambda a: _suite_genocchi(a.max_n),
    "conjecture": lambda a: enumeration.verify_conjecture(a.max_n),
    "oracle": lambda a: _suite_oracle(a.max_n, a.seed, a.trials),
    "bijections": lambda a: _suite_bijections(a.max_n),
}
SUITES = ("all", *_SUITES)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        raise ValueError(f"--max-n must be >= 1, got {args.max_n}")
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.trials > MAX_TRIALS:
        raise CapExceeded(f"--trials = {args.trials} exceeds the limit "
                          f"{MAX_TRIALS}")
    _check_cap("--max-n", args.max_n, args.cap)
    started = time.monotonic()
    checks: list[dict] = []
    for name, suite in _SUITES.items():
        if args.suite in ("all", name):
            checks += suite(args)
    failed = [c for c in checks if not c["pass"]]
    report = {
        "command": "verify",
        "parameters": {"suite": args.suite, "max_n": args.max_n,
                       "seed": args.seed, "trials": args.trials},
        "wall_time_s": round(time.monotonic() - started, 3),
        "passed": len(checks) - len(failed),
        "failed": len(failed),
        "checks": checks,
        "payload": args.out,
    }
    text = json.dumps(report, indent=1)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write the report to {args.out}: "
                             f"{exc.strerror}") from None
        print(f"{report['passed']} passed, {report['failed']} failed; "
              f"report written to {args.out}")
    else:
        print(text)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="webperm",
        description="Web permutations, transition matrices and their "
                    "enumerative identities, exactly.")
    sub = parser.add_subparsers(dest="command", required=True)
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument("--cap", "--unsafe-cap", dest="cap", type=int,
                        default=DEFAULT_CAP,
                        help="refuse sizes above this (default %(default)s)")

    web = sub.add_parser("web", parents=[capped],
                         help="list web permutations with D and M columns")
    web.add_argument("n", type=int)
    web.add_argument("--format", choices=("text", "json"), default="text")
    web.add_argument("--source", choices=("characterize", "resolve", "both"),
                     default="characterize")
    web.set_defaults(func=cmd_web)

    mat = sub.add_parser("matrix", parents=[capped],
                         help="print a transition matrix")
    mat.add_argument("n", type=int)
    mat.add_argument("--format", choices=("csv", "json", "latex"), default="csv")
    mat.add_argument("--verify", action="store_true",
                     help="cross-check methods, the syzygy oracle and the "
                          "support pattern")
    mat.add_argument("--seed", type=int, default=None)
    mat.set_defaults(func=cmd_matrix)

    ver = sub.add_parser("verify", parents=[capped],
                         help="run an identity suite, emit a JSON report")
    ver.add_argument("--suite", choices=SUITES, default="all")
    ver.add_argument("--max-n", type=int, default=6)
    ver.add_argument("--out", default=None, help="write the JSON report here")
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--trials", type=int, default=20)
    ver.set_defaults(func=cmd_verify)

    sei = sub.add_parser("seidel", help="print the boustrophedon triangle; "
                                        "bracketed entries are Genocchi numbers")
    sei.add_argument("--rows", type=int, default=9)
    sei.set_defaults(func=cmd_seidel)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (CapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError as exc:
        # The reader closed stdout, and maybe stderr too.  What is still
        # buffered goes to the null device, so the final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        try:
            print(f"error: cannot write the output: {exc.strerror}",
                  file=sys.stderr)
        except BrokenPipeError:
            os.dup2(devnull, sys.stderr.fileno())
        os.close(devnull)
        return 2


if __name__ == "__main__":
    sys.exit(main())
