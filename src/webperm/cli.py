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

from . import andre, enumeration, oracle, transition, webs
from .combinat import (
    CapExceeded,
    all_permutations,
    catalan,
    dyck_of_matching,
    dyck_of_permutation,
    dyck_paths,
    matching_to_json,
    perm_to_str,
)
from .oracle import DEFAULT_SEED


def _default_seed() -> int:
    env = os.environ.get("WEBPERM_SEED")
    if not env:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"WEBPERM_SEED must be an integer, got {env!r}") from None


# ---------------------------------------------------------------------------
# web
# ---------------------------------------------------------------------------

def cmd_web(args: argparse.Namespace) -> int:
    webs.check_web_cap(args.n, args.source, args.cap)
    agreement = None
    if args.source in ("resolve", "both"):
        resolved = webs.web_set(args.n, "resolve")
        agreement = resolved == frozenset(r.sigma for r in webs.web_table(args.n))
        if args.source == "both" and not agreement:
            print("source disagreement: resolution and cycle-type filter "
                  "produce different sets", file=sys.stderr)
            return 1
    rows = [(r.sigma, webs.cycle_notation(r.sigma), r.dyck, r.matched)
            for r in webs.web_table(args.n)]
    if args.format == "json":
        payload = {
            "n": args.n,
            "source": args.source,
            "rows": [{"sigma": perm_to_str(s), "cycles": cyc, "dyck": d,
                      "matching_dyck": dyck_of_matching(m),
                      "matching": matching_to_json(m)}
                     for s, cyc, d, m in rows],
        }
        if agreement is not None:
            payload["agreement"] = agreement
        print(json.dumps(payload, indent=1))
    else:
        widths = [max(len(perm_to_str(r[0])) for r in rows),
                  max(len(r[1]) for r in rows),
                  max(len(r[2]) for r in rows)]
        for s, cyc, d, m in rows:
            print(f"{perm_to_str(s):<{widths[0]}}  {cyc:<{widths[1]}}  "
                  f"{d:<{widths[2]}}  {dyck_of_matching(m)}")
        if args.source == "both":
            print(f"agreement OK ({len(rows)} permutations)")
    return 0


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------

def cmd_matrix(args: argparse.Namespace) -> int:
    source = "both" if args.verify else "characterize"
    webs.check_web_cap(args.n, source, args.cap)
    a = transition.matrix(args.n)
    if args.format == "csv":
        print(transition.to_csv(a))
    elif args.format == "json":
        print(json.dumps(transition.to_json(a), indent=1))
    else:
        print(transition.to_latex(a))
    if not args.verify:
        return 0

    failures = []
    # compared and dropped at once, so it is not alive during the oracle loop
    if transition.resolution_matrix(args.n).entries != a.entries:
        failures.append("entry methods disagree")
    for m, row in zip(a.rows, a.entries):
        coeffs = oracle.syzygy_expand(m)
        if [coeffs.get(c, 0) for c in a.cols] != list(row):
            failures.append(f"syzygy expansion disagrees on row {m}")
        if not oracle.verify_expansion(m, coeffs, seed=args.seed):
            failures.append(f"numeric identity refuted on row {m}")
    failures.extend(v["reason"] + f" at ({v['row']},{v['col']})"
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
    tri = enumeration.seidel_rows(args.rows)
    for i, row in enumerate(tri, start=1):
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
    checks = []
    for n in range(1, max_n + 1):
        firsts = enumeration.first_letter_counts(n)
        for k in range(1, n + 1):
            checks.append(_check(
                f"#{{sigma in Web_{n} : sigma_1 = {n + 1 - k}}} = E({n},{k})",
                n, k, firsts.get(n + 1 - k, 0), enumeration.entringer(n, k)))
    return checks


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


def _suite_conjecture(max_n: int) -> list[dict]:
    return enumeration.verify_conjecture(max_n)


def _suite_oracle(max_n: int, seed: int, trials: int) -> list[dict]:
    checks = []
    for n in range(1, min(max_n, 5) + 1):
        a = transition.matrix(n)
        for m, row in zip(a.rows, a.entries):
            coeffs = oracle.syzygy_expand(m)
            checks.append(_check(
                f"syzygy expansion of {dyck_of_matching(m)} matches matrix row",
                n, None, [coeffs.get(c, 0) for c in a.cols], list(row)))
            checks.append(_check(
                f"numeric identity for {dyck_of_matching(m)} "
                f"({trials} samples, seed {seed})",
                n, None,
                oracle.verify_expansion(m, coeffs, trials=trials, seed=seed),
                True))
    return checks


def _suite_bijections(max_n: int) -> list[dict]:
    checks = []
    for n in range(1, min(max_n, 6) + 1):
        bad = sum(1 for s in all_permutations(n)
                  if andre.foata_inverse(andre.foata(s)) != s)
        checks.append(_check(f"foata round-trips on S_{n}", n, None, bad, 0))
    for n in range(1, min(max_n, 5) + 1):
        image = frozenset(andre.phi(s) for s in webs.web_set(n))
        target = andre.andre_full_cycles(n + 2)
        checks.append(_check(f"phi(Web_{n}) equals the Andre (n+2)-cycles",
                             n, None, sorted(image) == sorted(target), True))
    for n in range(1, min(max_n, 6) + 1):
        avoiders = [s for s in all_permutations(n) if andre.is_312_avoiding(s)]
        image = {dyck_of_permutation(s) for s in avoiders}
        ok = (len(avoiders) == catalan(n) == len(image)
              and image == set(dyck_paths(n)))
        checks.append(_check(
            f"paths of 312-avoiders biject onto Dyck paths at n = {n}",
            n, None, ok, True))
    return checks


SUITES = ("all", "euler", "entringer", "genocchi", "conjecture", "oracle",
          "bijections")


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        raise ValueError(f"--max-n must be >= 1, got {args.max_n}")
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.max_n > (args.cap if args.cap is not None else webs.DEFAULT_FILTER_CAP):
        raise CapExceeded(
            f"--max-n {args.max_n} exceeds the cap; pass --cap to override")
    started = time.monotonic()
    checks: list[dict] = []
    if args.suite in ("all", "euler"):
        checks += _suite_euler(args.max_n)
    if args.suite in ("all", "entringer"):
        checks += _suite_entringer(args.max_n)
    if args.suite in ("all", "genocchi"):
        checks += _suite_genocchi(args.max_n)
    if args.suite in ("all", "conjecture"):
        checks += _suite_conjecture(args.max_n)
    if args.suite in ("all", "oracle"):
        checks += _suite_oracle(args.max_n, args.seed, args.trials)
    if args.suite in ("all", "bijections"):
        checks += _suite_bijections(args.max_n)
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

    web = sub.add_parser("web", help="list web permutations with D and M columns")
    web.add_argument("n", type=int)
    web.add_argument("--format", choices=("text", "json"), default="text")
    web.add_argument("--source", choices=("characterize", "resolve", "both"),
                     default="characterize")
    web.add_argument("--cap", "--unsafe-cap", dest="cap", type=int, default=None,
                     help="override the size guard (characterize 8, resolve 6)")
    web.set_defaults(func=cmd_web)

    mat = sub.add_parser("matrix", help="print a transition matrix")
    mat.add_argument("n", type=int)
    mat.add_argument("--format", choices=("csv", "json", "latex"), default="csv")
    mat.add_argument("--verify", action="store_true",
                     help="cross-check methods, the syzygy oracle and the "
                          "support pattern")
    mat.add_argument("--seed", type=int, default=None)
    mat.add_argument("--cap", "--unsafe-cap", dest="cap", type=int, default=None)
    mat.set_defaults(func=cmd_matrix)

    ver = sub.add_parser("verify", help="run an identity suite, emit a JSON report")
    ver.add_argument("--suite", choices=SUITES, default="all")
    ver.add_argument("--max-n", type=int, default=6)
    ver.add_argument("--out", default=None, help="write the JSON report here")
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--trials", type=int, default=20)
    ver.add_argument("--cap", "--unsafe-cap", dest="cap", type=int, default=None)
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
        return args.func(args)
    except (CapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
