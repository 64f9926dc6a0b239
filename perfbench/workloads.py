"""The benchmark's workloads: the CLI arguments of each, the work one
invocation does, and the check that its output is correct.

Outputs that do not depend on the seed are checked against the SHA-256 of
the standard output recorded at the commit that introduced the benchmark.
Every output is also checked against cheap invariants that do not rest on
that record.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

# |Web_n| = E_{n+1}, the zigzag numbers (OEIS A000111).
WEB_COUNTS = {7: 1385, 8: 7936, 9: 50521}

# The largest size any workload may ask for; n = 10 and up costs minutes
# and gigabytes on a desk machine.
MAX_N = 9

VERIFY_CHECKS = 242


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@dataclass(frozen=True)
class Outcome:
    """What one finished invocation left behind."""

    returncode: int
    stdout: bytes
    stderr: str
    seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[int], list[str]]
    # Items of work in one invocation, read off a correct output.
    items: Callable[[Outcome], int]
    # The first reason the output is wrong, or None.
    check: Callable[[Outcome], Optional[str]]


def common_failure(out: Outcome) -> Optional[str]:
    if out.returncode != 0:
        return f"exit code {out.returncode}"
    if "Traceback" in out.stderr:
        return "traceback on stderr"
    return None


def digest_failure(out: Outcome, expected: str) -> Optional[str]:
    got = hashlib.sha256(out.stdout).hexdigest()
    if got != expected:
        return f"stdout sha256 {got[:16]} differs from the recorded {expected[:16]}"
    return None


# ---------------------------------------------------------------------------
# web_enum
# ---------------------------------------------------------------------------

WEB_ENUM_SHA256 = (
    "3d6e6610bccae1fed951ba7fe1425ecb039f70c2e54e24af2985e007fdaa8a90")


def check_web_enum(out: Outcome) -> Optional[str]:
    lines = out.stdout.decode().splitlines()
    count = WEB_COUNTS[9]
    if len(lines) != count + 1:
        return f"{len(lines)} lines, expected {count} rows and a summary"
    if lines[-1] != f"agreement OK ({count} permutations)":
        return f"last line is {lines[-1][:80]!r}, not the agreement line"
    return digest_failure(out, WEB_ENUM_SHA256)


# ---------------------------------------------------------------------------
# matrix_build and matrix_certify
# ---------------------------------------------------------------------------

MATRIX_SHA256 = {
    8: "f7df5563d6408971f8671b2a3ed24c800ead8fbdaedf76986e0cdf191b4ce754",
    7: "158296955b3fe03b74c3d4468363deba98c0315906cd56c56fe1ca0538020cae",
}


def matrix_failure(text: str, n: int) -> Optional[str]:
    """Catalan(n) rows of Catalan(n) entries, upper unitriangular."""
    size = catalan(n)
    rows = text.splitlines()
    if len(rows) != size:
        return f"{len(rows)} rows, expected Catalan({n}) = {size}"
    for r, line in enumerate(rows):
        entries = line.split(",")
        if len(entries) != size:
            return f"row {r + 1} has {len(entries)} entries, expected {size}"
        if entries[r] != "1":
            return f"diagonal entry {r + 1} is {entries[r]}, not 1"
        if any(v != "0" for v in entries[:r]):
            return f"row {r + 1} has a nonzero entry below the diagonal"
    return None


def check_matrix_build(out: Outcome) -> Optional[str]:
    return (matrix_failure(out.stdout.decode(), 8)
            or digest_failure(out, MATRIX_SHA256[8]))


def check_matrix_certify(out: Outcome) -> Optional[str]:
    ok_line = (f"verify OK (methods, syzygy oracle with seed {out.seed}, "
               f"support)")
    if ok_line not in out.stderr.splitlines():
        return "no 'verify OK' line with this seed on stderr"
    return (matrix_failure(out.stdout.decode(), 7)
            or digest_failure(out, MATRIX_SHA256[7]))


# ---------------------------------------------------------------------------
# verify_suite
# ---------------------------------------------------------------------------

def verify_report(out: Outcome) -> dict:
    return json.loads(out.stdout)


def check_verify_suite(out: Outcome) -> Optional[str]:
    try:
        report = verify_report(out)
    except ValueError:
        return "stdout is not a JSON report"
    if report.get("parameters", {}).get("seed") != out.seed:
        return "report does not carry the seed"
    if report.get("failed") != 0:
        return f"{report.get('failed')} checks failed"
    if report.get("passed") != VERIFY_CHECKS or len(report["checks"]) != VERIFY_CHECKS:
        return f"{report.get('passed')} checks passed, expected {VERIFY_CHECKS}"
    return None


WORKLOADS = {w.name: w for w in (
    Workload("web_enum",
             lambda seed: ["web", "9", "--source", "both", "--cap", "9"],
             lambda out: WEB_COUNTS[9], check_web_enum),
    Workload("matrix_build",
             lambda seed: ["matrix", "8"],
             lambda out: catalan(8) ** 2, check_matrix_build),
    Workload("matrix_certify",
             lambda seed: ["matrix", "7", "--verify", "--cap", "7",
                           "--seed", str(seed)],
             lambda out: catalan(7) ** 2, check_matrix_certify),
    Workload("verify_suite",
             lambda seed: ["verify", "--suite", "all", "--max-n", "8",
                           "--seed", str(seed)],
             lambda out: len(verify_report(out)["checks"]),
             check_verify_suite),
)}


def check(workload: Workload, out: Outcome) -> Optional[str]:
    """The first reason the invocation failed, or None."""
    return common_failure(out) or workload.check(out)


def requested_sizes(args: list[str]) -> list[int]:
    """The sizes a CLI call asks for: the n of ``web``/``matrix`` and the
    values of ``--max-n`` and ``--cap``.

    >>> requested_sizes(["verify", "--max-n", "8", "--seed", "3"])
    [8]
    """
    sizes = [int(args[1])] if args[0] in ("web", "matrix") else []
    sizes += [int(v) for flag, v in zip(args, args[1:])
              if flag in ("--max-n", "--cap")]
    return sizes


def cli_args(workload: Workload, seed: int) -> list[str]:
    """The CLI arguments, refusing any size above :data:`MAX_N`."""
    args = workload.argv(seed)
    if max(requested_sizes(args)) > MAX_N:
        raise ValueError(f"{workload.name} asks for a size above {MAX_N}: {args}")
    return args
