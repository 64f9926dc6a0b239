"""Benchmark of the ``webperm`` command line, measured from outside.

    python3 perfbench/run.py --workload web_enum --seed 7 --seconds 25 --trace 0

Run it from the root of a source tree; it puts ``src`` on ``PYTHONPATH``.
Each invocation runs the real CLI in a fresh interpreter, one child at a
time: a closed loop with one client.  Every call is cold, because users pay
the empty ``lru_cache``s on every CLI call.  Invocations repeat until the
next one would end after ``--seconds``; there is always at least one.

With ``--trace 0`` the run reports the end-to-end metrics, medians over its
invocations; times are divided by a reference loop timed on the same CPU
while each child runs (see ``reference_s``).  With ``--trace 1`` it alternates traced invocations
(``perfbench/tracing.py``) with plain ones and reports the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is timed this many times before the invocations and as many times
# after them, so that its median spans the whole run.
SETUP_REPS = 8
CHILD_TIMEOUT_S = 120
# The reference loop: about 10 ms of CPU, timed every half second while a
# child runs on the same CPU.
REF_LOOPS = 100_000
REF_EVERY_S = 0.5
SETUP_CODE = "import webperm.cli as cli; cli.build_parser()"


class SetupFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    """The parent's environment without ``WEBPERM_SEED`` or any ``PYTHON*``
    setting, with the hash seed pinned and ``src`` importable."""
    env = {k: v for k, v in os.environ.items()
           if k != "WEBPERM_SEED" and not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Finished:
    """One child that ran to its end (or was killed at the timeout).
    ``ref_s`` is the median of :func:`reference_s` while it ran."""

    wall_s: float
    cpu_s: float
    rss_mib: float
    returncode: int
    stdout: bytes
    stderr: str
    ref_s: float


def reference_s() -> float:
    """CPU seconds this process spends on a fixed pure-Python loop: the
    speed of the CPU it shares with the child, at this moment."""
    start = time.process_time()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.process_time() - start


def _drain(proc: subprocess.Popen, deadline: float
           ) -> tuple[bytes, bytes, list[float]]:
    """Read stdout and stderr to their ends, timing the reference loop every
    ``REF_EVERY_S`` from half that on; at ``deadline`` kill the process
    group, which holds the launcher and its child."""
    chunks = {proc.stdout: [], proc.stderr: []}
    refs: list[float] = []
    killed = False
    next_ref = time.perf_counter() + REF_EVERY_S / 2
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            now = time.perf_counter()
            if now >= next_ref:
                refs.append(reference_s())
                next_ref = now + REF_EVERY_S
            if now >= deadline and not killed:
                os.killpg(proc.pid, signal.SIGKILL)
                killed = True
            timeout = max(min(deadline, next_ref) - time.perf_counter(), 0.001)
            for key, _ in sel.select(timeout if not killed else 0.1):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]), refs


def run_child(argv: list[str], env: dict[str, str]) -> Finished:
    """Run ``argv`` through ``spawn.py`` and wait until it has ended.

    The output pipes reach their end only when the child has exited, and
    the launcher is reaped before this returns.
    """
    start = time.perf_counter()
    report_r, report_w = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-S", "-E", str(HERE / "spawn.py"), str(report_w),
             *argv],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, pass_fds=(report_w,),
            start_new_session=True)
    finally:
        os.close(report_w)
    with os.fdopen(report_r, "rb") as report:
        try:
            out, err, refs = _drain(proc, start + CHILD_TIMEOUT_S)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
        finally:
            proc.wait()
        fields = report.read().split()
    ref = statistics.median(refs or [reference_s()])
    if len(fields) != 4:
        return Finished(time.perf_counter() - start, 0.0, 0.0,
                        proc.returncode or -1, out,
                        err.decode(errors="replace") + "\nlauncher failed", ref)
    wall, cpu, maxrss_kib, code = fields
    return Finished(float(wall), float(cpu), int(maxrss_kib) / 1024, int(code),
                    out, err.decode(errors="replace"), ref)


def measure_setup(env: dict[str, str], reps: int) -> list[float]:
    """Seconds from a fresh interpreter to an imported ``webperm.cli`` with
    its parser built, once per repetition."""
    walls = []
    for _ in range(reps):
        done = run_child([sys.executable, "-c", SETUP_CODE], env)
        if done.returncode != 0:
            raise SetupFailed(f"cannot import webperm.cli from {SRC}:\n"
                              f"{done.stderr.strip()}")
        walls.append(done.wall_s)
    return walls


# ---------------------------------------------------------------------------
# invocations
# ---------------------------------------------------------------------------

@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mib: float
    ref_s: float
    stdout_bytes: int
    failure: Optional[str]
    items: int
    traced: bool
    trace: Optional[dict]


def invoke(workload: wl.Workload, seed: int, env: dict[str, str],
           traced: bool) -> Invocation:
    entry = [str(HERE / "tracing.py")] if traced else ["-m", "webperm.cli"]
    done = run_child([sys.executable, *entry, *wl.cli_args(workload, seed)],
                     env)
    trace = None
    stderr = done.stderr
    if traced:
        lines = stderr.splitlines(keepends=True)
        if lines and lines[-1].startswith(tracing.TRACE_MARK):
            trace = json.loads(lines[-1][len(tracing.TRACE_MARK):])
            stderr = "".join(lines[:-1])
    out = wl.Outcome(done.returncode, done.stdout, stderr, seed)
    failure = wl.check(workload, out)
    if failure is None and traced and trace is None:
        failure = "the traced run wrote no trace"
    items = workload.items(out) if failure is None else 0
    return Invocation(done.wall_s, done.cpu_s, done.rss_mib, done.ref_s,
                      len(done.stdout),
                      failure, items, traced, trace)


def measure(workload: wl.Workload, seed: int, seconds: float,
            env: dict[str, str], trace: bool) -> list[Invocation]:
    """Invocations until the next would end after ``seconds``.  Traced runs
    alternate a traced and a plain invocation and repeat the pair."""
    kinds = (True, False) if trace else (False,)
    start = time.perf_counter()
    runs: list[Invocation] = []
    while True:
        round_start = time.perf_counter()
        runs += [invoke(workload, seed, env, traced) for traced in kinds]
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return runs


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail_percentile(values: list[float]) -> Optional[tuple[int, float]]:
    """The highest of p99 and p90 that leaves at least ten samples above it.

    >>> tail_percentile([1.0] * 99) is None
    True
    >>> tail_percentile(list(range(100)))
    (90, 89.9)
    """
    for p in (99, 90):
        if len(values) * (100 - p) >= 1000:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def end_to_end(runs: list[Invocation], setups: list[float],
               spec: list[dict]) -> dict:
    """Prints every sample set; returns the medians of the metrics in
    ``spec``.  Times in ``ref`` are divided by the reference loop's CPU time
    on the same CPU during the same invocation, which cancels the drift of
    a shared host's CPU speed."""
    samples = {
        "wall_ref": ("ref", [r.wall_s / r.ref_s for r in runs]),
        "cpu_ref": ("ref", [r.cpu_s / r.ref_s for r in runs]),
        "items_per_ref": ("1/ref", [r.items * r.ref_s / r.wall_s for r in runs]),
        "peak_rss_mib": ("MiB", [r.rss_mib for r in runs]),
        "setup_s": ("s", setups),
        "wall_s": ("s", [r.wall_s for r in runs]),
        "cpu_s": ("s", [r.cpu_s for r in runs]),
        "items_per_s": ("1/s", [r.items / r.wall_s for r in runs]),
        "ref_s": ("s", [r.ref_s for r in runs]),
    }
    for name, (unit, values) in samples.items():
        tail = tail_percentile(values)
        tail_text = (f"p{tail[0]} {tail[1]:.6g}" if tail else
                     "too few samples for a tail percentile")
        print(f"{name:14} median {statistics.median(values):.6g} {unit}  "
              f"min {min(values):.6g}  max {max(values):.6g}  "
              f"n={len(values)}; {tail_text}")
    return {m["name"]: {"value": statistics.median(samples[m["name"]][1]),
                        "unit": m["unit"]}
            for m in spec}


def _layer(span: str) -> str:
    return span.split(".", 1)[0]


def layer_metrics(trace: dict) -> dict[str, float]:
    """The per-layer metrics of one traced invocation, except the overhead."""
    spans, counts, caches = trace["spans"], trace["counts"], trace["caches"]

    def self_s(prefix: str) -> float:
        return sum(s for name, _, _, _, s in spans
                   if name == prefix or _layer(name) == prefix)

    def calls(name: str) -> int:
        return sum(c for span, _, c, _, _ in spans if span == name)

    def entries(layer: str) -> int:
        """Calls into the layer from another layer."""
        return sum(c for span, parent, c, _, _ in spans
                   if _layer(span) == layer and _layer(parent) != layer)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "webs.web_set.self_s": self_s("webs.web_set"),
        "webs.web_table.self_s": self_s("webs.web_table"),
        "webs.perms_examined": counts.get("webs.perms_examined", 0),
        "webs.perms_emitted": counts.get("webs.perms_emitted", 0),
        "webs.yield": ratio(counts.get("webs.perms_emitted", 0),
                            counts.get("webs.perms_examined", 0)),
        "grid.trace.self_s": self_s("grid.trace"),
        "grid.trace.calls": calls("grid.trace"),
        "grid.resolve.self_s": self_s("grid.resolve"),
        "grid.resolve.leaves": counts.get("grid.resolve.leaves", 0),
        "grid.resolve.nodes": counts.get("grid.resolve.nodes", 0),
        "transition.matrix.self_s": self_s("transition.matrix"),
        "transition.height_compares": counts.get("transition.height_compares", 0),
        "transition.resolution_matrix.self_s":
            self_s("transition.resolution_matrix"),
        "transition.support_check.self_s": self_s("transition.support_check"),
        "transition.export.self_s": self_s("transition.export"),
        "oracle.syzygy.self_s": self_s("oracle.syzygy"),
        "oracle.syzygy.nodes": counts.get("oracle.syzygy.nodes", 0),
        "oracle.numeric.self_s": self_s("oracle.numeric"),
        "oracle.numeric.samples": counts.get("oracle.numeric.samples", 0),
        "oracle.numeric.ok_ratio": ratio(counts.get("oracle.numeric.ok", 0),
                                         calls("oracle.numeric")),
        "enumeration.self_s": self_s("enumeration"),
        "enumeration.calls": entries("enumeration"),
        "andre.self_s": self_s("andre"),
        "andre.calls": entries("andre"),
        "combinat.dyck_of_permutation.self_s":
            self_s("combinat.dyck_of_permutation"),
        "cli.self_s": self_s("cli"),
    }
    for cache, info in caches.items():
        out[f"{cache}.cache_size"] = info["size"]
        out[f"{cache}.cache_hits"] = info["hits"]
    return out


def per_layer(runs: list[Invocation], spec: list[dict]) -> tuple[dict, Optional[str]]:
    """Medians of the timed metrics over the traced invocations.  Counts are
    exact; a count that differs between traced invocations is a failure."""
    traced = [r for r in runs if r.trace is not None]
    plain = [r for r in runs if not r.traced]
    if not traced:
        return {}, "no traced invocation wrote a trace"
    samples = [layer_metrics(r.trace) for r in traced]
    values = {}
    for name in samples[0]:
        column = [s[name] for s in samples]
        if name.endswith("_s"):
            values[name] = statistics.median(column)
        elif len(set(column)) > 1:
            return {}, f"{name} differs between traced invocations: {column}"
        else:
            values[name] = column[0]
    missing = sorted({name for r in traced for name in r.trace["missing"]})
    if missing:
        print(f"not traced, gone from the package: {', '.join(missing)}")
    values["cli.stdout_bytes"] = traced[0].stdout_bytes
    values["trace.ref_s"] = statistics.median(r.ref_s for r in traced)
    values["trace.overhead_ratio"] = (
        statistics.median(r.wall_s / r.ref_s for r in traced)
        / statistics.median(r.wall_s / r.ref_s for r in plain))
    for name, value in values.items():
        print(f"{name:40} {value:.6g}")
    unknown = [m["name"] for m in spec if m["name"] not in values]
    if unknown:
        return {}, f"the trace has no value for {unknown}"
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}, None


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def source_digest() -> str:
    """SHA-256 over the package sources, for trees without git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "webperm").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment_record(args: argparse.Namespace) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "pinned_cpu": max(os.sched_getaffinity(0)),
            "commit": commit(), "source_sha256": source_digest(),
            "loadavg": os.getloadavg()}


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    # On SIGTERM unwind, so that run_child kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "webperm" / "cli.py").is_file():
        print(f"error: no webperm sources under {SRC}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment_record(args)))
    # Children inherit this CPU, so the reference loop times the CPU they
    # run on while they run.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = child_env()
    workload = wl.WORKLOADS[args.workload]
    reps = 0 if args.trace else SETUP_REPS
    try:
        measure_setup(env, 1)       # compiles the bytecode; proves the import
        setups = measure_setup(env, reps)
        runs = measure(workload, args.seed, args.seconds, env, bool(args.trace))
        setups += measure_setup(env, reps)
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = [r.failure for r in runs if r.failure]
    for reason in failures:
        print(f"FAIL {args.workload}: {reason}", file=sys.stderr)
    print(f"{args.workload}: {len(runs)} invocations, fail_ratio "
          f"{len(failures)}/{len(runs)} = {len(failures) / len(runs):.3g}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics, trace_failure = per_layer(runs, spec["per_layer"])
        if trace_failure:
            print(f"FAIL {args.workload}: {trace_failure}", file=sys.stderr)
            failures.append(trace_failure)
    else:
        metrics = end_to_end(runs, setups, spec["end_to_end"])
    print(f"loadavg at end {os.getloadavg()}")
    print(json.dumps({"correct": not failures, "attempted": len(runs),
                      "failed": min(len(failures), len(runs)),
                      "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
