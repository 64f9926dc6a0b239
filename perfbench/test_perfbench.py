"""Tests of the benchmark itself: each work count it derives from outside
the program agrees with a direct count and a closed form at small n, each
output check can fail, and the traced child reports what it should.

    python3 -m pytest -q perfbench
"""

import json
import math
import os
import sys

import pytest

import run
import tracing
import workloads as wl
from webperm import grid, oracle, transition, webs
from webperm.combinat import CapExceeded, cells_above, dyck_of_matching, identity

# E_{n+1} = |Web_n| (OEIS A000111).
ZIGZAG = [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936]


def row_configuration(m):
    return grid.GridConfiguration(identity(len(m)), cells_above(dyck_of_matching(m)))


# ---------------------------------------------------------------------------
# derived work counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 8))
def test_identity_resolution_leaves_are_zigzag(n):
    outcome = grid.resolve(grid.empty_configuration(n))
    assert sum(outcome.values()) == ZIGZAG[n + 1]


@pytest.mark.parametrize("n", range(1, 6))
def test_resolve_nodes_is_the_visited_state_count(n):
    # resolve raises CapExceeded exactly when it visits more than node_cap
    # states, which pins the number of states it visits.
    configs = [grid.empty_configuration(n)]
    configs += [row_configuration(m) for m in transition.row_labels(n)]
    for g in configs:
        nodes = tracing.resolve_nodes(grid.resolve(g))
        grid.resolve(g, node_cap=nodes)
        with pytest.raises(CapExceeded):
            grid.resolve(g, node_cap=nodes - 1)


@pytest.mark.parametrize("n", range(1, 6))
def test_syzygy_nodes_count_the_rewriting_steps(n, monkeypatch):
    steps = []
    step = oracle.syzygy_step
    monkeypatch.setattr(oracle, "syzygy_step",
                        lambda m, pair: steps.append(m) or step(m, pair))
    for m in transition.row_labels(n):
        steps.clear()
        coeffs = oracle.syzygy_expand(m)
        assert tracing.syzygy_nodes(coeffs) == 2 * len(steps) + 1


@pytest.mark.parametrize("n", range(1, 6))
def test_syzygy_leaves_equal_resolution_leaves_equal_row_sum(n):
    a = transition.matrix(n)
    for m, row in zip(a.rows, a.entries):
        syzygy = sum(oracle.syzygy_expand(m).values())
        resolution = sum(grid.resolve(row_configuration(m)).values())
        assert syzygy == resolution == sum(row)


@pytest.mark.parametrize("n", range(1, 8))
def test_perms_examined_is_the_filter_call_count(n, monkeypatch):
    calls = []
    is_web = webs.is_web
    monkeypatch.setattr(webs, "is_web", lambda s: calls.append(s) or is_web(s))
    emitted = webs.web_set(n)
    assert len(calls) == tracing.perms_examined(n) == math.factorial(n)
    assert len(emitted) == ZIGZAG[n + 1]


@pytest.mark.parametrize("n", range(1, 7))
def test_height_compares_is_rows_times_table(n, monkeypatch):
    calls = []
    heights = transition.dyck_heights
    monkeypatch.setattr(transition, "dyck_heights",
                        lambda p: calls.append(p) or heights(p))
    a = transition.matrix.__wrapped__(n)
    rows = wl.catalan(n)
    # One lookup per row for its own path, one per compare.
    assert len(calls) - rows == tracing.height_compares(a) == rows * ZIGZAG[n + 1]


def test_tracer_self_time_excludes_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 9.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("grid.trace", lambda: None)
    mid = tracer.wrap("webs.web_table", lambda: (leaf(), leaf()))
    tracer.wrap("cli", mid)()
    assert tracer.spans == {
        ("cli", ""): [1, 10.0, 2.0],
        ("webs.web_table", "cli"): [1, 8.0, 6.0],
        ("grid.trace", "webs.web_table"): [2, 2.0, 2.0],
    }


# ---------------------------------------------------------------------------
# the traced child
# ---------------------------------------------------------------------------

def traced(*argv):
    done = run.run_child([sys.executable, str(run.HERE / "tracing.py"), *argv],
                         run.child_env())
    mark, trace = done.stderr.splitlines()[-1].split(" ", 1)
    assert done.returncode == 0 and mark + " " == tracing.TRACE_MARK
    return done, run.layer_metrics(json.loads(trace))


def test_traced_matrix_verify_counts():
    done, m = traced("matrix", "4", "--verify", "--cap", "4", "--seed", "5")
    a = transition.matrix(4)
    leaves = sum(map(sum, a.entries))
    assert done.stdout.decode() == transition.to_csv(a) + "\n"
    assert m["grid.resolve.leaves"] == leaves
    # One trace per resolution leaf, one per record of the web table.
    assert m["grid.trace.calls"] == leaves + ZIGZAG[5]
    assert m["grid.resolve.nodes"] == 2 * leaves - len(a.rows)
    assert m["oracle.syzygy.nodes"] == 2 * leaves - len(a.rows)
    assert m["oracle.numeric.samples"] == 20 * len(a.rows)
    assert m["oracle.numeric.ok_ratio"] == 1
    assert m["transition.height_compares"] == 14 * ZIGZAG[5]
    assert m["transition.matrix.cache_size"] == 1
    assert m["webs.perms_examined"] == math.factorial(4)
    assert m["webs.perms_emitted"] == ZIGZAG[5]
    assert m["andre.calls"] == m["enumeration.calls"] == 0
    for name in ("transition.matrix.self_s", "oracle.syzygy.self_s",
                 "cli.self_s", "transition.export.self_s"):
        assert m[name] > 0


def test_traced_web_both_counts():
    _, m = traced("web", "6", "--source", "both")
    assert m["grid.resolve.leaves"] == ZIGZAG[7]
    assert m["grid.resolve.nodes"] == 2 * ZIGZAG[7] - 1
    # cmd_web filters twice: once to compare, once for the table.
    assert m["webs.perms_examined"] == 2 * math.factorial(6)
    assert m["webs.perms_emitted"] == 2 * ZIGZAG[7]
    assert m["grid.trace.calls"] == ZIGZAG[7]


def test_trace_lists_what_the_package_no_longer_has():
    env = run.child_env()
    env["PYTHONPATH"] += os.pathsep + str(run.HERE)
    code = ("import sys, tracing; from webperm import grid, transition; "
            "del transition.resolution_matrix; "
            "grid.crossings_of = grid.crossings_of.__wrapped__; "
            "sys.exit(tracing.main(['matrix', '3']))")
    done = run.run_child([sys.executable, "-c", code], env)
    assert done.returncode == 0
    trace = json.loads(done.stderr.splitlines()[-1].split(" ", 1)[1])
    assert trace["missing"] == ["webperm.transition.resolution_matrix",
                                "grid.crossings_of"]
    assert trace["caches"]["grid.crossings_of"] == {"hits": 0, "size": 0}


def test_compares_counted_on_every_call_without_a_cache():
    counts = {"transition.height_compares": 0}
    after = tracing._count_compares(lambda n: None)
    a = transition.matrix(3)
    after(counts, {}, a)
    after(counts, {}, a)
    assert counts["transition.height_compares"] == 2 * 5 * ZIGZAG[4]


def test_traced_verify_counts_cli_calls_only():
    _, m = traced("verify", "--suite", "bijections", "--max-n", "3")
    # foata, foata_inverse and is_312_avoiding over S_1..S_3, then phi over
    # Web_1..Web_3 and one andre_full_cycles per n.
    assert m["andre.calls"] == 3 * (1 + 2 + 6) + (1 + 2 + 5) + 3
    assert m["andre.self_s"] > 0


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def outcome(stdout, stderr="", seed=1, returncode=0):
    return wl.Outcome(returncode, stdout.encode(), stderr, seed)


def test_matrix_check_accepts_the_real_matrix_and_rejects_damage():
    good = transition.to_csv(transition.matrix(4))
    assert wl.matrix_failure(good, 4) is None
    rows = good.splitlines()
    assert "rows" in wl.matrix_failure("\n".join(rows[:-1]), 4)
    assert "diagonal" in wl.matrix_failure(good.replace("1", "2", 1), 4)
    lower = rows[:]
    lower[2] = "1" + lower[2][1:]
    assert "below" in wl.matrix_failure("\n".join(lower), 4)


def test_workload_checks_fail_on_wrong_output():
    w = wl.WORKLOADS
    assert "exit code" in wl.check(w["matrix_build"], outcome("", returncode=1))
    assert "traceback" in wl.check(w["verify_suite"],
                                   outcome("{}", "Traceback (most recent"))
    assert "agreement" in wl.check(
        w["web_enum"], outcome("x\n" * wl.WEB_COUNTS[9] + "agreement FAIL\n"))
    assert "sha256" in wl.check(
        w["web_enum"],
        outcome("x\n" * wl.WEB_COUNTS[9] + "agreement OK (50521 permutations)\n"))
    csv7 = transition.to_csv(transition.matrix(7)) + "\n"
    assert "verify OK" in wl.check(w["matrix_certify"], outcome(csv7, "", seed=2))
    ok = "verify OK (methods, syzygy oracle with seed 2, support)\n"
    assert wl.check(w["matrix_certify"], outcome(csv7, ok, seed=2)) is None
    rows = csv7.splitlines()
    first = rows[0].split(",")
    first[1] = str(int(first[1]) + 1)
    damaged = "\n".join([",".join(first)] + rows[1:]) + "\n"
    assert "sha256" in wl.check(w["matrix_certify"], outcome(damaged, ok, seed=2))


def test_verify_check_needs_every_check_passed():
    checks = [{"pass": True}] * wl.VERIFY_CHECKS
    report = {"parameters": {"seed": 4}, "passed": wl.VERIFY_CHECKS,
              "failed": 0, "checks": checks}
    w = wl.WORKLOADS["verify_suite"]
    assert wl.check(w, outcome(json.dumps(report), seed=4)) is None
    assert "seed" in wl.check(w, outcome(json.dumps(report), seed=5))
    assert "failed" in wl.check(w, outcome(json.dumps({**report, "failed": 1}),
                                           seed=4))
    short = {**report, "passed": 241, "checks": checks[:-1]}
    assert "passed" in wl.check(w, outcome(json.dumps(short), seed=4))
    assert "JSON" in wl.check(w, outcome("not json", seed=4))


def test_no_workload_asks_for_n_above_nine():
    for w in wl.WORKLOADS.values():
        assert max(wl.requested_sizes(wl.cli_args(w, 1))) <= wl.MAX_N == 9
    big = wl.Workload("big", lambda seed: ["matrix", "10"], None, None)
    with pytest.raises(ValueError):
        wl.cli_args(big, 1)


def test_seed_reaches_the_program_only_as_seed():
    for w in wl.WORKLOADS.values():
        a, b = wl.cli_args(w, 1), wl.cli_args(w, 2)
        assert [x for x in a if x != "1"] == [x for x in b if x != "2"]
    assert "WEBPERM_SEED" not in run.child_env()
    assert run.child_env()["PYTHONHASHSEED"] == "0"


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    _, m = traced("seidel", "--rows", "3")
    printed = set(m) | {"cli.stdout_bytes", "trace.overhead_ratio",
                        "trace.ref_s"}
    assert {x["name"] for x in spec["per_layer"]} == printed
    assert {x["name"] for x in spec["end_to_end"]} == {
        "wall_ref", "cpu_ref", "items_per_ref", "peak_rss_mib", "setup_s"}


def test_child_past_the_timeout_is_killed_and_reaped(monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.5)
    done = run.run_child([sys.executable, "-c", "import time; time.sleep(60)"],
                         run.child_env())
    assert done.returncode != 0
    assert done.wall_s < 10


def test_child_resources_come_from_the_child():
    done = run.run_child(
        [sys.executable, "-c",
         "import sys; x = bytearray(64 << 20); x[::4096] = b'1' * (16 << 10);"
         "print('out'); print('err', file=sys.stderr); sys.exit(3)"],
        run.child_env())
    assert (done.returncode, done.stdout, done.stderr) == (3, b"out\n", "err\n")
    assert 64 < done.rss_mib < 64 + 40
    assert 0 < done.cpu_s <= done.wall_s + 0.05
    assert 0 < done.ref_s < 1


def test_child_peak_rss_does_not_inherit_the_parents():
    ballast = bytearray(96 << 20)
    ballast[::4096] = b"1" * (24 << 10)
    done = run.run_child([sys.executable, "-c", "pass"], run.child_env())
    assert done.returncode == 0 and done.rss_mib < 48
    del ballast
