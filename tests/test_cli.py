import dataclasses
import json

import pytest

from webperm import cli, oracle, transition, webs
from webperm.enumeration import seidel_rows


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_csv(capsys):
    code, out, _ = run(capsys, "matrix", "2")
    assert (code, out) == (0, "1,1\n0,1\n")
    code, out, _ = run(capsys, "matrix", "1")
    assert (code, out) == (0, "1\n")


def test_matrix_formats(capsys):
    _, out, _ = run(capsys, "matrix", "2", "--format", "latex")
    assert out.splitlines()[0] == r"\begin{bmatrix}"
    code, out, _ = run(capsys, "matrix", "3", "--format", "json")
    data = json.loads(out)
    assert data["entries"][0] == [1, 1, 1, 1, 1]
    assert code == 0


def test_matrix_verify(capsys):
    code, out, err = run(capsys, "matrix", "4", "--verify")
    assert code == 0
    assert out.splitlines()[0] == "1,1,1,1,1,2,1,1,1,1,1,1,1,2"
    assert "verify OK" in err


def _bump(a, r, c):
    """``a`` with entry (r, c) raised by one."""
    rows = [list(row) for row in a.entries]
    rows[r][c] += 1
    return dataclasses.replace(a, entries=tuple(map(tuple, rows)))


def _break_resolution(monkeypatch):
    real = transition.resolution_matrix
    monkeypatch.setattr(transition, "resolution_matrix",
                        lambda n: _bump(real(n), 0, 1))


def _break_syzygy(monkeypatch):
    real = oracle.syzygy_expand

    def wrong(m):
        coeffs = real(m)
        top = next(iter(coeffs))
        return {**coeffs, top: coeffs[top] + 1}
    monkeypatch.setattr(oracle, "syzygy_expand", wrong)


def _break_numeric(monkeypatch):
    real = oracle.verify_expansion
    monkeypatch.setattr(
        oracle, "verify_expansion",
        lambda m, coeffs, **kw: real(m, {c: v + 1 for c, v in coeffs.items()},
                                     **kw))


def _break_support(monkeypatch):
    real = transition.support_check
    monkeypatch.setattr(transition, "support_check",
                        lambda a: real(_bump(a, 1, 0)))


@pytest.mark.parametrize("breaker, line", [
    (_break_resolution, "FAIL: entry methods disagree"),
    (_break_syzygy, "FAIL: syzygy expansion disagrees on row ((1, 4), (2, 5), (3, 6))"),
    (_break_numeric, "FAIL: numeric identity refuted on row ((1, 4), (2, 5), (3, 6))"),
    (_break_support, "FAIL: lower triangle must vanish at (2,1)"),
])
def test_every_matrix_verify_check_can_fail(capsys, monkeypatch, breaker, line):
    breaker(monkeypatch)
    code, out, err = run(capsys, "matrix", "3", "--verify")
    assert code == 1
    assert out == "1,1,1,1,1\n0,1,1,1,1\n0,0,1,0,1\n0,0,0,1,1\n0,0,0,0,1\n"
    assert line in err.splitlines()
    assert "verify OK" not in err


def test_web_source_both_runs_the_filter_once(capsys, monkeypatch):
    real = webs.web_set
    sources = []

    def counting(n, source="characterize", *rest):
        sources.append(source)
        return real(n, source, *rest)
    monkeypatch.setattr(webs, "web_set", counting)
    webs.web_table.cache_clear()
    code, out, _ = run(capsys, "web", "5", "--source", "both")
    assert code == 0
    assert out.endswith("agreement OK (61 permutations)\n")
    assert sorted(sources) == ["characterize", "resolve"]


def test_web_text(capsys, golden_web_tables):
    code, out, _ = run(capsys, "web", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].split() == ["123", "(1)(2)(3)", "NENENE", "NENENE"]

    code, out, _ = run(capsys, "web", "1")
    assert out.split() == ["1", "(1)", "NE", "NE"]


def test_web_source_both(capsys):
    code, out, _ = run(capsys, "web", "5", "--source", "both")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 62
    assert lines[-1] == "agreement OK (61 permutations)"


def test_web_json(capsys):
    code, out, _ = run(capsys, "web", "2", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert data["n"] == 2
    assert data["rows"] == [
        {"sigma": "12", "cycles": "(1)(2)", "dyck": "NENE",
         "matching_dyck": "NENE", "matching": [[1, 2], [3, 4]]},
        {"sigma": "21", "cycles": "(1,2)", "dyck": "NNEE",
         "matching_dyck": "NNEE", "matching": [[1, 4], [2, 3]]},
    ]


def test_caps(capsys):
    code, _, err = run(capsys, "web", "9")
    assert code == 2 and "cap" in err
    code, _, err = run(capsys, "web", "7", "--source", "resolve")
    assert code == 2 and "cap" in err
    code, out, _ = run(capsys, "web", "7", "--source", "resolve", "--cap", "7")
    assert code == 0
    assert len(out.strip().splitlines()) == 1385
    code, _, err = run(capsys, "verify", "--max-n", "9")
    assert code == 2 and "cap" in err


def test_seidel(capsys):
    code, out, _ = run(capsys, "seidel", "--rows", "9")
    assert code == 0
    lines = out.strip().splitlines()
    values = [[int(tok.strip("[]")) for tok in line.split()] for line in lines]
    assert values == seidel_rows(9)
    flagged = [next(i for i, tok in enumerate(line.split()) if "[" in tok)
               for line in lines]
    assert flagged == [0, 0, 1, 0, 2, 0, 3, 0, 4]

    code, out, _ = run(capsys, "seidel", "--rows", "1")
    assert out == "[1]\n"
    _, out, _ = run(capsys, "seidel", "--rows", "8")
    assert out.strip().splitlines()[7] == "[56] 48 34 17"


def test_verify_report_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "conjecture", "--max-n", "6")
    report = json.loads(out)
    assert code == 0
    assert report["failed"] == 0
    assert report["passed"] == len(report["checks"]) == 12
    assert report["parameters"]["suite"] == "conjecture"
    assert all({"claim", "n", "k", "lhs", "rhs", "pass"} <= set(c)
               for c in report["checks"])

    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "1")
    assert code == 0 and json.loads(out)["failed"] == 0


def test_verify_euler_suite_to_seven(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "euler", "--max-n", "7")
    report = json.loads(out)
    assert code == 0 and report["failed"] == 0
    assert [c["lhs"] for c in report["checks"]] == [1, 2, 5, 16, 61, 272, 1385]
    assert [c["rhs"] for c in report["checks"]] == [1, 2, 5, 16, 61, 272, 1385]


def test_verify_nonzero_exit_on_failure(capsys, monkeypatch):
    import webperm.enumeration
    monkeypatch.setattr(webperm.enumeration, "f", lambda n: 99)
    code, out, _ = run(capsys, "verify", "--suite", "genocchi", "--max-n", "3")
    report = json.loads(out)
    assert code == 1
    assert report["failed"] == 3
    assert [c["lhs"] for c in report["checks"] if not c["pass"]] == [99, 99, 99]


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "euler", "--max-n", "4",
                       "--out", str(target))
    assert code == 0
    assert str(target) in out
    report = json.loads(target.read_text())
    assert report["payload"] == str(target)
    assert report["failed"] == 0


def test_verify_seed_sources(capsys, monkeypatch):
    monkeypatch.setenv("WEBPERM_SEED", "424242")
    _, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-n", "2")
    assert json.loads(out)["parameters"]["seed"] == 424242
    _, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-n", "2",
                    "--seed", "7")
    assert json.loads(out)["parameters"]["seed"] == 7


def test_bad_seed_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("WEBPERM_SEED", "abc")
    for argv in (["matrix", "2"], ["verify", "--suite", "oracle", "--max-n", "2"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: WEBPERM_SEED must be an integer, got 'abc'\n"


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_rejects_trials_below_one(capsys, trials):
    code, out, err = run(capsys, "verify", "--suite", "oracle", "--max-n", "2",
                         "--trials", trials)
    assert (code, out) == (2, "")
    assert err == f"error: --trials must be >= 1, got {trials}\n"


@pytest.mark.parametrize("max_n", ["0", "-2"])
def test_verify_rejects_max_n_below_one(capsys, max_n):
    code, out, err = run(capsys, "verify", "--suite", "euler", "--max-n", max_n)
    assert (code, out) == (2, "")
    assert err == f"error: --max-n must be >= 1, got {max_n}\n"


def test_output_determinism(capsys):
    _, first, _ = run(capsys, "web", "4")
    _, second, _ = run(capsys, "web", "4")
    assert first == second
    _, a, _ = run(capsys, "verify", "--suite", "bijections", "--max-n", "4")
    _, b, _ = run(capsys, "verify", "--suite", "bijections", "--max-n", "4")
    scrub = lambda text: {**json.loads(text), "wall_time_s": None}
    assert scrub(a) == scrub(b)
