import math
import sys
from array import array
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from conftest import int_rows
from webperm.andre import is_312_avoiding
from webperm.combinat import (
    ballot_count,
    catalan,
    dyck_heights,
    dyck_leq,
    dyck_of_matching,
    dyck_of_permutation,
    dyck_paths,
    matching,
    matching_from_dyck,
    noncrossing_arcs,
)
from webperm import transition
from webperm.enumeration import genocchi
from webperm.grid import (
    _root,
    _step,
    matching_of_permutation,
    pick_top_left,
    resolve,
    row_configuration,
)
from webperm.oracle import syzygy_expand
from webperm.transition import (
    TransitionMatrix,
    col_labels,
    csv_lines,
    latex_lines,
    matrix,
    resolution_refuted_rows,
    row_labels,
    row_typecode,
    support_check,
    to_csv,
    to_json,
    to_latex,
)
from webperm.webs import web_table


def test_labels_are_sorted_by_path():
    assert row_labels(3) == [
        matching([(1, 4), (2, 5), (3, 6)]),
        matching([(1, 3), (2, 5), (4, 6)]),
        matching([(1, 3), (2, 4), (5, 6)]),
        matching([(1, 2), (3, 5), (4, 6)]),
        matching([(1, 2), (3, 4), (5, 6)]),
    ]
    assert col_labels(3) == [
        matching([(1, 6), (2, 5), (3, 4)]),
        matching([(1, 6), (2, 3), (4, 5)]),
        matching([(1, 4), (2, 3), (5, 6)]),
        matching([(1, 2), (3, 6), (4, 5)]),
        matching([(1, 2), (3, 4), (5, 6)]),
    ]


def test_entry_examples():
    def entry(m, m_prime):
        a = matrix(len(m))
        return a.entries[a.rows.index(m)][a.cols.index(m_prime)]

    one = entry(matching([(1, 4), (2, 5), (3, 6)]),
                matching([(1, 6), (2, 5), (3, 4)]))
    assert one == 1
    zero = entry(matching([(1, 3), (2, 4), (5, 6)]),
                 matching([(1, 2), (3, 6), (4, 5)]))
    assert zero == 0
    top_row = matching_from_dyck("NNNNEEEE", "NN")
    sixth_col = col_labels(4)[5]
    assert entry(top_row, sixth_col) == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_matches_reference(n, golden_matrices):
    a = matrix(n)
    if n in golden_matrices:
        assert [list(row) for row in a.entries] == golden_matrices[n]
    else:
        assert [list(row) for row in a.entries] == [[1]]


def literal_entries(n):
    """The main theorem read literally: entry (M, M') counts the web
    records sigma with D(sigma) <= D(M) and M(sigma) = M'."""
    table = web_table(n)
    cols = col_labels(n)
    out = []
    for m in row_labels(n):
        path = dyck_of_matching(m)
        below = Counter(rec.path for rec in table if dyck_leq(rec.dyck, path))
        out.append([below[dyck_of_matching(c)] for c in cols])
    return out


@pytest.mark.parametrize("n", range(0, 8))
def test_matrix_matches_literal_characterization(n):
    assert [list(row) for row in matrix(n).entries] == literal_entries(n)


@pytest.mark.parametrize("n", range(0, 7))
def test_methods_agree(n):
    assert resolution_refuted_rows(matrix(n)) == []


def test_resolution_matrix_traces_each_web_permutation_once(monkeypatch):
    # the matrix is built before the patch: only the DAG's traces count
    a = matrix(5)
    real = transition.lehmer_path
    traced = []

    def counting(sigma):
        traced.append(sigma)
        return real(sigma)
    monkeypatch.setattr(transition, "lehmer_path", counting)
    assert resolution_refuted_rows(a) == []
    assert len(traced) == len(set(traced)) == 61


@pytest.mark.parametrize("n", range(1, 8))
def test_smoothing_a_row_root_gives_a_later_row_root(n):
    roots = [_root(row_configuration(m)) for m in row_labels(n)]
    later = {state: r for r, state in enumerate(roots)}
    for r, state in enumerate(roots):
        split = _step(state, pick_top_left)
        if r == len(roots) - 1:
            assert split is None            # the staircase, all elbows
        else:
            assert later[split[0]] > r


@pytest.mark.parametrize("n", range(1, 7))
def test_recurrence_equals_per_row_resolution(n):
    # the DAG passes the rows that resolving each root on its own gives
    a = matrix(n)
    assert resolution_refuted_rows(a) == []
    col = {m: k for k, m in enumerate(a.cols)}
    for m, row in zip(a.rows, a.entries):
        counts = [0] * len(a.cols)
        for sigma, mult in resolve(row_configuration(m)).items():
            counts[col[matching_of_permutation(sigma)]] += mult
        assert counts == list(row)


def test_resolution_matrix_steps_each_distinct_state_once(monkeypatch):
    real = transition._step
    stepped = []

    def counting(state, pick):
        stepped.append(state)
        return real(state, pick)
    monkeypatch.setattr(transition, "_step", counting)
    a = matrix(7)
    assert resolution_refuted_rows(a) == []
    assert len(stepped) == len(set(stepped)) == 3994
    # the memo is local to the call: a second call steps every state again
    stepped.clear()
    resolution_refuted_rows(a)
    assert len(stepped) == 3994


def test_dag_keyed_on_sigma_alone_refutes_rows(monkeypatch):
    # a smoothed child keeps its parent's sigma, so states with different
    # masks share one number and the rows that reach them miscount
    monkeypatch.setattr(transition, "_key", lambda state: bytes(state[0]))
    assert resolution_refuted_rows(matrix(5)) != []


def test_dag_value_freed_one_read_too_early_raises(monkeypatch):
    def early(values, reads, s):
        reads[s] -= 1
        if reads[s] > 1:
            return values[s]
        return values.pop(s)
    monkeypatch.setattr(transition, "_take", early)
    with pytest.raises(KeyError):
        resolution_refuted_rows(matrix(5))


@pytest.mark.parametrize("n", range(1, 8))
def test_dag_recursions_nest_one_call_per_crossing_of_the_top_root(
        monkeypatch, n):
    # every step resolves one crossing and the top row's root, the identity
    # with no elbows, has all C(n, 2): its chain of smoothings is deepest
    def nesting(name):
        frame, depth = sys._getframe(), 0
        while frame:
            depth += frame.f_code.co_name == name
            frame = frame.f_back
        return depth
    deepest = Counter()
    real_step, real_take = transition._step, transition._take

    def step(state, pick):
        deepest["number"] = max(deepest["number"], nesting("number"))
        return real_step(state, pick)

    def take(values, reads, s):
        deepest["value"] = max(deepest["value"], nesting("value"))
        return real_take(values, reads, s)
    monkeypatch.setattr(transition, "_step", step)
    monkeypatch.setattr(transition, "_take", take)
    assert resolution_refuted_rows(matrix(n)) == []
    assert deepest["number"] == math.comb(n, 2) + 1
    assert deepest["value"] <= math.comb(n, 2) + 1


def test_dag_reads_rows_in_the_hosts_byte_order(monkeypatch):
    # rows of B have the same bytes on either byte order, so a big-endian
    # host is simulated: int.from_bytes then reads column 0 from the top
    # field, and every row still passes, and a bumped one is refuted
    a = matrix(5)
    assert a.entries[0].itemsize == 1
    monkeypatch.setattr(sys, "byteorder", "big")
    assert resolution_refuted_rows(a) == []
    entries = [row[:] for row in a.entries]
    entries[3][-1] += 1
    assert resolution_refuted_rows(
        TransitionMatrix(a.n, a.rows, a.cols, tuple(entries))) == [3]


def test_dag_count_past_its_field_spills_or_overflows(monkeypatch):
    # every terminal traced to one column puts all 272 web permutations of
    # n = 6 in that field of row 0, past the 8 bits its column totals need:
    # column 1 carries into column 2, and the last column overflows the
    # row; either way row 0 is refuted, and nothing is raised
    a = matrix(6)
    assert len(web_table(6)) == 272
    for column in (1, -1):
        target = dyck_of_matching(a.cols[column])
        monkeypatch.setattr(transition, "lehmer_path", lambda sigma: target)
        assert resolution_refuted_rows(a)[0] == 0


def test_dag_without_the_switched_child_disagrees(monkeypatch):
    real = transition._step
    monkeypatch.setattr(transition, "_step",
                        lambda state, pick: (step := real(state, pick)) and step[:1])
    assert resolution_refuted_rows(matrix(5)) != []


def carried_dag_refutes(monkeypatch, n, extra):
    """The rows that ``resolution_refuted_rows(matrix(n))`` refutes when
    the first state stepped with a terminal child of a field c > 0 trades
    it for 2^w + ``extra`` copies of a terminal of field c - 1."""
    a = matrix(n)
    copies = (1 << 8 * a.entries[0].itemsize) + extra
    cols = a.cols if sys.byteorder == "little" else a.cols[::-1]
    field = {m: k for k, m in enumerate(cols)}
    terminal = {field[noncrossing_arcs(rec.path)]: (rec.sigma, 0)
                for rec in web_table(n)}
    real = transition._step
    tampered = []

    def step(state, pick):
        children = real(state, pick)
        for k, child in enumerate(() if tampered else children or ()):
            c = field[matching_of_permutation(child[0])]
            if not child[1] and c:
                tampered.append(state)
                return (children[1 - k],) + (terminal[c - 1],) * copies
        return children
    with monkeypatch.context() as patch:
        patch.setattr(transition, "_step", step)
        refuted = resolution_refuted_rows(a)
    assert tampered
    return refuted


@pytest.mark.parametrize("n", [4, 5])
def test_dag_count_carried_into_the_next_field_is_refuted(monkeypatch, n):
    # 2^w copies leave every packed value as it was, and only the terminal
    # counts of the rows that reach the state show the carry; with one
    # copy fewer the values differ too, and the same rows are refuted
    carried = carried_dag_refutes(monkeypatch, n, 0)
    assert carried != []
    assert carried == carried_dag_refutes(monkeypatch, n, -1)


@pytest.mark.parametrize("n", range(0, 7))
def test_dag_checks_matrices_that_matrix_did_not_build(n, golden_matrices):
    # the golden rows (n = 2..4) and the main theorem read literally, as
    # arrays of matrix()'s typecode, pass; one entry raised, at the last
    # nonzero of a middle row, is refuted at exactly its row
    code = row_typecode(largest_column_total(n))
    rows, cols = tuple(row_labels(n)), tuple(col_labels(n))
    sources = [literal_entries(n)]
    if n in golden_matrices:
        sources.append(golden_matrices[n])
    for entries in sources:
        entries = [array(code, row) for row in entries]
        assert resolution_refuted_rows(
            TransitionMatrix(n, rows, cols, tuple(entries))) == []
        r = len(rows) // 2
        entries[r][max(c for c, v in enumerate(entries[r]) if v)] += 1
        assert resolution_refuted_rows(
            TransitionMatrix(n, rows, cols, tuple(entries))) == [r]


@pytest.mark.parametrize("n", range(1, 6))
def test_syzygy_oracle_agrees(n):
    a = matrix(n)
    for m, row in zip(a.rows, a.entries):
        coeffs = syzygy_expand(m)
        assert [coeffs.get(c, 0) for c in a.cols] == list(row)


@pytest.mark.parametrize("n", range(1, 6))
def test_support_check_is_clean(n):
    assert support_check(matrix(n)) == []


def _with_entry(a, r, c, value):
    """``a`` with entry (r, c), 0-based, set to ``value``."""
    return TransitionMatrix(
        a.n, a.rows, a.cols,
        tuple(tuple(value if (i, j) == (r, c) else v for j, v in enumerate(row))
              for i, row in enumerate(a.entries)))


def test_support_check_reports_violations():
    violations = support_check(_with_entry(matrix(3), 1, 0, 2))
    assert {v["reason"] for v in violations} == {
        "positivity must match path inclusion", "lower triangle must vanish"}
    assert {(v["row_path"], v["col_path"]) for v in violations} == {
        ("NNENEE", "NNNEEE")}


@pytest.mark.parametrize("r, c, value, paths, reason", [
    (2, 2, 2, ("NNEENE", "NNEENE"), "diagonal entry must be 1"),
    (0, 1, 0, ("NNNEEE", "NNENEE"), "positivity must match path inclusion"),
])
def test_support_check_reports_one_violation(r, c, value, paths, reason):
    # Each doctored entry breaks exactly one of the three conditions.
    violations = support_check(_with_entry(matrix(3), r, c, value))
    assert [(v["row"], v["col"], v["row_path"], v["col_path"], v["reason"])
            for v in violations] == [(r + 1, c + 1, *paths, reason)]


def dense_support_check(a):
    """The support check read literally: every entry against
    :func:`dyck_leq`, the diagonal and the lower triangle."""
    rows = [dyck_of_matching(m) for m in a.rows]
    cols = [dyck_of_matching(m) for m in a.cols]
    out = []
    for r, row in enumerate(a.entries):
        for c, value in enumerate(row):
            reasons = []
            if (value > 0) != dyck_leq(cols[c], rows[r]):
                reasons.append("positivity must match path inclusion")
            if rows[r] == cols[c] and value != 1:
                reasons.append("diagonal entry must be 1")
            if c < r and value != 0:
                reasons.append("lower triangle must vanish")
            out += [{"row": r + 1, "col": c + 1, "value": value,
                     "row_path": rows[r], "col_path": cols[c],
                     "reason": reason} for reason in reasons]
    return out


@pytest.mark.parametrize("n", [3, 4])
def test_support_check_equals_the_dense_scan_on_every_perturbation(n):
    a = matrix(n)
    size = len(a.rows)
    for r in range(size):
        for c in range(size):
            v = a.entries[r][c]
            for value in (v + 1, v - 1, 0, -v):
                broken = _with_entry(a, r, c, value)
                assert support_check(broken) == dense_support_check(broken)


def test_support_check_equals_the_dense_scan_when_a_nonzero_moves():
    # the row keeps its nonzero count, so only the height comparison sees
    # a nonzero moved out of the down-set
    a = matrix(4)
    for r, row in enumerate(a.entries):
        for here in range(len(row)):
            for there in range(len(row)):
                if here != r and row[here] and not row[there]:
                    moved = _with_entry(_with_entry(a, r, here, 0),
                                        r, there, row[here])
                    assert support_check(moved) == dense_support_check(moved)


@pytest.mark.parametrize("n", range(0, 7))
def test_support_check_scans_only_the_rows_it_cannot_clear(monkeypatch, n):
    real = transition.dyck_leq
    calls = []

    def counting(p, q):
        calls.append((p, q))
        return real(p, q)
    monkeypatch.setattr(transition, "dyck_leq", counting)
    a = matrix(n)
    assert support_check(a) == [] and calls == []
    last = len(a.rows) - 1
    support_check(_with_entry(a, last, last, 2))
    assert len(calls) == catalan(n)


def test_support_check_scans_relabelled_matrices():
    # rows that are not the columns' paths get the dense scan, not the
    # down-set count
    a = matrix(3)
    swapped = TransitionMatrix(a.n, a.rows[::-1], a.cols, a.entries)
    assert support_check(swapped) == dense_support_check(swapped) != []


@pytest.mark.parametrize("n", range(0, 9))
def test_ballot_counts_sum_to_the_stanley_intervals(n):
    # OEIS A005700: 40,898 at n = 7 and 379,236 at n = 8
    f = math.factorial
    closed = (6 * f(2 * n) * f(2 * n + 2)
              // (f(n) * f(n + 1) * f(n + 2) * f(n + 3)))
    assert sum(ballot_count(dyck_heights(p)) for p in dyck_paths(n)) == closed


@pytest.mark.parametrize("n", range(0, 8))
def test_ballot_count_is_each_rows_nonzero_count(n):
    a = matrix(n)
    for m, row in zip(a.rows, a.entries):
        below = ballot_count(dyck_heights(dyck_of_matching(m)))
        assert below == sum(1 for v in row if v)


def reflect(m, n):
    """rho(M): each point i sent to 2n + 1 - i."""
    return matching((2 * n + 1 - j, 2 * n + 1 - i) for i, j in m)


def mirror_indices(a):
    """rho on the row indices and on the column indices of ``a``."""
    row_at = {m: r for r, m in enumerate(a.rows)}
    col_at = {m: c for c, m in enumerate(a.cols)}
    return ([row_at[reflect(m, a.n)] for m in a.rows],
            [col_at[reflect(m, a.n)] for m in a.cols])


def reflection_violations(a):
    """Each orbit {(M, M'), (rho M, rho M')} whose two entries differ, as
    its two 1-based (row, col) pairs."""
    rho_row, rho_col = mirror_indices(a)
    out = []
    for r, row in enumerate(a.entries):
        for c, value in enumerate(row):
            s, d = rho_row[r], rho_col[c]
            if (r, c) < (s, d) and a.entries[s][d] != value:
                out.append(((r + 1, c + 1), (s + 1, d + 1)))
    return out


@pytest.mark.parametrize("n", range(1, 8))
def test_matrix_is_reflection_symmetric(n):
    # a(rho M, rho M') = a(M, M'); rho fixes C(n, n // 2) rows
    a = matrix(n)
    assert reflection_violations(a) == []
    rho_row, _ = mirror_indices(a)
    assert sum(1 for r, s in enumerate(rho_row) if r == s) == math.comb(n, n // 2)


def test_reflection_check_names_both_entries_of_a_broken_orbit():
    a = matrix(4)
    rho_row, rho_col = mirror_indices(a)
    r = next(r for r, s in enumerate(rho_row) if r != s)
    mirror = (rho_row[r] + 1, rho_col[r] + 1)
    broken = _with_entry(a, r, r, a.entries[r][r] + 1)
    assert reflection_violations(broken) == [tuple(sorted([(r + 1, r + 1), mirror]))]


@pytest.mark.parametrize("n", range(1, 7))
def test_top_row_sums_to_web_count(n):
    a = matrix(n)
    assert sum(a.entries[0]) == len(web_table(n))


@pytest.mark.parametrize("n", range(0, 9))
def test_row_zero_dominates_every_row_and_the_web_count_bounds_it(n):
    # the CSV's strings run up to the largest entry of row 0, and no entry
    # exceeds |Web_n|
    a = matrix(n)
    top = a.entries[0]
    assert all(map(int.__ge__, top, row) for row in a.entries)
    assert max(top) <= len(web_table(n))


def largest_column_total(n):
    return max(Counter(rec.path for rec in web_table(n)).values())


@pytest.mark.parametrize("n", range(0, 8))
def test_both_methods_fill_rows_of_the_web_count_typecode(n):
    # the field holds the most web permutations traced to one column;
    # resolution_refuted_rows sums the DAG's values in fields of this width
    code = row_typecode(largest_column_total(n))
    a = matrix(n)
    assert {(type(row), row.typecode) for row in a.entries} == {(array, code)}


def test_row_zero_peaks_at_the_largest_column_total_in_the_staircase():
    # row 0 is the table's column counts, so its largest entry is the bound
    # the fields are sized by; it is g_n, at the staircase, the last column,
    # so rows are B through n = 9
    tops = [matrix(n).entries[0] for n in range(1, 10)]
    assert [max(top) for top in tops] == [
        largest_column_total(n) for n in range(1, 10)]
    assert [top[-1] for top in tops] == genocchi(9) == [
        1, 1, 1, 2, 3, 8, 17, 56, 155]
    assert {top.typecode for top in tops} == {"B"}


@pytest.mark.parametrize("n", [1, 5, 6, 8])
def test_rows_are_allocated_at_their_exact_size(n):
    # no slack past the entries: array.frombytes over-allocated each row
    empty = sys.getsizeof(array(row_typecode(largest_column_total(n))))
    a = matrix(n)
    assert {sys.getsizeof(row) - empty for row in a.entries} == {
        len(a.cols) * a.entries[0].itemsize}


@pytest.mark.parametrize("bound, itemsize", [
    (0, 1), (255, 1), (256, 2), (65_535, 2), (65_536, 4),
    (2**32 - 1, 4), (2**32, 8), (2**64 - 1, 8),
])
def test_row_typecode_is_the_narrowest_that_holds_the_bound(bound, itemsize):
    code = row_typecode(bound)
    assert array(code).itemsize == itemsize
    row = array(code, [bound, 0, bound])
    assert list(row) == [bound, 0, bound]
    # fields at the bound, packed and added to zero fields, keep their
    # values and spill into no neighbour
    packed = int.from_bytes(row, sys.byteorder)
    packed += int.from_bytes(array(code, [0, bound, 0]), sys.byteorder)
    total = array(code)
    total.frombytes(packed.to_bytes(3 * itemsize, sys.byteorder))
    assert list(total) == [bound] * 3


def test_row_typecode_refuses_a_bound_past_every_typecode():
    with pytest.raises(OverflowError):
        row_typecode(2**64)


@pytest.mark.parametrize("n", range(1, 6))
def test_diagonal_witnesses_avoid_312(n):
    a = matrix(n)
    for r, m in enumerate(a.rows):
        path = dyck_of_matching(m)
        witnesses = [rec.sigma for rec in web_table(n)
                     if rec.path == dyck_of_matching(a.cols[r])
                     and dyck_leq(rec.dyck, path)]
        assert len(witnesses) == 1
        assert is_312_avoiding(witnesses[0])
        assert dyck_of_permutation(witnesses[0]) == path


def test_exports():
    a = matrix(2)
    assert to_csv(a) == "1,1\n0,1"
    assert list(csv_lines(a)) == ["1,1", "0,1"]
    latex = to_latex(a)
    assert latex.splitlines()[1:3] == ["  1 & 1 \\\\", "   & 1 \\\\"]
    data = to_json(a)
    assert data["n"] == 2
    assert data["entries"] == [[1, 1], [0, 1]]
    assert data["rows"][0] == [[1, 3], [2, 4]]
    assert data["cols"][0] == [[1, 4], [2, 3]]


def latex_reference(a):
    """The LaTeX of ``a`` cell by cell, blank below the diagonal."""
    lines = ["  " + " & ".join("" if c < r else str(v)
                               for c, v in enumerate(row)) + r" \\"
             for r, row in enumerate(a.entries)]
    return "\\begin{bmatrix}\n" + "\n".join(lines) + "\n\\end{bmatrix}"


@given(st.lists(int_rows(), max_size=6))
def test_exports_join_each_rows_decimal_values(rows):
    # rows of every array width, signed or not, and lists; values of one
    # digit, of a byte, past a byte and negative; rows shorter than their
    # index, empty rows and no rows
    a = TransitionMatrix(len(rows), (), (), tuple(rows))
    assert list(csv_lines(a)) == [",".join(map(str, row)) for row in rows]
    assert list(latex_lines(a)) == latex_reference(a).split("\n")
    assert to_latex(a) == latex_reference(a)


def test_exports_of_a_matrix_without_labels():
    # the text comes from the entries alone: a matrix without labels still
    # prints every row, and the blank cells count from the row index
    rows = ((1, 1), (0, 1))
    for entries in [rows, *(tuple(array(code, row) for row in rows)
                            for code in "BHQ")]:
        a = TransitionMatrix(2, (), (), entries)
        assert to_csv(a) == "1,1\n0,1"
        assert list(latex_lines(a))[1:3] == ["  1 & 1 \\\\", "   & 1 \\\\"]


@given(st.lists(st.integers(0, 255), max_size=12),
       st.sampled_from(["H", "I", "Q"]))
def test_exports_read_the_low_bytes_in_the_hosts_byte_order(values, code):
    # a big-endian host is simulated by swapping the bytes of each item:
    # its low byte is then its last, and the text is still the values'
    row = array(code, values)
    row.byteswap()
    a = TransitionMatrix(1, (), (), (row,))
    expected = ",".join(map(str, values))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "byteorder",
                      "big" if sys.byteorder == "little" else "little")
        assert list(csv_lines(a)) == [expected]


def test_csv_formats_entries_outside_row_zero():
    # rows of any ints: a list row, with a value row 0 does not reach or a
    # negative one, is joined value by value
    a = TransitionMatrix(2, (), (), ((2, 1), (0, 3), (-1, 1), (-2, 0)))
    assert to_csv(a) == "2,1\n0,3\n-1,1\n-2,0"
