import json
import pathlib
from array import array

import pytest
from hypothesis import strategies as st

from webperm.combinat import is_permutation

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def golden_matrices() -> dict[int, list[list[int]]]:
    raw = json.loads((DATA / "transition_matrices_golden.json").read_text())
    return {int(k): v for k, v in raw.items()}


@pytest.fixture(scope="session")
def golden_web_tables() -> dict[int, list[tuple[str, str, str, str]]]:
    """Reference rows (word, cycle notation, path column, matching column)
    for n = 2..5.

    Note: the path column of the source tables was generated in transposed
    (row, column) coordinates, so it records the path of the *inverse*
    word; the tests check it through that correspondence.  The matching
    column and the matrices use the direct convention.
    """
    raw = json.loads((DATA / "web_tables_golden.json").read_text())
    return {int(k): [tuple(r) for r in v] for k, v in raw.items()}


def matchings(n: int):
    """Generate every matching on [2n], (2n-1)!! of them, in canonical arc
    order: the reference the matching classes and the oracle are checked
    against."""

    def rec(free):
        if not free:
            yield ()
            return
        a = free[0]
        for k in range(1, len(free)):
            rest = free[1:k] + free[k + 1:]
            for tail in rec(rest):
                yield ((a, free[k]),) + tail

    return rec(tuple(range(1, 2 * n + 1)))


def perm_from_str(text: str) -> tuple[int, ...]:
    """Parse the one-line notation of ``perm_to_str``: digits, or
    comma-separated values from n = 10 on."""
    parts = text.split(",") if "," in text else list(text)
    try:
        sigma = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"not a permutation word: {text!r}") from None
    if not is_permutation(sigma):
        raise ValueError(f"not a permutation word: {text!r}")
    return sigma


def even_lehmer_code(sigma) -> bool:
    """True iff every entry #{k > i : sigma(k) < sigma(i)} of the Lehmer
    code of sigma is even, counted pair by pair; stops at the first odd
    one."""
    return all(sum(b < a for b in sigma[i + 1:]) % 2 == 0
               for i, a in enumerate(sigma))


# the bands of values that turn into text differently: one digit, more
# digits within a byte, past a byte, negative
BANDS = ((0, 9), (10, 255), (256, 2**64 - 1), (-2**63, -1))


@st.composite
def int_rows(draw):
    """A row of ints: an ``array`` of a typecode of each width, unsigned
    or signed, or a list.  Its values come from a random nonempty set of
    the :data:`BANDS` that its type can hold, so rows of one band, of
    values below 10 or below 256, are common."""
    code = draw(st.sampled_from([None, *"BHIQbhiq"]))
    lo, hi = -2**63, 2**64 - 1
    if code is not None:
        bits = 8 * array(code).itemsize
        lo, hi = ((0, 2**bits - 1) if code.isupper()
                  else (-2**(bits - 1), 2**(bits - 1) - 1))
    bands = [st.integers(max(a, lo), min(b, hi))
             for a, b in BANDS if max(a, lo) <= min(b, hi)]
    used = draw(st.lists(st.sampled_from(range(len(bands))), min_size=1,
                         unique=True))
    values = draw(st.lists(st.one_of([bands[k] for k in used]),
                           max_size=12))
    return values if code is None else array(code, values)
