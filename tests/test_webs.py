import pytest

from webperm import grid
from webperm.combinat import catalan
from webperm.webs import web_records, web_table


def _shared(records, field):
    values = [getattr(r, field) for r in records]
    return len({id(v) for v in values}), len(set(values))


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("source", ["table", "resolution"])
def test_records_share_one_path_and_one_matching_per_value(n, source):
    # the table holds E_{n+1} records but only Catalan(n) distinct D and M
    records = (web_table(n) if source == "table"
               else web_records(grid.web_permutations(n)))
    for field in ("dyck", "matched"):
        objects, values = _shared(records, field)
        assert objects == values <= catalan(n), field


@pytest.mark.parametrize("word", [(1, 1, 2), (2, 3), (0,)])
def test_web_records_rejects_a_non_permutation(word):
    with pytest.raises(ValueError, match="not a permutation"):
        web_records([(2, 1), word])
