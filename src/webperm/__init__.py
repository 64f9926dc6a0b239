"""Exact combinatorics of web permutations.

Matchings, Dyck paths and grid-configuration crossing resolution; the
transition matrix between the nonnesting and noncrossing bases; Andre
cycle structure; zigzag/Genocchi enumeration; and an independent
syzygy-rewriting oracle.
"""

from .combinat import (
    CapExceeded,
    catalan,
    cells_above,
    dyck_leq,
    dyck_of_matching,
    dyck_of_permutation,
    dyck_paths,
    dyck_sort_key,
    enumerate_matchings,
    m0,
    matching,
    matching_from_dyck,
    syt_to_matching,
)
from .grid import (
    GridConfiguration,
    crossings_of,
    matching_of_permutation,
    maximal_crossing,
    resolve,
    smooth,
    switch,
    trace_matching,
    web_permutations,
    web_permutations_for,
)
from .andre import (
    foata,
    foata_inverse,
    is_312_avoiding,
    is_andre_cycle,
    is_andre_word,
    is_web,
    phi,
)
from .transition import TransitionMatrix, entry, matrix, support_check
from .enumeration import (
    cc_distribution,
    entringer,
    euler_numbers,
    f,
    f_nk,
    genocchi,
    seidel_rows,
    verify_conjecture,
)
from .oracle import delta_product, minor, syzygy_expand, verify_expansion
from .webs import web_set, web_table

__version__ = "0.1.0"
