"""The catalog workload's answers, against the independent oracle.

``bench/workloads.catalog_op`` asks one ``bench/inputs.catalog`` query the
benchmark's eleven theory calls, from ``standard_modes`` through ``decompose``,
``recompose`` and ``approximate`` to ``emit_dot``, and
``bench/oracle.check_catalog_op`` checks every answer without importing
modalkit.  Every query of seeds 1 and 2 runs here, so an answer that the
benchmark would count as failed fails a test.
"""

import pytest

from bench_modules import inputs, load, oracle

load("speed")
load("spans")
workloads = load("workloads")  # imports inputs, oracle, speed and spans by name


@pytest.mark.parametrize("seed", [1, 2])
def test_every_catalog_query_is_answered_as_the_oracle_says(seed):
    lib = workloads.library()
    queries = [query for queries in inputs.catalog(seed) for query in queries]
    assert len(queries) == inputs.CATALOG_PASSES * len(oracle.ADMISSIBLE_BY_NAME) == 165
    for query in queries:
        oracle.check_catalog_op(query, workloads.catalog_op(lib, query))
