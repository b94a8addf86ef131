"""Pin how ``scipy.sparse.csgraph.maximum_flow`` handles large capacities.

An exact minimality proof for a cut (the minimum of n-1 s-t max-flows
from a fixed source) cannot lean on scipy's max-flow unguarded: it
takes only integer capacities, and on scipy 1.17.1 it silently
truncates an int64 capacity of 2^31 or more -- the flow through a
two-edge path comes back 0, with no error.  Capacities up to 2^31 - 1
are exact.  If this test starts failing, scipy's behaviour changed and
any guard built on it must be re-checked.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_flow


def two_edge_path(capacity: int) -> sp.csr_matrix:
    """The path 0 -> 1 -> 2 with both edges at ``capacity`` (int64)."""
    data = np.array([capacity, capacity], dtype=np.int64)
    return sp.csr_matrix(
        (data, (np.array([0, 1]), np.array([1, 2]))), shape=(3, 3)
    )


@pytest.mark.parametrize(
    "capacity, flow",
    [(2**31 - 1, 2**31 - 1), (2**31, 0), (2**40, 0)],
)
def test_int64_capacities_truncate_past_int32(capacity, flow):
    graph = two_edge_path(capacity)
    assert graph.dtype == np.int64
    assert int(maximum_flow(graph, 0, 2).flow_value) == flow
