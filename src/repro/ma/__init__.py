"""The distributed Minor-Aggregation model (paper Section 3.3 and Section 4).

* :mod:`repro.ma.engine` — the model itself: contraction / consensus /
  aggregation rounds with nodes *and* edges as computational units.
* :mod:`repro.ma.operators` — Õ(1)-bit aggregation operators, including the
  deterministic Misra-Gries heavy-hitter sketch (Example 8).
* :mod:`repro.ma.compiled` — whole schedules lowered to array passes over
  CSR edge tables (``reduceat`` consensus, scatter-reduce aggregation,
  vectorized contraction); the closure engine stays the bit-identical
  reference (``pytest -m ma``).
* :mod:`repro.ma.virtual` — the virtual-node extension (Section 4.1).
* :mod:`repro.ma.boruvka` — Boruvka's MST, the paper's instructive example.
* :mod:`repro.ma.simulation` — Theorem 17 compile-down cost model to CONGEST.
"""

from repro.ma.engine import (
    MinorAggregationEngine,
    MARoundResult,
    node_order_key,
)
from repro.ma.compiled import (
    CompiledMinorAggregationEngine,
    compiled_boruvka_rows,
)
from repro.ma.operators import (
    AND,
    DICT_SUM,
    FIRST,
    MAX,
    MIN,
    OR,
    SET_UNION,
    SUM,
    ArrayMessage,
    MisraGries,
    NumericForm,
    Operator,
    estimate_bits,
    misra_gries_operator,
)
from repro.ma.virtual import VirtualGraph
from repro.ma.boruvka import boruvka_mst
from repro.ma.simulation import CongestEstimates, congest_estimates

__all__ = [
    "MinorAggregationEngine",
    "CompiledMinorAggregationEngine",
    "MARoundResult",
    "compiled_boruvka_rows",
    "node_order_key",
    "Operator",
    "NumericForm",
    "ArrayMessage",
    "SUM",
    "MIN",
    "MAX",
    "OR",
    "AND",
    "FIRST",
    "SET_UNION",
    "DICT_SUM",
    "MisraGries",
    "misra_gries_operator",
    "estimate_bits",
    "VirtualGraph",
    "boruvka_mst",
    "CongestEstimates",
    "congest_estimates",
]
