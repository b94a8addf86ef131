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

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    ".engine": ("MinorAggregationEngine", "MARoundResult", "node_order_key"),
    ".compiled": ("CompiledMinorAggregationEngine", "compiled_boruvka_rows"),
    ".operators": (
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
    ),
    ".virtual": ("VirtualGraph",),
    ".boruvka": ("boruvka_mst",),
    ".simulation": ("CongestEstimates", "congest_estimates"),
})
