"""Baselines the paper's algorithm is validated and compared against.

* :mod:`repro.baselines.stoer_wagner` -- exact centralized min-cut, the
  ground truth for every end-to-end test (own implementation).
* :mod:`repro.baselines.karger` -- randomized contraction (Karger and
  Karger-Stein), the classical Monte-Carlo comparison point.
* :mod:`repro.baselines.reference` -- the exact 2-respecting oracle
  re-exported as a baseline, plus a belt-and-braces exact min-cut that
  cross-checks two independent implementations.
* :mod:`repro.baselines.naive_congest` -- the trivial distributed strategy
  (ship every edge to a leader over a BFS tree, solve centrally), whose
  *measured* Θ(m + D) round count is the bar the paper's Õ(D + sqrt(n))
  and Õ(D) guarantees clear.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    ".stoer_wagner": ("stoer_wagner_min_cut",),
    ".karger": ("karger_min_cut", "karger_stein_min_cut"),
    ".reference": ("exact_min_cut_reference", "reference_two_respecting"),
    ".naive_congest": ("naive_congest_min_cut",),
})
