"""Solver registry: every min-cut solver reachable through one interface.

A *solver* is a callable ``fn(packed, ctx) -> MinCutResult`` taking a
:class:`~repro.core.session.GraphPacking` handle (a
:class:`~repro.graphs.csr.CSRGraph` -- networkx inputs are converted
before any solver runs -- plus its lazily computed tree packing and
shared arrays) plus the per-solve
:class:`~repro.core.session.SolveContext` (accountant, congest switch,
resolved solver name) and returning the uniform
:class:`~repro.core.mincut.MinCutResult` -- typically via the handle's
``finalize`` / ``finalize_partition`` helpers.  The registry replaces the old
hard-coded string compares in ``minimum_cut`` -- the paper's two pipeline
solvers (``minor-aggregation``, ``oracle``) and the classical baselines
(``stoer-wagner``, ``karger``) register here, and external code can add its
own entries with :func:`register_solver` and reach them through
``MinCutSolver``, ``minimum_cut``, ``minimum_cut_many``, and the CLI's
``--solver`` flag alike.

Entries carry one behavioural flag, ``uses_packing``: whether the
solver consumes the Theorem 12 tree packing.  Solvers that don't (the
centralized baselines) never trigger the packing computation on their
handle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import SolverError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.mincut import MinCutResult
    from repro.core.session import GraphPacking, SolveContext

SolverFn = Callable[["GraphPacking", "SolveContext"], "MinCutResult"]


@dataclass(frozen=True)
class SolverEntry:
    """One registered solver plus its dispatch traits."""

    name: str
    fn: SolverFn
    uses_packing: bool = True
    description: str = ""


_REGISTRY: dict[str, SolverEntry] = {}


def register_solver(
    name: str,
    fn: SolverFn | None = None,
    *,
    uses_packing: bool = True,
    description: str = "",
):
    """Register ``fn`` under ``name``; usable as a decorator.

    Re-registering a name replaces the previous entry (handy for tests
    that stub a solver out and restore it afterwards).
    """

    def _register(fn: SolverFn) -> SolverFn:
        _REGISTRY[name] = SolverEntry(
            name=name,
            fn=fn,
            uses_packing=uses_packing,
            description=description or (fn.__doc__ or "").strip().split("\n")[0],
        )
        return fn

    if fn is not None:
        return _register(fn)
    return _register


def unregister_solver(name: str) -> None:
    """Remove a registry entry (no-op when absent); testing helper."""
    _REGISTRY.pop(name, None)


def registered_solvers() -> tuple[str, ...]:
    """Registered solver names, sorted -- the CLI's ``--solver`` choices."""
    _ensure_defaults()
    return tuple(sorted(_REGISTRY))


def get_solver(name: str) -> SolverEntry:
    """Look up a solver entry; unknown names list what *is* registered."""
    _ensure_defaults()
    entry = _REGISTRY.get(name)
    if entry is None:
        known = ", ".join(sorted(_REGISTRY))
        raise SolverError(
            f"unknown solver {name!r}; registered solvers: {known}"
        )
    return entry


def solver_descriptions() -> dict[str, str]:
    """name -> one-line description for every registered solver."""
    _ensure_defaults()
    return {name: _REGISTRY[name].description for name in sorted(_REGISTRY)}


def _ensure_defaults() -> None:
    # The default entries live in repro.core.session; importing it
    # registers them.  Lazy so `import repro.core.registry` stays light
    # and free of import cycles.
    if not _REGISTRY:
        import repro.core.session  # noqa: F401  (registration side effect)
