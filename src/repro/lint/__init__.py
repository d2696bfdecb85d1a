"""AST-based determinism and reproducibility linting (``repro.lint``).

Every figure in this reproduction is defined by an RNG stream: a
random folded Clos *is* the sequence of draws that wired it, a
Theorem 4.2 sweep *is* the seeds it averaged over, and the
``repro.exec`` result cache replays old numbers only as long as its
keys are pure functions of the inputs.  A single call into unseeded
global RNG state, a ``hash()`` of a string reaching a cache key, or a
``set`` iterated into an RNG-indexed list silently breaks all of that
-- usually without failing a single test on the machine it was
written on.

``repro.lint`` catches the whole class mechanically.  It parses each
source file once, runs a registry of :class:`~repro.lint.base.Checker`
plugins over the AST and reports :class:`~repro.lint.findings.Finding`
records.  Shipped checkers:

========  ==========================================================
code      hazard
========  ==========================================================
RPR001    unseeded RNG (``random.*`` module globals, legacy
          ``np.random.*``, ``default_rng()`` / ``Random()`` with no
          seed)
RPR003    ``set`` iteration feeding RNG draws, ordered accumulation
          or serialization
RPR004    wall-clock / entropy sources on cache-key or
          seed-derivation paths
========  ==========================================================

A second registry of *project* checkers runs once over the resolved
import/call graph (:mod:`repro.lint.graph`) after the per-file phase:

========  ==========================================================
code      invariant
========  ==========================================================
RPR101    every ``SimResult`` field set by ``from_stats``, and every
          side-channel field stripped by ``core_dict``
RPR102    numpy integer-width hazards (int32 overflow, uint64/signed
          mixing) in kernel code
RPR103    wall-clock/env/RNG/``hash()`` impurity reaching cache-key or
          seed derivation through *any* call chain
RPR105    relaxed ``rng_mode`` results reaching a cache key or pinned
          comparison without the mode recorded
========  ==========================================================

Run it as ``python -m repro.lint src`` or ``repro-rfc lint``; exit
status is 1 whenever findings remain and 2 on internal errors.
Intentional uses are waived per line with
``# repro: allow-<code> -- <justification>``.  See ``docs/LINTING.md``
for the full catalogue with examples.
"""

from __future__ import annotations

from .base import (
    Checker,
    ProjectChecker,
    all_checkers,
    all_project_checkers,
    checker_codes,
    register,
    register_project,
)
from .context import FileContext
from .dataflow import TaintEngine, TaintHit
from .findings import Finding
from .graph import ModuleSummary, ProjectGraph, summarize_module
from .runner import (
    LintReport,
    format_findings,
    lint_source,
    main,
    run_analysis,
)
from .suppressions import parse_suppressions

__all__ = [
    "Checker",
    "FileContext",
    "Finding",
    "LintReport",
    "ModuleSummary",
    "ProjectChecker",
    "ProjectGraph",
    "TaintEngine",
    "TaintHit",
    "all_checkers",
    "all_project_checkers",
    "checker_codes",
    "format_findings",
    "lint_source",
    "main",
    "parse_suppressions",
    "register",
    "register_project",
    "run_analysis",
    "summarize_module",
]
