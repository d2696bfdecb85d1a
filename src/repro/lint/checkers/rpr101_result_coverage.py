"""RPR101: every ``SimResult`` field reaches each engine's results.

Every engine builds its :class:`~repro.simulation.stats.SimResult`
through ``SimResult.from_stats``, and the result cache and golden
snapshots serialize it through ``core_dict``.  Both paths break
*silently* when a field is added:

1. **Result coverage** -- every ``SimResult`` field that participates
   in equality must be set by ``from_stats``'s constructor call (or
   carry ``field(compare=False)`` like ``metrics``), so a new output
   column cannot silently keep its default in every engine.
2. **Side-channel stripping** -- every ``SimResult`` field declared
   ``compare=False`` (a side channel like ``metrics``,
   ``latency_hist`` or ``flow_stats``) must be ``pop``-ed by a string
   literal in ``core_dict``, so side channels can never leak into
   cache entries or golden snapshots and silently change the on-disk
   byte layout.

The stats module is located by dotted suffix; when it is missing
(linting a partial tree or unrelated project) the pass is silent.
"""

from __future__ import annotations

from typing import Iterator

from ..base import ProjectChecker, register_project
from ..findings import Finding
from ..graph import ProjectGraph

STATS_MODULE = "simulation.stats"
RESULT_CLASS = "SimResult"


@register_project
class ResultCoverageChecker(ProjectChecker):
    CODE = "RPR101"
    SUMMARY = (
        "SimResult fields left at their default by from_stats or "
        "leaking a side channel through core_dict"
    )

    def check_project(self, project: ProjectGraph) -> Iterator[Finding]:
        stats = project.find_module(STATS_MODULE)
        if stats is None or RESULT_CLASS not in stats.classes:
            return
        constructed: set[str] = set()
        for fn in stats.functions.values():
            for call in fn.calls:
                root = call.target.split(".")[0]
                if root in ("cls", RESULT_CLASS):
                    constructed.update(call.keywords)
        if not constructed:
            return  # construction is dynamic; nothing to pin
        for field in stats.classes[RESULT_CLASS].fields:
            if not field.compare or field.name in constructed:
                continue
            yield self.finding(
                stats.path, field.lineno, field.col,
                f"{RESULT_CLASS}.{field.name} participates in equality "
                "but is never passed by the from_stats constructor "
                "call, so every engine would silently ship the "
                "default; set it there or mark it "
                "field(compare=False) with an explicit policy",
            )
        # -- 2. side-channel stripping --------------------------------
        popped: set[str] = set()
        has_core_dict = False
        for fn in stats.functions.values():
            if fn.name != "core_dict":
                continue
            has_core_dict = True
            for call in fn.calls:
                if call.target.endswith(".pop") and call.str_arg is not None:
                    popped.add(call.str_arg)
        if not has_core_dict:
            return  # no canonical serializer to audit
        for field in stats.classes[RESULT_CLASS].fields:
            if field.compare or field.name in popped:
                continue
            yield self.finding(
                stats.path, field.lineno, field.col,
                f"{RESULT_CLASS}.{field.name} is compare=False (a side "
                "channel) but core_dict never pops it, so it would leak "
                "into cache entries and golden snapshots and change "
                "their byte layout; add a literal pop there",
            )
