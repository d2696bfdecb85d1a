"""RPR101: engine-parity drift and cache-key policy for sim params.

The repo carries two exact engines that must stay bit-for-bit
interchangeable (``simulation/engine.py``, ``simulation/fastpath.py``)
and a content-addressed result cache whose key folds
in :class:`~repro.simulation.config.SimulationParams`.  Both contracts
break *silently* when a field is added:

* a knob consumed by one engine but not the other makes the
  conformance matrix compare two configurations that differ -- the
  differential tests then pass for the wrong reason or fail late;
* a knob with no explicit cache-key policy either poisons the key
  space (engine-selection fields must share entries) or, worse, is
  excluded by a stray ``pop`` nobody reviews.

This pass checks, over the whole program:

1. **Consumption parity** -- every ``SimulationParams`` field must be
   read by each engine module, where "read by" closes over the
   project call graph (a field consumed in a helper the engine calls
   counts) and over ``SimulationParams`` properties (reading
   ``horizon`` counts as reading ``warmup_cycles`` and
   ``measure_cycles``).  Fields consumed through shared pre-engine
   state (``Simulator.__init__``) are waived at their definition line
   with a justification naming that path.
2. **Cache-key policy** -- the set of fields excluded from
   :func:`repro.exec.cache.cache_key` must be declared once, in
   ``CACHE_KEY_EXCLUDED_FIELDS`` next to the dataclass; literal
   ``payload.pop("...")`` exclusions in the cache module must match
   the declaration, and every declared name must be a real field.
3. **Result coverage** -- every ``SimResult`` field that participates
   in equality must be set by ``from_stats``'s constructor call (or
   carry ``field(compare=False)`` like ``metrics``), so a new output
   column cannot silently keep its default in every engine.
4. **Side-channel stripping** -- every ``SimResult`` field declared
   ``compare=False`` (a side channel like ``metrics``,
   ``latency_hist`` or ``flow_stats``) must be ``pop``-ed by a string
   literal in ``core_dict``, so side channels can never leak into
   cache entries or golden snapshots and silently change the on-disk
   byte layout.

Anchor modules are located by dotted suffix; when any anchor is
missing (linting a partial tree or unrelated project) the pass is
silent.
"""

from __future__ import annotations

from typing import Iterator

from ..base import ProjectChecker, register_project
from ..findings import Finding
from ..graph import ModuleSummary, ProjectGraph

#: Dotted suffixes of the exact engine modules, reference first.
ENGINE_MODULES = ("simulation.engine", "simulation.fastpath")
CONFIG_MODULE = "simulation.config"
STATS_MODULE = "simulation.stats"
CACHE_MODULE = "exec.cache"
PARAMS_CLASS = "SimulationParams"
RESULT_CLASS = "SimResult"
#: The single source of truth for cache-key exclusions.
EXCLUSION_CONSTANT = "CACHE_KEY_EXCLUDED_FIELDS"


@register_project
class EngineParityChecker(ProjectChecker):
    CODE = "RPR101"
    SUMMARY = (
        "SimulationParams/SimResult fields drifting out of an engine "
        "or lacking an explicit cache-key policy"
    )

    def check_project(self, project: ProjectGraph) -> Iterator[Finding]:
        config = project.find_module(CONFIG_MODULE)
        if config is None or PARAMS_CLASS not in config.classes:
            return
        yield from self._check_parity(project, config)
        yield from self._check_cache_policy(project, config)
        yield from self._check_result_coverage(project)

    # -- 1. consumption parity ----------------------------------------

    def _engine_reads(
        self, project: ProjectGraph, engine: ModuleSummary,
        properties: dict[str, frozenset[str]],
    ) -> frozenset[str]:
        """Call-graph-closed attribute reads, properties expanded."""
        reads = set(project.read_closure(engine))
        # A property read counts as reading the fields the property
        # reads (one fixpoint pass; properties may chain).
        changed = True
        while changed:
            changed = False
            for name, expansion in properties.items():
                if name in reads and not expansion <= reads:
                    reads.update(expansion)
                    changed = True
        return frozenset(reads)

    def _check_parity(
        self, project: ProjectGraph, config: ModuleSummary
    ) -> Iterator[Finding]:
        engines: list[tuple[str, ModuleSummary]] = []
        for suffix in ENGINE_MODULES:
            summary = project.find_module(suffix)
            if summary is None:
                return  # partial tree: parity cannot be assessed
            engines.append((suffix, summary))
        properties = {
            name.rsplit(".", 1)[1]: fn.self_reads
            for name, fn in config.functions.items()
            if name.startswith(PARAMS_CLASS + ".")
        }
        read_sets = {
            suffix: self._engine_reads(project, summary, properties)
            for suffix, summary in engines
        }
        for field in config.classes[PARAMS_CLASS].fields:
            missing = [s for s, reads in read_sets.items()
                       if field.name not in reads]
            if not missing:
                continue
            consumed = [s for s in read_sets if s not in missing]
            if consumed:
                detail = (
                    f"consumed by {', '.join(consumed)} but never read "
                    f"(directly or through any call chain) by "
                    f"{', '.join(missing)}"
                )
            else:
                detail = "never read by any engine module"
            yield self.finding(
                config.path, field.lineno, field.col,
                f"{PARAMS_CLASS}.{field.name} is {detail}; both exact "
                "engines must honor every knob to stay bit-for-bit "
                "interchangeable (waive here naming the shared state "
                "path if consumption is indirect)",
            )

    # -- 2. cache-key policy ------------------------------------------

    def _check_cache_policy(
        self, project: ProjectGraph, config: ModuleSummary
    ) -> Iterator[Finding]:
        field_names = {
            f.name for f in config.classes[PARAMS_CLASS].fields
        }
        declared = config.str_sets.get(EXCLUSION_CONSTANT)
        params_line = config.classes[PARAMS_CLASS].lineno
        cache = project.find_module(CACHE_MODULE)
        if declared is None:
            if cache is not None:
                yield self.finding(
                    config.path, params_line, 1,
                    f"{PARAMS_CLASS} has no {EXCLUSION_CONSTANT} "
                    "declaration: every field's cache-key policy "
                    "(in-key vs excluded) must be explicit and "
                    "machine-checked next to the dataclass",
                )
            return
        for name in declared:
            if name not in field_names:
                yield self.finding(
                    config.path, params_line, 1,
                    f"{EXCLUSION_CONSTANT} names {name!r}, which is not "
                    f"a {PARAMS_CLASS} field -- stale exclusions widen "
                    "the key space silently",
                )
        if cache is None:
            return
        for fq_name, fn in cache.functions.items():
            if "key" not in fn.name.lower():
                continue
            for call in fn.calls:
                if not call.target.endswith(".pop") or call.str_arg is None:
                    continue
                if call.str_arg in field_names and call.str_arg not in declared:
                    yield self.finding(
                        cache.path, call.lineno, call.col,
                        f"cache key drops {PARAMS_CLASS} field "
                        f"{call.str_arg!r} without a matching entry in "
                        f"{EXCLUSION_CONSTANT}: exclusions hand-rolled "
                        "in the cache layer drift from the declared "
                        "policy",
                    )

    # -- 3. result coverage -------------------------------------------

    def _check_result_coverage(
        self, project: ProjectGraph
    ) -> Iterator[Finding]:
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
        # -- 4. side-channel stripping --------------------------------
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
