"""RPR105: relaxed-RNG results must never alias exact results.

``rng_mode="relaxed"`` trades the exact engine's bit-for-bit contract
for throughput: its results are only *statistically* equivalent
(``tests/test_relaxed_rng_equivalence.py``).  Every sink that treats
two results as interchangeable must therefore see the mode.  The cache
is the dangerous one -- a relaxed result served from (or overwriting)
an exact entry corrupts golden numbers silently.

This pass pins the policy in two legs:

1. **Hand-rolled drop** -- any ``payload.pop("rng_mode")`` inside a
   key-deriving function of the cache module is a finding.
2. **Unrecorded piecemeal key** -- a key-deriving function in an
   ``exec`` module that assembles its payload from individual
   ``params.<field>`` reads (no wholesale ``asdict``/``to_dict``
   serialization) without reading ``rng_mode`` leaves the mode
   unrecorded -- the exact failure shape for golden-pin comparisons
   built on such keys.

The pass is silent on trees whose ``SimulationParams`` has no
``rng_mode`` field (pre-relaxed checkouts, unrelated projects).
"""

from __future__ import annotations

from typing import Iterator

from ..base import ProjectChecker, register_project
from ..findings import Finding
from ..graph import ModuleSummary, ProjectGraph

CONFIG_MODULE = "simulation.config"
CACHE_MODULE = "exec.cache"
PARAMS_CLASS = "SimulationParams"
MODE_FIELD = "rng_mode"

#: Call-target suffixes that serialize a params object wholesale (every
#: field lands in the payload, so the mode is recorded by construction).
_WHOLESALE_SUFFIXES = ("asdict", "to_dict", "core_dict", "_asdict")


def _is_key_function(name: str) -> bool:
    return "key" in name.lower()


def _serializes_wholesale(fn) -> bool:  # type: ignore[no-untyped-def]
    return any(
        call.target.rsplit(".", 1)[-1] in _WHOLESALE_SUFFIXES
        for call in fn.calls
    )


@register_project
class RelaxedRngChecker(ProjectChecker):
    CODE = "RPR105"
    SUMMARY = (
        "relaxed rng_mode results reaching a cache key or pinned "
        "comparison without the mode recorded"
    )

    def check_project(self, project: ProjectGraph) -> Iterator[Finding]:
        config = project.find_module(CONFIG_MODULE)
        if config is None or PARAMS_CLASS not in config.classes:
            return
        fields = {f.name for f in config.classes[PARAMS_CLASS].fields}
        if MODE_FIELD not in fields:
            return  # pre-relaxed tree: nothing to guard
        cache = project.find_module(CACHE_MODULE)
        if cache is None:
            return
        yield from self._check_key_functions(cache, fields)

    # -- key-deriving functions in the cache layer --------------------

    def _check_key_functions(
        self, cache: ModuleSummary, fields: set[str]
    ) -> Iterator[Finding]:
        other_fields = fields - {MODE_FIELD}
        for fn in cache.functions.values():
            if not _is_key_function(fn.name):
                continue
            for call in fn.calls:
                if (
                    call.target.endswith(".pop")
                    and call.str_arg == MODE_FIELD
                ):
                    yield self.finding(
                        cache.path, call.lineno, call.col,
                        f"cache key drops {MODE_FIELD!r} from its "
                        "payload: relaxed and exact runs would collide "
                        "on one entry even though their results differ "
                        "-- this field may never be popped",
                    )
            if _serializes_wholesale(fn):
                continue
            reads = fn.attr_reads & other_fields
            if reads and MODE_FIELD not in fn.attr_reads:
                yield self.finding(
                    cache.path, fn.lineno, fn.col,
                    f"{fn.name}() assembles its key from individual "
                    f"params fields ({', '.join(sorted(reads))}) "
                    f"without recording {MODE_FIELD!r}; a hand-rolled "
                    "key that omits the mode lets relaxed results "
                    "alias exact ones -- read the field or serialize "
                    "the params wholesale",
                )
