"""RPR103: impurity reaching key/seed derivation through any call chain.

RPR004 is per-file: it catches ``time.time()`` written *inside* the
cache layer.  One helper of indirection defeats it --
``cache_key`` calling a utility in another module that reads the
environment builds keys that differ between hosts, and no single file
looks wrong.  This pass runs the interprocedural taint engine
(:mod:`repro.lint.dataflow`) from every key-derivation root:

* **roots** -- functions defined in a module of an ``exec`` package
  whose name mentions key/seed/digest/derive (the same name heuristic
  RPR004 uses, now applied to the whole call graph);
* **hits** -- impure source calls (wall clock, entropy, environment,
  ``hash``, unseeded global RNGs) anywhere in a root's reachable set,
  reported at the source call site with the full call chain.

Direct hits inside the root itself are reported only for sources the
per-file rules do not cover (environment, ``os.getpid``, monotonic
clocks, global RNG draws); wall-clock/entropy calls sitting right in
an exec file stay RPR004's, so one defect never needs two waivers.
"""

from __future__ import annotations

from pathlib import PurePath
from typing import Iterator

from ..base import ProjectChecker, register_project
from ..dataflow import TaintEngine, TaintHit
from ..findings import Finding
from ..graph import ProjectGraph
from .rpr004_wallclock import _BANNED as _PER_FILE_COVERED

_ROOT_NAME_PARTS = ("key", "seed", "digest", "derive")
_EXEC_DIR = "exec"


def _is_key_root(path: str, name: str) -> bool:
    on_exec = _EXEC_DIR in PurePath(path).parts
    return on_exec and any(part in name.lower() for part in _ROOT_NAME_PARTS)


@register_project
class CacheKeyTaintChecker(ProjectChecker):
    CODE = "RPR103"
    SUMMARY = (
        "wall-clock/env/RNG impurity reaching cache-key or seed "
        "derivation through the call graph"
    )

    def check_project(self, project: ProjectGraph) -> Iterator[Finding]:
        engine = TaintEngine(project)
        roots = sorted(
            qualified
            for qualified, summary, fn in project.iter_functions()
            if _is_key_root(summary.path, fn.name)
        )
        seen: set[tuple[str, int, int, str]] = set()
        for root in roots:
            for hit in engine.hits_from(root):
                if len(hit.chain) == 1 and hit.source in _PER_FILE_COVERED:
                    continue  # direct call in an exec file: RPR004's finding
                key = (hit.path, hit.site.lineno, hit.site.col, hit.source)
                if key in seen:
                    continue
                seen.add(key)
                yield self._finding_for(hit)

    def _finding_for(self, hit: TaintHit) -> Finding:
        root_name = hit.root.split(".")[-1]
        if len(hit.chain) == 1:
            how = f"directly inside {root_name}()"
        else:
            how = (
                f"reachable from {root_name}() via "
                f"{hit.chain_text()}"
            )
        return self.finding(
            hit.path, hit.site.lineno, hit.site.col,
            f"{hit.source}() reads {hit.reason} and is {how}; cache keys "
            "and derived seeds must be pure functions of their inputs -- "
            "any impurity below a key root silently splits the key space "
            "across runs or hosts",
        )
