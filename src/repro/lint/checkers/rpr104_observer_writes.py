"""RPR104: observer hooks must not perturb the simulation they watch.

The observability layer (:mod:`repro.obs`) promises that attaching a
tracer or metrics collector leaves every simulation bit-for-bit
identical to an unobserved run -- the whole exact-engine conformance
story rests on it.  The promise dies quietly the first time a hook
"just fixes up" a queue it was handed, or draws from an RNG the engine
owns: the observed run diverges and the differential tests blame the
engines.

The pass roots at every ``on_*`` method of every class defined in an
``obs`` package and walks the project call graph below them.  In that
closure it flags, with the hook-to-site call chain as the witness:

* **foreign writes** -- attribute stores, subscript stores or mutator
  method calls (``append``, ``update``, ``pop``...) whose receiver is
  a *parameter* of the containing function (engine state handed into
  the hook), not ``self`` (observers may accumulate freely on their
  own state);
* **RNG draws off a parameter** -- ``sim.rng.random()`` advances the
  engine's deterministic stream, which is a write in all but syntax;
* **global RNG draws** -- ``random.random()`` etc. perturb
  process-global state any co-resident code may rely on.

Conservative like every project pass: receivers the graph cannot
attribute add no findings.
"""

from __future__ import annotations

from pathlib import PurePath
from typing import Iterator

from ..base import ProjectChecker, register_project
from ..dataflow import classify_source
from ..findings import Finding
from ..graph import FunctionSummary, ModuleSummary, ProjectGraph

_OBS_DIR = "obs"
_HOOK_PREFIX = "on_"

#: Method names that draw from (and therefore advance) an RNG stream.
DRAW_METHODS = frozenset({
    "random", "randrange", "randint", "shuffle", "choice", "choices",
    "sample", "uniform", "normal", "gauss", "getrandbits", "integers",
    "permutation", "standard_normal", "exponential", "poisson",
})


def _hook_roots(project: ProjectGraph) -> list[str]:
    roots: list[str] = []
    for summary in project.modules.values():
        if _OBS_DIR not in PurePath(summary.path).parts:
            continue
        for cls_qual, cls in summary.classes.items():
            for method in cls.methods:
                if not method.startswith(_HOOK_PREFIX):
                    continue
                qualified = f"{summary.module}.{cls_qual}.{method}"
                if qualified in project.functions:
                    roots.append(qualified)
    return sorted(roots)


@register_project
class ObserverWriteChecker(ProjectChecker):
    CODE = "RPR104"
    SUMMARY = (
        "code reachable from observer hooks writing engine state or "
        "advancing RNG streams"
    )

    def check_project(self, project: ProjectGraph) -> Iterator[Finding]:
        roots = _hook_roots(project)
        if not roots:
            return
        reachable = project.reachable(roots)
        # Shortest witness chain per flagged function, from any root.
        seen: set[tuple[str, int, int]] = set()
        for qualified in sorted(reachable):
            summary, fn = project.functions[qualified]
            chain = self._witness(project, roots, qualified)
            for finding in self._check_function(project, summary, fn,
                                                qualified, chain):
                key = (finding.file, finding.line, finding.col)
                if key not in seen:
                    seen.add(key)
                    yield finding

    @staticmethod
    def _witness(
        project: ProjectGraph, roots: list[str], qualified: str
    ) -> str:
        best: list[str] | None = None
        for root in roots:
            chain = project.call_chain(root, qualified)
            if chain is not None and (best is None or len(chain) < len(best)):
                best = chain
        if not best or len(best) == 1:
            return ""
        return " via " + " -> ".join(
            part.split(".")[-1] + "()" for part in best
        )

    def _check_function(
        self, project: ProjectGraph, summary: ModuleSummary,
        fn: FunctionSummary, qualified: str, chain: str,
    ) -> Iterator[Finding]:
        foreign = {p for p in fn.params if p not in ("self", "cls")}
        hook = fn.name.startswith(_HOOK_PREFIX)
        where = f"a hook ({fn.name})" if hook and not chain else (
            f"{fn.name}(), reachable from an observer hook{chain}"
        )
        for write in fn.writes:
            if write.root not in foreign:
                continue
            if write.via_call:
                what = f"mutates parameter {write.root!r} ({write.attr})"
            elif write.attr is None:
                what = f"stores into parameter {write.root!r} by subscript"
            else:
                what = f"sets {write.root}.{write.attr}"
            yield self.finding(
                summary.path, write.lineno, write.col,
                f"{where} {what}: observer-reachable code must never "
                "write state it was handed -- attaching an observer has "
                "to leave the run bit-for-bit identical",
            )
        for call in fn.calls:
            tail = call.target.rsplit(".", 1)
            if len(tail) == 2 and tail[1] in DRAW_METHODS:
                root = tail[0].split(".")[0]
                if root in foreign:
                    yield self.finding(
                        summary.path, call.lineno, call.col,
                        f"{where} draws from {tail[0]}.{tail[1]}() on a "
                        "parameter: advancing an engine-owned RNG stream "
                        "from an observer desynchronizes the observed run",
                    )
        for canonical, site in project.external_calls(qualified):
            reason = classify_source(canonical)
            if reason is not None and "RNG" in reason:
                yield self.finding(
                    summary.path, site.lineno, site.col,
                    f"{where} calls {canonical}(), which draws from "
                    f"{reason}: observer-reachable code must not consume "
                    "shared RNG state",
                )
