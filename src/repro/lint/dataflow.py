"""Interprocedural taint over the project call graph.

RPR004 asks "does an impure call appear *in this exec file* or key
function?"; one helper function of indirection defeats it.  The
taint engine upgrades the question to "can an impure *call* execute
anywhere below a key-construction root?" -- a reachability problem on
:class:`~repro.lint.graph.ProjectGraph`:

* **sources** are canonical call names whose results differ between
  runs or processes: wall-clock reads, OS entropy, environment reads,
  builtin ``hash()``, and the unseeded module-level RNG APIs;
* **roots** are the functions that build cache keys or derive seeds;
* a **hit** is a source call inside any function reachable from a
  root, reported at the source call site with the full call chain so
  the reader sees *how* impurity reaches the key.

The analysis is under-approximate by construction (dynamic dispatch
adds no edges), so every hit it does report corresponds to a concrete
call chain in the source.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import CallSite, ProjectGraph

__all__ = ["TaintHit", "TaintEngine", "IMPURE_SOURCES"]

#: Canonical callable names whose results vary run-to-run or
#: process-to-process, with a short reason used in messages.
IMPURE_SOURCES: dict[str, str] = {
    # wall clock
    "time.time": "wall-clock time",
    "time.time_ns": "wall-clock time",
    "time.monotonic": "process-relative time",
    "time.monotonic_ns": "process-relative time",
    "datetime.datetime.now": "wall-clock time",
    "datetime.datetime.utcnow": "wall-clock time",
    "datetime.datetime.today": "wall-clock time",
    "datetime.date.today": "wall-clock time",
    # entropy
    "os.urandom": "OS entropy",
    "os.getrandom": "OS entropy",
    "uuid.uuid1": "host/time-derived UUIDs",
    "uuid.uuid4": "random UUIDs",
    "secrets.token_bytes": "OS entropy",
    "secrets.token_hex": "OS entropy",
    "secrets.token_urlsafe": "OS entropy",
    "secrets.randbits": "OS entropy",
    "secrets.randbelow": "OS entropy",
    # environment
    "os.getenv": "the process environment",
    "os.environ.get": "the process environment",
    "os.environ.setdefault": "the process environment",
    "os.getpid": "the process id",
    # per-process hashing
    "hash": "PYTHONHASHSEED-salted hashing",
    # unseeded module-level RNG state
    "random.random": "process-global RNG state",
    "random.randrange": "process-global RNG state",
    "random.randint": "process-global RNG state",
    "random.choice": "process-global RNG state",
    "random.choices": "process-global RNG state",
    "random.shuffle": "process-global RNG state",
    "random.sample": "process-global RNG state",
    "random.uniform": "process-global RNG state",
    "random.getrandbits": "process-global RNG state",
    "numpy.random.random": "NumPy's legacy global RNG",
    "numpy.random.rand": "NumPy's legacy global RNG",
    "numpy.random.randn": "NumPy's legacy global RNG",
    "numpy.random.randint": "NumPy's legacy global RNG",
    "numpy.random.choice": "NumPy's legacy global RNG",
    "numpy.random.shuffle": "NumPy's legacy global RNG",
    "numpy.random.permutation": "NumPy's legacy global RNG",
}

#: ``import numpy as np`` is near-universal; match the alias root too.
_NUMPY_ALIASES = ("numpy.random.", "np.random.")


@dataclass(frozen=True)
class TaintHit:
    """One impure call reachable from a root.

    ``chain`` is the qualified call path root -> ... -> the function
    containing the source call; ``site`` pins the source call itself.
    """

    root: str
    source: str
    reason: str
    chain: tuple[str, ...]
    path: str
    site: CallSite

    def chain_text(self) -> str:
        """``a -> b -> c`` rendering of the call chain for messages."""
        return " -> ".join(part.split(".")[-1] + "()" for part in self.chain)


def classify_source(canonical: str) -> str | None:
    """The impurity reason for a canonical callee name, or None."""
    reason = IMPURE_SOURCES.get(canonical)
    if reason is not None:
        return reason
    for prefix in _NUMPY_ALIASES:
        if canonical.startswith(prefix):
            bare = "numpy.random." + canonical[len(prefix):]
            if bare in IMPURE_SOURCES:
                return IMPURE_SOURCES[bare]
    return None


class TaintEngine:
    """Reachability-based taint queries over one project graph."""

    def __init__(self, project: ProjectGraph) -> None:
        self.project = project
        self._own_hits: dict[str, tuple[tuple[str, str, CallSite], ...]] = {}
        for qualified, _summary, _fn in project.iter_functions():
            hits: list[tuple[str, str, CallSite]] = []
            for canonical, site in project.external_calls(qualified):
                reason = classify_source(canonical)
                if reason is not None:
                    hits.append((canonical, reason, site))
            self._own_hits[qualified] = tuple(hits)

    def tainted_functions(self) -> set[str]:
        """Every function that can execute an impure source call,
        directly or through project-internal callees (fixpoint)."""
        tainted = {q for q, hits in self._own_hits.items() if hits}
        # Reverse edges once, then saturate.
        callers: dict[str, set[str]] = {}
        for qualified in self._own_hits:
            for callee in self.project.callees(qualified):
                callers.setdefault(callee, set()).add(qualified)
        frontier = list(tainted)
        while frontier:
            current = frontier.pop()
            for caller in callers.get(current, ()):
                if caller not in tainted:
                    tainted.add(caller)
                    frontier.append(caller)
        return tainted

    def hits_from(self, root: str) -> list[TaintHit]:
        """Every impure source call reachable from ``root``, with the
        shortest call chain as the witness."""
        hits: list[TaintHit] = []
        for qualified in sorted(self.project.reachable([root])):
            direct = self._own_hits.get(qualified, ())
            if not direct:
                continue
            chain = self.project.call_chain(root, qualified)
            if chain is None:
                continue
            summary, _fn = self.project.functions[qualified]
            for canonical, reason, site in direct:
                hits.append(
                    TaintHit(
                        root=root,
                        source=canonical,
                        reason=reason,
                        chain=tuple(chain),
                        path=summary.path,
                        site=site,
                    )
                )
        return hits
