"""Whole-program model: per-module summaries and the project call graph.

File checkers see one file at a time, which is exactly why they
cannot express this repository's hardest invariants -- "nothing
impure reaches the cache key through *any* call chain".  This module builds the cross-module view those
passes run on:

* :class:`ModuleSummary` -- one digest of a parsed module: functions
  with their call sites and attribute reads, classes with their
  (dataclass) fields and canonicalized imports.
* :class:`ProjectGraph` -- the summaries of every linted file plus a
  resolved call graph over them: edges between project functions
  (``module.Class.method`` qualnames) and canonical external callee
  names (``time.time``, ``numpy.zeros``) for the taint engine.

Resolution is deliberately conservative: a call we cannot attribute
statically (a dynamic dispatch, a callable in a variable) simply adds
no edge.  Project passes are therefore under-approximate -- they can
miss, never hallucinate, which is the right default for a CI gate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator

from .context import FileContext, module_name_for

__all__ = [
    "CallSite",
    "FieldSummary",
    "ClassSummary",
    "FunctionSummary",
    "ModuleSummary",
    "ProjectGraph",
    "module_name_for",
    "summarize_context",
    "summarize_module",
]

@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    ``target`` is the dotted path as written (``self.registry.counter``,
    ``np.zeros``, ``run_fast``); resolution to canonical or project
    names happens in :class:`ProjectGraph` where the import maps of
    every module are available.  ``str_arg`` records a literal first
    argument (``payload.pop("rng_mode", ...)``) for policy checkers.
    """

    target: str
    lineno: int
    col: int
    keywords: tuple[str, ...] = ()
    str_arg: str | None = None


@dataclass(frozen=True)
class FieldSummary:
    """One annotated class attribute (a dataclass field, typically)."""

    name: str
    lineno: int
    col: int
    annotation: str
    #: ``field(..., compare=False)`` -- excluded from generated equality.
    compare: bool = True
    has_default: bool = False


@dataclass(frozen=True)
class ClassSummary:
    """One class: bases as written, annotated fields, method names."""

    name: str
    lineno: int
    bases: tuple[str, ...]
    fields: tuple[FieldSummary, ...]
    methods: tuple[str, ...]


@dataclass(frozen=True)
class FunctionSummary:
    """One function or method, flattened for cross-module analysis."""

    name: str
    qualname: str
    lineno: int
    col: int
    calls: tuple[CallSite, ...]
    #: Attribute names read anywhere in the body (any receiver).
    attr_reads: frozenset[str]


@dataclass
class ModuleSummary:
    """Everything the project passes need to know about one file."""

    path: str
    module: str
    imports: dict[str, str]
    functions: dict[str, FunctionSummary]
    classes: dict[str, ClassSummary]
    shadowed_builtins: frozenset[str]


# ----------------------------------------------------------------------
# Summarization
# ----------------------------------------------------------------------

def _dotted_path(node: ast.expr) -> str | None:
    """``a.b.c`` attribute chains back to a dotted string (else None)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _class_fields(node: ast.ClassDef) -> tuple[FieldSummary, ...]:
    """Annotated class-body attributes (dataclass fields, typically)."""
    fields: list[FieldSummary] = []
    for stmt in node.body:
        if not (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
        ):
            continue
        annotation = ast.unparse(stmt.annotation)
        if annotation.startswith("ClassVar"):
            continue
        compare = True
        if isinstance(stmt.value, ast.Call):
            callee = stmt.value.func
            callee_name = callee.id if isinstance(callee, ast.Name) else (
                callee.attr if isinstance(callee, ast.Attribute) else ""
            )
            if callee_name == "field":
                for kw in stmt.value.keywords:
                    if (
                        kw.arg == "compare"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is False
                    ):
                        compare = False
        fields.append(
            FieldSummary(
                name=stmt.target.id,
                lineno=stmt.lineno,
                col=stmt.col_offset + 1,
                annotation=annotation,
                compare=compare,
                has_default=stmt.value is not None,
            )
        )
    return tuple(fields)


def _function_summary(
    node: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str
) -> FunctionSummary:
    calls: list[CallSite] = []
    attr_reads: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            attr_reads.add(sub.attr)
        elif isinstance(sub, ast.Call):
            target = _dotted_path(sub.func)
            if target is None:
                continue
            str_arg: str | None = None
            if sub.args and isinstance(sub.args[0], ast.Constant) and isinstance(
                sub.args[0].value, str
            ):
                str_arg = sub.args[0].value
            calls.append(
                CallSite(
                    target=target,
                    lineno=sub.lineno,
                    col=sub.col_offset + 1,
                    keywords=tuple(
                        kw.arg for kw in sub.keywords if kw.arg is not None
                    ),
                    str_arg=str_arg,
                )
            )
    return FunctionSummary(
        name=node.name,
        qualname=qualname,
        lineno=node.lineno,
        col=node.col_offset + 1,
        calls=tuple(calls),
        attr_reads=frozenset(attr_reads),
    )


class _ModuleVisitor(ast.NodeVisitor):
    """Collects functions (with class nesting) and classes."""

    def __init__(self) -> None:
        self.stack: list[str] = []
        self.functions: dict[str, FunctionSummary] = {}
        self.classes: dict[str, ClassSummary] = {}

    def _qual(self, name: str) -> str:
        return ".".join([*self.stack, name])

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_function(node)

    def _handle_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        qualname = self._qual(node.name)
        self.functions[qualname] = _function_summary(node, qualname)
        self.stack.append(node.name)
        for stmt in node.body:
            self.visit(stmt)
        self.stack.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = self._qual(node.name)
        methods = tuple(
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        bases = tuple(
            base for base in (_dotted_path(b) for b in node.bases)
            if base is not None
        )
        self.classes[qualname] = ClassSummary(
            name=node.name,
            lineno=node.lineno,
            bases=bases,
            fields=_class_fields(node),
            methods=methods,
        )
        self.stack.append(node.name)
        for stmt in node.body:
            self.visit(stmt)
        self.stack.pop()


def summarize_module(
    source: str,
    path: str,
    module: str | None = None,
    tree: ast.Module | None = None,
) -> ModuleSummary:
    """Build a :class:`ModuleSummary` from one source buffer.

    Raises :class:`SyntaxError` for unparseable sources; the runner
    reports those as RPR000 findings and excludes the file from the
    project graph.  Pass ``tree`` to reuse an existing parse.
    """
    if tree is None:
        tree = ast.parse(source, filename=path)
    return summarize_context(FileContext(path, source, tree, module))


def summarize_context(ctx: FileContext) -> ModuleSummary:
    """Build a :class:`ModuleSummary` from an already-built context."""
    tree = ctx.tree
    visitor = _ModuleVisitor()
    visitor.visit(tree)
    return ModuleSummary(
        path=ctx.path,
        module=ctx.module,
        imports=ctx.imports.aliases,
        functions=visitor.functions,
        classes=visitor.classes,
        shadowed_builtins=ctx.shadowed_builtins,
    )


# ----------------------------------------------------------------------
# The project graph
# ----------------------------------------------------------------------

class ProjectGraph:
    """All module summaries plus the resolved call graph over them.

    Project functions are addressed as ``<module>.<qualname>``
    (``repro.simulation.engine.Simulator.run``).  :meth:`callees`
    returns both the project-internal edges and the canonical names of
    external calls; :meth:`reachable` closes over internal edges only.
    """

    def __init__(self, modules: Iterable[ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = {}
        for summary in modules:
            self.modules[summary.module] = summary
        #: qualified function name -> (owning summary, function summary)
        self.functions: dict[str, tuple[ModuleSummary, FunctionSummary]] = {}
        for summary in self.modules.values():
            for qualname, fn in summary.functions.items():
                self.functions[f"{summary.module}.{qualname}"] = (summary, fn)
        self._internal: dict[str, frozenset[str]] = {}
        self._external: dict[str, tuple[tuple[str, CallSite], ...]] = {}
        self._resolve_all()

    # -- resolution ----------------------------------------------------

    def _project_target(self, canonical: str) -> str | None:
        """Map a canonical dotted path onto a project function, if any."""
        if canonical in self.functions:
            return canonical
        # A class constructor call: Module.Class -> Module.Class.__init__.
        init = f"{canonical}.__init__"
        if init in self.functions:
            return init
        return None

    def _resolve_call(
        self, summary: ModuleSummary, fn: FunctionSummary, call: CallSite
    ) -> tuple[str | None, str | None]:
        """(internal qualified name, canonical external name) for a call.

        Exactly one side is non-None for resolvable calls; both are
        None when the receiver is dynamic (a parameter, a loop
        variable) and no static attribution is possible.
        """
        parts = call.target.split(".")
        root = parts[0]
        if root in ("self", "cls"):
            owner = fn.qualname.rsplit(".", 2)
            # A method's qualname is Class.method (or Outer.Class.method);
            # self.x() resolves against the owning class when it has x.
            if len(parts) == 2 and len(owner) >= 2:
                cls_qual = fn.qualname.rsplit(".", 1)[0]
                cls = summary.classes.get(cls_qual)
                if cls is not None and parts[1] in cls.methods:
                    return f"{summary.module}.{cls_qual}.{parts[1]}", None
            return None, None
        if root in summary.imports:
            canonical = ".".join([summary.imports[root], *parts[1:]])
            internal = self._project_target(canonical)
            if internal is not None:
                return internal, None
            return None, canonical
        local = f"{summary.module}.{call.target}"
        internal = self._project_target(local)
        if internal is not None:
            return internal, None
        if len(parts) == 1 and root not in summary.shadowed_builtins:
            # A bare call to an unshadowed name: a builtin (hash, len).
            return None, root
        return None, None

    def _resolve_all(self) -> None:
        for qualified, (summary, fn) in self.functions.items():
            internal: set[str] = set()
            external: list[tuple[str, CallSite]] = []
            for call in fn.calls:
                target, canonical = self._resolve_call(summary, fn, call)
                if target is not None:
                    internal.add(target)
                elif canonical is not None:
                    external.append((canonical, call))
            self._internal[qualified] = frozenset(internal)
            self._external[qualified] = tuple(external)

    # -- queries -------------------------------------------------------

    def find_module(self, suffix: str) -> ModuleSummary | None:
        """The unique module whose dotted name ends with ``suffix``."""
        hits = [
            summary for name, summary in self.modules.items()
            if name == suffix or name.endswith("." + suffix)
        ]
        return hits[0] if len(hits) == 1 else None

    def callees(self, qualified: str) -> frozenset[str]:
        """Project-internal callees of one function."""
        return self._internal.get(qualified, frozenset())

    def external_calls(
        self, qualified: str
    ) -> tuple[tuple[str, CallSite], ...]:
        """(canonical name, call site) pairs for external calls."""
        return self._external.get(qualified, ())

    def reachable(self, roots: Iterable[str]) -> set[str]:
        """Functions reachable from ``roots`` over internal edges
        (roots included, unknown roots ignored)."""
        seen: set[str] = set()
        stack = [root for root in roots if root in self.functions]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.callees(current) - seen)
        return seen

    def call_chain(self, start: str, end: str) -> list[str] | None:
        """Shortest internal-edge path ``start -> ... -> end`` (BFS),
        or None when ``end`` is unreachable."""
        if start not in self.functions:
            return None
        if start == end:
            return [start]
        parents: dict[str, str] = {}
        queue = [start]
        seen = {start}
        while queue:
            nxt: list[str] = []
            for current in queue:
                for callee in sorted(self.callees(current)):
                    if callee in seen:
                        continue
                    parents[callee] = current
                    if callee == end:
                        chain = [end]
                        while chain[-1] != start:
                            chain.append(parents[chain[-1]])
                        return list(reversed(chain))
                    seen.add(callee)
                    nxt.append(callee)
            queue = nxt
        return None

    def iter_functions(
        self,
    ) -> Iterator[tuple[str, ModuleSummary, FunctionSummary]]:
        """(qualified name, module, function) over the whole project."""
        for qualified, (summary, fn) in self.functions.items():
            yield qualified, summary, fn
