"""Per-file analysis context shared by all checkers.

One :class:`FileContext` is built per source file: the parsed tree,
its dotted module name, an import-resolution map, the set of rebound
builtin names, a child -> parent node index (the :mod:`ast` module
only links downward) and a few questions every checker asks
(enclosing function, whether a builtin name is shadowed, whether the
file lives on an execution/cache path).  The project graph's module
summaries are built from the same context, so imports and shadowed
builtins are resolved once per file.
"""

from __future__ import annotations

import ast
from pathlib import Path, PurePath

__all__ = ["FileContext", "ImportMap", "module_name_for"]


def module_name_for(path: str | Path) -> tuple[str, bool]:
    """Dotted module name for a file, by walking up ``__init__.py``s.

    Returns ``(name, is_package)``.  A file outside any package keeps
    its bare stem, so fixture files in a temp directory still get
    stable, collision-free names.
    """
    path = Path(path)
    is_package = path.name == "__init__.py"
    parts: list[str] = [] if is_package else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    if not parts:
        parts = [path.parent.name or path.stem]
    return ".".join(parts), is_package


def _resolve_relative(
    module: str, is_package: bool, level: int, target: str
) -> str:
    """Absolute dotted path of a (possibly relative) import source."""
    if level == 0:
        return target
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: max(0, len(parts) - (level - 1))]
    base = ".".join(parts)
    if not target:
        return base
    return f"{base}.{target}" if base else target


class ImportMap:
    """Maps local identifiers to the canonical dotted names they import.

    Checkers want to ask "is this call ``numpy.random.shuffle``?"
    without caring whether the file spelled it ``np.random.shuffle``,
    ``numpy.random.shuffle`` or ``from numpy.random import shuffle``.
    Every import statement counts, at any nesting level (this codebase
    imports lazily inside functions); relative imports are resolved
    against the importing module's own dotted name.
    """

    def __init__(self, aliases: dict[str, str]) -> None:
        self.aliases = aliases

    @classmethod
    def from_tree(
        cls, tree: ast.AST, module: str, is_package: bool
    ) -> "ImportMap":
        """Collect every import binding anywhere in ``tree``."""
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # ``import a.b`` binds ``a``; ``import a.b as c``
                    # binds ``c`` to the full path.
                    aliases[local] = alias.name if alias.asname else local
            elif isinstance(node, ast.ImportFrom):
                source = _resolve_relative(
                    module, is_package, node.level, node.module or ""
                )
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    aliases[local] = (
                        f"{source}.{alias.name}" if source else alias.name
                    )
        return cls(aliases)

    def resolve(self, node: ast.expr) -> str | None:
        """Canonical dotted path of ``node``, or None if not import-rooted.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` given ``import numpy as np``;
        ``rand.shuffle`` resolves to None when ``rand`` is a plain
        variable (so seeded :class:`random.Random` instances are never
        mistaken for the module-level global API).
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))

    def resolve_call(self, node: ast.Call) -> str | None:
        """Canonical dotted path of a call's callee (or None)."""
        return self.resolve(node.func)


def _collect_shadowed_builtins(tree: ast.Module) -> frozenset[str]:
    """Names rebound anywhere in the module (defs, assignments,
    imports, parameters) -- a call to one of these is not a call to
    the builtin of the same name."""
    bound: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            bound.add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    return frozenset(bound)


class FileContext:
    """Everything a checker may want to know about one file."""

    def __init__(
        self,
        path: str,
        source: str,
        tree: ast.Module,
        module: str | None = None,
    ) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        if module is None:
            self.module, self.is_package = module_name_for(path)
        else:
            self.module = module
            self.is_package = PurePath(path).name == "__init__.py"
        self.imports = ImportMap.from_tree(tree, self.module, self.is_package)
        self.shadowed_builtins = _collect_shadowed_builtins(tree)
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (None for the module)."""
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> list[ast.AST]:
        """Parents of ``node``, innermost first, module last."""
        chain: list[ast.AST] = []
        current = self._parents.get(node)
        while current is not None:
            chain.append(current)
            current = self._parents.get(current)
        return chain

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """Innermost function definition containing ``node``."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def is_builtin(self, name: str) -> bool:
        """Whether ``name`` still refers to the Python builtin here."""
        return name not in self.shadowed_builtins

    def on_exec_path(self) -> bool:
        """Whether this file belongs to the execution/cache layer.

        RPR004 treats everything under an ``exec`` package as
        key/seed-sensitive: a wall-clock or entropy read there is one
        refactor away from a cache key.
        """
        return "exec" in PurePath(self.path).parts
