"""The :class:`Checker` plugin contracts and registries.

Two kinds of checker share the ``RPR###`` code space:

* a **file checker** (:class:`Checker`) sees one file's
  :class:`~repro.lint.context.FileContext` at a time -- the PR 2
  contract, unchanged;
* a **project checker** (:class:`ProjectChecker`) sees the whole
  :class:`~repro.lint.graph.ProjectGraph` once per run and may pin
  findings to any file in it -- the contract the RPR10x passes use
  for invariants that span modules.

Registration is explicit (the :func:`register` /
:func:`register_project` decorators) so importing
``repro.lint.checkers`` is the single side effect that populates both
registries, and tests can instantiate checkers individually without
it.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Iterator, Type

from .context import FileContext
from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import ProjectGraph

__all__ = [
    "Checker",
    "ProjectChecker",
    "register",
    "register_project",
    "all_checkers",
    "all_project_checkers",
    "checker_codes",
]

_CODE_RE = re.compile(r"^RPR\d{3}$")
_REGISTRY: dict[str, Type["Checker"]] = {}
_PROJECT_REGISTRY: dict[str, Type["ProjectChecker"]] = {}


class Checker:
    """Base class for one reproducibility rule.

    Subclasses set ``CODE`` (``RPR`` + three digits), ``SUMMARY`` (one
    line, shown in ``--list`` style output and docs) and implement
    :meth:`check`.  :meth:`finding` builds a correctly-attributed
    :class:`Finding` from an AST node.
    """

    CODE: str = ""
    SUMMARY: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file.  Must not mutate ``ctx``."""
        raise NotImplementedError
        yield  # pragma: no cover - generator typing aid

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """A :class:`Finding` pinned to ``node``'s source location."""
        return Finding(
            file=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.CODE,
            message=message,
        )


class ProjectChecker:
    """Base class for one whole-program rule.

    Subclasses set ``CODE``/``SUMMARY`` exactly like :class:`Checker`
    and implement :meth:`check_project` over the resolved
    :class:`~repro.lint.graph.ProjectGraph`.  Findings may point at
    any file of the project; per-line ``# repro: allow-...`` waivers
    apply to them the same way they do to file-checker findings.
    """

    CODE: str = ""
    SUMMARY: str = ""

    def check_project(self, project: "ProjectGraph") -> Iterator[Finding]:
        """Yield findings across the project.  Must not mutate it."""
        raise NotImplementedError
        yield  # pragma: no cover - generator typing aid

    def finding(
        self, path: str, line: int, col: int, message: str
    ) -> Finding:
        """A :class:`Finding` pinned to an explicit location."""
        return Finding(
            file=path,
            line=line,
            col=col,
            code=self.CODE,
            message=message,
        )


def _check_code(code: str, name: str) -> None:
    if not _CODE_RE.match(code):
        raise ValueError(f"bad checker code {code!r} on {name}")
    if code in _REGISTRY or code in _PROJECT_REGISTRY:
        raise ValueError(f"duplicate checker code {code}")


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding ``cls`` to the file-checker registry.

    Codes must be unique (across both registries) and well-formed; a
    duplicate registration is a programming error worth failing
    loudly on.
    """
    if _REGISTRY.get(cls.CODE) is not cls:
        _check_code(cls.CODE, cls.__name__)
    _REGISTRY[cls.CODE] = cls
    return cls


def register_project(cls: Type[ProjectChecker]) -> Type[ProjectChecker]:
    """Class decorator adding ``cls`` to the project-checker registry."""
    if _PROJECT_REGISTRY.get(cls.CODE) is not cls:
        _check_code(cls.CODE, cls.__name__)
    _PROJECT_REGISTRY[cls.CODE] = cls
    return cls


def all_checkers() -> list[Checker]:
    """Fresh instances of every registered file checker, by code."""
    from . import checkers  # noqa: F401  (import populates the registry)

    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def all_project_checkers() -> list[ProjectChecker]:
    """Fresh instances of every registered project checker, by code."""
    from . import checkers  # noqa: F401

    return [_PROJECT_REGISTRY[code]() for code in sorted(_PROJECT_REGISTRY)]


def checker_codes() -> list[str]:
    """Sorted registered codes across both registries (after loading
    the built-in set)."""
    from . import checkers  # noqa: F401

    return sorted([*_REGISTRY, *_PROJECT_REGISTRY])
