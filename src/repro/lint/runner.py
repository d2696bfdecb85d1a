"""File discovery, checker execution, suppression and reporting.

The run is two-phase:

1. **Per-file phase** -- each file is read, parsed, summarized for the
   project graph and run through every file checker.  Unparseable
   files become RPR000 findings and drop out of the graph; a checker
   crash becomes an *internal error* (exit 2), never a silent pass.
2. **Project phase** -- the summaries form a
   :class:`~repro.lint.graph.ProjectGraph` and every registered
   :class:`~repro.lint.base.ProjectChecker` (the RPR10x passes) runs
   once over it.

Suppression is applied at report time to the merged finding stream,
so a ``# repro: allow-RPR103 -- why`` waives a project finding
exactly like a file finding.  *Unjustified* waivers and waivers naming
a code no checker owns surface as RPR999.

Exit status: 0 clean, 1 when findings remain, 2 on usage or internal
errors.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .base import (
    Checker,
    ProjectChecker,
    all_checkers,
    all_project_checkers,
    checker_codes,
)
from .context import FileContext
from .findings import PARSE_ERROR_CODE, UNJUSTIFIED_CODE, Finding
from .graph import ModuleSummary, ProjectGraph, summarize_context
from .suppressions import Suppression, parse_suppressions

__all__ = [
    "UNJUSTIFIED_CODE",
    "LintReport",
    "lint_source",
    "run_analysis",
    "iter_python_files",
    "format_findings",
    "main",
]

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".ruff_cache", ".mypy_cache",
                        ".pytest_cache", "build", "dist"})


def _parse_error_finding(filename: str, exc: SyntaxError) -> Finding:
    return Finding(
        file=filename,
        line=exc.lineno or 1,
        col=(exc.offset or 0) + 1 if exc.offset is not None else 1,
        code=PARSE_ERROR_CODE,
        message=f"cannot parse file: {exc.msg}",
    )


def _waiver_finding(filename: str, line: int, message: str) -> Finding:
    return Finding(
        file=filename, line=line, col=1, code=UNJUSTIFIED_CODE,
        message=message,
    )


def _apply_suppressions(
    findings: Iterable[Finding],
    waivers_by_file: Mapping[str, Mapping[int, Suppression]],
) -> list[Finding]:
    """Drop waived findings; surface used-but-unjustified waivers and
    waivers naming a code no checker owns."""
    known = {*checker_codes(), PARSE_ERROR_CODE, UNJUSTIFIED_CODE}
    kept: list[Finding] = []
    used: dict[str, set[int]] = {}
    for finding in findings:
        waiver = waivers_by_file.get(finding.file, {}).get(finding.line)
        if waiver is not None and finding.code in waiver.codes:
            used.setdefault(finding.file, set()).add(finding.line)
            continue
        kept.append(finding)
    for filename, waivers in waivers_by_file.items():
        for line, waiver in waivers.items():
            if line in used.get(filename, ()) and not waiver.justified:
                kept.append(_waiver_finding(
                    filename, line,
                    "suppression without a written justification; use "
                    "'# repro: allow-<code> -- <reason>'",
                ))
            for code in sorted(waiver.codes - known):
                kept.append(_waiver_finding(
                    filename, line, f"waiver names unknown code {code}"
                ))
    return sorted(kept)


def lint_source(
    source: str,
    filename: str = "<string>",
    checkers: Sequence[Checker] | None = None,
) -> list[Finding]:
    """Per-file findings for one source buffer, suppression applied.

    This is the single-file API (no project passes); :func:`run_analysis`
    and :func:`main` run the whole two-phase pipeline.
    """
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [_parse_error_finding(filename, exc)]
    ctx = FileContext(filename, source, tree)
    active = list(all_checkers() if checkers is None else checkers)
    findings: list[Finding] = []
    for checker in active:
        findings.extend(checker.check(ctx))
    waivers = parse_suppressions(source)
    return _apply_suppressions(findings, {filename: waivers})


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Python files under ``paths``, depth-first, sorted, caches skipped."""
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for sub in sorted(entry.iterdir()):
                if sub.is_dir():
                    if sub.name in _SKIP_DIRS or sub.name.startswith("."):
                        continue
                    yield from iter_python_files([sub])
                elif sub.suffix == ".py":
                    yield sub
        elif entry.suffix == ".py" or entry.is_file():
            yield entry


@dataclass
class LintReport:
    """Everything one full run produced."""

    findings: list[Finding]
    #: Checker crashes and other analyzer faults -- exit 2 material.
    internal_errors: list[str] = field(default_factory=list)


def run_analysis(
    paths: Iterable[str | Path],
    checkers: Sequence[Checker] | None = None,
    project_checkers: Sequence[ProjectChecker] | None = None,
) -> LintReport:
    """The full two-phase pipeline over files and directories."""
    file_checkers = list(all_checkers() if checkers is None else checkers)
    proj_checkers = list(
        all_project_checkers() if project_checkers is None
        else project_checkers
    )
    raw: list[Finding] = []
    internal_errors: list[str] = []
    summaries: list[ModuleSummary] = []
    waivers_by_file: dict[str, dict[int, Suppression]] = {}

    for path in iter_python_files(paths):
        filename = str(path)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raw.append(
                Finding(
                    file=filename, line=1, col=1, code=PARSE_ERROR_CODE,
                    message=f"cannot read file: {exc}",
                )
            )
            continue
        waivers_by_file[filename] = parse_suppressions(source)
        try:
            tree = ast.parse(source, filename=filename)
        except SyntaxError as exc:
            raw.append(_parse_error_finding(filename, exc))
            continue
        ctx = FileContext(filename, source, tree)
        summaries.append(summarize_context(ctx))
        for checker in file_checkers:
            try:
                raw.extend(checker.check(ctx))
            except Exception as exc:  # noqa: BLE001 - contained on purpose
                internal_errors.append(
                    f"{checker.CODE} crashed on {filename}: "
                    f"{type(exc).__name__}: {exc}"
                )

    if proj_checkers and summaries:
        project = ProjectGraph(summaries)
        for proj_checker in proj_checkers:
            try:
                raw.extend(proj_checker.check_project(project))
            except Exception as exc:  # noqa: BLE001 - contained on purpose
                internal_errors.append(
                    f"{proj_checker.CODE} crashed in the project phase: "
                    f"{type(exc).__name__}: {exc}"
                )

    return LintReport(
        findings=_apply_suppressions(raw, waivers_by_file),
        internal_errors=internal_errors,
    )


def format_findings(findings: Sequence[Finding], fmt: str = "text") -> str:
    """Render findings as ``text`` or ``json``."""
    if fmt == "json":
        payload = {
            "version": 1,
            "count": len(findings),
            "findings": [finding.to_dict() for finding in findings],
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    if not findings:
        return "repro.lint: clean"
    lines = [finding.render() for finding in findings]
    lines.append(
        f"repro.lint: {len(findings)} finding"
        f"{'s' if len(findings) != 1 else ''}"
    )
    return "\n".join(lines)


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST and whole-program determinism/reproducibility checks "
            "(RPR001-RPR004 per file, RPR101-RPR105 across the project). "
            "Exit 1 when findings remain, 2 on usage or internal errors."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="report format (default: text)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point shared by ``python -m repro.lint`` and the
    ``repro-rfc lint`` subcommand."""
    args = build_arg_parser().parse_args(argv)
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(
            f"repro.lint: no such path: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    report = run_analysis(args.paths)
    print(format_findings(report.findings, fmt=args.format))
    for error in report.internal_errors:
        print(f"repro.lint: internal error: {error}", file=sys.stderr)
    if report.internal_errors:
        return 2
    return 1 if report.findings else 0
