"""The run pipeline around the checkers: parse errors, contained
checker crashes and the exit-code contract (0 clean / 1 findings /
2 internal error)."""

import textwrap

from repro.lint.base import Checker, ProjectChecker
from repro.lint.runner import main as lint_main
from repro.lint.runner import run_analysis

VIOLATION = textwrap.dedent(
    """\
    import random

    def wire(items):
        random.shuffle(items)
        return items
    """
)

CLEAN = textwrap.dedent(
    """\
    def double(x):
        return 2 * x
    """
)


class _CrashingChecker(Checker):
    CODE = "RPR001"
    SUMMARY = "crash fixture"

    def check(self, ctx):
        raise RuntimeError("checker exploded")
        yield  # pragma: no cover


class _CrashingProjectChecker(ProjectChecker):
    CODE = "RPR101"
    SUMMARY = "crash fixture"

    def check_project(self, project):
        raise RuntimeError("project pass exploded")
        yield  # pragma: no cover


class TestErgonomics:
    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path, capsys):
        (tmp_path / "good.py").write_text(VIOLATION)
        (tmp_path / "bad.py").write_text("def broken(:\n")
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RPR000" in out
        # The parse error does not hide findings elsewhere.
        assert "RPR001" in out

    def test_file_checker_crash_is_contained(self, tmp_path):
        (tmp_path / "one.py").write_text(CLEAN)
        (tmp_path / "two.py").write_text(CLEAN.replace("double", "triple"))
        report = run_analysis(
            [tmp_path], checkers=[_CrashingChecker()], project_checkers=[]
        )
        assert len(report.internal_errors) == 2
        assert "checker exploded" in report.internal_errors[0]

    def test_project_checker_crash_is_contained(self, tmp_path):
        (tmp_path / "one.py").write_text(CLEAN)
        report = run_analysis(
            [tmp_path], checkers=[],
            project_checkers=[_CrashingProjectChecker()],
        )
        assert len(report.internal_errors) == 1
        assert "project pass exploded" in report.internal_errors[0]
