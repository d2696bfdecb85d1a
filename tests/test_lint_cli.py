"""CLI and runner tests for ``repro.lint``: exit codes, output shapes,
the ``repro-rfc lint`` subcommand, ``python -m repro.lint`` and the
self-gate (the shipped source tree must lint clean)."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.cli import main as cli_main
from repro.lint.runner import main as lint_main

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
    import random

    def wire(items, rng=None):
        rand = rng if isinstance(rng, random.Random) else random.Random(rng)
        rand.shuffle(items)
        return items
    """
)


@pytest.fixture
def violation_file(tmp_path):
    path = tmp_path / "dirty.py"
    path.write_text(VIOLATION)
    return path


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(CLEAN)
    return path


class TestExitCodes:
    def test_clean_exits_zero(self, clean_file, capsys):
        assert lint_main([str(clean_file)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, violation_file, capsys):
        assert lint_main([str(violation_file)]) == 1
        out = capsys.readouterr().out
        assert "RPR001" in out
        assert "1 finding" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_directory_walk(self, tmp_path, capsys):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "dirty.py").write_text(VIOLATION)
        (tmp_path / "pkg" / "clean.py").write_text(CLEAN)
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text(VIOLATION)
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.count("RPR001") == 1
        assert "__pycache__" not in out


class TestJsonFormat:
    def test_shape(self, violation_file, capsys):
        assert lint_main([str(violation_file), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["count"] == 1
        (finding,) = payload["findings"]
        assert finding["code"] == "RPR001"
        assert finding["file"] == str(violation_file)
        assert finding["line"] == 4
        assert finding["col"] >= 1
        assert "random.shuffle" in finding["message"]

    def test_clean_shape(self, clean_file, capsys):
        assert lint_main([str(clean_file), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"version": 1, "count": 0, "findings": []}


class TestCliSubcommand:
    def test_lint_subcommand_clean(self, clean_file, capsys):
        assert cli_main(["lint", str(clean_file)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_subcommand_findings(self, violation_file, capsys):
        assert cli_main(["lint", str(violation_file), "--format", "json"]) == 1
        assert json.loads(capsys.readouterr().out)["count"] == 1


class TestModuleEntryPoint:
    def test_python_dash_m(self, violation_file):
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(violation_file)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert "RPR001" in proc.stdout


class TestSelfGate:
    def test_shipped_tree_is_clean(self):
        """The source tree must pass its own determinism gate."""
        package_root = Path(repro.__file__).resolve().parent
        assert lint_main([str(package_root)]) == 0

    def test_every_fixture_code_is_registered(self):
        from repro.lint import checker_codes

        assert checker_codes() == [
            "RPR001", "RPR003", "RPR004",
            "RPR101", "RPR102", "RPR103", "RPR105",
        ]
