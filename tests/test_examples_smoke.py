"""Smoke test: the quickstart example runs end to end.

The other examples take up to ~15 s each; the CI ``test`` job runs
every ``examples/*.py`` script in its "Run examples" step.  The
quickstart is the one users copy first, so tier-1 checks its output
too.
"""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestQuickstart:
    def test_runs_clean(self):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / "quickstart.py")],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        out = result.stdout
        assert "generated RFC" in out
        assert "flow-level max-min saturation" in out

    def test_all_examples_compile(self):
        for script in EXAMPLES.glob("*.py"):
            compile(script.read_text(), str(script), "exec")
