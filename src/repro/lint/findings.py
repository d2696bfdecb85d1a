"""The lint result model: :class:`Finding`.

Every finding fails the gate: nondeterminism in a reproduction is a
correctness bug, not a style preference, so there are no severities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True, order=True)
class Finding:
    """One checker hit at a source location.

    Ordering is (file, line, col, code) so reports are stable
    regardless of checker registration or traversal order -- the
    linter holds itself to the determinism bar it enforces.
    """

    file: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """``file:line:col: CODE message`` (text format)."""
        return f"{self.file}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping (used by ``--format json``)."""
        return {
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


#: Code used for files that cannot be parsed at all.
PARSE_ERROR_CODE = "RPR000"

#: Code reported for a waiver with no written justification or one
#: naming a code no checker owns.
UNJUSTIFIED_CODE = "RPR999"
