"""Finding and severity types shared by the rule engine and CLI."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings fail the lint run (non-zero exit); ``WARNING``
    findings are reported but do not affect the exit code.
    """

    WARNING = "warning"
    ERROR = "error"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location.

    Ordering is (path, line, col, rule_id) so sorted findings read like a
    compiler's output.
    """

    path: str
    line: int
    col: int
    rule_id: str
    severity: Severity
    message: str

    def format(self) -> str:
        """Render as ``path:line: RLxxx message`` (the text output)."""
        return f"{self.path}:{self.line}: {self.rule_id} {self.message}"

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (used by ``--format json``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
        }
