"""Shared diagnostic types for the circuit parsers."""

from __future__ import annotations

from typing import NamedTuple


class ParseDiagnostic(NamedTuple):
    """One parser finding, anchored to a 1-based line number."""

    line: int
    message: str
    severity: str = "error"  # "error" | "warning"

    def __str__(self) -> str:
        return f"line {self.line}: {self.severity}: {self.message}"


class ParseError(Exception):
    """Raised when parsing fails; carries every collected diagnostic."""

    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = diagnostics
        head = "; ".join(str(d) for d in diagnostics[:3])
        if len(diagnostics) > 3:
            head += f" (+{len(diagnostics) - 3} more)"
        super().__init__(head)


# characters of an input line or token that a diagnostic quotes; a longer
# one is cut there and its length given, so a message stays short
QUOTE_CHARS = 40


def quote(text: str) -> str:
    """``repr(text)``, or for a longer text the repr of its first
    QUOTE_CHARS characters followed by ``... (<length> characters)``."""
    if len(text) <= QUOTE_CHARS:
        return repr(text)
    return f"{text[:QUOTE_CHARS]!r}... ({len(text)} characters)"
