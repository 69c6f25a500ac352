"""The finding record every lint rule emits.

A finding pins one invariant violation to one source location.  Findings
are plain frozen data so the engine can sort and serialize them
without knowing which rule produced them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["Finding"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``line`` and ``column`` are 1-based (``column`` follows the compiler
    convention of pointing at the offending token's first character).
    """

    rule: str
    path: str
    line: int
    column: int
    message: str

    def sort_key(self) -> tuple[str, int, int, str, str]:
        return (self.path, self.line, self.column, self.rule, self.message)

    def as_dict(self) -> dict[str, object]:
        return asdict(self)

    def render(self) -> str:
        """The one-line text form: ``path:line:col: [rule] message``."""
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"[{self.rule}] {self.message}"
        )
