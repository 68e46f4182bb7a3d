"""Structured result reporting for the command line.

A report is a tree of titled nodes.  A node may carry a verdict, free-form
text lines, and children.  Informational nodes (diagnostics that are
expected to fail for interesting inputs) never influence the exit code.

Exit codes: 0 when every counted verdict is Verified, 1 when any is
Refuted, 2 when the worst is Undecided, 3 for unusable input, 4 for an
internal error of the program.  With strict mode Undecided counts as
failure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .verdicts import (
    REFUTED,
    UNDECIDED,
    VERIFIED,
    Verdict,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_UNDECIDED = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

_ORDER = {REFUTED: 2, UNDECIDED: 1, VERIFIED: 0}


@dataclass
class Report:
    title: str
    verdict: Verdict | None = None
    lines: list = field(default_factory=list)
    children: list = field(default_factory=list)
    informational: bool = False

    def add(self, child: "Report") -> "Report":
        self.children.append(child)
        return child

    def say(self, line: str):
        self.lines.append(line)

    def worst(self):
        """Worst counted verdict status in this subtree, or None."""
        statuses = []
        if self.verdict is not None and not self.informational:
            statuses.append(self.verdict.status)
        for c in self.children:
            if self.informational:
                break
            w = c.worst()
            if w is not None:
                statuses.append(w)
        if not statuses:
            return None
        return max(statuses, key=_ORDER.__getitem__)

    def exit_code(self, strict: bool = False) -> int:
        w = self.worst()
        if w is None or w == VERIFIED:
            return EXIT_OK
        if w == REFUTED:
            return EXIT_REFUTED
        return EXIT_REFUTED if strict else EXIT_UNDECIDED

    def render_text(self, indent: int = 0) -> str:
        pad = "  " * indent
        head = pad + self.title
        if self.verdict is not None:
            head += f": {self.verdict}"
        if self.informational:
            head += "  (informational)"
        parts = [head]
        for line in self.lines:
            parts.append(pad + "  " + line)
        for c in self.children:
            parts.append(c.render_text(indent + 1))
        return "\n".join(parts)

    def to_data(self) -> dict:
        d = {"title": self.title}
        if self.verdict is not None:
            d["verdict"] = {
                "status": self.verdict.status,
                "level": self.verdict.level,
            }
            if self.verdict.witness is not None:
                d["verdict"]["witness"] = _jsonable(self.verdict.witness)
            if self.verdict.reason is not None:
                d["verdict"]["reason"] = self.verdict.reason
        if self.informational:
            d["informational"] = True
        if self.lines:
            d["lines"] = list(self.lines)
        if self.children:
            d["children"] = [c.to_data() for c in self.children]
        return d

    def render_json(self) -> str:
        return json.dumps(self.to_data(), indent=2, sort_keys=True)


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return str(x)
