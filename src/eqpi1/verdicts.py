"""Three-valued verdicts with evidence levels.

Checks that hinge on the word problem cannot always decide; every answer is
therefore Verified, Refuted (with a witness), or Undecided (with a reason),
and carries the level of evidence that produced it: syntactic, abelianized
(exponent-sum argument), or undecided.  Syntactic evidence is one of
reduced-word equality, a loop that matches a relator up to rotation, or a
loop whose rewrite over the spanning tree of its component is empty; so a
syntactic verdict does not by itself say that two words are equal in the
free groupoid.

Many checks become one answer by one policy: the first refutation wins,
else any undecided result, else Verified at the weakest level.  combine()
applies it to finished verdicts; first_refuted() applies it to a lazy
scan of (context, verdict) checks, stops at the first refutation and
puts the check's context in front of its witness.
"""

from __future__ import annotations

from dataclasses import dataclass

VERIFIED = "verified"
REFUTED = "refuted"
UNDECIDED = "undecided"

LEVEL_SYNTACTIC = "syntactic"
LEVEL_ABELIANIZED = "abelianized"
LEVEL_UNDECIDED = "undecided"

_LEVEL_RANK = {LEVEL_SYNTACTIC: 0, LEVEL_ABELIANIZED: 1, LEVEL_UNDECIDED: 2}


@dataclass(frozen=True)
class Verdict:
    status: str
    level: str
    witness: object = None
    reason: str | None = None

    @staticmethod
    def verified(level: str = LEVEL_SYNTACTIC) -> "Verdict":
        return _VERIFIED[level]

    @staticmethod
    def refuted(witness, level: str = LEVEL_SYNTACTIC) -> "Verdict":
        return Verdict(REFUTED, level, witness=witness)

    @staticmethod
    def undecided(reason: str) -> "Verdict":
        return Verdict(UNDECIDED, LEVEL_UNDECIDED, reason=reason)

    @property
    def is_refuted(self) -> bool:
        return self.status == REFUTED

    @property
    def is_undecided(self) -> bool:
        return self.status == UNDECIDED

    def __str__(self) -> str:
        out = f"{self.status}[{self.level}]"
        if self.witness is not None:
            out += f" witness={self.witness!r}"
        if self.reason is not None:
            out += f" reason={self.reason}"
        return out


# one Verified verdict per level: verdicts are immutable, and the scans
# that produce one per check need not build it each time
_VERIFIED = {level: Verdict(VERIFIED, level) for level in _LEVEL_RANK}


def combine(verdicts) -> Verdict:
    """Aggregate: any Refuted wins, then any Undecided, else Verified at the
    weakest contributing evidence level."""
    verdicts = list(verdicts)
    for v in verdicts:
        if v.is_refuted:
            return v
    for v in verdicts:
        if v.is_undecided:
            return v
    if not verdicts:
        return Verdict.verified()
    level = max((v.level for v in verdicts), key=_LEVEL_RANK.__getitem__)
    return Verdict.verified(level)


def first_refuted(checks) -> Verdict:
    """The first refuted verdict of checks, an iterable of (context,
    verdict) pairs, with the context's keys before the witness's; checks
    after it are never evaluated.  A context is a dict, or a callable that
    returns one, called only for the refuted check.  Without a refutation,
    combine() of all the verdicts."""
    verdicts = []
    for context, v in checks:
        if v.is_refuted:
            if callable(context):
                context = context()
            return Verdict.refuted({**context, **(v.witness or {})}, v.level)
        verdicts.append(v)
    return combine(verdicts)
