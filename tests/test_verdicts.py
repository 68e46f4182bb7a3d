"""The one verdict policy: the first refutation wins, else any undecided
result, else Verified at the weakest level.  first_refuted() applies it
to a lazy scan of checks and adds the check's context to the witness;
combine() applies it to finished verdicts."""

import pytest

from eqpi1.verdicts import (
    LEVEL_ABELIANIZED,
    LEVEL_SYNTACTIC,
    Verdict,
    combine,
    first_refuted,
)

SYN = Verdict.verified(LEVEL_SYNTACTIC)
ABEL = Verdict.verified(LEVEL_ABELIANIZED)
OPEN = Verdict.undecided("word problem")
OTHER_OPEN = Verdict.undecided("another reason")
NO = Verdict.refuted({"loop": "a", "abelianized": [1]}, LEVEL_ABELIANIZED)
BARE_NO = Verdict.refuted(None)


def test_context_comes_before_the_witness():
    v = first_refuted([({"check": "square", "at": "m"}, NO)])
    assert v == Verdict.refuted(
        {"check": "square", "at": "m", "loop": "a", "abelianized": [1]},
        LEVEL_ABELIANIZED,
    )
    assert list(v.witness) == ["check", "at", "loop", "abelianized"]
    # a refutation without a witness is named by its context alone
    assert first_refuted([({"relator": 0}, BARE_NO)]) == Verdict.refuted({"relator": 0})


def test_no_check_after_the_refutation_is_evaluated():
    evaluated = []

    def checks():
        for i, v in enumerate((SYN, OPEN, NO, SYN, NO)):
            evaluated.append(i)
            yield {"i": i}, v

    v = first_refuted(checks())
    assert v.witness == {"i": 2, "loop": "a", "abelianized": [1]}
    assert evaluated == [0, 1, 2]


@pytest.mark.parametrize(
    "verdicts",
    [
        [],
        [SYN],
        [SYN, SYN],
        [SYN, ABEL, SYN],
        [ABEL, OPEN, OTHER_OPEN],
        [OTHER_OPEN, SYN, OPEN],
    ],
)
def test_without_a_refutation_first_refuted_is_combine(verdicts):
    v = first_refuted(({"i": i}, v) for i, v in enumerate(verdicts))
    assert v == combine(verdicts)
