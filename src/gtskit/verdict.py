"""The one result type of every decision procedure."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict:
    """A decision: its status word, why, and what it can be replayed on.

    Each procedure keeps its own status words: "Yes"/"No" for
    admissibility and essential finiteness, "Small"/"NotSmall"/"Unknown"
    for smallness, "Yes"/"No"/"Checked"/"Unknown" for strict continuity and
    "Yes"/"No"/"Unknown"/"Checked" for the layer and property flags.
    The witness of a negative verdict replays it; that of a positive
    essential-finiteness verdict is the covering finite subfamily.
    ``detail`` holds the verdict a decision rests on, where there is one.
    """

    status: str
    reason: str = ""
    witness: object = None
    detail: object = None

    @property
    def yes(self) -> bool:
        return self.status == "Yes"

    # the names admissibility callers read
    admissible = yes

    @property
    def offending(self):
        """Same as ``witness``."""
        return self.witness
