"""Search report type shared by the table and free-basis searches."""

from __future__ import annotations

from .core import Record
from .ring import RingElement, element_to_json


class IdempotentReport(Record):
    """Outcome of an idempotent search.

    `exhaustive` asserts completeness for the declared scope only (the
    modulus, the coefficient box, the support cap); flags spell the scope
    and any hypothesis the coefficients violate.  Timing is measured but
    serialized as 0 unless asked for, so reports are byte-stable across
    runs and worker counts.
    """

    __slots__ = ("quandle", "order", "spec", "idempotents", "exhaustive", "flags",
                 "candidates_tested", "elapsed_ms")

    def __init__(self, quandle: str, order: int | None, spec: dict,
                 idempotents: list[RingElement], exhaustive: bool, flags: list[str] | None = None,
                 candidates_tested: int = 0, elapsed_ms: int = 0):
        self.quandle = quandle
        self.order = order
        self.spec = spec
        # the one order of every report, its JSON included
        self.idempotents = sorted(idempotents, key=lambda u: u.sort_key())
        self.exhaustive = exhaustive
        self.flags = [] if flags is None else flags
        self.candidates_tested = candidates_tested
        self.elapsed_ms = elapsed_ms

    def _args(self) -> tuple:
        # the measured time is not part of the outcome: two runs of one
        # search compare equal, as their JSON does
        return (self.quandle, self.order, self.spec, self.idempotents, self.exhaustive,
                self.flags, self.candidates_tested)

    def to_json(self, include_timing: bool = False) -> dict:
        return {
            "quandle": self.quandle,
            "order": self.order,
            "spec": self.spec,
            "idempotents": [element_to_json(u) for u in self.idempotents],
            "exhaustive": self.exhaustive,
            "flags": list(self.flags),
            "candidates_tested": self.candidates_tested,
            "elapsed_ms": self.elapsed_ms if include_timing else 0,
        }
