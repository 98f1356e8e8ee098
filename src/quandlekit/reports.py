"""Search report type shared by the table and free-basis searches."""

from __future__ import annotations

from dataclasses import dataclass, field

from .ring import RingElement, element_to_json


@dataclass
class IdempotentReport:
    """Outcome of an idempotent search.

    `exhaustive` asserts completeness for the declared scope only (the
    modulus, the coefficient box, the support cap); flags spell the scope
    and any hypothesis the coefficients violate.  Timing is measured but
    serialized as 0 unless asked for, so reports are byte-stable across
    runs and worker counts.
    """

    quandle: str
    order: int | None
    spec: dict
    idempotents: list[RingElement]
    exhaustive: bool
    flags: list[str] = field(default_factory=list)
    candidates_tested: int = 0
    elapsed_ms: int = 0

    def __post_init__(self):
        # the one order of every report, its JSON included
        self.idempotents = sorted(self.idempotents, key=lambda u: u.sort_key())

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
