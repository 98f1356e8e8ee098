"""Exception types shared across the package.

Every error that a caller is expected to catch carries the offending
indices or limits as attributes, so CLI layers can render structured
messages without parsing strings.
"""

from __future__ import annotations

import math


class QuandleKitError(Exception):
    """Base class for all package errors."""

    exit_code = 1

    def payload(self) -> dict:
        return {"error": type(self).__name__.removesuffix("Error"), "message": str(self)}


class InvalidParamsError(QuandleKitError):
    pass


class NotPermutationError(QuandleKitError):
    """A table column is not a permutation of the index set."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} of the table is not a permutation")

    def payload(self) -> dict:
        return {**super().payload(), "column": self.column}


class NotIdempotentError(QuandleKitError):
    """table[j][j] != j: the diagonal element j breaks x*x = x."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"table[{index}][{index}] != {index}")

    def payload(self) -> dict:
        return {**super().payload(), "index": self.index}


class NotRightDistributiveError(QuandleKitError):
    def __init__(self, i: int, j: int, k: int):
        self.indices = (i, j, k)
        super().__init__(f"(x*y)*z != (x*z)*(y*z) at (x, y, z) = ({i}, {j}, {k})")

    def payload(self) -> dict:
        return {**super().payload(), "indices": list(self.indices)}


class NotSurjectiveError(QuandleKitError):
    pass


class CoveringConditionError(QuandleKitError):
    """Two points share an image but have different right multiplications."""

    def __init__(self, x1: int, x2: int):
        self.pair = (x1, x2)
        super().__init__(f"points {x1} and {x2} share an image but act differently")

    def payload(self) -> dict:
        return {**super().payload(), "pair": list(self.pair)}


class CompositeModulusError(QuandleKitError):
    def __init__(self, modulus: int):
        self.modulus = modulus
        super().__init__(f"modulus {modulus} is composite; coefficients would not form a domain")

    def payload(self) -> dict:
        return {**super().payload(), "modulus": self.modulus}


class RingMismatchError(QuandleKitError):
    pass


class CarrierMismatchError(QuandleKitError):
    pass


class ConstraintViolatedError(QuandleKitError):
    pass


class NotNilpotentError(QuandleKitError):
    pass


class HypothesisFailedError(QuandleKitError):
    """A stated hypothesis of the construction does not hold for the input."""


class NotIdempotentInputError(QuandleKitError):
    """An element required to be idempotent is not."""


class IndexOutOfRangeError(QuandleKitError):
    pass


class InternalCheckError(QuandleKitError):
    """A computed result failed the package's own exact re-verification.

    Keyword arguments are JSON values naming the offending result; they
    become fields of the payload.
    """

    def __init__(self, message: str, **details):
        self.details = details
        super().__init__(message)

    def payload(self) -> dict:
        return {**super().payload(), **self.details}


def _shown(count: int) -> int | str:
    """count itself, or "~10^k" when it has more digits than Python will
    convert to a string."""
    try:
        str(count)
    except ValueError:
        return f"~10^{math.floor(math.log10(count))}"
    return count


class BudgetExceededError(QuandleKitError):
    """A request that would pass its budget, refused before the work.

    A count with more digits than Python converts to a string is shown
    as "~10^k" in the message and the payload; `work` names what was
    refused, a search unless the caller says otherwise."""

    exit_code = 2

    def __init__(self, needed: int, budget: int, what: str = "candidates", work: str = "search"):
        self.needed = _shown(needed)
        self.budget = _shown(budget)
        super().__init__(f"{work} needs {self.needed} {what}, budget is {self.budget}")

    def payload(self) -> dict:
        return {**super().payload(), "needed": self.needed, "budget": self.budget}


class SearchBudgetExceededError(BudgetExceededError):
    """A backtracking search ran past its node budget."""

    def __init__(self, budget: int):
        super().__init__(budget + 1, budget, what="search nodes")
