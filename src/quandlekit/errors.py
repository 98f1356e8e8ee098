"""Exception types shared across the package.

Every error that a caller is expected to catch carries the offending
indices or limits as keyword details: each is an attribute and a field
of the error's JSON payload (a tuple written as a list), so CLI layers
can render structured messages without parsing strings.
"""

from __future__ import annotations

import math


class QuandleKitError(Exception):
    """Base class for all package errors; see the module docstring for its details."""

    exit_code = 1

    def __init__(self, message: str = "", **details):
        super().__init__(message)
        self.details = details
        self.__dict__.update(details)

    def payload(self) -> dict:
        fields = {k: list(v) if isinstance(v, tuple) else v for k, v in self.details.items()}
        return {"error": type(self).__name__.removesuffix("Error"), "message": str(self), **fields}

    def __reduce__(self):
        # Exception.__reduce__ would call the class with args, the message
        # alone, which the subclasses do not take.  A process pool returns
        # a worker's error by pickling it.
        return _rebuild, (type(self), str(self), self.details)


def _rebuild(cls: type, message: str, details: dict) -> QuandleKitError:
    err = cls.__new__(cls)
    QuandleKitError.__init__(err, message, **details)
    return err


class InvalidParamsError(QuandleKitError):
    pass


class NotPermutationError(QuandleKitError):
    """A table column is not a permutation of the index set."""

    def __init__(self, column: int):
        super().__init__(f"column {column} of the table is not a permutation", column=column)


class NotIdempotentError(QuandleKitError):
    """table[j][j] != j: the diagonal element j breaks x*x = x."""

    def __init__(self, index: int):
        super().__init__(f"table[{index}][{index}] != {index}", index=index)


class NotRightDistributiveError(QuandleKitError):
    def __init__(self, i: int, j: int, k: int):
        super().__init__(f"(x*y)*z != (x*z)*(y*z) at (x, y, z) = ({i}, {j}, {k})", indices=(i, j, k))


class NotSurjectiveError(QuandleKitError):
    pass


class CoveringConditionError(QuandleKitError):
    """Two points share an image but have different right multiplications."""

    def __init__(self, x1: int, x2: int):
        super().__init__(f"points {x1} and {x2} share an image but act differently", pair=(x1, x2))


class CompositeModulusError(QuandleKitError):
    def __init__(self, modulus: int):
        super().__init__(f"modulus {modulus} is composite; coefficients would not form a domain",
                         modulus=modulus)


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
    """A computed result failed the package's own exact re-verification;
    its details name the offending result."""


def _shown(count: int | str) -> int | str:
    """count itself (an int, or a bound such as "more than 2^k"), or
    "~10^k" when it has more digits than Python will convert to a string."""
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

    def __init__(self, needed: int | str, budget: int, what: str = "candidates", work: str = "search"):
        needed, budget = _shown(needed), _shown(budget)
        super().__init__(f"{work} needs {needed} {what}, budget is {budget}",
                         needed=needed, budget=budget)


class SearchBudgetExceededError(BudgetExceededError):
    """A backtracking search ran past its node budget."""

    def __init__(self, budget: int):
        super().__init__(budget + 1, budget, what="search nodes")
