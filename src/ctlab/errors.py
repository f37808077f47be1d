"""Exception taxonomy and computation budgets shared by every subsystem."""

from __future__ import annotations

import os
from dataclasses import dataclass


class CTLabError(Exception):
    """Base class for all library errors."""


# permutation / group layer
class InvalidPermutation(CTLabError):
    pass


class NotASubgroup(CTLabError):
    pass


class NotNormal(CTLabError):
    pass


class NotSolvable(CTLabError):
    pass


class NotAHomomorphism(CTLabError):
    pass


class BudgetExceeded(CTLabError):
    pass


class InvalidBudget(CTLabError):
    """CTLAB_BUDGET, --max-order or --max-classes is not a positive integer."""


class VerificationFailed(CTLabError):
    """A computed result failed the exact check that certifies it."""


# character layer
class ClassDataMismatch(CTLabError):
    """A class function does not match the class data it is used with."""


# exact arithmetic layer
class LiftInconsistent(CTLabError):
    pass


class NotAlgebraicInteger(CTLabError):
    pass


# modular layer
class NotAPrime(CTLabError):
    """The prime of a modular computation or tower is not a prime."""


class AmbiguousBasicSet(CTLabError):
    pass


class NonIntegralDecomposition(CTLabError):
    pass


class NotCentralPPrime(CTLabError):
    pass


class NoSuchBlock(CTLabError):
    pass


class MissingDefectGroup(CTLabError):
    pass


class NotCentral(CTLabError):
    pass


# constructions
class UnsupportedFamily(CTLabError):
    pass


class ActionNotWellDefined(CTLabError):
    pass


class InvalidWitness(CTLabError):
    pass


class ActionKernelMismatch(CTLabError):
    pass


class DegenerateStep(CTLabError):
    """Raised when a tower step hits the abelian q = p corner where the
    construction cannot produce a faithful witness."""

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


class NotRegularOnIBr(CTLabError):
    pass


class TrivialQAction(CTLabError):
    pass


class HypothesisFails(CTLabError):
    """Stabilizer inequality fails; carries a witness orbit representative."""

    def __init__(self, message, witness=None, orbit_size=None, stab_order=None):
        super().__init__(message)
        self.witness = witness
        self.orbit_size = orbit_size
        self.stab_order = stab_order


# parsing
class ParseError(CTLabError):
    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ArityError(ParseError):
    pass


# reproduction checks
class UnknownCheck(CTLabError):
    """No reproduction check has the requested id."""


@dataclass(frozen=True)
class Budget:
    """Cost guards for the exact engines.

    ``max_order`` caps character-table computations, ``max_classes`` the
    class count fed to the eigenvalue splitting.  Element scans have one
    fixed bound, ``permgroup.SCAN_LIMIT``.
    """

    max_order: int = 20_000
    max_classes: int = 150

    @staticmethod
    def from_env() -> "Budget":
        """The default budget with ``max_order`` taken from CTLAB_BUDGET;
        raises InvalidBudget unless that is a positive integer."""
        raw = os.environ.get("CTLAB_BUDGET")
        if not raw:
            return Budget()
        try:
            max_order = int(raw)
        except ValueError:
            max_order = 0
        if max_order < 1:
            raise InvalidBudget(
                f"CTLAB_BUDGET must be a positive integer, got {raw!r}")
        return Budget(max_order=max_order)


def _default_budget() -> Budget:
    # importing must not fail on a bad CTLAB_BUDGET; cli.main reports it
    try:
        return Budget.from_env()
    except InvalidBudget:
        return Budget()


DEFAULT_BUDGET = _default_budget()
