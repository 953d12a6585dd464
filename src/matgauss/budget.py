"""Enumeration budget shared by the exhaustive oracles.

Brute-force sums walk all q^(n*n) candidate matrices (or all (q-1)^(n-1)
Kloosterman tuples); the budget caps how many candidates a single call may
visit.  It is read from the GAUSS_SUMS_BUDGET environment variable at every
check, in library calls as in the CLI, and defaults to DEFAULT_BUDGET; no
call takes a budget of its own.
"""

from __future__ import annotations

import os

DEFAULT_BUDGET = 20_000_000
BUDGET_ENV_VAR = "GAUSS_SUMS_BUDGET"


class EnumerationBudgetError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed the budget."""


def resolve_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw:
        try:
            return int(raw)
        except ValueError as err:
            raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from err
    return DEFAULT_BUDGET


def check_budget(candidates: int, what: str) -> None:
    limit = resolve_budget()
    if candidates > limit:
        raise EnumerationBudgetError(
            f"{what} needs {candidates} candidates, over the budget of {limit}"
        )
