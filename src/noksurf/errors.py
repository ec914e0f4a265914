"""Exception hierarchy shared across the package."""


class NoksurfError(Exception):
    """Base class for every error this package raises deliberately."""


class InputError(NoksurfError):
    """Malformed or inconsistent user input: bad document, unknown label, ..."""


class ModelError(NoksurfError):
    """The lattice data admits no consistent answer for the requested computation."""


class InternalError(NoksurfError):
    """An invariant that must hold for every input failed; indicates a bug."""


class TheoremViolation(NoksurfError):
    """A certified bound or classification failed on data that should satisfy it."""


class OracleMismatch(NoksurfError):
    """The two independent polygon computations disagree."""


class DegenerateInput(InputError):
    """The half-plane system is infeasible."""


class FactorBudgetExhausted(InputError):
    """The radicand of an irrational mu has no split within the factoring
    budget.  It is an InputError like any other, and no code tells the two
    apart: a flag search's replays take no square root, so only the mu of a
    walk's profile or of a search's certificate meets the budget."""


class SearchFailure(NoksurfError):
    """A constructive search exhausted its budget; the message records the last verified state."""
