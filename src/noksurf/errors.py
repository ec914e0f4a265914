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
    """An integer has no split within the factoring budget; a search that
    meets it stops instead of spending the budget again on the next trial."""


class SearchFailure(NoksurfError):
    """A constructive search exhausted its budget; the message records the last verified state."""
