"""Exception types and the memory budget shared across the package."""

# Work whose memory grows with a caller-chosen size (render pixels, verify
# lattices) estimates its peak bytes first and is refused above this budget.
MEMORY_BUDGET_BYTES = 2**30


def check_memory_budget(nbytes: int, what: str) -> None:
    """Raise ValueError when an estimated allocation exceeds MEMORY_BUDGET_BYTES."""
    if nbytes > MEMORY_BUDGET_BYTES:
        raise ValueError(
            f"{what} needs an estimated {nbytes / 2**20:.0f} MiB, above the "
            f"{MEMORY_BUDGET_BYTES // 2**20} MiB memory budget"
        )


class PoleError(ValueError):
    """The map was evaluated at its pole z = 0."""


class HypothesisError(ValueError):
    """Inputs lie outside the hypotheses a geometric construction or check needs."""


class RootFindingError(RuntimeError):
    """The simultaneous root iteration did not reach the residual bound."""


class InconsistencyError(RuntimeError):
    """Computed results violate a structural relation they are required to satisfy
    (e.g. a sector index that does not round to an integer, or a solution count
    that contradicts a guaranteed count)."""


class UnderSamplingError(RuntimeError):
    """A contour walk took an angular step too large to certify the winding total;
    retry with more boundary samples."""
