"""Exception types shared across the package."""

__all__ = ["DomainError"]


class DomainError(ValueError):
    """A physically meaningless request.

    Raised for things like evaluating a field on its own source curve,
    asking for the gravitational pull between coincident particles, or
    stepping a state that is not finite. The CLI maps this to its own
    exit code so scripts can tell singularities from usage mistakes.
    """
