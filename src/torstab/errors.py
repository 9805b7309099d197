"""Shared exception types."""

from __future__ import annotations


class TorstabError(Exception):
    pass


class ZeroVectorError(TorstabError):
    pass


class NotStableError(TorstabError):
    """Raised when an operation requires a stable vector; carries the
    classification certificate of the offending input."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class StratifyInternalError(TorstabError):
    """Internal assertion failure of the stratification iteration (empty ray
    slice, non-increasing c_n, vertex face, infeasible cocharacter system,
    torus that does not shrink).
    These indicate an input violating the preconditions, never ignored.
    The message starts with the kind of failure, as in "RayEmpty: ..."."""


class ValidationError(TorstabError, ValueError):
    """Refused input, with the complete list of its violations, raised where
    it is judged; also a ValueError, so callers that catch that still do."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


class InternalError(Exception):
    """A broken internal invariant: a bug in this library, never bad input.

    Deliberately not a TorstabError, so that ``run_document`` does not
    report it as a rejection (exit 2); the CLI's catch-all reports it, like
    any other exception, as an internal error (exit 1).  Raised explicitly
    rather than by ``assert`` so that ``python -O`` keeps the check."""
