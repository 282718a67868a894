"""Shared resource limits and error types."""

from __future__ import annotations

from dataclasses import dataclass


class SmcKitError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SmcKitError):
    """Malformed user input: bad quiver, bad workspace document, bad names."""


class BoundExceeded(SmcKitError):
    """A configured resource bound (pd length, strip cap, path cap, summand
    cap) was hit."""


class PdBoundExceeded(BoundExceeded):
    """A resolution needs a term past its pd bound, so the projective
    dimension it resolves exceeds that bound."""


class NotRigidError(SmcKitError):
    """Mutation requested at a non-rigid object without force."""


class InvariantError(AssertionError):
    """An internal invariant failed: a bug, not a verdict about the input.

    Not a SmcKitError, so no handler that turns errors into a "fail" or
    "unvalidated" result can absorb it; raised explicitly, so it survives
    python -O."""


@dataclass(frozen=True)
class Limits:
    """The package's default resource limits, read by the library's
    keyword defaults and the CLI's flags alike.

    pd_bound: length of a projective resolution (--pd-bound).
    strip_cap: layers one truncation may strip (truncate --strip-cap).
    summand_cap: projective summands one resolution may place, which are
    those of its minimal result (none is built to be cancelled).  It has no
    flag: it keeps a resolution whose syzygies grow exponentially from
    exhausting memory before pd_bound is reached.
    """

    pd_bound: int = 32
    strip_cap: int = 10_000
    summand_cap: int = 1_000


DEFAULT_LIMITS = Limits()
