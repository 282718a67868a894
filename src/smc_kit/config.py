"""Shared resource limits and error types."""

from __future__ import annotations

from dataclasses import dataclass


class SmcKitError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SmcKitError):
    """Malformed user input: bad quiver, bad workspace document, bad names."""


class BoundExceeded(SmcKitError):
    """A configured resource bound (pd length, strip cap, path cap) was hit."""


class NotRigidError(SmcKitError):
    """Mutation requested at a non-rigid object without force."""


class InvariantError(AssertionError):
    """An internal invariant failed: a bug, not a verdict about the input.

    Not a SmcKitError, so no handler that turns errors into a "fail" or
    "unvalidated" result can absorb it; raised explicitly, so it survives
    python -O."""


@dataclass(frozen=True)
class Limits:
    """Defaults of the CLI's resource flags: --pd-bound and --strip-cap."""

    pd_bound: int = 32
    strip_cap: int = 10_000


DEFAULT_LIMITS = Limits()
