"""Exception hierarchy for the Acc-SpMM reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still distinguishing validation problems from simulation problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (shape, dtype, range, or structure)."""


class FormatError(ReproError):
    """A compressed sparse format is internally inconsistent."""


class SimulationError(ReproError):
    """The GPU simulator reached an impossible state (scheduling bug)."""


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its budget."""


class StoreError(ReproError):
    """A serialised plan (or plan-store entry) could not be decoded.

    Raised on bad magic, truncated containers, malformed headers, or a
    payload that fails validation.  The on-disk :class:`repro.serve.store.
    PlanStore` catches it internally — a corrupt entry is quarantined and
    reported as a miss, never propagated to serving traffic."""


class StoreVersionError(StoreError):
    """A serialised plan uses an incompatible format version.

    Version bumps are deliberate invalidation: old entries are quarantined
    on first contact rather than migrated (replanning is always safe)."""


class ProtocolError(ReproError):
    """A wire frame could not be decoded (:mod:`repro.serve.frames`).

    Raised on bad magic, unsupported frame versions, truncated or
    oversized frames, malformed headers, or array tables that fail
    validation.  Like :class:`StoreError`, it marks input that can be
    *rejected* but never *executed*: the frame codec carries only a JSON
    header and raw whitelisted-dtype arrays, no pickled objects."""


class EngineClosedError(ReproError):
    """A serving engine rejected a request because it is draining.

    Raised by :meth:`repro.serve.aio.AsyncSpMMEngine.multiply` (and
    friends) once :meth:`~repro.serve.aio.AsyncSpMMEngine.drain` has
    begun: in-flight requests complete, new submissions fail with this —
    the server maps it to a retryable ``shutting_down`` response."""


class ServerError(ReproError):
    """An error response from an SpMM server, surfaced client-side.

    Carries the documented wire ``code`` (``bad_frame``, ``bad_request``,
    ``quota_exceeded``, ``overloaded``, ``shutting_down``, ``internal``)
    and whether the server marked the request ``retryable`` — a load-shed
    or draining worker says "try again (elsewhere)", a malformed request
    does not (see ``docs/SERVER.md``)."""

    def __init__(self, code: str, message: str, retryable: bool = False):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.retryable = bool(retryable)
