"""Exception hierarchy for the ``repro`` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting programming errors (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphValidationError(ReproError):
    """An input graph violates a precondition (e.g. not connected)."""


class PackingValidationError(ReproError):
    """A tree packing violates its defining constraints.

    Raised by the verification helpers in :mod:`repro.core.tree_packing`
    when a packing fails domination, connectivity, disjointness, or
    weight-capacity checks.
    """


class PackingConstructionError(ReproError):
    """The packing algorithm could not produce a valid packing.

    The w.h.p. guarantees of the paper hold for large ``n``; on tiny or
    adversarial inputs the retry loop may exhaust its attempts, in which
    case this error is raised rather than returning an invalid packing.
    """


class SimulationError(ReproError):
    """A distributed simulation violated a model constraint.

    For example, a node program sent a message exceeding the ``O(log n)``
    bit budget, or attempted per-neighbor messages in the V-CONGEST model
    (which only permits local broadcast).
    """


class ModelViolationError(SimulationError):
    """A node program broke a V-CONGEST / E-CONGEST congestion rule."""


class ProtocolError(ReproError):
    """A two-party protocol (Appendix G reduction) was misused."""


class BatchExecutionError(ReproError):
    """The batch scheduler's execution plane failed as a whole.

    Raised when a backend cannot complete a chunk for infrastructure
    reasons — e.g. a process-pool worker was killed and the pool broke —
    as opposed to a single job failing, which becomes an error *row*
    (the batch keeps going). The message names the chunk (graph spec and
    job-index span) and chains the underlying pool exception.
    """


class ServiceError(ReproError):
    """The graph service (``repro serve`` / ``repro shell``) was misused.

    Raised for unknown operations, missing session handles, and client
    connection failures. The daemon converts these into typed error
    envelopes on the wire instead of letting them kill the connection.
    """


class BadRequestError(ServiceError):
    """A request field is unknown or has a value its parser rejects.

    Raised by :func:`repro.api.tasks.decode` on every front door: the
    daemon answers ``bad-request`` before opening a session, a batch job
    becomes a ``bad-request`` row, and a ``repro <task>`` command exits 2.
    """


class WireProtocolError(ServiceError):
    """A wire frame violated the newline-delimited JSON protocol.

    ``recoverable`` distinguishes a malformed-but-complete frame (the
    stream is still line-synchronized; the server answers with an error
    envelope and keeps the connection) from an oversized frame (the
    remainder of the line is still buffered, so the server must close
    the connection after reporting the error).
    """

    def __init__(self, message: str, recoverable: bool = True) -> None:
        super().__init__(message)
        self.recoverable = recoverable
