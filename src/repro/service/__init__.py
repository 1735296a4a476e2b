"""The graph service layer: ``repro serve`` + ``repro shell``.

A persistent daemon (:mod:`repro.service.daemon`) and an interactive
shell (:mod:`repro.service.shell`) over one shared request/response
surface (:mod:`repro.service.core`), speaking newline-delimited JSON
frames of the library's :class:`~repro.api.envelope.Result` envelopes
(:mod:`repro.service.protocol`). Sessions stay warm across requests
and survive edits (:meth:`~repro.api.GraphSession.add_edge` /
:meth:`~repro.api.GraphSession.remove_edge`), which drop the derived
layers so the next read re-canonicalizes.
"""

from repro.service.core import (
    DEFAULT_SESSIONS,
    ServiceCore,
    SessionCache,
)
from repro.service.daemon import ReproServer, serve
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    SERVICE_GRAPH,
    encode_frame,
    error_envelope,
    is_error,
    read_frame,
    write_frame,
)
from repro.service.shell import (
    LocalBackend,
    RemoteBackend,
    ReproShell,
    parse_connect,
    run_shell,
)

__all__ = [
    "DEFAULT_SESSIONS",
    "ServiceCore",
    "SessionCache",
    "ReproServer",
    "serve",
    "MAX_FRAME_BYTES",
    "SERVICE_GRAPH",
    "encode_frame",
    "error_envelope",
    "is_error",
    "read_frame",
    "write_frame",
    "LocalBackend",
    "RemoteBackend",
    "ReproShell",
    "parse_connect",
    "run_shell",
]
