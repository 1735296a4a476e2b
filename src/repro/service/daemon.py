"""``repro serve`` — a persistent graph service over a TCP socket.

A :class:`ReproServer` is a stdlib ``socketserver.ThreadingTCPServer``
speaking the newline-delimited JSON protocol of
:mod:`repro.service.protocol`, with one shared :class:`ServiceCore`
behind all connections: sessions stay warm across clients, so the
"millions of small queries" workload pays one canonicalization per
graph fingerprint instead of one per process.

Lifecycle guarantees (pinned by the CI ``service-smoke`` job):

* the ``shutdown`` op answers first, then stops the accept loop;
* ``serve()`` always runs ``server_close()`` — the listening socket and
  every per-connection file object are closed on the way out, so a
  clean daemon exit leaks no file descriptors;
* per-connection threads are daemonic: a dying client never wedges the
  process.
"""

from __future__ import annotations

import socketserver
import threading
from typing import Any, Dict, Optional, TextIO, Tuple

from repro.errors import WireProtocolError
from repro.service.core import ServiceCore
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    error_envelope,
    read_frame,
    write_frame,
)


class _ServiceHandler(socketserver.StreamRequestHandler):
    """One connection: a loop of frames until EOF or a fatal frame."""

    def handle(self) -> None:  # noqa: D102 — socketserver hook
        server: "ReproServer" = self.server  # type: ignore[assignment]
        while True:
            try:
                request = read_frame(self.rfile, server.max_frame_bytes)
            except WireProtocolError as exc:
                kind = "protocol" if exc.recoverable else "protocol-fatal"
                try:
                    write_frame(
                        self.wfile,
                        error_envelope(str(exc), kind).to_dict(),
                    )
                except (BrokenPipeError, ConnectionResetError, OSError):
                    return
                if exc.recoverable:
                    continue
                return  # stream desynchronized: close the connection
            except (ConnectionResetError, OSError):
                return
            if request is None:
                return  # clean EOF
            response = _file_refusal(request) or server.core.handle(request)
            try:
                write_frame(self.wfile, response)
            except (BrokenPipeError, ConnectionResetError, OSError):
                return
            if request.get("op") == "shutdown":
                server.request_shutdown()
                return


def _file_refusal(request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The ``service`` error body for a request naming a ``csv:`` graph,
    in its ``graph`` field or in an inline batch job or matrix; else
    ``None``.

    A remote client must not make the daemon read its own filesystem
    (the batch op refuses a jobs path for the same reason). The
    in-process shell drives :class:`ServiceCore` directly and still
    opens CSV files.
    """
    specs = [request.get("graph")]
    jobs = request.get("jobs") if request.get("op") == "batch" else None
    if isinstance(jobs, dict) and isinstance(jobs.get("graphs"), list):
        specs.extend(jobs["graphs"])
    elif isinstance(jobs, list):
        specs.extend(job.get("graph") for job in jobs if isinstance(job, dict))
    if not any(
        isinstance(spec, str) and spec.partition(":")[0] == "csv"
        for spec in specs
    ):
        return None
    body = error_envelope(
        "the daemon does not read server-side files; csv: graph specs "
        "open only in the in-process shell",
        "service",
        op=request.get("op"),
    ).to_dict()
    if "id" in request:
        body["id"] = request["id"]
    return body


class ReproServer(socketserver.ThreadingTCPServer):
    """The daemon: threaded TCP server around one shared ServiceCore."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int] = ("127.0.0.1", 0),
        core: Optional[ServiceCore] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self.core = core if core is not None else ServiceCore()
        self.max_frame_bytes = max_frame_bytes
        self._shutdown_started = False
        self._shutdown_lock = threading.Lock()
        super().__init__(address, _ServiceHandler)

    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]

    def request_shutdown(self) -> None:
        """Stop the accept loop without deadlocking the caller.

        ``shutdown()`` blocks until ``serve_forever`` exits, so a
        handler thread must trigger it from a helper thread; idempotent
        across repeated shutdown ops.
        """
        with self._shutdown_lock:
            if self._shutdown_started:
                return
            self._shutdown_started = True
        threading.Thread(target=self.shutdown, daemon=True).start()


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    cache_capacity: int = 8,
    max_frame_bytes: int = MAX_FRAME_BYTES,
    out: Optional[TextIO] = None,
) -> int:
    """Run the daemon until a ``shutdown`` op or Ctrl-C; returns 0.

    Prints ``repro-serve listening on HOST:PORT`` (flushed) once the
    socket is bound, so wrapper scripts can scrape the ephemeral port.
    """
    import sys

    stream = out if out is not None else sys.stdout
    core = ServiceCore(cache_capacity=cache_capacity)
    server = ReproServer(
        (host, port), core=core, max_frame_bytes=max_frame_bytes
    )
    try:
        print(
            f"repro-serve listening on {server.host}:{server.port} "
            f"(sessions={cache_capacity})",
            file=stream,
            flush=True,
        )
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    print("repro-serve stopped", file=stream, flush=True)
    return 0
