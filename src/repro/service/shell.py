"""``repro shell`` — an interactive front door to the graph service.

A small GCLI-style grammar (``node list``, ``edge new``, ``graph
open``, …) over the same request/response surface the daemon serves.
Two backends:

* :class:`LocalBackend` — an in-process :class:`ServiceCore`; no
  daemon, no sockets, same envelopes.
* :class:`RemoteBackend` — a client of a running ``repro serve``
  daemon (newline-delimited JSON over TCP).

The shell is scriptable: it reads commands from any line iterable
(stdin in the CLI), prints one result per command — human rendering by
default, the raw envelope JSON with ``--json`` — and its exit status
reports whether any command failed, which is what the CI
``service-smoke`` job drives.

    repro> graph open harary:6,24
    opened harary:6,24  fingerprint=9c0f… n=24 m=72
    repro> estimate k
    k ∈ [5.00, 6.00]  (packing size 5.50, 14 trees)
    repro> edge new 0 12
    edge (0, 12) added  n=24 m=73 fingerprint=4be2…
"""

from __future__ import annotations

import json
import shlex
import socket
import sys
from typing import Any, Dict, Iterable, Optional, TextIO

from repro.errors import ServiceError
from repro.service.core import ServiceCore
from repro.service.protocol import is_error, read_frame, write_frame

HELP_TEXT = """\
commands
  graph open <spec|file.csv>   open (or switch to) a graph; CSV files
                               import GCLI adjacency matrices
  node list                    list node ids
  node nbr <id>                list a node's neighbours
  node n <id>                  neighbour count
  node p <src> <dst>           shortest path
  edge new <a> <b>             add an edge
  edge rmv <a> <b>             remove an edge
  estimate [k]                 Corollary 1.7 vertex-connectivity estimate
  pack [cds|spanning]          fractional tree packing (default: cds)
  simulate [program]           run a scenario program (default: flooding)
  stats                        service/session cache statistics
  seed <n>                     set the seed used by estimate/pack/simulate
  ping                         liveness check
  help                         this text
  quit | exit                  leave the shell"""


class LocalBackend:
    """In-process backend: the shell drives a ServiceCore directly."""

    def __init__(self, core: Optional[ServiceCore] = None) -> None:
        self.core = core if core is not None else ServiceCore()

    def request(self, body: Dict[str, Any]) -> Dict[str, Any]:
        return self.core.handle(body)

    def close(self) -> None:
        pass


class RemoteBackend:
    """Client of a running ``repro serve`` daemon."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        try:
            self._sock = socket.create_connection((host, port), timeout)
        except OSError as exc:
            raise ServiceError(
                f"cannot connect to repro-serve at {host}:{port}: {exc}"
            ) from exc
        self._reader = self._sock.makefile("rb")
        self._writer = self._sock.makefile("wb")

    def request(self, body: Dict[str, Any]) -> Dict[str, Any]:
        try:
            write_frame(self._writer, body)
            response = read_frame(self._reader)
        except OSError as exc:
            raise ServiceError(f"connection to daemon lost: {exc}") from exc
        if response is None:
            raise ServiceError("daemon closed the connection")
        return response

    def close(self) -> None:
        for stream in (self._reader, self._writer):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self._sock.close()
        except OSError:
            pass


def parse_connect(text: str) -> tuple:
    """``HOST:PORT`` (or bare ``PORT``) → (host, port)."""
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "127.0.0.1", text
    try:
        port = int(port_text)
    except ValueError:
        raise ServiceError(
            f"--connect wants HOST:PORT or PORT, got {text!r}"
        ) from None
    return host or "127.0.0.1", port


class ReproShell:
    """The REPL: parse one GCLI-style line, run one service request."""

    def __init__(
        self,
        backend,
        out: Optional[TextIO] = None,
        json_mode: bool = False,
        seed: int = 0,
    ) -> None:
        self.backend = backend
        self.out = out if out is not None else sys.stdout
        self.json_mode = json_mode
        self.seed = seed
        self.session: Optional[str] = None  # fingerprint handle
        self.errors = 0
        self.stopped = False

    # -- driving -------------------------------------------------------

    def run(self, lines: Iterable[str], prompt: bool = False) -> int:
        """Execute lines until EOF or ``quit``; returns the error count."""
        if prompt:
            self._prompt()
        for line in lines:
            self.execute(line)
            if self.stopped:
                break
            if prompt:
                self._prompt()
        return self.errors

    def _prompt(self) -> None:
        print("repro> ", end="", file=self.out, flush=True)

    def execute(self, line: str) -> None:
        """Run one command line (comments and blanks are no-ops)."""
        try:
            tokens = shlex.split(line, comments=True)
        except ValueError as exc:
            self._fail(f"cannot parse line: {exc}")
            return
        if not tokens:
            return
        command, args = tokens[0].lower(), tokens[1:]
        try:
            handler = getattr(self, f"_cmd_{command}", None)
            if handler is None:
                self._fail(
                    f"unknown command {command!r} (try 'help')"
                )
                return
            handler(args)
        except ServiceError as exc:
            self._fail(str(exc))

    def open_graph(self, spec: str) -> None:
        """Open a graph spec (CSV paths are translated to ``csv:``)."""
        if spec.endswith(".csv") and ":" not in spec:
            spec = f"csv:{spec}"
        self._request({"op": "open", "graph": spec})

    # -- commands ------------------------------------------------------

    def _cmd_help(self, args) -> None:
        print(HELP_TEXT, file=self.out)

    def _cmd_quit(self, args) -> None:
        self.stopped = True

    _cmd_exit = _cmd_quit

    def _cmd_ping(self, args) -> None:
        self._request({"op": "ping"})

    def _cmd_stats(self, args) -> None:
        self._request({"op": "stats"})

    def _cmd_seed(self, args) -> None:
        try:
            (token,) = args
            self.seed = int(token)
        except ValueError:
            self._fail("usage: seed <integer>")
            return
        if not self.json_mode:
            print(f"seed = {self.seed}", file=self.out)

    def _cmd_graph(self, args) -> None:
        if len(args) >= 2 and args[0] == "open":
            self.open_graph(" ".join(args[1:]))
        else:
            self._fail("usage: graph open <spec|file.csv>")

    def _cmd_node(self, args) -> None:
        if not args:
            self._fail("usage: node list | nbr <id> | n <id> | p <s> <d>")
            return
        sub, rest = args[0], args[1:]
        if sub == "list" and not rest:
            self._session_request({"op": "node_list"})
        elif sub in ("nbr", "n") and len(rest) == 1:
            self._session_request(
                {"op": "node_nbr", "node": rest[0]},
                degree_only=(sub == "n"),
            )
        elif sub == "p" and len(rest) == 2:
            self._session_request(
                {"op": "node_path", "source": rest[0], "target": rest[1]}
            )
        else:
            self._fail("usage: node list | nbr <id> | n <id> | p <s> <d>")

    def _cmd_edge(self, args) -> None:
        if len(args) == 3 and args[0] in ("new", "rmv"):
            op = "edge_new" if args[0] == "new" else "edge_rmv"
            response = self._session_request(
                {"op": op, "a": args[1], "b": args[2]}
            )
            if response is not None and not is_error(response):
                # The mutation changed the fingerprint; follow the
                # session to its new handle.
                self.session = response["payload"]["fingerprint"]
        else:
            self._fail("usage: edge new <a> <b> | edge rmv <a> <b>")

    def _cmd_estimate(self, args) -> None:
        if args and args != ["k"]:
            self._fail("usage: estimate [k]")
            return
        self._session_request({"op": "estimate", "seed": self.seed})

    def _cmd_pack(self, args) -> None:
        kind = args[0] if args else "cds"
        if len(args) > 1 or kind not in ("cds", "spanning"):
            self._fail("usage: pack [cds|spanning]")
            return
        self._session_request(
            {"op": "pack", "kind": kind, "seed": self.seed}
        )

    def _cmd_simulate(self, args) -> None:
        if len(args) > 1:
            self._fail("usage: simulate [program]")
            return
        program = args[0] if args else "flooding"
        self._session_request(
            {"op": "simulate", "program": program, "seed": self.seed}
        )

    # -- request plumbing ----------------------------------------------

    def _session_request(
        self, body: Dict[str, Any], degree_only: bool = False
    ) -> Optional[Dict[str, Any]]:
        if self.session is None:
            self._fail("no graph open; use: graph open <spec|file.csv>")
            return None
        body = dict(body)
        body["session"] = self.session
        return self._request(body, degree_only=degree_only)

    def _request(
        self, body: Dict[str, Any], degree_only: bool = False
    ) -> Dict[str, Any]:
        response = self.backend.request(body)
        if body.get("op") == "open" and not is_error(response):
            self.session = response["payload"]["fingerprint"]
        if is_error(response):
            self.errors += 1
        self._render(response, degree_only=degree_only)
        return response

    def _fail(self, message: str) -> None:
        self.errors += 1
        if self.json_mode:
            print(
                json.dumps(
                    {"task": "error",
                     "payload": {"error": message, "error_type": "shell"}},
                    sort_keys=True,
                ),
                file=self.out,
            )
        else:
            print(f"error: {message}", file=self.out)

    # -- rendering -----------------------------------------------------

    def _render(
        self, response: Dict[str, Any], degree_only: bool = False
    ) -> None:
        if self.json_mode:
            print(
                json.dumps(response, sort_keys=True, separators=(",", ":")),
                file=self.out,
            )
            return
        task = response.get("task")
        payload = response.get("payload", {})
        out = self.out
        if task == "error":
            print(
                f"error[{payload.get('error_type')}]: "
                f"{payload.get('error')}",
                file=out,
            )
        elif task == "ping":
            print(f"pong (uptime {payload['uptime_s']:.1f}s)", file=out)
        elif task == "graph_open":
            print(
                f"opened {payload['label']}  "
                f"fingerprint={payload['fingerprint']} "
                f"n={payload['n']} m={payload['m']}",
                file=out,
            )
        elif task == "node_list":
            nodes = payload["nodes"]
            shown = " ".join(str(n) for n in nodes[:20])
            suffix = " …" if len(nodes) > 20 else ""
            print(f"{payload['n']} node(s): {shown}{suffix}", file=out)
        elif task == "node_nbr":
            if degree_only:
                print(f"n({payload['node']}) = {payload['degree']}", file=out)
            else:
                neighbors = " ".join(str(n) for n in payload["neighbors"])
                print(
                    f"nbr({payload['node']}) = [{neighbors}]  "
                    f"(degree {payload['degree']})",
                    file=out,
                )
        elif task == "node_path":
            if payload["reachable"]:
                path = " ".join(str(n) for n in payload["path"])
                print(
                    f"path {payload['source']} -> {payload['target']}: "
                    f"{path}  (length {payload['length']})",
                    file=out,
                )
            else:
                print(
                    f"no path {payload['source']} -> {payload['target']}",
                    file=out,
                )
        elif task in ("edge_new", "edge_rmv"):
            a, b = payload["edge"]
            print(
                f"edge ({a}, {b}) {payload['action']}  "
                f"n={payload['n']} m={payload['m']} "
                f"fingerprint={payload['fingerprint']}",
                file=out,
            )
        elif task == "connectivity":
            print(
                f"k ∈ [{payload['lower_bound']:.2f}, "
                f"{payload['upper_bound']:.2f}]  "
                f"(packing size {payload['packing_size']:.2f}, "
                f"{payload['n_trees']} trees)",
                file=out,
            )
        elif task == "pack_cds":
            print(
                f"CDS packing: size={payload['size']:.3f} "
                f"trees={payload['n_trees']} "
                f"max_node_load={payload['max_node_load']:.3f}",
                file=out,
            )
        elif task == "pack_spanning":
            print(
                f"spanning packing: size={payload['size']:.3f} "
                f"trees={payload['n_trees']} lam={payload['lam']} "
                f"max_edge_load={payload['max_edge_load']:.3f}",
                file=out,
            )
        elif task == "simulate":
            print(
                f"{payload['program']} [{payload['model']}]: "
                f"rounds={payload['rounds']} "
                f"messages={payload['messages']} bits={payload['bits']} "
                f"halted={payload['halted']}",
                file=out,
            )
        elif task == "stats":
            cache = payload["cache"]
            print(
                f"uptime {payload['uptime_s']:.1f}s  "
                f"requests={payload['requests']} "
                f"errors={payload['errors']}",
                file=out,
            )
            print(
                f"sessions {cache['sessions']}/{cache['capacity']}  "
                f"hits={cache['hits']} misses={cache['misses']} "
                f"evictions={cache['evictions']}",
                file=out,
            )
            for row in payload["sessions"]:
                stats = row["stats"]
                print(
                    f"  {row['fingerprint']}  {row['graph']}  "
                    f"n={row['n']} m={row['m']} gen={row['generation']} "
                    f"hits={stats['cache_hits']} "
                    f"misses={stats['cache_misses']} "
                    f"evictions={stats['evictions']} "
                    f"mutations={stats['mutations']}",
                    file=out,
                )
        elif task == "shutdown":
            print("daemon stopping", file=out)
        else:  # unknown task: still show something useful
            print(json.dumps(response, sort_keys=True), file=out)


def run_shell(
    backend,
    source: Optional[Iterable[str]] = None,
    graph: Optional[str] = None,
    json_mode: bool = False,
    seed: int = 0,
    out: Optional[TextIO] = None,
) -> int:
    """Drive a shell to completion; returns a process exit code.

    Interactive sessions (stdin is a TTY) always exit 0; scripted runs
    exit 1 if any command failed, so CI piping commands in can gate on
    the result.
    """
    lines = source if source is not None else sys.stdin
    interactive = source is None and sys.stdin.isatty()
    shell = ReproShell(backend, out=out, json_mode=json_mode, seed=seed)
    try:
        if graph is not None:
            shell.open_graph(graph)
            if shell.errors:
                return 1
        shell.run(lines, prompt=interactive)
    finally:
        backend.close()
    if interactive:
        return 0
    return 1 if shell.errors else 0
