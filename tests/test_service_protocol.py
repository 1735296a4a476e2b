"""Wire-protocol properties: envelopes over real sockets, adversarially.

The daemon's framing contract (:mod:`repro.service.protocol`) is pinned
three ways: hypothesis-generated :class:`Result` envelopes must survive
an ``encode → socket → decode`` round trip bit for bit (including
through a real TCP socket pair with deliberately fragmented writes);
malformed-but-complete frames must come back as *recoverable* errors
while oversized frames are fatal; and a live daemon must answer typed
error envelopes for garbage without dropping well-behaved concurrent
clients.
"""

from __future__ import annotations

import io
import json
import socket
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.envelope import Result
from repro.errors import WireProtocolError
from repro.service.daemon import ReproServer
from repro.service.protocol import (
    encode_frame,
    error_envelope,
    is_error,
    read_frame,
    write_frame,
)

# JSON-clean payload values (what envelopes carry after encode_value).
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=16),
    lambda children: (
        st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=8), children, max_size=3)
    ),
    max_leaves=10,
)

_envelopes = st.builds(
    Result,
    task=st.sampled_from(
        ["connectivity", "pack_cds", "simulate", "error", "stats"]
    ),
    graph=st.text(max_size=20),
    fingerprint=st.text(
        alphabet="0123456789abcdef", min_size=0, max_size=16
    ),
    n=st.integers(min_value=0, max_value=10**6),
    m=st.integers(min_value=0, max_value=10**6),
    seed=st.none() | st.integers(min_value=-(2**31), max_value=2**31),
    params=st.dictionaries(st.text(max_size=8), _json_values, max_size=4),
    payload=st.dictionaries(st.text(max_size=8), _json_values, max_size=4),
)


@settings(max_examples=60, deadline=None)
@given(envelope=_envelopes)
def test_frame_roundtrip_in_memory(envelope):
    """encode_frame → read_frame is the identity on envelope dicts."""
    body = envelope.to_dict()
    stream = io.BytesIO(encode_frame(body))
    decoded = read_frame(stream)
    assert decoded == json.loads(json.dumps(body))
    restored = Result.from_dict(decoded)
    assert restored.canonical_json() == envelope.canonical_json()


@settings(max_examples=20, deadline=None)
@given(envelope=_envelopes, chunk=st.integers(min_value=1, max_value=7))
def test_frame_roundtrip_over_socket_pair(envelope, chunk):
    """Fragmented writes over a real socket still decode to one frame.

    The payload is dribbled ``chunk`` bytes at a time, so ``read_frame``
    must reassemble partial reads transparently.
    """
    left, right = socket.socketpair()
    try:
        data = encode_frame(envelope.to_dict())

        def dribble():
            for start in range(0, len(data), chunk):
                left.sendall(data[start:start + chunk])

        writer = threading.Thread(target=dribble)
        writer.start()
        with right.makefile("rb") as stream:
            decoded = read_frame(stream)
        writer.join()
        assert decoded == json.loads(json.dumps(envelope.to_dict()))
    finally:
        left.close()
        right.close()


def test_read_frame_eof_and_malformed():
    assert read_frame(io.BytesIO(b"")) is None  # clean EOF
    with pytest.raises(WireProtocolError) as excinfo:
        read_frame(io.BytesIO(b"{not json}\n"))
    assert excinfo.value.recoverable
    with pytest.raises(WireProtocolError) as excinfo:
        read_frame(io.BytesIO(b'"a string, not an object"\n'))
    assert excinfo.value.recoverable
    with pytest.raises(WireProtocolError) as excinfo:
        read_frame(io.BytesIO(b"\xff\xfe invalid utf8\n"))
    assert excinfo.value.recoverable


def test_read_frame_oversized_is_fatal():
    huge = b'{"pad": "' + b"x" * 256 + b'"}\n'
    with pytest.raises(WireProtocolError) as excinfo:
        read_frame(io.BytesIO(huge), max_bytes=64)
    assert not excinfo.value.recoverable


def test_error_envelope_shape():
    envelope = error_envelope("boom", "bad-request", op="estimate")
    body = envelope.to_dict()
    assert is_error(body)
    assert body["payload"] == {"error": "boom", "error_type": "bad-request"}
    assert body["params"] == {"op": "estimate"}
    # still a valid Result on the client side
    assert Result.from_dict(body).task == "error"


# -- against a live daemon -------------------------------------------------


@pytest.fixture
def daemon():
    server = ReproServer(("127.0.0.1", 0))
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
        assert not thread.is_alive()


def _client(server):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
    return sock, sock.makefile("rb"), sock.makefile("wb")


def test_daemon_answers_malformed_line_and_keeps_serving(daemon):
    sock, reader, writer = _client(daemon)
    try:
        writer.write(b"this is not json\n")
        writer.flush()
        response = read_frame(reader)
        assert is_error(response)
        assert response["payload"]["error_type"] == "protocol"
        # same connection still works afterwards
        write_frame(writer, {"op": "ping"})
        assert read_frame(reader)["task"] == "ping"
    finally:
        sock.close()


def test_daemon_closes_connection_on_oversized_frame(daemon):
    daemon.max_frame_bytes = 1024
    sock, reader, writer = _client(daemon)
    try:
        writer.write(b'{"pad": "' + b"x" * 4096 + b'"}\n')
        writer.flush()
        response = read_frame(reader)
        assert is_error(response)
        assert response["payload"]["error_type"] == "protocol-fatal"
        assert reader.readline() == b""  # server hung up
    finally:
        sock.close()
    # the daemon itself survives: a new connection works
    sock2, reader2, writer2 = _client(daemon)
    try:
        write_frame(writer2, {"op": "ping"})
        assert read_frame(reader2)["task"] == "ping"
    finally:
        sock2.close()


def test_daemon_request_id_echo_and_unknown_op(daemon):
    sock, reader, writer = _client(daemon)
    try:
        write_frame(writer, {"op": "ping", "id": 7})
        response = read_frame(reader)
        assert response["id"] == 7 and response["task"] == "ping"
        write_frame(writer, {"op": "no-such-op", "id": "x"})
        response = read_frame(reader)
        assert response["id"] == "x"
        assert is_error(response)
        assert response["payload"]["error_type"] == "service"
    finally:
        sock.close()


def test_daemon_concurrent_clients_share_warm_sessions(daemon):
    """N concurrent clients hammer one graph; every response is a valid
    envelope and the daemon canonicalizes the graph once."""
    results = []
    lock = threading.Lock()

    def client(worker: int):
        sock, reader, writer = _client(daemon)
        try:
            for i in range(5):
                write_frame(
                    writer,
                    {"op": "estimate", "graph": "harary:4,12", "seed": 1,
                     "id": f"{worker}:{i}"},
                )
                response = read_frame(reader)
                with lock:
                    results.append(response)
        finally:
            sock.close()

    threads = [threading.Thread(target=client, args=(w,)) for w in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(results) == 20
    canonical = {
        Result.from_dict(r).canonical_json() for r in results
    }
    assert len(canonical) == 1  # identical envelope for everyone
    assert not any(is_error(r) for r in results)
    stats = daemon.core.handle({"op": "stats"})["payload"]
    assert stats["cache"]["misses"] == 1  # one session built, ever
    assert stats["cache"]["hits"] == 19
