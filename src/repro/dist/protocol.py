"""Length-prefixed framed pickle protocol for distributed dispatch.

Every frame is a 4-byte big-endian payload length followed by a pickled
``dict`` with a ``type`` field.  Pickle is the right trade-off here because
the payloads *are* Python objects — chunk functions and initializers cross
the wire by reference, providers and campaign configs by value — exactly as
they already cross the supervised worker pipe on one host.

Security note: unpickling grants arbitrary code execution to anyone who can
write to the socket.  The protocol is for **trusted cluster networks only**
— the coordinator binds to loopback by default, and binding a routable
address is an explicit operator decision (same trust model as
``multiprocessing.connection``).

Framing rules:

* a clean EOF *between* frames reads as ``None`` (the peer hung up);
* an EOF *inside* a frame (torn header or body) raises
  :class:`ProtocolError` — the stream is unrecoverable and the connection
  must be dropped;
* frames above :data:`MAX_FRAME_BYTES` are rejected before allocation, so a
  corrupt length prefix cannot balloon memory.
"""

from __future__ import annotations

import pickle
import socket
import struct

from repro.errors import ReproError

PROTOCOL_VERSION = 1

#: 4-byte big-endian unsigned frame length.
HEADER = struct.Struct(">I")

#: Upper bound on one frame; campaign partials are far smaller.
MAX_FRAME_BYTES = 256 * 1024 * 1024

# Message types.  Worker → coordinator: hello, next, done, fail, heartbeat,
# metrics.  Coordinator → worker: welcome, work, wait, stand_down.
MSG_HELLO = "hello"
MSG_WELCOME = "welcome"
MSG_NEXT = "next"
MSG_WORK = "work"
MSG_WAIT = "wait"
MSG_DONE = "done"
MSG_FAIL = "fail"
MSG_HEARTBEAT = "heartbeat"
MSG_METRICS = "metrics"
MSG_STAND_DOWN = "stand_down"


class ProtocolError(ReproError):
    """The framed stream is torn or carries an undecodable frame."""


def disable_nagle(sock: socket.socket) -> None:
    """Send each frame as soon as it is written.

    Peers write small frames back to back (``done`` then ``next``).  With
    Nagle's algorithm the second frame waits for the first one's ACK, which
    the receiver delays because it has nothing to send back, stalling every
    lease round trip by the delayed-ACK timeout (~40 ms on Linux).
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def send_frame(sock: socket.socket, message: dict) -> None:
    """Serialize and send one framed message (blocking, whole frame)."""
    blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(blob) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"refusing to send a {len(blob)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    sock.sendall(HEADER.pack(len(blob)) + blob)


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    """Read exactly ``size`` bytes; short data means the peer hung up."""
    buffer = bytearray()
    while len(buffer) < size:
        piece = sock.recv(size - len(buffer))
        if not piece:
            break
        buffer += piece
    return bytes(buffer)


def recv_frame(sock: socket.socket):
    """Receive one framed message.

    Returns the decoded ``dict``, or ``None`` on a clean EOF between
    frames.  Raises :class:`ProtocolError` for a torn frame, an oversized
    length prefix, or a payload that is not a message dict.
    """
    header = _recv_exact(sock, HEADER.size)
    if not header:
        return None
    if len(header) < HEADER.size:
        raise ProtocolError("connection dropped inside a frame header")
    (length,) = HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (limit {MAX_FRAME_BYTES})"
        )
    body = _recv_exact(sock, length)
    if len(body) < length:
        raise ProtocolError("connection dropped inside a frame body")
    try:
        message = pickle.loads(body)
    except Exception as exc:
        raise ProtocolError(f"undecodable frame: {exc!r}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(f"frame is not a typed message: {message!r}")
    return message
