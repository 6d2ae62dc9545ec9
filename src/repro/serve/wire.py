"""Binary wire frame for the serve tier, with JSON-lines auto-detection.

The serve protocol started as JSON-lines: one ``{"op": ...}`` object per
line, one reply line per request.  That shape survives unchanged as the
**legacy mode**; this module adds the length-prefixed framed
alternative, whose reader never scans for a newline:

``magic (2B) | version (1B) | flags (1B) = 0 | body length (4B)`` —
``struct`` packed, network byte order — followed by the body, which is
the *same* versioned UTF-8 JSON payload the legacy mode carries.  The
C-level ``json`` codec outruns any pure-Python packer on request- and
decision-sized payloads, and one reply body serves both wires: a frame
header or a newline is all that differs.

The flags byte is always zero.  Earlier builds set bits in it for a
packed body codec and an 8-byte routing key; a frame with any flag set
is rejected rather than misread as JSON.

Auto-detection is one byte: frames open with ``0xA5`` (never the first
byte of a JSON document), so a server peeks the first byte of each
message and speaks whichever protocol the client chose — old clients and
``repro stats`` keep working unchanged.

Frame integrity errors raise :class:`WireError` (a
:class:`~repro.errors.ServeError`): bad magic, unknown wire version,
nonzero flags, bodies over :data:`MAX_FRAME`, truncated frames, or
bodies that do not decode to a JSON object.
"""

from __future__ import annotations

import json
import struct
from typing import BinaryIO

from repro.errors import ServeError

__all__ = [
    "HEADER",
    "MAGIC",
    "MAGIC_BYTE",
    "MAX_FRAME",
    "WIRE_VERSION",
    "WireError",
    "decode_body",
    "encode_frame",
    "frame_for_body",
    "parse_header",
    "read_frame",
]


class WireError(ServeError):
    """A binary frame is malformed, truncated, oversized, or unknown."""


#: Frame magic.  The leading byte (``0xA5``) can never open a JSON
#: document (JSON starts with ``{ [ " 0-9 t f n -`` or whitespace), so
#: one peeked byte distinguishes framed from legacy traffic.
MAGIC = 0xA55E
MAGIC_BYTE = bytes([MAGIC >> 8])

#: Version of the *frame layout* (independent of the payload's
#: ``schema_version``, which keeps its own negotiation).
WIRE_VERSION = 1

#: ``magic | version | flags | body length``, network byte order.
HEADER = struct.Struct("!HBBI")

#: Upper bound on one frame body; anything larger is rejected before a
#: single body byte is read (a garbage length must not stall the
#: connection buffering gigabytes).
MAX_FRAME = 16 * 1024 * 1024


def decode_body(body: bytes) -> dict:
    """Decode a JSON frame body back into its payload dict."""
    try:
        payload = json.loads(body)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise WireError(f"undecodable JSON frame body: {exc}") from exc
    if not isinstance(payload, dict):
        raise WireError(
            f"frame body must decode to an object, got "
            f"{type(payload).__name__}"
        )
    return payload


def frame_for_body(body: bytes) -> bytes:
    """Wrap already-encoded JSON body bytes in a frame."""
    if len(body) > MAX_FRAME:
        raise WireError(
            f"frame body {len(body)} bytes exceeds MAX_FRAME {MAX_FRAME}"
        )
    return HEADER.pack(MAGIC, WIRE_VERSION, 0, len(body)) + body


def encode_frame(payload: dict) -> bytes:
    """One payload dict -> one complete frame (header + JSON body)."""
    return frame_for_body(json.dumps(payload, separators=(",", ":")).encode())


def parse_header(header: bytes) -> int:
    """Validate 8 header bytes; returns the body length."""
    if len(header) != HEADER.size:
        raise WireError(
            f"short frame header ({len(header)}/{HEADER.size} bytes)"
        )
    magic, version, flags, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise WireError(f"bad frame magic 0x{magic:04x}")
    if version != WIRE_VERSION:
        raise WireError(
            f"unsupported wire version {version} (this build speaks "
            f"{WIRE_VERSION})"
        )
    if flags:
        raise WireError(
            f"unsupported frame flags 0x{flags:02x} (this build speaks "
            f"flag-free JSON frames only)"
        )
    if length > MAX_FRAME:
        raise WireError(
            f"frame body {length} bytes exceeds MAX_FRAME {MAX_FRAME}"
        )
    return length


def read_frame(stream: BinaryIO) -> dict:
    """Read one complete frame from a blocking file-like stream.

    Returns the decoded payload dict; raises :class:`WireError` on EOF
    mid-frame or a malformed header/body.  (The client side of the
    protocol — the async server reads frames on its own event loop.)
    """
    header = stream.read(HEADER.size)
    if not header:
        raise WireError("connection closed before a frame header")
    length = parse_header(header)
    body = stream.read(length) if length else b""
    if len(body) != length:
        raise WireError(
            f"frame truncated ({len(body)}/{length} body bytes)"
        )
    return decode_body(body)
