"""Binary wire frame: round-trips plus truncation/garbage fuzz."""

from __future__ import annotations

import io
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import wire
from repro.serve.wire import WireError


# --------------------------------------------------------------- JSON body
def _frame_round_trip(payload: dict) -> dict:
    return wire.read_frame(io.BytesIO(wire.encode_frame(payload)))


class TestJsonBody:
    """The JSON body is the only body codec: every value a request or a
    decision carries must survive one frame unchanged."""

    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 2**62, -(2**62), 2**100, -(2**100),
        0.0, -1.5, 3.141592653589793, 1e-300, "", "hello",
        "κείμενο \U0001f600", "quote \" backslash \\ nl \n",
        [], [1, [2, [3]]], {}, {"a": 1},
        {"nested": {"list": [None, True, {"k": "v"}], "f": 2.5}},
    ])
    def test_round_trip(self, value):
        assert _frame_round_trip({"v": value}) == {"v": value}

    def test_int64_boundaries_stay_ints(self):
        for v in (2**63 - 1, -(2**63), 2**63, -(2**63) - 1):
            out = _frame_round_trip({"v": v})["v"]
            assert type(out) is int and out == v

    def test_dict_key_order_preserved(self):
        obj = {"z": 1, "a": 2, "m": 3}
        assert list(_frame_round_trip(obj)) == ["z", "a", "m"]

    def test_body_is_compact_ascii_json(self):
        frame = wire.encode_frame({"name": "κ", "top": [1, 2]})
        assert frame[wire.HEADER.size:] == b'{"name":"\\u03ba","top":[1,2]}'

    def test_back_to_back_frames_read_in_order(self):
        payloads = [{"op": "ping"}, {"op": "stats"}, {"op": "predict", "i": 2}]
        stream = io.BytesIO(b"".join(wire.encode_frame(p) for p in payloads))
        assert [wire.read_frame(stream) for _ in payloads] == payloads
        with pytest.raises(WireError, match="before a frame header"):
            wire.read_frame(stream)

    def test_empty_body_rejected(self):
        with pytest.raises(WireError, match="undecodable"):
            wire.read_frame(io.BytesIO(wire.frame_for_body(b"")))

    @pytest.mark.parametrize("body", [b"[]", b"1", b'"s"', b"null", b"true"])
    def test_non_object_bodies_rejected(self, body):
        with pytest.raises(WireError, match="must decode to an object"):
            wire.decode_body(body)

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.text(max_size=8), st.recursive(
        st.none() | st.booleans() | st.integers() | st.text()
        | st.floats(allow_nan=False, allow_infinity=False),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4),
        max_leaves=12,
    ), max_size=4))
    def test_round_trip_hypothesis(self, payload):
        assert _frame_round_trip(payload) == payload

    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=64))
    def test_body_fuzz_never_hangs_or_crashes(self, blob):
        # Arbitrary body bytes must either decode to an object or raise
        # WireError; never anything else.
        try:
            payload = wire.read_frame(io.BytesIO(wire.frame_for_body(blob)))
        except WireError:
            return
        assert isinstance(payload, dict)


# ------------------------------------------------------------------ frames
class TestFrames:
    def test_magic_byte_cannot_open_json(self):
        # The whole auto-detection contract: no JSON document's first
        # byte equals the frame magic's first byte.
        assert wire.MAGIC_BYTE == b"\xa5"
        for first in b'{["0123456789tfn- \t\r\n':
            assert bytes([first]) != wire.MAGIC_BYTE

    def test_round_trip(self):
        payload = {"op": "predict", "workload": {"kind": "matrix"}, "top": 3}
        frame = wire.encode_frame(payload)
        assert frame[:1] == wire.MAGIC_BYTE
        assert wire.read_frame(io.BytesIO(frame)) == payload

    def test_frame_is_flag_free_header_plus_json_body(self):
        payload = {"op": "ping"}
        frame = wire.encode_frame(payload)
        body = json.dumps(payload, separators=(",", ":")).encode()
        assert frame == struct.pack(
            "!HBBI", wire.MAGIC, wire.WIRE_VERSION, 0, len(body)
        ) + body
        assert wire.parse_header(frame[:wire.HEADER.size]) == len(body)

    @pytest.mark.parametrize(
        "flags", [0x01, 0x02, 0x80, 0x04, 0x08, 0x10, 0x20, 0x40, 0x03, 0xFF]
    )
    def test_nonzero_flags_rejected(self, flags):
        # Packed (0x01) and routed (0x02) frames from older clients, or
        # any unknown bit or combination, must not be misread as a JSON
        # body.
        header = struct.pack("!HBBI", wire.MAGIC, wire.WIRE_VERSION, flags, 2)
        with pytest.raises(WireError, match=f"flags 0x{flags:02x}"):
            wire.parse_header(header)
        with pytest.raises(WireError, match="flags"):
            wire.read_frame(io.BytesIO(header + b"{}"))

    def test_bad_magic_rejected(self):
        header = struct.pack("!HBBI", 0xDEAD, wire.WIRE_VERSION, 0, 0)
        with pytest.raises(WireError, match="magic"):
            wire.parse_header(header)

    def test_unknown_version_rejected(self):
        header = struct.pack("!HBBI", wire.MAGIC, 99, 0, 0)
        with pytest.raises(WireError, match="version"):
            wire.parse_header(header)

    def test_oversized_length_rejected_before_body_read(self):
        header = struct.pack(
            "!HBBI", wire.MAGIC, wire.WIRE_VERSION, 0, wire.MAX_FRAME + 1
        )
        with pytest.raises(WireError, match="MAX_FRAME"):
            wire.parse_header(header)

    def test_oversized_body_rejected_on_encode(self):
        with pytest.raises(WireError, match="MAX_FRAME"):
            wire.frame_for_body(b"x" * (wire.MAX_FRAME + 1))

    def test_short_header_rejected(self):
        with pytest.raises(WireError, match="short frame header"):
            wire.parse_header(b"\xa5\x5e\x01")

    def test_truncated_stream_rejected(self):
        frame = wire.encode_frame({"op": "predict", "pad": "x" * 64})
        for cut in (0, 3, wire.HEADER.size, len(frame) - 1):
            with pytest.raises(WireError):
                wire.read_frame(io.BytesIO(frame[:cut]))

    def test_undecodable_json_body_rejected(self):
        frame = wire.frame_for_body(b"\xff\xfe not json")
        with pytest.raises(WireError, match="undecodable"):
            wire.read_frame(io.BytesIO(frame))

    def test_non_object_payload_rejected(self):
        frame = wire.frame_for_body(json.dumps([1, 2, 3]).encode())
        with pytest.raises(WireError, match="must decode to an object"):
            wire.read_frame(io.BytesIO(frame))

    @settings(max_examples=50, deadline=None)
    @given(st.binary(min_size=wire.HEADER.size, max_size=32))
    def test_header_fuzz(self, blob):
        try:
            length = wire.parse_header(blob[:wire.HEADER.size])
            assert length <= wire.MAX_FRAME
        except WireError:
            pass
