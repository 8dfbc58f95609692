import random

import pytest
from hypothesis import given, settings, strategies as st

from sermt import crypto, wire
from sermt.wire import Frame, FrameFormatError, MsgType

GBK = b"global-key-for-tests"


def test_round_trip_every_type():
    rng = random.Random(1)
    for msg_type in MsgType:
        frame = wire.make_frame(
            msg_type, rng.randrange(2**32), rng.randbytes(rng.randrange(0, 100)),
            gbk=GBK, session_key=b"sess", chain_key=rng.randbytes(20) if rng.random() < 0.5 else b"",
        )
        assert wire.decode_frame(wire.encode_frame(frame)) == frame


def test_wire_layout_is_bit_exact():
    frame = wire.make_frame(MsgType.TEST, 0x01020304, b"ab", gbk=GBK, chain_key=b"\xAA\xBB")
    buf = wire.encode_frame(frame)
    assert buf[0] == 1                      # type
    assert buf[1:5] == b"\x01\x02\x03\x04"  # sender_id
    assert buf[5:7] == b"\x00\x02"          # payload_len
    assert buf[7:9] == b"ab"
    assert buf[9] == 2                      # chain_key_len
    assert buf[10:12] == b"\xAA\xBB"
    assert buf[12:] == frame.mac
    assert len(buf) == frame.wire_len
    assert frame.wire_bits == 8 * len(buf)


def test_decode_rejects_malformed_buffers():
    frame = wire.make_frame(MsgType.DATA, 7, b"xyz", gbk=GBK, session_key=b"k")
    buf = wire.encode_frame(frame)
    with pytest.raises(FrameFormatError):
        wire.decode_frame(buf[:4])
    with pytest.raises(FrameFormatError):
        wire.decode_frame(buf[:-1])
    with pytest.raises(FrameFormatError):
        wire.decode_frame(buf + b"\x00")
    with pytest.raises(FrameFormatError):
        wire.decode_frame(b"\x63" + buf[1:])  # unknown type byte


def test_encode_enforces_field_limits():
    with pytest.raises(FrameFormatError):
        wire.encode_frame(Frame(MsgType.ACK, 2**32, b""))
    with pytest.raises(FrameFormatError):
        wire.encode_frame(Frame(MsgType.ACK, 1, b"x" * 70000))
    with pytest.raises(FrameFormatError):
        wire.encode_frame(Frame(MsgType.ACK, 1, b"", chain_key=b"k" * 300))
    with pytest.raises(FrameFormatError):
        wire.encode_frame(Frame(MsgType.ACK, 1, b"", mac=b"short"))


def test_frame_rejects_a_payload_the_wire_cannot_carry():
    Frame(MsgType.EMD, 1, b"x" * wire.MAX_PAYLOAD)     # the most a frame carries
    with pytest.raises(FrameFormatError, match="65536 bytes"):
        Frame(MsgType.EMD, 1, b"x" * (wire.MAX_PAYLOAD + 1))
    with pytest.raises(FrameFormatError):
        wire.make_frame(MsgType.AGG_DATA, 1, b"x" * 65536, gbk=GBK)


def test_frame_rejects_fields_the_wire_cannot_carry():
    Frame(MsgType.ACK, 0xFFFFFFFF, b"", chain_key=b"k" * wire.MAX_CHAIN_KEY)
    for bad in (dict(sender_id=2**32), dict(sender_id=-1),
                dict(chain_key=b"k" * (wire.MAX_CHAIN_KEY + 1)),
                dict(mac=b"m" * (crypto.TAG_LEN - 1)), dict(mac=b"m" * (crypto.TAG_LEN + 1))):
        fields = dict(msg_type=MsgType.ACK, sender_id=1, payload=b"") | bad
        with pytest.raises(FrameFormatError):
            Frame(**fields)


def test_gbk_mac_verification():
    frame = wire.make_frame(MsgType.RQM, 42, b"evaluate", gbk=GBK, chain_key=b"\x01" * 20)
    assert wire.verify_frame(frame, gbk=GBK)
    assert not wire.verify_frame(frame, gbk=b"wrong")
    # MAC covers every field, including the chain key and the type byte
    for mutated in (
        Frame(MsgType.TEST, 42, b"evaluate", b"\x01" * 20, frame.mac),
        Frame(MsgType.RQM, 43, b"evaluate", b"\x01" * 20, frame.mac),
        Frame(MsgType.RQM, 42, b"evaluatf", b"\x01" * 20, frame.mac),
        Frame(MsgType.RQM, 42, b"evaluate", b"\x02" * 20, frame.mac),
    ):
        assert not wire.verify_frame(mutated, gbk=GBK)


def test_nested_mac_needs_both_keys():
    frame = wire.make_frame(MsgType.EMD, 9, b"cipher", gbk=GBK, session_key=b"xk")
    assert wire.verify_frame(frame, gbk=GBK, session_key=b"xk")
    assert not wire.verify_frame(frame, gbk=GBK, session_key=b"other")
    assert not wire.verify_frame(frame, gbk=b"other", session_key=b"xk")
    assert not wire.verify_frame(frame, gbk=GBK)  # no session key at all
    with pytest.raises(ValueError):
        wire.make_frame(MsgType.DATA, 9, b"cipher", gbk=GBK)


def test_nested_mac_matches_manual_two_step():
    frame = wire.make_frame(MsgType.DATA, 5, b"pp", gbk=GBK, session_key=b"sk")
    base = wire.mac_base(MsgType.DATA, 5, b"pp", b"")
    assert frame.mac == crypto.hmac_tag(GBK, crypto.hmac_tag(b"sk", base))


def test_forged_random_macs_rejected():
    rng = random.Random(3)
    for _ in range(100):
        forged = Frame(MsgType.ANCHOR_BCAST, 1, b"new anchor", b"", rng.randbytes(20))
        assert not wire.verify_frame(forged, gbk=GBK)


_frames = st.builds(Frame, st.sampled_from(MsgType), st.integers(0, 0xFFFFFFFF),
                    st.binary(max_size=300), st.binary(max_size=wire.MAX_CHAIN_KEY),
                    st.binary(min_size=crypto.TAG_LEN, max_size=crypto.TAG_LEN))


@settings(max_examples=200, deadline=None)
@given(_frames)
def test_codec_round_trips_random_frames(frame):
    decoded = wire.decode_frame(wire.encode_frame(frame))
    assert decoded == frame
    assert isinstance(decoded.msg_type, MsgType)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=80) | _frames.map(wire.encode_frame).flatmap(
    lambda buf: st.integers(0, len(buf)).map(lambda cut: buf[:cut])))
def test_random_bytes_decode_or_raise_only_frame_format_error(buf):
    # whole frames, their truncations and plain noise: a buffer either parses
    # into a frame that encodes back to it, or raises FrameFormatError
    try:
        frame = wire.decode_frame(buf)
    except FrameFormatError:
        return
    assert wire.encode_frame(frame) == buf
