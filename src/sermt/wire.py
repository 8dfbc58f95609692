"""Byte-exact message framing.

Layout: `type:1 | sender_id:4 | payload_len:2 | payload | chain_key_len:1 |
chain_key | mac:20`.  All integers big-endian.  The MAC always covers
type || payload || sender_id || chain_key; what varies per message type is
the keying: data frames (EMD, DATA) use the nested construction
HMAC(GBK, HMAC(session_key, base)), everything else is keyed with the
global key GBK directly.

A `Frame` is an immutable tuple: its five fields, then its size on the
wire in bytes, computed once when it is made.  Every way of making one
(the constructor, `_replace`, `decode_frame`, copy and pickle) goes
through `Frame.__new__`, which checks that each field fits the wire.
A message type's byte and name are read from the tables `TYPE_BYTE` and
`TYPE_NAME`, not through the Enum, whose `name` property costs about five
table reads.
"""

from __future__ import annotations

import struct
from enum import IntEnum
from operator import itemgetter

from . import crypto

HEADER_LEN = 1 + 4 + 2          # type + sender_id + payload_len
MAX_PAYLOAD = 0xFFFF
MAX_CHAIN_KEY = 0xFF
_FIXED_LEN = HEADER_LEN + 1 + crypto.TAG_LEN   # header, chain_key_len and mac


class FrameFormatError(ValueError):
    """Frame bytes do not parse."""


class MsgType(IntEnum):
    TEST = 1            # trust-probe from a server or relay
    RQM = 2             # request to evaluate a region, relayed outward
    BLOCKED_LIST = 3    # region blocked/threat report back to the server
    FORW_RQM = 4        # gateway solicits one-hop forwarder candidates
    ACK = 5             # candidate reply carrying (BP, C) or (BP, TV)
    PUBKEY = 6          # public-key transport for ECDH
    EMD = 7             # encrypted measurement data, gateway -> forwarder
    JOIN_RQM = 8        # cluster join solicitation from a data carrier
    CLUSTER_ID = 9      # cluster identity assignment to members
    DATA = 10           # encrypted intra-cluster / relay data
    AGG_DATA = 11       # encrypted aggregate toward a control center
    ANCHOR_BCAST = 12   # server broadcast: new public key / chain anchor

# Frames whose MAC is nested under a pairwise session secret.
NESTED_MAC_TYPES = frozenset({MsgType.EMD, MsgType.DATA})
# Frames that carry readings.
DATA_TYPES = NESTED_MAC_TYPES | {MsgType.AGG_DATA}


# A type's byte in the MAC base and its name in the trace, by type value.
TYPE_BYTE = {t: bytes((t,)) for t in MsgType}
TYPE_NAME = {t: t.name for t in MsgType}

_new_tuple = tuple.__new__
_sender_bytes = struct.Struct(">I").pack


class Frame(tuple):
    """(msg_type, sender_id, payload, chain_key, mac), and last the frame's
    wire size in bytes (a small int, shared, for every frame under 257
    bytes).  Fields read by name; a frame compares and hashes by value and
    cannot be changed once made."""

    __slots__ = ()
    _fields = ("msg_type", "sender_id", "payload", "chain_key", "mac")

    def __new__(cls, msg_type: MsgType, sender_id: int, payload: bytes,
                chain_key: bytes = b"", mac: bytes = b"\x00" * crypto.TAG_LEN) -> Frame:
        # every field fits its wire field: no frame the wire cannot carry is ever made
        if len(payload) > MAX_PAYLOAD:
            raise FrameFormatError(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
        if not 0 <= sender_id <= 0xFFFFFFFF:
            raise FrameFormatError(f"sender_id {sender_id} out of range")
        if len(chain_key) > MAX_CHAIN_KEY:
            raise FrameFormatError("chain key too long")
        if len(mac) != crypto.TAG_LEN:
            raise FrameFormatError(f"mac must be {crypto.TAG_LEN} bytes")
        return _new_tuple(cls, (msg_type, sender_id, payload, chain_key, mac,
                                _FIXED_LEN + len(payload) + len(chain_key)))

    msg_type = property(itemgetter(0))
    sender_id = property(itemgetter(1))
    payload = property(itemgetter(2))
    chain_key = property(itemgetter(3))
    mac = property(itemgetter(4))
    wire_len = property(itemgetter(5))

    @property
    def wire_bits(self) -> int:
        return 8 * self[5]

    def _replace(self, **changes) -> Frame:
        """This frame with the named fields changed, checked as a new one."""
        return Frame(**dict(zip(self._fields, self), **changes))

    def __getnewargs__(self) -> tuple:
        return self[:5]         # copy and pickle make the frame through __new__

    def __repr__(self) -> str:
        return "Frame(" + ", ".join(f"{name}={value!r}"
                                    for name, value in zip(self._fields, self)) + ")"


def mac_base(msg_type: int, sender_id: int, payload: bytes, chain_key: bytes) -> bytes:
    return TYPE_BYTE[msg_type] + payload + _sender_bytes(sender_id) + chain_key


def make_frame(msg_type: MsgType, sender_id: int, payload: bytes, *,
               gbk: bytes, session_key: bytes | None = None,
               chain_key: bytes = b"") -> Frame:
    """Build a frame with the correct MAC for its type."""
    if type(msg_type) is not MsgType:
        msg_type = MsgType(msg_type)
    base = mac_base(msg_type, sender_id, payload, chain_key)
    if msg_type in NESTED_MAC_TYPES:
        if session_key is None:
            raise ValueError(f"{TYPE_NAME[msg_type]} frames need a session key")
        mac = crypto.nested_hmac(gbk, session_key, base)
    else:
        mac = crypto.hmac_tag(gbk, base)
    return Frame(msg_type, sender_id, payload, chain_key, mac)


def verify_frame(frame: Frame, *, gbk: bytes, session_key: bytes | None = None) -> bool:
    msg_type, sender_id, payload, chain_key, mac, _wire_len = frame
    base = mac_base(msg_type, sender_id, payload, chain_key)
    if msg_type in NESTED_MAC_TYPES:
        if session_key is None:
            return False
        expected = crypto.nested_hmac(gbk, session_key, base)
    else:
        expected = crypto.hmac_tag(gbk, base)
    return crypto.tags_equal(expected, mac)


def encode_frame(frame: Frame) -> bytes:
    """The frame's wire bytes; `Frame` checked every field's size when it
    was made."""
    return b"".join((
        struct.pack(">BIH", frame.msg_type, frame.sender_id, len(frame.payload)),
        frame.payload,
        bytes([len(frame.chain_key)]),
        frame.chain_key,
        frame.mac,
    ))


def decode_frame(buf: bytes) -> Frame:
    if len(buf) < HEADER_LEN:
        raise FrameFormatError("truncated header")
    type_byte, sender_id, payload_len = struct.unpack(">BIH", buf[:HEADER_LEN])
    try:
        msg_type = MsgType(type_byte)
    except ValueError:
        raise FrameFormatError(f"unknown message type {type_byte}") from None
    pos = HEADER_LEN
    if len(buf) < pos + payload_len + 1:
        raise FrameFormatError("truncated payload")
    payload = buf[pos:pos + payload_len]
    pos += payload_len
    key_len = buf[pos]
    pos += 1
    if len(buf) != pos + key_len + crypto.TAG_LEN:
        raise FrameFormatError("frame length does not match declared field sizes")
    chain_key = buf[pos:pos + key_len]
    mac = buf[pos + key_len:]
    return Frame(msg_type, sender_id, payload, chain_key, mac)
