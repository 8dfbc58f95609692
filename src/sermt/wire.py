"""Byte-exact message framing.

Layout: `type:1 | sender_id:4 | payload_len:2 | payload | chain_key_len:1 |
chain_key | mac:20`.  All integers big-endian.  The MAC always covers
type || payload || sender_id || chain_key; what varies per message type is
the keying: data frames (EMD, DATA) use the nested construction
HMAC(GBK, HMAC(session_key, base)), everything else is keyed with the
global key GBK directly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum

from . import crypto

HEADER_LEN = 1 + 4 + 2          # type + sender_id + payload_len
MAX_PAYLOAD = 0xFFFF
MAX_CHAIN_KEY = 0xFF


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


@dataclass(frozen=True)
class Frame:
    msg_type: MsgType
    sender_id: int
    payload: bytes
    chain_key: bytes = b""
    mac: bytes = b"\x00" * crypto.TAG_LEN

    def __post_init__(self):
        # payload_len is 16 bits: no frame the wire cannot carry is ever made
        if len(self.payload) > MAX_PAYLOAD:
            raise FrameFormatError(f"payload of {len(self.payload)} bytes exceeds {MAX_PAYLOAD}")

    @property
    def wire_len(self) -> int:
        return HEADER_LEN + len(self.payload) + 1 + len(self.chain_key) + crypto.TAG_LEN

    @property
    def wire_bits(self) -> int:
        return 8 * self.wire_len


def mac_base(msg_type: int, sender_id: int, payload: bytes, chain_key: bytes) -> bytes:
    return bytes([msg_type]) + payload + struct.pack(">I", sender_id) + chain_key


def make_frame(msg_type: MsgType, sender_id: int, payload: bytes, *,
               gbk: bytes, session_key: bytes | None = None,
               chain_key: bytes = b"") -> Frame:
    """Build a frame with the correct MAC for its type."""
    base = mac_base(msg_type, sender_id, payload, chain_key)
    if msg_type in NESTED_MAC_TYPES:
        if session_key is None:
            raise ValueError(f"{MsgType(msg_type).name} frames need a session key")
        mac = crypto.nested_hmac(gbk, session_key, base)
    else:
        mac = crypto.hmac_tag(gbk, base)
    return Frame(MsgType(msg_type), sender_id, payload, chain_key, mac)


def verify_frame(frame: Frame, *, gbk: bytes, session_key: bytes | None = None) -> bool:
    base = mac_base(frame.msg_type, frame.sender_id, frame.payload, frame.chain_key)
    if frame.msg_type in NESTED_MAC_TYPES:
        if session_key is None:
            return False
        expected = crypto.nested_hmac(gbk, session_key, base)
    else:
        expected = crypto.hmac_tag(gbk, base)
    return crypto.tags_equal(expected, frame.mac)


def encode_frame(frame: Frame) -> bytes:
    if not 0 <= frame.sender_id <= 0xFFFFFFFF:
        raise FrameFormatError(f"sender_id {frame.sender_id} out of range")
    if len(frame.chain_key) > MAX_CHAIN_KEY:
        raise FrameFormatError("chain key too long")
    if len(frame.mac) != crypto.TAG_LEN:
        raise FrameFormatError(f"mac must be {crypto.TAG_LEN} bytes")
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
