"""Lightweight security primitives used by the SERMT protocol.

Elliptic-curve key pairs and Diffie-Hellman agreement, RC5 symmetric
encryption, SHA-1 (nested) HMACs, and one-way hash chains for broadcast
authentication.  Parameters are simulation-grade: the point is faithful
protocol behaviour, not real-world security margins.
"""

from __future__ import annotations

import functools
import hashlib
import hmac as _hmac
import struct
from dataclasses import dataclass

TAG_LEN = 20        # SHA-1 HMAC tag length, fixed by the wire format
RC5_ROUNDS = 12
RC5_BLOCK = 8       # RC5-32 operates on two 32-bit words
RC5_KEY_LEN = 16    # reference configuration RC5-32/12/16

_P32 = 0xB7E15163   # RC5 key-schedule magic constants (32-bit word size)
_Q32 = 0x9E3779B9
_MASK32 = 0xFFFFFFFF


class InvalidKeyError(ValueError):
    """Peer public key rejected (off-curve point or degenerate result)."""


class CipherFormatError(ValueError):
    """Ciphertext framing or padding is malformed."""


class AuthenticationError(ValueError):
    """Integrity tag did not verify."""


class ChainExhaustedError(RuntimeError):
    """All keys of a hash chain have been released."""


def sha1_digest(data: bytes) -> bytes:
    return hashlib.sha1(data).digest()


# ---------------------------------------------------------------------------
# Elliptic-curve arithmetic (short Weierstrass; affine API, Jacobian
# double-and-add, fixed-base window tables)

Point = tuple[int, int] | None  # None is the point at infinity


@dataclass(frozen=True)
class CurveParams:
    """y^2 = x^3 + a*x + b over GF(p), generator (gx, gy) of prime order n."""

    p: int
    a: int
    b: int
    gx: int
    gy: int
    n: int

    @property
    def g(self) -> Point:
        return (self.gx, self.gy)

    @property
    def coord_bytes(self) -> int:
        return (self.p.bit_length() + 7) // 8

    def contains(self, point: Point) -> bool:
        if point is None:
            return True
        x, y = point
        if not (0 <= x < self.p and 0 <= y < self.p):
            return False
        return (y * y - (x * x * x + self.a * x + self.b)) % self.p == 0


# secp128r1: small enough to keep scalar multiplication cheap in pure Python.
SIM_CURVE = CurveParams(
    p=0xFFFFFFFDFFFFFFFFFFFFFFFFFFFFFFFF,
    a=0xFFFFFFFDFFFFFFFFFFFFFFFFFFFFFFFC,
    b=0xE87579C11079F43DD824993C2CEE5ED3,
    gx=0x161FF7528B899B2D0C28607CA52C5B86,
    gy=0xCF5AC8395BAFEB13C02DA292DDED7A83,
    n=0xFFFFFFFE0000000075A30D1B9038A115,
)


def point_add(p1: Point, p2: Point, curve: CurveParams) -> Point:
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    p = curve.p
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        s = (3 * x1 * x1 + curve.a) * pow(2 * y1, -1, p) % p
    else:
        s = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (s * s - x1 - x2) % p
    y3 = (s * (x1 - x3) - y1) % p
    return (x3, y3)


# scalar_mult returns an affine point but works in Jacobian coordinates, so
# each multiply costs one modular inversion at the end; point_add above stays
# affine as the independent oracle the tests compare both paths against.
# Which path serves a point:
#
# - k*P through a fixed-base table (Brickell, Gordon, McCurley and Wilson,
#   EUROCRYPT 1992) for the one fixed generator G (every public key read and
#   every ECC ephemeral) and for the recipient of an ecc_encrypt (a server's public
#   key, sealed to many times over): row[i][d] = d * 16**i * P for d in 0..8.
#   k is recoded in base 16 with signed digits in -7..8 (a digit above 8
#   becomes d - 16 and carries one), so k*P is one mixed add of row[i][d],
#   or of its negation (x, p - y), per non-zero digit and no doubling; the
#   carry out of the top digit needs one row more than n has digits.
#   Unsigned digits would need entries up to 15: twice the memory and the
#   build time for the same adds.  Each row is summed in Jacobian
#   coordinates and then made affine with one shared inversion
#   (Montgomery's batch-inversion trick, Math. Comp. 1987).  An entry is
#   held as the one int x << b | y, b the bit length of p, which a multiply
#   splits with a shift and a mask: 20 KB a table where (x, y) tuples take
#   42 KB, and a multiply as fast.  A table costs about three variable-base
#   multiplies (below) to build, and a multiply through it under a fifth of
#   one, so it pays from the fourth use on.
#   _base_table keeps the last TABLE_CACHE_SIZE tables in an LRU cache: G,
#   both servers' keys and the two keys they replaced, which are also the 4
#   keys every point of a sweep seals to.  Each trust round regenerates both
#   server keys, so more entries would only keep retired keys' tables in a
#   long run, and fewer would rebuild them on every point of a sweep.  A table
#   is built on first use, not at import, so a run pays for it inside its own
#   measured time.  P has prime order n, so an entry is infinity only when
#   n <= 8 (7G on TOY), and then k < n is one digit that reads no such
#   entry; _jac_add_affine doubles, or gives infinity, when the running sum
#   meets an entry or its negation, so the sum is exact for every k.
# - k*P on any other point (the session ECDHs of derive_shared_secret and an
#   open the seal memo misses) runs left-to-right double-and-add (Hankerson,
#   Menezes and Vanstone, Guide to Elliptic Curve Cryptography, Alg. 3.27)
#   over the same two Jacobian steps: one doubling per bit of k below the
#   top and one mixed add of P per set bit, about 64 adds for a 128-bit k.
#   For 0 < k < n the sum before each add is 2m * P, m the bits of k above
#   the current one, so 1 <= m <= k/2; the add makes (2m + 1) * P with
#   2m + 1 <= k < n.  So 2m * P is neither P (2 <= 2m < n) nor -P (the sum
#   would be infinity), no add meets its own operand or its negation, and
#   no partial sum is infinity (nor of order 2, which a group of odd order
#   n lacks).
#
# Both paths return the same affine point, so which one serves a multiply
# moves no result.  scalar_mult keeps no cache of its products.  The
# multiplies whose results outlive a message go through _long_lived_mult, an
# LRU memo of 1,024 entries: each public key that is read (a KeyPair holds no
# copy of its own, and a run reads few of its nodes' keys: 37 of 128 on world
# 0 of the `clean` benchmark at seed 7) and each pairwise session's ECDH.  The
# points of a sweep share one seed and layout, so they draw the same key pairs
# and agree the same secrets, and all but the first point read them from the
# memo.  A run's long-lived set is a few dozen multiplies.  The ephemeral k*G
# of ecc_encrypt and both ephemeral ECDHs are used once, and they are most of
# a long run's multiplies, so they bypass the memo: caching them would only
# evict the long-lived entries and grow a run's memory.  The receiver's
# ephemeral ECDH is served by the seal memo below when this process sealed the
# message; only a miss multiplies.

def _jac_double(q: tuple[int, int, int], p: int, a: int) -> tuple[int, int, int] | None:
    x1, y1, z1 = q
    if y1 == 0:
        return None
    ysq = y1 * y1 % p
    s = 4 * x1 * ysq % p
    z1sq = z1 * z1 % p
    m = (3 * x1 * x1 + a * z1sq * z1sq) % p
    x3 = (m * m - 2 * s) % p
    y3 = (m * (s - x3) - 8 * ysq * ysq) % p
    return (x3, y3, 2 * y1 * z1 % p)


def _jac_add_affine(q: tuple[int, int, int] | None, pt: tuple[int, int],
                    p: int, a: int) -> tuple[int, int, int] | None:
    if q is None:
        return (pt[0], pt[1], 1)
    x1, y1, z1 = q
    x2, y2 = pt
    z1sq = z1 * z1 % p
    u2 = x2 * z1sq % p
    s2 = y2 * z1 * z1sq % p
    if u2 == x1:
        if s2 == y1:
            return _jac_double(q, p, a)
        return None
    h = (u2 - x1) % p
    hh = h * h % p
    hhh = h * hh % p
    r = (s2 - y1) % p
    x3 = (r * r - hhh - 2 * x1 * hh) % p
    y3 = (r * (x1 * hh - x3) - y1 * hhh) % p
    return (x3, y3, z1 * h % p)


TABLE_CACHE_SIZE = 5


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _base_table(point: tuple[int, int], curve: CurveParams) -> tuple[tuple[int | None, ...], ...]:
    """row[i][d] = d * 16**i * point for d in 0..8, one row per base-16
    digit of n and one for the carry; a point (x, y) is held as the one int
    x << p.bit_length() | y, and infinity (row[i][0]) as None."""
    p, a = curve.p, curve.a
    shift = p.bit_length()
    rows = []
    base = point
    for _ in range((curve.n.bit_length() + 3) // 4 + 1):
        # d * base for d in 1..8, then 16 * base (the next row's base), in
        # Jacobian coordinates.  An entry that is infinity (7G on TOY) is None.
        jac = [(base[0], base[1], 1)]
        for _ in range(7):
            jac.append(_jac_add_affine(jac[-1], base, p, a))
        jac.append(_jac_double(jac[-1], p, a))
        # Montgomery's trick: prefix[j] is the product of the first j
        # non-infinite z, so one inversion of the whole product yields each
        # 1/z on the walk back.
        prefix = [1]
        for q in jac:
            if q is not None:
                prefix.append(prefix[-1] * q[2] % p)
        inv = pow(prefix[-1], -1, p)
        affine: list[Point] = [None] * 9
        j = len(prefix) - 1
        for d in range(8, -1, -1):
            q = jac[d]
            if q is None:
                continue
            j -= 1
            zinv = inv * prefix[j] % p
            inv = inv * q[2] % p
            zinv2 = zinv * zinv % p
            affine[d] = (q[0] * zinv2 % p, q[1] * zinv2 * zinv % p)
        rows.append((None, *(pt and pt[0] << shift | pt[1] for pt in affine[:8])))
        base = affine[8]
    return tuple(rows)


def scalar_mult(k: int, point: Point, curve: CurveParams, fixed_base: bool = False) -> Point:
    """k * point, affine.  G, and any point of order n when fixed_base is
    set, read a window table; every other point runs double-and-add."""
    if point is None or k % curve.n == 0:
        return None
    k %= curve.n
    p, a = curve.p, curve.a
    acc: tuple[int, int, int] | None = None
    if fixed_base or point == curve.g:
        shift = p.bit_length()
        mask = (1 << shift) - 1
        for row in _base_table(point, curve):
            d = k & 15
            k >>= 4
            if d > 8:
                d -= 16
                k += 1
            if d > 0:
                xy = row[d]
                acc = _jac_add_affine(acc, (xy >> shift, xy & mask), p, a)
            elif d:
                xy = row[-d]
                acc = _jac_add_affine(acc, (xy >> shift, p - (xy & mask)), p, a)
    else:
        acc = (point[0], point[1], 1)
        for bit in bin(k)[3:]:
            acc = _jac_double(acc, p, a)
            if bit == "1":
                acc = _jac_add_affine(acc, point, p, a)
    if acc is None:
        return None
    zinv = pow(acc[2], -1, p)
    zinv2 = zinv * zinv % p
    return (acc[0] * zinv2 % p, acc[1] * zinv2 * zinv % p)


def encode_point(point: Point, curve: CurveParams) -> bytes:
    if point is None:
        raise InvalidKeyError("cannot encode the point at infinity")
    w = curve.coord_bytes
    return point[0].to_bytes(w, "big") + point[1].to_bytes(w, "big")


def decode_point(data: bytes, curve: CurveParams) -> Point:
    w = curve.coord_bytes
    if len(data) != 2 * w:
        raise CipherFormatError(f"point encoding must be {2 * w} bytes, got {len(data)}")
    point = (int.from_bytes(data[:w], "big"), int.from_bytes(data[w:], "big"))
    if not curve.contains(point):
        raise InvalidKeyError("decoded point is not on the curve")
    return point


@functools.lru_cache(maxsize=1024)
def _long_lived_mult(k: int, point: tuple[int, int], curve: CurveParams) -> Point:
    """scalar_mult for a key that outlives one message (see the comment
    above _jac_double); it calls the module global, so a wrapper installed
    on scalar_mult sees every real multiply."""
    return scalar_mult(k, point, curve)


def _sealing_mult(k: int, point: tuple[int, int], curve: CurveParams) -> Point:
    """scalar_mult through the recipient's table (see the comment above
    _jac_double).  The flag goes by position, so a wrapper installed on the
    module global that forwards positional arguments sees the multiply."""
    return scalar_mult(k, point, curve, True)


@dataclass(frozen=True, slots=True)
class KeyPair:
    """A private scalar on its curve.  The public key private * G is not
    computed when the pair is made: each read of `public` goes through
    _long_lived_mult, so the reads of a run and the points of a sweep share
    one multiply, and a read after the memo evicted it multiplies again."""

    private: int
    curve: CurveParams

    @property
    def public(self) -> Point:
        return _long_lived_mult(self.private, self.curve.g, self.curve)


def generate_keypair(curve: CurveParams, rng) -> KeyPair:
    return KeyPair(rng.randrange(1, curve.n), curve)


def _ecdh(private: int, peer_public: Point, curve: CurveParams, mult) -> bytes:
    if peer_public is None or not curve.contains(peer_public):
        raise InvalidKeyError("peer public key is not a valid curve point")
    shared = mult(private, peer_public, curve)
    if shared is None:
        raise InvalidKeyError("degenerate shared point")
    return shared[0].to_bytes(curve.coord_bytes, "big")


def derive_shared_secret(private: int, peer_public: Point, curve: CurveParams) -> bytes:
    """ECDH: x-coordinate of private * peer_public, fixed-width big-endian.
    The peer key is checked before the memo is read, so a rejected key is
    rejected on every call."""
    return _ecdh(private, peer_public, curve, _long_lived_mult)


def cipher_key(secret: bytes) -> bytes:
    """Map a shared secret of any width onto an RC5-32/12/16 key."""
    return sha1_digest(secret)[:RC5_KEY_LEN]


# ---------------------------------------------------------------------------
# Seal memo
#
# A simulated run seals and opens every message in this one process, so the
# opening side would recompute what its sealer held a moment before.  The
# sealing side records it here, and the opening side pops it:
#
# - rc5_encrypt records (key, ciphertext) -> plaintext.  Under one key RC5 is
#   a bijection on blocks, so those ciphertext bytes decrypt to exactly that
#   framing, and rc5_decrypt would return exactly that plaintext.
# - ecc_encrypt records (recipient public Q, ephemeral public E) -> the ECDH
#   secret of v * Q.  ecc_decrypt looks up (d * G, E), with d * G from
#   _long_lived_mult (a recipient's public key is there once it has been
#   read, as its sealer must read it), after decoding and curve-checking E.
#   E = v * G, so when d * G = Q the receiver's d * E = d * v * G = v * Q:
#   the recorded secret.  The tag check and the RC5 open run as before.
#
# Anything the sealer did not make misses and takes the full path: a
# tampered body or header is other bytes, and a wrong or older key is
# another key or another d * G.  An open pops its entry, so an attacker's
# post-run scan of a frame already opened misses too.  A hit returns the
# value the full path would compute, so no result, exception or trace digest
# depends on the memo.  A seal is opened within the event that made it, so
# the memo is a FIFO of SEAL_MEMO_SIZE entries: a seal whose frame was lost
# on the way is evicted by later ones, and memory stays bounded.

SEAL_MEMO_SIZE = 16
_seals: dict[tuple, bytes] = {}     # insertion order is the FIFO order


def _record_seal(lookup: tuple, value: bytes) -> None:
    _seals[lookup] = value
    if len(_seals) > SEAL_MEMO_SIZE:
        del _seals[next(iter(_seals))]


# ---------------------------------------------------------------------------
# RC5-32/12/16 (Rivest, "The RC5 Encryption Algorithm", FSE 1994)
#
# A run uses far fewer distinct keys than it runs the cipher (a link's session
# key serves every reading on the link), so rc5_key_schedule keeps the last 64
# schedules (~80 KB) in an LRU cache keyed by the key bytes; a schedule is a
# tuple, so no caller can change a cached one.  An open that the seal memo
# serves fetches no schedule.  A message is enciphered as one vector of
# little-endian words: x * 0x100000001 holds x twice, so a 32-bit window of it
# is x rotated.  rc5_*_block run the same word loops on a single block.

_TWICE32 = 0x100000001


def _rotl32(x: int, s: int) -> int:
    s &= 31
    return ((x << s) | (x >> (32 - s))) & _MASK32


@functools.lru_cache(maxsize=64)
def rc5_key_schedule(key: bytes) -> tuple[int, ...]:
    c = max(1, (len(key) + 3) // 4)
    lwords = [0] * c
    for i, byte in enumerate(key):  # little-endian byte packing
        lwords[i // 4] |= byte << (8 * (i % 4))
    t = 2 * (RC5_ROUNDS + 1)
    s = [_P32]
    for _ in range(t - 1):
        s.append((s[-1] + _Q32) & _MASK32)
    a = b = i = j = 0
    for _ in range(3 * max(t, c)):
        a = s[i] = _rotl32((s[i] + a + b) & _MASK32, 3)
        b = lwords[j] = _rotl32((lwords[j] + a + b) & _MASK32, a + b)
        i = (i + 1) % t
        j = (j + 1) % c
    return tuple(s)


def _rc5_encrypt_words(schedule: tuple[int, ...], words: tuple[int, ...]) -> list[int]:
    s0, s1 = schedule[0], schedule[1]
    rounds = tuple(zip(schedule[2::2], schedule[3::2]))
    out: list[int] = []
    pairs = iter(words)
    for a, b in zip(pairs, pairs):
        a = (a + s0) & _MASK32
        b = (b + s1) & _MASK32
        for ka, kb in rounds:
            a = (((a ^ b) * _TWICE32 >> (32 - (b & 31))) + ka) & _MASK32
            b = (((b ^ a) * _TWICE32 >> (32 - (a & 31))) + kb) & _MASK32
        out += (a, b)
    return out


def _rc5_decrypt_words(schedule: tuple[int, ...], words: tuple[int, ...]) -> list[int]:
    s0, s1 = schedule[0], schedule[1]
    rounds = tuple(zip(schedule[-2:1:-2], schedule[-1:1:-2]))
    out: list[int] = []
    pairs = iter(words)
    for a, b in zip(pairs, pairs):
        for ka, kb in rounds:
            b = (((b - kb) & _MASK32) * _TWICE32 >> (a & 31) & _MASK32) ^ a
            a = (((a - ka) & _MASK32) * _TWICE32 >> (b & 31) & _MASK32) ^ b
        out += ((a - s0) & _MASK32, (b - s1) & _MASK32)
    return out


def rc5_encrypt_block(schedule: tuple[int, ...], block: bytes) -> bytes:
    return struct.pack("<2L", *_rc5_encrypt_words(schedule, struct.unpack("<2L", block)))


def rc5_decrypt_block(schedule: tuple[int, ...], block: bytes) -> bytes:
    return struct.pack("<2L", *_rc5_decrypt_words(schedule, struct.unpack("<2L", block)))


def rc5_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """Length-prefixed, zero-padded to the block size, ECB across blocks."""
    framed = struct.pack(">I", len(plaintext)) + plaintext
    framed += b"\x00" * (-len(framed) % RC5_BLOCK)
    words = f"<{len(framed) // 4}L"
    ciphertext = struct.pack(words, *_rc5_encrypt_words(rc5_key_schedule(key),
                                                        struct.unpack(words, framed)))
    _record_seal((key, ciphertext), bytes(plaintext))
    return ciphertext


def rc5_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    if not ciphertext or len(ciphertext) % RC5_BLOCK:
        raise CipherFormatError(f"ciphertext length {len(ciphertext)} is not a positive block multiple")
    plaintext = _seals.pop((key, bytes(ciphertext)), None)
    if plaintext is not None:
        return plaintext
    words = f"<{len(ciphertext) // 4}L"
    framed = struct.pack(words, *_rc5_decrypt_words(rc5_key_schedule(key),
                                                    struct.unpack(words, ciphertext)))
    (n,) = struct.unpack(">I", framed[:4])
    if 4 + n > len(framed) or any(framed[4 + n:]):
        raise CipherFormatError("bad padding (wrong key?)")
    return framed[4:4 + n]


# ---------------------------------------------------------------------------
# HMAC / nested HMAC

def hmac_tag(key: bytes, message: bytes) -> bytes:
    return _hmac.new(key, message, hashlib.sha1).digest()


def nested_hmac(outer_key: bytes, inner_key: bytes, message: bytes) -> bytes:
    """Tag = HMAC(outer_key, HMAC(inner_key, message)); outer key is the GBK."""
    return hmac_tag(outer_key, hmac_tag(inner_key, message))


def tags_equal(a: bytes, b: bytes) -> bool:
    return _hmac.compare_digest(a, b)


# ---------------------------------------------------------------------------
# One-way SHA-1 hash chains

class HashChain:
    """Chain K_1..K_n with sha1(K_i) = K_{i+1}; the anchor K_n is public.

    Keys are released in reverse generation order (K_{n-1} first) and each
    at most once; the anchor itself is never released as a proof key.
    """

    def __init__(self, seed: bytes, length: int):
        if length < 1:
            raise ValueError("chain length must be >= 1")
        keys = [sha1_digest(seed)]
        for _ in range(length - 1):
            keys.append(sha1_digest(keys[-1]))
        self._keys = keys            # keys[i] holds K_{i+1}
        self._cursor = length - 1    # 1-based index of the next key to release

    @property
    def anchor(self) -> bytes:
        return self._keys[-1]

    @property
    def exhausted(self) -> bool:
        return self._cursor < 1

    @property
    def remaining(self) -> int:
        return self._cursor

    def next_key(self) -> bytes:
        if self.exhausted:
            raise ChainExhaustedError("hash chain exhausted")
        key = self._keys[self._cursor - 1]
        self._cursor -= 1
        return key


def verify_chain_key(candidate: bytes, anchor: bytes, max_steps: int) -> tuple[bool, int]:
    """Accept iff repeated hashing of candidate reaches anchor within max_steps.

    Returns (accepted, steps_used); candidate == anchor accepts in 0 steps.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    current = candidate
    for steps in range(max_steps + 1):
        if current == anchor:
            return True, steps
        current = sha1_digest(current)
    return False, 0


@functools.lru_cache(maxsize=32)
def _chain_walk(candidate: bytes, max_steps: int) -> frozenset[bytes]:
    """{sha1^1(candidate), ..., sha1^max_steps(candidate)}."""
    walk = []
    current = candidate
    for _ in range(max_steps):
        current = sha1_digest(current)
        walk.append(current)
    return frozenset(walk)


class ChainAnchorState:
    """Receiver-side chain head: accepts only strictly-earlier keys, once.

    A key is accepted iff hashing it 1..max_steps times reaches the head.
    Advancing the head to each accepted key rejects replays — a key at or
    after the head can never hash to it in one or more steps.

    The next key costs one hash. Any other candidate is looked up in its
    walk, which `_chain_walk` computes once per distinct (candidate,
    max_steps) and keeps in a small LRU cache: a broadcast key is checked
    by every receiver in turn, so they share one walk instead of each
    hashing it up to max_steps times. Decisions are the same as walking it.
    """

    def __init__(self, anchor: bytes, max_steps: int = 64):
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        self.head = anchor
        self.max_steps = max_steps

    def accept(self, candidate: bytes) -> bool:
        if (sha1_digest(candidate) == self.head
                or self.head in _chain_walk(candidate, self.max_steps)):
            self.head = candidate
            return True
        return False


# ---------------------------------------------------------------------------
# Hybrid public-key encryption: ephemeral ECDH + RC5 + HMAC

def ecc_encrypt(recipient_public: Point, plaintext: bytes, curve: CurveParams, rng) -> bytes:
    """ephemeral_public || rc5(plaintext) || hmac — only the private-key holder recovers it."""
    v = rng.randrange(1, curve.n)       # the ephemeral key pair, used once: no memo
    ephemeral_public = scalar_mult(v, curve.g, curve)
    secret = _ecdh(v, recipient_public, curve, _sealing_mult)
    _record_seal((recipient_public, ephemeral_public), secret)
    key = cipher_key(secret)
    body = rc5_encrypt(key, plaintext)
    return encode_point(ephemeral_public, curve) + body + hmac_tag(key, body)


def ecc_decrypt(recipient_private: int, ciphertext: bytes, curve: CurveParams, *,
                verify_tag: bool = True) -> bytes:
    """verify_tag=False decrypts without checking the tag (the undefended baseline)."""
    header = 2 * curve.coord_bytes
    if len(ciphertext) < header + RC5_BLOCK + TAG_LEN:
        raise CipherFormatError("ciphertext too short for header + block + tag")
    ephemeral_public = decode_point(ciphertext[:header], curve)
    body = ciphertext[header:-TAG_LEN]
    tag = ciphertext[-TAG_LEN:]
    secret = _seals.pop((_long_lived_mult(recipient_private, curve.g, curve),
                         ephemeral_public), None)
    if secret is None:
        secret = _ecdh(recipient_private, ephemeral_public, curve, scalar_mult)
    key = cipher_key(secret)
    if verify_tag and not tags_equal(hmac_tag(key, body), tag):
        raise AuthenticationError("ciphertext tag mismatch")
    return rc5_decrypt(key, body)
