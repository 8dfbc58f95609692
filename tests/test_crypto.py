import ast
import hashlib
import hmac
import os
import random
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import affine_oracle, point_add, process_memos, verify_chain_key
from sermt import crypto
from sermt.crypto import (
    ChainAnchorState,
    CurveParams,
    HashChain,
    InvalidKeyError,
    CipherFormatError,
    AuthenticationError,
)

# Reference vectors for RC5-32/12/16 (Rivest's chained set: each ciphertext
# is the next plaintext).  Frozen; do not regenerate.
RC5_VECTORS = [
    ("00000000000000000000000000000000", "0000000000000000", "21A5DBEE154B8F6D"),
    ("915F4619BE41B2516355A50110A9CE91", "21A5DBEE154B8F6D", "F7C013AC5B2B8952"),
    ("783348E75AEB0F2FD7B169BB8DC16787", "F7C013AC5B2B8952", "2F42B3B70369FC92"),
    ("DC49DB1375A5584F6485B413B5F12BAF", "2F42B3B70369FC92", "65C178B284D197CC"),
    ("5269F149D41BA0152497574D7F153125", "65C178B284D197CC", "EB44E415DA319824"),
]

# Toy group for exhaustive checks: y^2 = x^3 + 5 over GF(7), order 7.
TOY = CurveParams(p=7, a=0, b=5, gx=3, gy=2, n=7)


def test_rc5_reference_vectors():
    for key_hex, pt_hex, ct_hex in RC5_VECTORS:
        schedule = crypto.rc5_key_schedule(bytes.fromhex(key_hex))
        ct = crypto.rc5_encrypt_block(schedule, bytes.fromhex(pt_hex))
        assert ct == bytes.fromhex(ct_hex)
        assert crypto.rc5_decrypt_block(schedule, ct) == bytes.fromhex(pt_hex)


def test_rc5_round_trip_random_payloads():
    rng = random.Random(0xC5)
    for _ in range(50):
        key = rng.randbytes(crypto.RC5_KEY_LEN)
        msg = rng.randbytes(rng.randrange(0, 300))
        assert crypto.rc5_decrypt(key, crypto.rc5_encrypt(key, msg)) == msg


def test_rc5_empty_plaintext_is_one_block():
    ct = crypto.rc5_encrypt(b"\x00" * 16, b"")
    assert len(ct) == crypto.RC5_BLOCK
    assert crypto.rc5_decrypt(b"\x00" * 16, ct) == b""


def test_rc5_kib_payload():
    rng = random.Random(7)
    msg = rng.randbytes(1024)
    key = rng.randbytes(16)
    assert crypto.rc5_decrypt(key, crypto.rc5_encrypt(key, msg)) == msg


def test_rc5_rejects_partial_blocks():
    with pytest.raises(CipherFormatError):
        crypto.rc5_decrypt(b"k" * 16, b"\x00" * 7)
    with pytest.raises(CipherFormatError):
        crypto.rc5_decrypt(b"k" * 16, b"")


def test_rc5_wrong_key_fails_loudly():
    ct = crypto.rc5_encrypt(b"a" * 16, b"some payload bytes")
    rng = random.Random(99)
    for _ in range(20):
        try:
            out = crypto.rc5_decrypt(rng.randbytes(16), ct)
        except CipherFormatError:
            continue
        assert out != b"some payload bytes"


# Reference RC5 as Rivest states it: one block at a time, explicit rotations,
# its own key schedule and framing.  An independent oracle for crypto's
# cached schedules and word-vector rounds.
M32 = 0xFFFFFFFF


def ref_rotl32(x, s):
    s &= 31
    return ((x << s) | (x >> (32 - s))) & M32


def ref_rotr32(x, s):
    s &= 31
    return ((x >> s) | (x << (32 - s))) & M32


def ref_key_schedule(key):
    c = max(1, (len(key) + 3) // 4)
    lwords = [0] * c
    for i, byte in enumerate(key):
        lwords[i // 4] |= byte << (8 * (i % 4))
    t = 2 * (crypto.RC5_ROUNDS + 1)
    s = [0xB7E15163]
    for _ in range(t - 1):
        s.append((s[-1] + 0x9E3779B9) & M32)
    a = b = i = j = 0
    for _ in range(3 * max(t, c)):
        a = s[i] = ref_rotl32((s[i] + a + b) & M32, 3)
        b = lwords[j] = ref_rotl32((lwords[j] + a + b) & M32, a + b)
        i = (i + 1) % t
        j = (j + 1) % c
    return s


def ref_encrypt_block(s, block):
    a, b = struct.unpack("<2L", block)
    a = (a + s[0]) & M32
    b = (b + s[1]) & M32
    for r in range(1, crypto.RC5_ROUNDS + 1):
        a = (ref_rotl32(a ^ b, b) + s[2 * r]) & M32
        b = (ref_rotl32(b ^ a, a) + s[2 * r + 1]) & M32
    return struct.pack("<2L", a, b)


def ref_decrypt_block(s, block):
    a, b = struct.unpack("<2L", block)
    for r in range(crypto.RC5_ROUNDS, 0, -1):
        b = ref_rotr32((b - s[2 * r + 1]) & M32, a) ^ a
        a = ref_rotr32((a - s[2 * r]) & M32, b) ^ b
    b = (b - s[1]) & M32
    a = (a - s[0]) & M32
    return struct.pack("<2L", a, b)


def ref_rc5_encrypt(key, plaintext):
    s = ref_key_schedule(key)
    framed = struct.pack(">I", len(plaintext)) + plaintext
    framed += b"\x00" * (-len(framed) % 8)
    return b"".join(ref_encrypt_block(s, framed[i:i + 8]) for i in range(0, len(framed), 8))


def ref_rc5_decrypt_blocks(key, ciphertext):
    s = ref_key_schedule(key)
    return b"".join(ref_decrypt_block(s, ciphertext[i:i + 8])
                    for i in range(0, len(ciphertext), 8))


def test_an_rc5_body_from_the_memo_is_the_cold_body():
    """A memo hit returns the bytes a cold call computes, and they open
    with `rc5_decrypt`; a body under another key or of another plaintext
    is not served from the same entry."""
    rng = random.Random(0x5EA1)
    key, other_key = rng.randbytes(16), rng.randbytes(16)
    msg, other_msg = rng.randbytes(45), rng.randbytes(45)
    crypto.rc5_encrypt.cache_clear()
    cold = crypto.rc5_encrypt.__wrapped__(key, msg)
    assert crypto.rc5_encrypt(key, msg) == cold           # a miss fills the entry
    assert crypto.rc5_encrypt(key, msg) == cold           # and a hit reads it
    assert crypto.rc5_encrypt.cache_info()[:2] == (1, 1)
    assert crypto.rc5_decrypt(key, crypto.rc5_encrypt(key, msg)) == msg
    assert crypto.rc5_encrypt(key, other_msg) == crypto.rc5_encrypt.__wrapped__(key, other_msg)
    assert crypto.rc5_encrypt(other_key, msg) == crypto.rc5_encrypt.__wrapped__(other_key, msg)
    assert crypto.rc5_decrypt(key, crypto.rc5_encrypt(key, other_msg)) == other_msg
    assert crypto.rc5_decrypt(other_key, crypto.rc5_encrypt(other_key, msg)) == msg
    assert crypto.rc5_encrypt.cache_info()[:2] == (4, 3)


def test_reference_rc5_meets_the_vectors():
    for key_hex, pt_hex, ct_hex in RC5_VECTORS:
        s = ref_key_schedule(bytes.fromhex(key_hex))
        assert ref_encrypt_block(s, bytes.fromhex(pt_hex)) == bytes.fromhex(ct_hex)


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=40), st.binary(max_size=600), st.binary(min_size=8, max_size=600))
def test_rc5_matches_per_block_reference(key, payload, noise):
    ct = crypto.rc5_encrypt(key, payload)
    assert ct == ref_rc5_encrypt(key, payload)
    assert crypto.rc5_decrypt(key, ct) == payload
    # any block-multiple input decrypts word for word like the oracle
    noise = noise[:len(noise) // 8 * 8]
    framed = ref_rc5_decrypt_blocks(key, noise)
    schedule = crypto.rc5_key_schedule(key)
    assert b"".join(crypto.rc5_decrypt_block(schedule, noise[i:i + 8])
                    for i in range(0, len(noise), 8)) == framed
    (n,) = struct.unpack(">I", framed[:4])
    if 4 + n > len(framed) or any(framed[4 + n:]):
        with pytest.raises(CipherFormatError):
            crypto.rc5_decrypt(key, noise)
    else:
        assert crypto.rc5_decrypt(key, noise) == framed[4:4 + n]


def test_rc5_schedule_is_a_cached_tuple():
    key = b"cached-schedule!"
    schedule = crypto.rc5_key_schedule(key)
    assert isinstance(schedule, tuple)
    assert list(schedule) == ref_key_schedule(key)
    assert crypto.rc5_key_schedule(bytes(key)) is schedule


def test_rc5_schedule_equals_the_reference_for_random_keys():
    """The schedule's window rotations give the reference's explicit ones,
    computed cold, for keys of 0 to 40 bytes."""
    rng = random.Random(34)
    for length in [0, 1, 4, 15, 16, 17, 40] + [rng.randrange(41) for _ in range(43)]:
        key = rng.randbytes(length)
        assert list(crypto.rc5_key_schedule.__wrapped__(key)) == ref_key_schedule(key)


def test_generator_on_both_curves():
    assert crypto.SIM_CURVE.contains(crypto.SIM_CURVE.g)
    assert TOY.contains(TOY.g)
    assert crypto.scalar_mult(TOY.n, TOY.g, TOY) is None
    assert crypto.scalar_mult(crypto.SIM_CURVE.n, crypto.SIM_CURVE.g, crypto.SIM_CURVE) is None


def test_scalar_one_is_generator():
    assert crypto.scalar_mult(1, crypto.SIM_CURVE.g, crypto.SIM_CURVE) == crypto.SIM_CURVE.g


def test_scalar_two_matches_hand_doubling():
    # Independent check of 2*G via the tangent-slope formula.
    curve = crypto.SIM_CURVE
    x, y = curve.g
    s = (3 * x * x + curve.a) * pow(2 * y, -1, curve.p) % curve.p
    x2 = (s * s - 2 * x) % curve.p
    y2 = (s * (x - x2) - y) % curve.p
    assert crypto.scalar_mult(2, curve.g, curve) == (x2, y2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 * crypto.SIM_CURVE.n))
def test_generator_path_matches_affine_oracle(k):
    curve = crypto.SIM_CURVE
    assert crypto.scalar_mult(k, curve.g, curve) == affine_oracle(k, curve.g, curve)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 * crypto.SIM_CURVE.n), st.integers(1, crypto.SIM_CURVE.n - 1))
def test_ladder_agrees_with_generator_path(k, m):
    # k * (m * G) takes the variable-base double-and-add; (k * m) * G takes the table.
    curve = crypto.SIM_CURVE
    point = crypto.scalar_mult(m, curve.g, curve)
    assert crypto.scalar_mult(k, point, curve) == crypto.scalar_mult(k * m % curve.n, curve.g, curve)


def curve_point(x, curve):
    """The point with this x and the smaller y, or None when x is not on the curve."""
    rhs = (x * x * x + curve.a * x + curve.b) % curve.p
    y = pow(rhs, (curve.p + 1) // 4, curve.p)   # p = 3 (mod 4)
    if y * y % curve.p != rhs:
        return None
    return (x, min(y, curve.p - y))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, crypto.SIM_CURVE.p - 1), st.booleans(),
       st.integers(0, 2 * crypto.SIM_CURVE.n))
def test_variable_base_path_matches_affine_oracle(x, negate, k):
    curve = crypto.SIM_CURVE
    point = curve_point(x, curve)
    assume(point is not None and point != curve.g)
    if negate:
        point = (point[0], curve.p - point[1])
    assert crypto.scalar_mult(k, point, curve) == affine_oracle(k, point, curve)


def test_variable_base_path_edge_scalars():
    curve = crypto.SIM_CURVE
    n = curve.n
    point = affine_oracle(0xC0FFEE, curve.g, curve)
    edges = [7, 8, 9, 15, 16, 17, n - 1, n + 1, 2 ** 127, 2 ** 127 - 1,
             (1 << 100) - 1, int("8" * 32, 16), int("8" * 31, 16)]
    # k = n - 2|d| for odd d <= 7: where a width-4 NAF recoding's last add
    # meets its own operand (d = -5 on SIM_CURVE)
    edges += [n - 2 * d for d in (1, 3, 5, 7)]
    for k in edges:
        assert crypto.scalar_mult(k, point, curve) == affine_oracle(k, point, curve), hex(k)


# Window edges of the table path, whose digits are recoded into -7..8:
# 8 stays, 9 = 16 - 7 carries, all-9 digits carry through every row, and
# n - 1 (top digit 0xF) carries into the extra row.
SIGNED_DIGIT_EDGES = [0, 1, 7, 8, 9, 15, 16, 17, 0x88, 0x89, 0x98, 2 ** 124,
                      int("8" * 32, 16), int("9" * 31, 16), int("F" * 31, 16),
                      crypto.SIM_CURVE.n - 1, crypto.SIM_CURVE.n, crypto.SIM_CURVE.n + 1]


def test_generator_path_window_edges():
    curve = crypto.SIM_CURVE
    for k in SIGNED_DIGIT_EDGES:
        assert crypto.scalar_mult(k, curve.g, curve) == affine_oracle(k, curve.g, curve), k
    assert crypto.scalar_mult(curve.n - 1, curve.g, curve) == (curve.gx, curve.p - curve.gy)


def test_both_paths_exhaustive_on_toy_curve():
    # n = 7 fits one base-16 digit and no k < 7 carries, so only row 0 is read.
    points = [crypto.scalar_mult(m, TOY.g, TOY) for m in range(1, TOY.n)]
    for k in range(2 * TOY.n + 1):
        for point in points:
            assert crypto.scalar_mult(k, point, TOY) == affine_oracle(k, point, TOY), (k, point)


def reference_table(point, curve):
    """row[i][d] = d * 16**i * point for d in 0..8, one row per base-16
    digit of n and one for the carry, by an affine point_add walk alone."""
    rows = []
    base = point
    for _ in range((curve.n.bit_length() + 3) // 4 + 1):
        row = [None, base]
        for _ in range(7):
            row.append(point_add(row[-1], base, curve))
        rows.append(row)
        base = point_add(row[-1], row[-1], curve)
    return rows


def assert_table_is_reference(point, curve):
    # The table is summed in Jacobian coordinates and batch-inverted per row;
    # it must hold exactly the points an affine point_add walk gives, each
    # packed as x << b | y for the b-bit p.
    table = crypto._base_table(point, curve)
    reference = reference_table(point, curve)
    b = curve.p.bit_length()
    assert len(table) == len(reference)
    for i, (row, want) in enumerate(zip(table, reference)):
        assert len(row) == 9
        for d in range(9):
            packed = None if want[d] is None else want[d][0] << b | want[d][1]
            assert row[d] == packed, (i, d)
    return table


@pytest.mark.parametrize("curve", [crypto.SIM_CURVE, TOY], ids=["sim", "toy"])
def test_generator_table_equals_point_add_reference(curve):
    table = assert_table_is_reference(curve.g, curve)
    if curve is TOY:    # 7G and 7 * 16G are infinity
        assert table[0][7] is None and table[1][7] is None


@pytest.mark.parametrize("curve", [crypto.SIM_CURVE, TOY], ids=["sim", "toy"])
@settings(max_examples=6, deadline=None)
@given(st.data())
def test_table_of_a_non_generator_point_equals_point_add_reference(curve, data):
    m = data.draw(st.integers(2, curve.n - 1), label="m")
    assert_table_is_reference(affine_oracle(m, curve.g, curve), curve)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, crypto.SIM_CURVE.n - 1),
       st.one_of(st.sampled_from(SIGNED_DIGIT_EDGES), st.integers(0, 2 * crypto.SIM_CURVE.n)))
def test_multiply_of_a_sealed_to_point_matches_affine_oracle(d, k):
    # ecc_encrypt multiplies its recipient through the recipient's table.
    curve = crypto.SIM_CURVE
    recipient = affine_oracle(d, curve.g, curve)
    crypto.ecc_encrypt(recipient, b"reading", curve, random.Random(d))
    want = affine_oracle(k, recipient, curve)
    assert crypto.scalar_mult(k, recipient, curve, True) == want
    assert crypto._sealing_mult(k, recipient, curve) == want


def test_table_cache_stays_bounded_when_sealing_to_more_keys_than_it_holds():
    curve = crypto.SIM_CURVE
    rng = random.Random(11)
    bound = crypto._base_table.cache_info().maxsize
    assert bound == crypto.TABLE_CACHE_SIZE
    pairs = [crypto.generate_keypair(curve, rng) for _ in range(bound + 4)]
    crypto._base_table.cache_clear()
    for i, pair in enumerate(pairs):
        blob = crypto.ecc_encrypt(pair.public, b"reading %d" % i, curve, rng)
        # G's table and one per recipient so far, up to the bound
        assert crypto._base_table.cache_info().currsize == min(i + 2, bound)
        assert crypto.ecc_decrypt(pair.private, blob, curve) == b"reading %d" % i
    built = crypto._base_table.cache_info().misses
    assert built == len(pairs) + 1
    crypto.ecc_encrypt(pairs[-1].public, b"again", curve, rng)      # still held
    assert crypto._base_table.cache_info().misses == built
    blob = crypto.ecc_encrypt(pairs[0].public, b"again", curve, rng)  # evicted: rebuilt
    assert crypto._base_table.cache_info().misses == built + 1
    assert crypto._base_table.cache_info().currsize == bound
    assert crypto.ecc_decrypt(pairs[0].private, blob, curve) == b"again"


def test_import_fills_no_crypto_cache():
    """Importing every module of the package, in a fresh interpreter, fills
    no process-wide memo: a run that multiplies G, derives a key or lays out
    a grid pays for it itself, inside its own time."""
    code = ("from conftest import process_memos; print({name: memo.cache_info().currsize "
            "for name, memo in process_memos().items()})")
    env = {**os.environ, "PYTHONPATH": str(Path(crypto.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env, cwd=Path(__file__).parent)
    assert ast.literal_eval(out.stdout) == dict.fromkeys(process_memos(), 0)


def test_every_memo_is_bounded():
    """A memo holds its keys and values for the life of the process, so
    each one has a finite `maxsize`, and an LRU memo holds no more."""
    assert [name for name, memo in process_memos().items()
            if memo.cache_info().maxsize is None] == []


def test_readme_memo_table_gives_every_memo_and_its_bound():
    """README's memo table names each memo the walk finds, once, with its
    `maxsize` as the bound, so the docs cannot fall behind the code."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Process-wide memos\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([\w.]+)` \| [^|]* \| ([\d,]+)", section, re.MULTILINE)
    assert sorted((name, int(bound.replace(",", ""))) for name, bound in rows) == sorted(
        (f"{memo.__module__}.{memo.__qualname__}".removeprefix("sermt."),
         memo.cache_info().maxsize) for memo in set(process_memos().values()))


def test_keypair_deterministic_and_distinct():
    kp1 = crypto.generate_keypair(crypto.SIM_CURVE, random.Random(5))
    kp2 = crypto.generate_keypair(crypto.SIM_CURVE, random.Random(5))
    kp3 = crypto.generate_keypair(crypto.SIM_CURVE, random.Random(6))
    assert kp1 == kp2
    assert kp1.private != kp3.private
    assert kp1.public == crypto.scalar_mult(kp1.private, crypto.SIM_CURVE.g, crypto.SIM_CURVE)


def test_generate_keypair_draws_once_and_multiplies_nothing(monkeypatch):
    mults = []
    monkeypatch.setattr(crypto, "scalar_mult", lambda *args: mults.append(args))
    curve = crypto.SIM_CURVE
    rng, reference = random.Random(21), random.Random(21)
    pair = crypto.generate_keypair(curve, rng)
    assert pair.private == reference.randrange(1, curve.n)
    assert rng.getstate() == reference.getstate()
    assert mults == []


def test_public_key_is_multiplied_on_its_first_read_only(monkeypatch):
    curve = crypto.SIM_CURVE
    pair = crypto.generate_keypair(curve, random.Random(22))
    crypto._long_lived_mult.cache_clear()
    mults = []
    scalar_mult = crypto.scalar_mult

    def counted_mult(*args):
        mults.append(args)
        return scalar_mult(*args)

    monkeypatch.setattr(crypto, "scalar_mult", counted_mult)
    first = pair.public
    assert mults == [(pair.private, curve.g, curve)]
    # the same pair drawn again (the next point of a sweep) reads the memo
    assert crypto.generate_keypair(curve, random.Random(22)).public == first
    assert len(mults) == 1
    crypto._long_lived_mult.cache_clear()
    assert pair.public == first         # the pair keeps no copy: the memo is refilled
    assert len(mults) == 2


def test_keypair_holds_no_instance_dict():
    # the public key lives in _long_lived_mult alone, so reading it adds no
    # per-pair storage
    pair = crypto.generate_keypair(crypto.SIM_CURVE, random.Random(23))
    assert pair.public is not None
    assert not hasattr(pair, "__dict__")


@pytest.mark.parametrize("curve", [crypto.SIM_CURVE, TOY], ids=["sim", "toy"])
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_public_key_equals_affine_oracle(curve, data):
    private = data.draw(st.integers(1, curve.n - 1), label="private")
    pair = crypto.KeyPair(private, curve)
    assert pair.public == affine_oracle(private, curve.g, curve)


def test_ecdh_symmetry_scalars_3_and_5():
    curve = crypto.SIM_CURVE
    pub3 = crypto.scalar_mult(3, curve.g, curve)
    pub5 = crypto.scalar_mult(5, curve.g, curve)
    assert crypto.derive_shared_secret(3, pub5, curve) == crypto.derive_shared_secret(5, pub3, curve)


def test_ecdh_symmetry_exhaustive_on_toy_curve():
    # Every scalar pair on the 7-point group agrees on the secret.
    pubs = {k: crypto.scalar_mult(k, TOY.g, TOY) for k in range(1, TOY.n)}
    for a in range(1, TOY.n):
        for b in range(1, TOY.n):
            assert crypto.derive_shared_secret(a, pubs[b], TOY) == \
                crypto.derive_shared_secret(b, pubs[a], TOY)


def test_ecdh_rejects_off_curve_point():
    bad = (1, 1)
    assert not crypto.SIM_CURVE.contains(bad)
    for _ in range(2):      # the key is checked before the key memo is read
        with pytest.raises(InvalidKeyError):
            crypto.derive_shared_secret(3, bad, crypto.SIM_CURVE)
    with pytest.raises(InvalidKeyError):
        crypto.derive_shared_secret(3, None, crypto.SIM_CURVE)


def test_point_codec_round_trip_and_validation():
    curve = crypto.SIM_CURVE
    p = crypto.scalar_mult(1234567, curve.g, curve)
    assert crypto.decode_point(crypto.encode_point(p, curve), curve) == p
    with pytest.raises(CipherFormatError):
        crypto.decode_point(b"\x00" * 5, curve)
    with pytest.raises(InvalidKeyError):
        crypto.decode_point(b"\x01" * (2 * curve.coord_bytes), curve)


def test_hmac_deterministic_and_sensitive():
    tag = crypto.hmac_tag(b"key", b"message")
    assert tag == crypto.hmac_tag(b"key", b"message")
    assert len(tag) == crypto.TAG_LEN
    rng = random.Random(11)
    for _ in range(50):
        msg = bytearray(rng.randbytes(40))
        base = crypto.hmac_tag(b"key", bytes(msg))
        pos = rng.randrange(len(msg) * 8)
        msg[pos // 8] ^= 1 << (pos % 8)
        assert crypto.hmac_tag(b"key", bytes(msg)) != base


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=100), st.binary(max_size=300))
def test_hmac_tag_matches_hmac_module(key, message):
    # keys over the 64-byte SHA-1 block are hashed first; empty messages are fine
    assert crypto.hmac_tag(key, message) == hmac.new(key, message, hashlib.sha1).digest()


def stdlib_tag(key, message):
    return hmac.new(key, message, hashlib.sha1).digest()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 130).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
       st.binary(max_size=200), st.binary(max_size=130))
@example(bytes(63), b"m", b"k" * 64)
@example(b"\x36" * 64, b"", b"\x5c" * 65)
@example(b"\xff" * 65, b"x" * 200, b"")
def test_hmac_tags_equal_stdlib_for_every_key_length(key, message, inner_key):
    """hmac_tag from cached pad contexts is stdlib HMAC-SHA1 for keys of 0
    to 130 bytes (63, 64 and 65 in the examples), and nested_hmac is
    stdlib HMAC of stdlib HMAC."""
    assert crypto.hmac_tag(key, message) == stdlib_tag(key, message)
    assert (crypto.nested_hmac(key, inner_key, message)
            == stdlib_tag(key, stdlib_tag(inner_key, message)))


def test_hmac_tag_every_key_length_past_the_pad_cache():
    """Each key length 0-130 twice, each pass more keys than the pad cache
    holds, so the second pass recomputes evicted contexts: every tag still
    equals stdlib's, and a reused context never carries a message over."""
    assert crypto.HMAC_PAD_CACHE_SIZE < 131
    rng = random.Random(5)
    keys = [rng.randbytes(n) for n in range(131)]
    for _ in range(2):
        for key in keys:
            for message in (b"", rng.randbytes(rng.randrange(1, 150))):
                assert crypto.hmac_tag(key, message) == stdlib_tag(key, message)


def test_hmac_tag_rfc2202_vectors():
    # HMAC-SHA1 test cases 1, 2, 6 and 7 of RFC 2202 (6 and 7: an 80-byte key)
    for key, message, tag in (
            (b"\x0b" * 20, b"Hi There", "b617318655057264e28bc0b6fb378c8ef146be00"),
            (b"Jefe", b"what do ya want for nothing?",
             "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"),
            (b"\xaa" * 80, b"Test Using Larger Than Block-Size Key - Hash Key First",
             "aa4ae5e15272d00e95705637ce8a3b55ed402112"),
            (b"\xaa" * 80, b"Test Using Larger Than Block-Size Key and Larger Than One "
                           b"Block-Size Data", "e8e99d0f45237d786d6bbaa7965c7808bbff1a91")):
        assert crypto.hmac_tag(key, message) == bytes.fromhex(tag)


def test_nested_hmac_matches_manual_composition():
    inner = crypto.hmac_tag(b"xk-secret", b"payload")
    assert crypto.nested_hmac(b"gbk", b"xk-secret", b"payload") == crypto.hmac_tag(b"gbk", inner)


def test_nested_hmac_requires_outer_key():
    tag = crypto.nested_hmac(b"gbk", b"xk", b"data")
    assert crypto.nested_hmac(b"not-gbk", b"xk", b"data") != tag


def chain_keys(seed, length):
    """The reference chain K_1..K_n, built as a list one hash at a time."""
    keys = [hashlib.sha1(seed).digest()]
    while len(keys) < length:
        keys.append(hashlib.sha1(keys[-1]).digest())
    return keys


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=24), st.integers(1, 70))
def test_hash_chain_releases_the_reference_chain(seed, length):
    """The anchor is K_n; `next_key` hands out K_{n-1} down to K_1, with
    `remaining` counting down, and then raises."""
    keys = chain_keys(seed, length)
    chain = HashChain(seed, length)
    assert chain.anchor == keys[-1]
    assert chain.anchor is chain.anchor          # one object, however often it is read
    for index in range(length - 1, 0, -1):
        assert chain.remaining == index and not chain.exhausted
        assert chain.next_key() == keys[index - 1]
    assert chain.remaining == 0 and chain.exhausted
    with pytest.raises(crypto.ChainExhaustedError):
        chain.next_key()
    assert chain.anchor == keys[-1]


def test_chains_from_one_seed_share_keys_but_not_a_cursor():
    """Two chains from one (seed, length) hold one blob, computed once, and
    each releases every key itself: releasing from or exhausting one
    leaves the other where it was."""
    crypto._chain_keys.cache_clear()
    first, second = HashChain(b"one-seed", 6), HashChain(b"one-seed", 6)
    assert first._blob is second._blob
    assert crypto._chain_keys.cache_info().misses == 1
    assert first.anchor == second.anchor == chain_keys(b"one-seed", 6)[-1]
    released = [first.next_key(), first.next_key()]
    assert first.remaining == 3 and second.remaining == 5
    for _ in range(3):
        first.next_key()
    assert first.exhausted and not second.exhausted
    with pytest.raises(crypto.ChainExhaustedError):
        first.next_key()
    assert [second.next_key() for _ in range(5)][:2] == released
    assert second.exhausted
    with pytest.raises(crypto.ChainExhaustedError):
        second.next_key()
    assert HashChain(b"one-seed", 5).anchor == chain_keys(b"one-seed", 5)[-1]


def test_anchor_state_has_no_instance_dict():
    assert not hasattr(ChainAnchorState(b"\0" * 20), "__dict__")


def test_chain_structure():
    chain = HashChain(b"seed", 8)
    keys = [chain.next_key() for _ in range(7)]
    assert chain.exhausted
    # released keys are K_7 .. K_1; hashing each gives the previous release
    rolling = chain.anchor
    for key in keys:
        assert crypto.sha1_digest(key) == rolling
        rolling = key
    with pytest.raises(crypto.ChainExhaustedError):
        chain.next_key()
    with pytest.raises(ValueError):
        HashChain(b"seed", 0)


def test_verify_chain_key_step_counts():
    chain = HashChain(b"s", 16)
    anchor = chain.anchor
    assert verify_chain_key(anchor, anchor, 4) == (True, 0)
    k15 = chain.next_key()
    accepted, steps = verify_chain_key(k15, anchor, 4)
    assert accepted and steps == 1
    with pytest.raises(ValueError):
        verify_chain_key(anchor, anchor, 0)


def test_verify_chain_key_rejects_random_strings():
    chain = HashChain(b"forge-me", 16)
    rng = random.Random(21)
    for _ in range(200):
        accepted, _ = verify_chain_key(rng.randbytes(20), chain.anchor, 64)
        assert not accepted


def test_anchor_state_accepts_exactly_the_unconsumed_suffix():
    # Exhaustive over a short chain: at each state, exactly the strictly
    # earlier keys are acceptable, and each acceptance advances the head.
    for length in (2, 5, 9):
        all_keys = chain_keys(b"suffix", length)  # K_1..K_n
        state = ChainAnchorState(HashChain(b"suffix", length).anchor, max_steps=64)
        for release in range(length - 2, -1, -1):  # indices of K_{n-1}..K_1
            candidate = all_keys[release]
            # everything at or after the current head must be rejected
            for later in all_keys[release + 1:]:
                assert not state.accept(later)
            assert state.accept(candidate)
            assert not state.accept(candidate)  # replay


def offer_all(state, candidates):
    """Offer each candidate to state and check it against the reference walk:
    accept iff verify_chain_key reaches the head in one or more steps."""
    head = state.head
    for candidate in candidates:
        accepted, steps = verify_chain_key(candidate, head, state.max_steps)
        expected = candidate if accepted and steps >= 1 else head
        assert state.accept(candidate) == (expected != head)
        assert state.head == expected
        head = expected


@settings(max_examples=80, deadline=None)
@given(st.binary(min_size=1, max_size=8), st.integers(1, 150), st.integers(1, 80), st.data())
def test_cached_accept_matches_reference_walk(seed, length, max_steps, data):
    keys = chain_keys(seed, length)  # K_1..K_n
    state = ChainAnchorState(data.draw(st.sampled_from(keys)), max_steps)
    key_or_forgery = st.one_of(st.sampled_from(keys), st.binary(min_size=20, max_size=20))
    candidates = data.draw(st.lists(key_or_forgery, max_size=40))
    offer_all(state, [c for c in candidates for _ in range(2)])  # each one then its replay


@settings(max_examples=15, deadline=None)
@given(st.binary(min_size=1, max_size=8), st.integers(1, 80), st.data())
def test_cached_accept_matches_reference_walk_past_eviction(seed, max_steps, data):
    capacity = crypto._chain_walk.cache_info().maxsize
    keys = chain_keys(seed, 150)
    forgeries = data.draw(st.lists(st.binary(min_size=20, max_size=20),
                                   min_size=capacity + 1, max_size=2 * capacity, unique=True))
    genuine = data.draw(st.lists(st.sampled_from(keys), max_size=capacity))
    order = data.draw(st.permutations(forgeries + genuine))
    # the second pass finds the first pass's earliest walks evicted
    offer_all(ChainAnchorState(keys[-1], max_steps), order + order)
    assert crypto._chain_walk.cache_info().currsize == capacity


def counted_sha1(monkeypatch):
    calls = []
    real = crypto.sha1_digest
    monkeypatch.setattr(crypto, "sha1_digest", lambda data: calls.append(data) or real(data))
    return calls


def test_genuine_next_key_costs_one_hash(monkeypatch):
    keys = chain_keys(b"one-hash", 8)
    state = ChainAnchorState(keys[-1])
    calls = counted_sha1(monkeypatch)
    assert state.accept(keys[-2])
    assert calls == [keys[-2]]


def test_forged_key_is_walked_once_for_all_receivers(monkeypatch):
    anchor = HashChain(b"shared-walk", 8).anchor
    receivers = [ChainAnchorState(anchor, max_steps=64) for _ in range(5)]
    forged = random.Random(3).randbytes(20)
    crypto._chain_walk.cache_clear()
    calls = counted_sha1(monkeypatch)
    assert not any(state.accept(forged) for state in receivers)
    # one step-1 check per receiver, plus one 64-step walk shared by all
    assert len(calls) == 5 + 64


def test_ecc_round_trip_and_wrong_key():
    curve = crypto.SIM_CURVE
    rng = random.Random(31)
    kp = crypto.generate_keypair(curve, rng)
    other = crypto.generate_keypair(curve, rng)
    msg = b"aggregate measurement block"
    ct = crypto.ecc_encrypt(kp.public, msg, curve, rng)
    assert crypto.ecc_decrypt(kp.private, ct, curve) == msg
    with pytest.raises((AuthenticationError, CipherFormatError)):
        crypto.ecc_decrypt(other.private, ct, curve)
    with pytest.raises(CipherFormatError):
        crypto.ecc_decrypt(kp.private, ct[:10], curve)


def test_ecc_encrypt_uses_fresh_ephemeral_keys():
    curve = crypto.SIM_CURVE
    kp = crypto.generate_keypair(curve, random.Random(1))
    header = 2 * curve.coord_bytes
    ct1 = crypto.ecc_encrypt(kp.public, b"same", curve, random.Random(2))
    ct2 = crypto.ecc_encrypt(kp.public, b"same", curve, random.Random(3))
    assert ct1[:header] != ct2[:header]


def test_seal_memo_hit_gives_the_bytes_of_a_cold_seal(monkeypatch):
    """A seal whose (ephemeral scalar, recipient) the memo holds gives the
    same ciphertext as one computed through `__wrapped__`, and the memo's
    entry is exactly what the cold function returns."""
    curve = crypto.SIM_CURVE
    kp = crypto.generate_keypair(curve, random.Random(51))
    crypto._seal_keys.cache_clear()
    first = crypto.ecc_encrypt(kp.public, b"reading", curve, random.Random(52))
    again = crypto.ecc_encrypt(kp.public, b"reading", curve, random.Random(52))
    info = crypto._seal_keys.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    v = random.Random(52).randrange(1, curve.n)
    assert crypto._seal_keys(v, kp.public, curve) == \
        crypto._seal_keys.__wrapped__(v, kp.public, curve)
    monkeypatch.setattr(crypto, "_seal_keys", crypto._seal_keys.__wrapped__)
    cold = crypto.ecc_encrypt(kp.public, b"reading", curve, random.Random(52))
    assert first == again == cold
    assert crypto.ecc_decrypt(kp.private, again, curve) == b"reading"


def test_seal_to_a_bad_key_draws_once_and_is_rejected_every_time(monkeypatch):
    """The recipient key is checked after the ephemeral draw and before the
    seal memo is read: each call draws exactly one scalar, multiplies
    nothing and reads no memo entry, however often the key is offered."""
    curve = crypto.SIM_CURVE
    mults = []
    monkeypatch.setattr(crypto, "scalar_mult", lambda *args: mults.append(args))
    before = crypto._seal_keys.cache_info()
    rng, reference = random.Random(54), random.Random(54)
    for bad in [(1, 1), (1, 1), None]:
        with pytest.raises(InvalidKeyError):
            crypto.ecc_encrypt(bad, b"reading", curve, rng)
        reference.randrange(1, curve.n)
        assert rng.getstate() == reference.getstate()
    assert mults == [] and crypto._seal_keys.cache_info() == before


def test_ecc_tamper_detected():
    curve = crypto.SIM_CURVE
    rng = random.Random(41)
    kp = crypto.generate_keypair(curve, rng)
    ct = bytearray(crypto.ecc_encrypt(kp.public, b"payload", curve, rng))
    ct[2 * curve.coord_bytes] ^= 0x80  # flip a bit inside the RC5 body
    with pytest.raises(AuthenticationError):
        crypto.ecc_decrypt(kp.private, bytes(ct), curve)
    # a forged tag over an intact body: only the tag check can catch it
    forged = bytearray(crypto.ecc_encrypt(kp.public, b"payload", curve, rng))
    forged[-1] ^= 0x01
    with pytest.raises(AuthenticationError):
        crypto.ecc_decrypt(kp.private, bytes(forged), curve)
    assert crypto.ecc_decrypt(kp.private, bytes(forged), curve,
                              verify_tag=False) == b"payload"


# -- a full open of a seal, against the oracles ------------------------------

def outcome(call, *args, **kwargs):
    """What the call returns, or the type of the error it raises."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:       # every crypto error is a ValueError
        return type(exc)


def flipped(data, index):
    out = bytearray(data)
    out[index % len(out)] ^= 0x01
    return bytes(out)


def ref_rc5_open(key, ciphertext):
    """rc5_decrypt by the per-block reference and its own framing check."""
    framed = ref_rc5_decrypt_blocks(key, ciphertext)
    (n,) = struct.unpack(">I", framed[:4])
    if 4 + n > len(framed) or any(framed[4 + n:]):
        raise CipherFormatError("bad padding")
    return framed[4:4 + n]


def ref_ecc_open(private, blob, curve, verify_tag):
    """ecc_decrypt by the affine oracle, hashlib, hmac and the reference RC5."""
    header = 2 * curve.coord_bytes
    ephemeral = crypto.decode_point(blob[:header], curve)
    secret = affine_oracle(private, ephemeral, curve)[0].to_bytes(curve.coord_bytes, "big")
    key = hashlib.sha1(secret).digest()[:crypto.RC5_KEY_LEN]
    body, tag = blob[header:-crypto.TAG_LEN], blob[-crypto.TAG_LEN:]
    if verify_tag and hmac.new(key, body, hashlib.sha1).digest() != tag:
        raise AuthenticationError("tag")
    return ref_rc5_open(key, body)


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=crypto.RC5_KEY_LEN, max_size=crypto.RC5_KEY_LEN),
       st.binary(max_size=200), st.integers(0, 2 ** 16))
def test_rc5_open_of_a_seal_matches_the_reference(key, payload, where):
    ct = crypto.rc5_encrypt(key, payload)
    assert crypto.rc5_decrypt(key, ct) == payload
    for opened_key, opened, want in (
            (key, flipped(ct, where), None),                  # whatever the reference says
            (flipped(key, where), ct, CipherFormatError)):    # fails its padding
        got = outcome(crypto.rc5_decrypt, opened_key, opened)
        assert got == outcome(ref_rc5_open, opened_key, opened)
        assert want is None or got == want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, crypto.SIM_CURVE.n - 1), st.integers(1, crypto.SIM_CURVE.n - 1),
       st.binary(max_size=120), st.integers(0, 2 ** 32), st.integers(0, 2 ** 16))
def test_ecc_open_of_a_seal_matches_the_oracle(old, new, payload, seed, where):
    """`old` and `new` are one server's key history; a sealer still holds
    the old public key."""
    curve = crypto.SIM_CURVE
    assume(new not in (old, curve.n - old))   # d and n - d share the x-only secret
    header = 2 * curve.coord_bytes
    old_public = crypto._long_lived_mult(old, curve.g, curve)
    blob = crypto.ecc_encrypt(old_public, payload, curve, random.Random(seed))
    assert crypto.ecc_decrypt(old, blob, curve) == payload
    body_byte = header + where % (len(blob) - header - crypto.TAG_LEN)
    tag_byte = len(blob) - 1 - where % crypto.TAG_LEN
    for private, opened, verify_tag, want in (
            (new, blob, True, AuthenticationError),      # the newer key, tried first
            (new, blob, False, None),                    # whatever the oracle says
            (old, flipped(blob, body_byte), True, AuthenticationError),
            (old, flipped(blob, tag_byte), True, AuthenticationError),
            (old, flipped(blob, tag_byte), False, payload),
            (old, flipped(blob, body_byte), False, None)):   # whatever the oracle says
        got = outcome(crypto.ecc_decrypt, private, opened, curve, verify_tag=verify_tag)
        assert got == outcome(ref_ecc_open, private, opened, curve, verify_tag)
        assert want is None or got == want
