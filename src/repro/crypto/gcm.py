"""AES-GCM authenticated encryption (NIST SP 800-38D).

GHASH uses per-nibble-position multiplication tables precomputed from the
hash subkey (32 positions x 16 entries: the 4-bit tables of McGrew &
Viega's GCM specification, kept per position so no reduction step is
needed), reducing each GF(2^128) multiplication to 32 table lookups and
XORs.  A key whose GHASH input reaches :data:`BYTE_TABLE_BLOCKS` blocks
also builds 16 x 256 byte tables from them, once, and hashes that input
and every later one with 16 lookups per block.  A record's CTR
keystream, tag mask included, comes from one call to the lane-sliced
:meth:`AES.encrypt_blocks`.

Reference oracles stay beside the fast paths: :class:`_Ghash` (16 x 256
byte tables) and :class:`_ReferenceAesGcm`, the AEAD run on ``_Ghash``
and one ``encrypt_block`` per counter, with its own counter framing
(``tests/crypto/test_gcm_fast.py``, E11).
"""

from __future__ import annotations

import struct

from repro.crypto.aes import AES
from repro.crypto.constant_time import ct_bytes_eq
from repro.errors import CryptoError, InvalidTag

TAG_SIZE = 16
NONCE_SIZE = 12

_R = 0xE1 << 120  # the GCM reduction polynomial in the reflected convention

# Split each byte of a block into its high and low nibble.
_HI_NIBBLE = bytes(v >> 4 for v in range(256))
_LO_NIBBLE = bytes(v & 15 for v in range(256))

#: The GHASH input length, in blocks, from which a key builds byte
#: tables.  Building them costs about 160 us and saves about 0.75 us per
#: block (0.96 against 1.7 us; idle 2.1 GHz vCPU), so they break even at
#: about 215 blocks.  4 KB leaves a margin, so the one input that builds
#: them repays the build by itself.
BYTE_TABLE_BLOCKS = 256


def _double(x: int) -> int:
    """Multiply a field element by x in GCM's reflected representation."""
    if x & 1:
        return (x >> 1) ^ _R
    return x >> 1


class _Ghash:
    """GHASH over GF(2^128), keyed by the hash subkey H.

    The spec's bitwise algorithm pairs the i-th bit of the input block
    (most-significant-first) with H*x^i.  In the big-endian integer view,
    integer bit position p therefore pairs with H*x^(127-p); the tables
    below aggregate those products per byte of the input block.
    """

    def __init__(self, h: bytes) -> None:
        h_int = int.from_bytes(h, "big")
        # powers[p] = H * x^(127-p) for integer bit position p (0 = LSB).
        powers = [0] * 128
        powers[127] = h_int
        for p in range(126, -1, -1):
            powers[p] = _double(powers[p + 1])
        # tables[b][v]: contribution of byte value v at byte index b
        # (b = 0 is the most significant byte of the block).
        tables = []
        for b in range(16):
            base = 8 * (15 - b)
            table = [0] * 256
            for v in range(1, 256):
                low = v & -v
                table[v] = table[v ^ low] ^ powers[base + low.bit_length() - 1]
            tables.append(table)
        self._tables = tables

    def mul_h(self, x: int) -> int:
        """Multiply field element ``x`` by the hash subkey H."""
        xb = x.to_bytes(16, "big")
        tables = self._tables
        z = 0
        for b in range(16):
            z ^= tables[b][xb[b]]
        return z

    def __call__(self, data: bytes) -> int:
        """GHASH of ``data``, which must be a multiple of 16 bytes."""
        y = 0
        mul = self.mul_h
        for i in range(0, len(data), 16):
            y = mul(y ^ int.from_bytes(data[i:i + 16], "big"))
        return y


class _NibbleGhash:
    """GHASH keyed by 32 tables of 16 entries, one per nibble of the block.

    As in :class:`_Ghash`, integer bit position ``p`` pairs with
    ``H*x^(127-p)``; ``tables[k][v]`` XORs those powers over the bits of
    nibble value ``v`` at nibble index ``k`` (``k = 0`` is the most
    significant nibble).  512 entries per key instead of 4096.

    The first input of :data:`BYTE_TABLE_BLOCKS` blocks or more builds
    the 4096-entry byte tables from the nibble tables and keeps them;
    that input and every later one then take 16 lookups per block
    instead of 32.  A key that never sees such an input allocates
    nothing more.  Two threads racing on a key's first long input both
    build the tables and one store wins: they are a pure function of H.
    """

    def __init__(self, h: bytes) -> None:
        x = int.from_bytes(h, "big")       # H*x^0 pairs with bit 127
        tables = []
        for _ in range(32):
            # The nibble's bits 3, 2, 1, 0 pair with four successive powers.
            p8 = x
            p4 = x = _double(x)
            p2 = x = _double(x)
            p1 = x = _double(x)
            x = _double(x)
            p3 = p2 ^ p1
            p12 = p8 ^ p4
            tables.append((
                0, p1, p2, p3, p4, p4 ^ p1, p4 ^ p2, p4 ^ p3,
                p8, p8 ^ p1, p8 ^ p2, p8 ^ p3, p12, p12 ^ p1, p12 ^ p2,
                p12 ^ p3,
            ))
        self._tables = tables
        self._byte_tables = None

    def _build_byte_tables(self) -> list:
        """16 x 256 tables: byte ``v`` at byte index ``b`` is its high
        nibble's entry at nibble index ``2b`` XOR its low nibble's at
        ``2b + 1``."""
        nibbles = self._tables
        return [[hi ^ lo for hi in nibbles[2 * b] for lo in nibbles[2 * b + 1]]
                for b in range(16)]

    def __call__(self, data: bytes) -> int:
        """GHASH of ``data``, which must be a multiple of 16 bytes."""
        if (self._byte_tables is not None
                or len(data) >= 16 * BYTE_TABLE_BLOCKS):
            return self._hash_bytes(data)
        (t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14,
         t15, t16, t17, t18, t19, t20, t21, t22, t23, t24, t25, t26, t27,
         t28, t29, t30, t31) = self._tables
        split_hi, split_lo = _HI_NIBBLE, _LO_NIBBLE
        y = 0
        for i in range(0, len(data), 16):
            xb = (y ^ int.from_bytes(data[i:i + 16], "big")).to_bytes(16, "big")
            hi = xb.translate(split_hi)
            lo = xb.translate(split_lo)
            y = (t0[hi[0]] ^ t1[lo[0]] ^ t2[hi[1]] ^ t3[lo[1]]
                 ^ t4[hi[2]] ^ t5[lo[2]] ^ t6[hi[3]] ^ t7[lo[3]]
                 ^ t8[hi[4]] ^ t9[lo[4]] ^ t10[hi[5]] ^ t11[lo[5]]
                 ^ t12[hi[6]] ^ t13[lo[6]] ^ t14[hi[7]] ^ t15[lo[7]]
                 ^ t16[hi[8]] ^ t17[lo[8]] ^ t18[hi[9]] ^ t19[lo[9]]
                 ^ t20[hi[10]] ^ t21[lo[10]] ^ t22[hi[11]] ^ t23[lo[11]]
                 ^ t24[hi[12]] ^ t25[lo[12]] ^ t26[hi[13]] ^ t27[lo[13]]
                 ^ t28[hi[14]] ^ t29[lo[14]] ^ t30[hi[15]] ^ t31[lo[15]])
        return y

    def _hash_bytes(self, data: bytes) -> int:
        """GHASH of ``data`` on the byte tables, building them first if
        this key has none yet."""
        tables = self._byte_tables
        if tables is None:
            tables = self._byte_tables = self._build_byte_tables()
        (b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14,
         b15) = tables
        frombytes, tobytes = int.from_bytes, int.to_bytes
        y = 0
        # Every block as an int first: the chained loop then does one
        # XOR, one to_bytes and the 16 lookups per block.
        for x in [frombytes(data[i:i + 16], "big")
                  for i in range(0, len(data), 16)]:
            xb = tobytes(y ^ x, 16, "big")
            y = (b0[xb[0]] ^ b1[xb[1]] ^ b2[xb[2]] ^ b3[xb[3]]
                 ^ b4[xb[4]] ^ b5[xb[5]] ^ b6[xb[6]] ^ b7[xb[7]]
                 ^ b8[xb[8]] ^ b9[xb[9]] ^ b10[xb[10]] ^ b11[xb[11]]
                 ^ b12[xb[12]] ^ b13[xb[13]] ^ b14[xb[14]] ^ b15[xb[15]])
        return y


def _pad16(data: bytes) -> bytes:
    """Zero-pad to a multiple of the block size."""
    rem = len(data) % 16
    return data if rem == 0 else data + b"\x00" * (16 - rem)


def _xor(data: bytes, stream: bytes) -> bytes:
    """``data`` XOR the first ``len(data)`` bytes of ``stream``."""
    size = len(data)
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(stream[:size], "big")).to_bytes(size, "big")


class AesGcm:
    """AES-GCM with a 16/24/32-byte key and 12-byte nonces.

    Example:
        >>> aead = AesGcm(bytes(16))
        >>> ct = aead.encrypt(bytes(12), b"hello", b"aad")
        >>> aead.decrypt(bytes(12), ct, b"aad")
        b'hello'
    """

    def __init__(self, key: bytes) -> None:
        self._aes = AES(key)
        self._ghash = _NibbleGhash(self._aes.encrypt_block(b"\x00" * 16))

    def _keystream(self, nonce: bytes, n_blocks: int, start_counter: int) -> bytes:
        """CTR keystream: AES(nonce || counter) for consecutive counters,
        all counter blocks encrypted at once by ``AES.encrypt_blocks``."""
        blocks = bytearray((nonce + bytes(4)) * n_blocks)
        counters = struct.pack(f">{n_blocks}I",
                               *range(start_counter, start_counter + n_blocks))
        for j in range(4):
            blocks[NONCE_SIZE + j::16] = counters[j::4]
        return self._aes.encrypt_blocks(blocks)

    def _auth_tag(self, ek_y0: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        """GHASH over ``aad`` and ``ciphertext``, masked with E(K, Y0)."""
        ghash_input = (
            _pad16(aad)
            + _pad16(ciphertext)
            + struct.pack(">QQ", len(aad) * 8, len(ciphertext) * 8)
        )
        s = self._ghash(ghash_input)
        return (s ^ int.from_bytes(ek_y0, "big")).to_bytes(16, "big")

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ``ciphertext || tag``."""
        if len(nonce) != NONCE_SIZE:
            raise CryptoError(f"GCM nonce must be {NONCE_SIZE} bytes")
        # Counter 1 masks the tag; counters 2, 3, ... encrypt the payload.
        stream = self._keystream(nonce, 1 + (len(plaintext) + 15) // 16, 1)
        ciphertext = _xor(plaintext, stream[TAG_SIZE:])
        return ciphertext + self._auth_tag(stream[:TAG_SIZE], ciphertext, aad)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        """Verify the tag and decrypt; raises :class:`InvalidTag` on failure."""
        if len(nonce) != NONCE_SIZE:
            raise CryptoError(f"GCM nonce must be {NONCE_SIZE} bytes")
        if len(data) < TAG_SIZE:
            raise InvalidTag("ciphertext shorter than the GCM tag")
        ciphertext, tag = data[:-TAG_SIZE], data[-TAG_SIZE:]
        # The tag mask comes with the whole keystream, so a forged record
        # costs as much as a valid one; a separate mask block would cost
        # every valid record more (docs/PERFORMANCE.md).
        stream = self._keystream(nonce, 1 + (len(ciphertext) + 15) // 16, 1)
        expected = self._auth_tag(stream[:TAG_SIZE], ciphertext, aad)
        if not ct_bytes_eq(expected, tag):
            raise InvalidTag("GCM tag verification failed")
        return _xor(ciphertext, stream[TAG_SIZE:])


class _ReferenceAesGcm(AesGcm):
    """The AEAD on the reference oracles, for E11 and the oracle tests.

    16 x 256 GHASH tables, one ``encrypt_block`` per counter, and its own
    counter framing: the tag mask E(K, Y0) from a separate block, the
    payload keystream from counter 2, and a per-byte XOR.  It shares the
    :class:`AES` key schedule with :class:`AesGcm`.
    """

    def __init__(self, key: bytes) -> None:
        self._aes = AES(key)
        self._ghash = _Ghash(self._aes.encrypt_block(b"\x00" * 16))

    def _keystream_reference(self, nonce: bytes, n_blocks: int,
                             start_counter: int) -> bytes:
        """One ``encrypt_block`` per counter (the reference oracle)."""
        enc = self._aes.encrypt_block
        parts = []
        for i in range(n_blocks):
            parts.append(enc(nonce + struct.pack(">I", start_counter + i)))
        return b"".join(parts)

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        if len(nonce) != NONCE_SIZE:
            raise CryptoError(f"GCM nonce must be {NONCE_SIZE} bytes")
        n_blocks = (len(plaintext) + 15) // 16
        stream = self._keystream_reference(nonce, n_blocks, 2)
        ciphertext = bytes(p ^ s for p, s in zip(plaintext, stream))
        ek_y0 = self._keystream_reference(nonce, 1, 1)
        return ciphertext + self._auth_tag(ek_y0, ciphertext, aad)

    def decrypt(self, nonce: bytes, data: bytes, aad: bytes = b"") -> bytes:
        if len(nonce) != NONCE_SIZE:
            raise CryptoError(f"GCM nonce must be {NONCE_SIZE} bytes")
        if len(data) < TAG_SIZE:
            raise InvalidTag("ciphertext shorter than the GCM tag")
        ciphertext, tag = data[:-TAG_SIZE], data[-TAG_SIZE:]
        ek_y0 = self._keystream_reference(nonce, 1, 1)
        if not ct_bytes_eq(self._auth_tag(ek_y0, ciphertext, aad), tag):
            raise InvalidTag("GCM tag verification failed")
        n_blocks = (len(ciphertext) + 15) // 16
        stream = self._keystream_reference(nonce, n_blocks, 2)
        return bytes(c ^ s for c, s in zip(ciphertext, stream))
