"""The AES block cipher (FIPS 197) for 128/192/256-bit keys.

The S-box is *derived* at import time from the GF(2^8) inverse and affine
transform rather than pasted in as constants, and single-block
encryption/decryption use the standard 32-bit T-table formulation — the
structure used by mbedTLS, the library the paper's prototype embeds in its
enclaves.

:meth:`AES.encrypt_blocks` encrypts many blocks at once, lane-sliced: the
16 state bytes of ``n`` blocks are held as 16 lanes of ``n`` bytes each, so
every round step is a handful of whole-lane ``bytes.translate`` calls and
big-int XORs instead of per-block table lookups.  ``encrypt_block`` is its
byte-for-byte oracle (``tests/crypto/test_gcm_fast.py``).

Only the raw block transform lives here; modes of operation are in
:mod:`repro.crypto.gcm`.
"""

from __future__ import annotations

import struct

from repro.errors import InvalidKey

BLOCK_SIZE = 16


def _gf_mul(a: int, b: int) -> int:
    """Multiply in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return result


def _build_sbox() -> tuple:
    """Compute the AES S-box from first principles."""
    # Multiplicative inverses via exp/log tables over generator 3.
    exp = [0] * 256
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _gf_mul(x, 3)
    exp[255] = exp[0]

    def inverse(v: int) -> int:
        return 0 if v == 0 else exp[255 - log[v]]

    sbox = [0] * 256
    for i in range(256):
        q = inverse(i)
        # Affine transform: bit-rotated XOR of the inverse plus 0x63.
        s = q
        for shift in (1, 2, 3, 4):
            s ^= ((q << shift) | (q >> (8 - shift))) & 0xFF
        sbox[i] = s ^ 0x63
    inv = [0] * 256
    for i, s in enumerate(sbox):
        inv[s] = i
    return tuple(sbox), tuple(inv)


SBOX, INV_SBOX = _build_sbox()


def _build_tables() -> tuple:
    """Precompute the encryption and decryption T-tables."""
    t0, t1, t2, t3 = [], [], [], []
    d0, d1, d2, d3 = [], [], [], []
    for i in range(256):
        s = SBOX[i]
        # MixColumns column for SubBytes output s: (2s, s, s, 3s).
        word = (
            (_gf_mul(s, 2) << 24) | (s << 16) | (s << 8) | _gf_mul(s, 3)
        )
        t0.append(word)
        t1.append(((word >> 8) | (word << 24)) & 0xFFFFFFFF)
        t2.append(((word >> 16) | (word << 16)) & 0xFFFFFFFF)
        t3.append(((word >> 24) | (word << 8)) & 0xFFFFFFFF)

        si = INV_SBOX[i]
        # InvMixColumns column: (14si, 9si, 13si, 11si).
        dword = (
            (_gf_mul(si, 14) << 24)
            | (_gf_mul(si, 9) << 16)
            | (_gf_mul(si, 13) << 8)
            | _gf_mul(si, 11)
        )
        d0.append(dword)
        d1.append(((dword >> 8) | (dword << 24)) & 0xFFFFFFFF)
        d2.append(((dword >> 16) | (dword << 16)) & 0xFFFFFFFF)
        d3.append(((dword >> 24) | (dword << 8)) & 0xFFFFFFFF)
    return (
        tuple(t0), tuple(t1), tuple(t2), tuple(t3),
        tuple(d0), tuple(d1), tuple(d2), tuple(d3),
    )


_T0, _T1, _T2, _T3, _D0, _D1, _D2, _D3 = _build_tables()

# Lane-sliced encryption: the byte-wise S-box table.
_SBOX_BYTES = bytes(SBOX)
# Lanes are laid out row-major: lane 4*r + c holds state row r, column c,
# which is byte 4*c + r of every block.
_LANE_BYTE = tuple(4 * (p % 4) + p // 4 for p in range(16))

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8)


class AES:
    """AES with a 16/24/32-byte key.

    Example:
        >>> cipher = AES(bytes(16))
        >>> len(cipher.encrypt_block(bytes(16)))
        16
    """

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise InvalidKey(f"AES key must be 16/24/32 bytes, got {len(key)}")
        self.key_size = len(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)
        self._lane_keys = self._lane_key_tables()
        # Built by the first decrypt_block; CTR-mode users never need it.
        self._dec_round_keys = None

    @staticmethod
    def _expand_key(key: bytes) -> list:
        """FIPS 197 key schedule: one 32-bit word per schedule slot."""
        nk = len(key) // 4
        words = list(struct.unpack(f">{nk}I", key))
        total = 4 * ({4: 10, 6: 12, 8: 14}[nk] + 1)
        for i in range(nk, total):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
                temp = (
                    (SBOX[(temp >> 24) & 0xFF] << 24)
                    | (SBOX[(temp >> 16) & 0xFF] << 16)
                    | (SBOX[(temp >> 8) & 0xFF] << 8)
                    | SBOX[temp & 0xFF]
                )
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = (
                    (SBOX[(temp >> 24) & 0xFF] << 24)
                    | (SBOX[(temp >> 16) & 0xFF] << 16)
                    | (SBOX[(temp >> 8) & 0xFF] << 8)
                    | SBOX[temp & 0xFF]
                )
            words.append(words[i - nk] ^ temp)
        return words

    def _lane_key_tables(self) -> list:
        """Per round, a ``bytes.translate`` table mapping lane number ``p``
        to the round-key byte that lane ``p`` is XORed with."""
        words = struct.pack(f">{len(self._round_keys)}I", *self._round_keys)
        tables = []
        for offset in range(0, len(words), BLOCK_SIZE):
            rk = words[offset:offset + BLOCK_SIZE]
            tables.append(rk[0::4] + rk[1::4] + rk[2::4] + rk[3::4]
                          + bytes(240))
        return tables

    def _expand_decrypt_keys(self) -> list:
        """Equivalent-inverse-cipher round keys (InvMixColumns applied)."""
        rk = self._round_keys
        n = self.rounds
        out = []
        for rnd in range(n + 1):
            src = rk[4 * (n - rnd): 4 * (n - rnd) + 4]
            if rnd in (0, n):
                out.extend(src)
            else:
                for word in src:
                    out.append(
                        _D0[SBOX[(word >> 24) & 0xFF]]
                        ^ _D1[SBOX[(word >> 16) & 0xFF]]
                        ^ _D2[SBOX[(word >> 8) & 0xFF]]
                        ^ _D3[SBOX[word & 0xFF]]
                    )
        return out

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt a single 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise InvalidKey(f"AES block must be 16 bytes, got {len(block)}")
        rk = self._round_keys
        s0, s1, s2, s3 = struct.unpack(">4I", block)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        for rnd in range(1, self.rounds):
            k = 4 * rnd
            n0 = (t0[(s0 >> 24) & 0xFF] ^ t1[(s1 >> 16) & 0xFF]
                  ^ t2[(s2 >> 8) & 0xFF] ^ t3[s3 & 0xFF] ^ rk[k])
            n1 = (t0[(s1 >> 24) & 0xFF] ^ t1[(s2 >> 16) & 0xFF]
                  ^ t2[(s3 >> 8) & 0xFF] ^ t3[s0 & 0xFF] ^ rk[k + 1])
            n2 = (t0[(s2 >> 24) & 0xFF] ^ t1[(s3 >> 16) & 0xFF]
                  ^ t2[(s0 >> 8) & 0xFF] ^ t3[s1 & 0xFF] ^ rk[k + 2])
            n3 = (t0[(s3 >> 24) & 0xFF] ^ t1[(s0 >> 16) & 0xFF]
                  ^ t2[(s1 >> 8) & 0xFF] ^ t3[s2 & 0xFF] ^ rk[k + 3])
            s0, s1, s2, s3 = n0, n1, n2, n3
        k = 4 * self.rounds
        sbox = SBOX
        o0 = ((sbox[(s0 >> 24) & 0xFF] << 24) | (sbox[(s1 >> 16) & 0xFF] << 16)
              | (sbox[(s2 >> 8) & 0xFF] << 8) | sbox[s3 & 0xFF]) ^ rk[k]
        o1 = ((sbox[(s1 >> 24) & 0xFF] << 24) | (sbox[(s2 >> 16) & 0xFF] << 16)
              | (sbox[(s3 >> 8) & 0xFF] << 8) | sbox[s0 & 0xFF]) ^ rk[k + 1]
        o2 = ((sbox[(s2 >> 24) & 0xFF] << 24) | (sbox[(s3 >> 16) & 0xFF] << 16)
              | (sbox[(s0 >> 8) & 0xFF] << 8) | sbox[s1 & 0xFF]) ^ rk[k + 2]
        o3 = ((sbox[(s3 >> 24) & 0xFF] << 24) | (sbox[(s0 >> 16) & 0xFF] << 16)
              | (sbox[(s1 >> 8) & 0xFF] << 8) | sbox[s2 & 0xFF]) ^ rk[k + 3]
        return struct.pack(">4I", o0 & 0xFFFFFFFF, o1 & 0xFFFFFFFF,
                           o2 & 0xFFFFFFFF, o3 & 0xFFFFFFFF)

    def encrypt_blocks(self, data: bytes) -> bytes:
        """Encrypt every 16-byte block of ``data`` (ECB), lane-sliced.

        The state of all ``n`` blocks is one ``16n``-byte buffer of 16
        lanes in row-major order (lane ``4r + c`` is row ``r``, column
        ``c``), each lane ``n`` bytes long.  SubBytes is one ``translate``
        over the buffer; ShiftRows rotates row ``r`` by ``r`` lanes with
        slices; MixColumns is XORs of the state as a big int with its rows
        rotated, and xtime is shifts, masks and one multiply on that int.
        Each round-key byte is spread over its lane by translating a public
        lane-number template, so no table is indexed by key bytes.  The
        cost per round is a fixed ~25 C-level calls plus linear work,
        instead of one Python-level block transform per block.
        """
        size = len(data)
        if size % BLOCK_SIZE:
            raise InvalidKey(f"AES input must be whole blocks, got {size} bytes")
        n = size // BLOCK_SIZE
        row = 4 * n                         # bytes per state row
        row_bits = 8 * row
        mask = (1 << 4 * row_bits) - 1
        frombytes = int.from_bytes
        # xtime of every byte at once: shift left within the byte, then
        # reduce each byte whose top bit fell out by 0x1B.
        ones = frombytes(b"\x01" * size, "big")
        high7 = ones * 0xFE
        template = b"".join([bytes((p,)) * n for p in range(16)])
        lane_keys = self._lane_keys
        state = (frombytes(b"".join([data[i::16] for i in _LANE_BYTE]), "big")
                 ^ frombytes(template.translate(lane_keys[0]), "big"))
        for rnd in range(1, self.rounds + 1):
            sub = state.to_bytes(size, "big").translate(_SBOX_BYTES)
            # ShiftRows: row r (bytes r*row .. (r+1)*row) rotates left by
            # r lanes, i.e. by r*n bytes.
            shifted = frombytes(b"".join((
                sub[:row],
                sub[row + n:2 * row], sub[row:row + n],
                sub[2 * row + 2 * n:3 * row], sub[2 * row:2 * row + 2 * n],
                sub[3 * row + 3 * n:], sub[3 * row:3 * row + 3 * n],
            )), "big")
            round_lanes = frombytes(template.translate(lane_keys[rnd]), "big")
            if rnd == self.rounds:
                state = shifted ^ round_lanes
                break
            # MixColumns, row-wise: b_r = a_r ^ t ^ xtime(a_r ^ a_(r+1))
            # with t = u_r ^ u_(r+2) for u_r = a_r ^ a_(r+1).  Rotating the
            # big int left by k rows puts row r+k in row r's place.
            u = shifted ^ (((shifted << row_bits) & mask)
                           | (shifted >> 3 * row_bits))
            state = (shifted ^ u
                     ^ (((u << 2 * row_bits) & mask) | (u >> 2 * row_bits))
                     ^ ((u << 1) & high7) ^ ((u >> 7) & ones) * 0x1B
                     ^ round_lanes)
        lanes = state.to_bytes(size, "big")
        out = bytearray(size)
        for p, i in enumerate(_LANE_BYTE):
            out[i::16] = lanes[p * n:(p + 1) * n]
        return bytes(out)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt a single 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise InvalidKey(f"AES block must be 16 bytes, got {len(block)}")
        rk = self._dec_round_keys
        if rk is None:
            rk = self._dec_round_keys = self._expand_decrypt_keys()
        s0, s1, s2, s3 = struct.unpack(">4I", block)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        d0, d1, d2, d3 = _D0, _D1, _D2, _D3
        for rnd in range(1, self.rounds):
            k = 4 * rnd
            n0 = (d0[(s0 >> 24) & 0xFF] ^ d1[(s3 >> 16) & 0xFF]
                  ^ d2[(s2 >> 8) & 0xFF] ^ d3[s1 & 0xFF] ^ rk[k])
            n1 = (d0[(s1 >> 24) & 0xFF] ^ d1[(s0 >> 16) & 0xFF]
                  ^ d2[(s3 >> 8) & 0xFF] ^ d3[s2 & 0xFF] ^ rk[k + 1])
            n2 = (d0[(s2 >> 24) & 0xFF] ^ d1[(s1 >> 16) & 0xFF]
                  ^ d2[(s0 >> 8) & 0xFF] ^ d3[s3 & 0xFF] ^ rk[k + 2])
            n3 = (d0[(s3 >> 24) & 0xFF] ^ d1[(s2 >> 16) & 0xFF]
                  ^ d2[(s1 >> 8) & 0xFF] ^ d3[s0 & 0xFF] ^ rk[k + 3])
            s0, s1, s2, s3 = n0, n1, n2, n3
        k = 4 * self.rounds
        inv = INV_SBOX
        o0 = ((inv[(s0 >> 24) & 0xFF] << 24) | (inv[(s3 >> 16) & 0xFF] << 16)
              | (inv[(s2 >> 8) & 0xFF] << 8) | inv[s1 & 0xFF]) ^ rk[k]
        o1 = ((inv[(s1 >> 24) & 0xFF] << 24) | (inv[(s0 >> 16) & 0xFF] << 16)
              | (inv[(s3 >> 8) & 0xFF] << 8) | inv[s2 & 0xFF]) ^ rk[k + 1]
        o2 = ((inv[(s2 >> 24) & 0xFF] << 24) | (inv[(s1 >> 16) & 0xFF] << 16)
              | (inv[(s0 >> 8) & 0xFF] << 8) | inv[s3 & 0xFF]) ^ rk[k + 2]
        o3 = ((inv[(s3 >> 24) & 0xFF] << 24) | (inv[(s2 >> 16) & 0xFF] << 16)
              | (inv[(s1 >> 8) & 0xFF] << 8) | inv[s0 & 0xFF]) ^ rk[k + 3]
        return struct.pack(">4I", o0 & 0xFFFFFFFF, o1 & 0xFFFFFFFF,
                           o2 & 0xFFFFFFFF, o3 & 0xFFFFFFFF)
