"""The AES block cipher (FIPS 197) for 128/192/256-bit keys, encryption only.

The S-box is *derived* at import time from the GF(2^8) inverse and affine
transform rather than pasted in as constants, and single-block encryption
uses the standard 32-bit T-table formulation — the structure used by
mbedTLS, the library the paper's prototype embeds in its enclaves.  Only
encryption is implemented: GCM, the one mode built on it, never runs the
inverse cipher.

:meth:`AES.encrypt_lanes` encrypts many blocks at once, lane-sliced: the
16 state bytes of ``n`` blocks are held as 16 lanes of ``n`` bytes each, so
every round step is a handful of whole-lane ``bytes.translate`` calls and
big-int XORs instead of per-block table lookups.  Its caller builds the
lanes itself, from the public template of :func:`lane_layout`.
``encrypt_block`` is its byte-for-byte oracle, through GCM's counter mode
(``tests/crypto/test_gcm_fast.py``).

Only the raw block transform lives here; modes of operation are in
:mod:`repro.crypto.gcm`.
"""

from __future__ import annotations

import struct
from operator import itemgetter

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
    return tuple(sbox)


SBOX = _build_sbox()


def _build_tables() -> tuple:
    """Precompute the encryption T-tables."""
    t0, t1, t2, t3 = [], [], [], []
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
    return tuple(t0), tuple(t1), tuple(t2), tuple(t3)


_T0, _T1, _T2, _T3 = _build_tables()

# Lane-sliced encryption: the byte-wise S-box table.
_SBOX_BYTES = bytes(SBOX)
# Lanes are laid out row-major: lane 4*r + c holds state row r, column c,
# which is byte 4*c + r of every block.
_LANE_BYTE = tuple(4 * (p % 4) + p // 4 for p in range(16))

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)

# The lane template's marks for each lane's last position, and the pad
# that takes a 32-byte mark table to the 256 bytes ``translate`` takes.
_LAST_MARKS = bytes(16 + i for i in _LANE_BYTE)
_TABLE_PAD = bytes(224)

#: The largest block count whose lane layout is kept once built.  A
#: layout holds its template and three masks, about 64 bytes per block,
#: and saves about 2.5 us per call.  Records of a TLS handshake, a
#: resumed reconnect and most seals take 1-20 blocks; kept for every
#: count, northbound's ~640-block list responses raised its peak RSS by
#: 3 %, while at 64 it moved by 0.5 %.
LAYOUT_TABLE_BLOCKS = 64

#: The largest block count whose layout also interleaves the lanes back
#: into blocks with one ``itemgetter`` call.  That costs about 0.25 us
#: per block; sixteen extended-slice writes cost about 5 us whatever the
#: count, so the gather wins up to about 16 blocks.
GATHER_BLOCKS = 16

#: Lane layouts by block count (see :func:`lane_layout`).  Public values
#: only; threads racing on a count's first layout store equal tuples.
_LAYOUTS: dict = {}


def lane_layout(n: int) -> tuple:
    """``(template, ones, high7, mask, gather)`` for a lane buffer of
    ``n`` blocks.

    ``template`` is public: it fills lane ``p`` with the index of the
    block byte that lane carries (``_LANE_BYTE[p]``), plus 16 in the
    lane's last position.  Translating it through a 16-byte block, twice
    over and zero-padded to 256 bytes, spreads that block's bytes over
    their lanes in every position; a table whose second 16 bytes differ
    from its first sets the last block apart.  ``ones`` and ``high7``
    are the xtime masks (``0x01`` and ``0xFE`` in every byte), ``mask``
    the whole buffer's.  ``gather`` maps the lane buffer back to block
    order, or is ``None`` above :data:`GATHER_BLOCKS`.  Kept for ``n``
    up to :data:`LAYOUT_TABLE_BLOCKS`.
    """
    layout = _LAYOUTS.get(n)
    if layout is None:
        ones = int.from_bytes(b"\x01" * (16 * n), "big")
        gather = None
        if n <= GATHER_BLOCKS:
            # Byte i of block b sits at position b of lane 4(i % 4) + i // 4.
            gather = itemgetter(*[n * (4 * (i % 4) + i // 4) + b
                                  for b in range(n) for i in range(16)])
        template = bytearray(b"".join([bytes((i,)) * n for i in _LANE_BYTE]))
        template[n - 1::n] = _LAST_MARKS
        layout = (
            bytes(template),
            ones,
            ones * 0xFE,
            (1 << 128 * n) - 1,
            gather,
        )
        if n <= LAYOUT_TABLE_BLOCKS:
            _LAYOUTS[n] = layout
    return layout


class AES:
    """AES encryption with a 16/24/32-byte key.

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

    @staticmethod
    def _expand_key(key: bytes) -> list:
        """FIPS 197 key schedule: one 32-bit word per schedule slot.

        Each round constant advances the schedule by one key length, in
        locals: the first word takes SubWord(RotWord(last word)) and the
        constant, every later one the word before it (256-bit keys take
        one more SubWord halfway).
        """
        nk = len(key) // 4
        words = list(struct.unpack(f">{nk}I", key))
        total = 4 * ({4: 10, 6: 12, 8: 14}[nk] + 1)
        sbox = SBOX
        w = words
        for rcon in _RCON:
            if len(words) >= total:
                break
            t = w[-1]
            w0 = w[0] ^ (sbox[(t >> 16) & 0xFF] << 24
                         | sbox[(t >> 8) & 0xFF] << 16
                         | sbox[t & 0xFF] << 8 | sbox[t >> 24]) ^ rcon << 24
            w1 = w[1] ^ w0
            w2 = w[2] ^ w1
            w3 = w[3] ^ w2
            if nk == 4:
                w = (w0, w1, w2, w3)
            elif nk == 6:
                w4 = w[4] ^ w3
                w = (w0, w1, w2, w3, w4, w[5] ^ w4)
            else:
                w4 = w[4] ^ (sbox[w3 >> 24] << 24
                             | sbox[(w3 >> 16) & 0xFF] << 16
                             | sbox[(w3 >> 8) & 0xFF] << 8 | sbox[w3 & 0xFF])
                w5 = w[5] ^ w4
                w6 = w[6] ^ w5
                w = (w0, w1, w2, w3, w4, w5, w6, w[7] ^ w6)
            words += w
        del words[total:]
        return words

    def _lane_key_tables(self) -> list:
        """Per round, the round key as a ``bytes.translate`` table for
        the lane template: both marks of block byte ``i`` (``i`` and
        ``16 + i``) map to round-key byte ``i``."""
        words = struct.pack(f">{len(self._round_keys)}I", *self._round_keys)
        return [words[offset:offset + BLOCK_SIZE] * 2 + _TABLE_PAD
                for offset in range(0, len(words), BLOCK_SIZE)]

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

    def encrypt_lanes(self, state: int, layout: tuple) -> bytes:
        """Encrypt ``n`` blocks handed over lane-sliced; returns the ``n``
        ciphertext blocks in block order.

        ``state`` is the blocks' ``16n``-byte lane buffer as a big-endian
        int: 16 lanes in row-major order (lane ``4r + c`` is row ``r``,
        column ``c``), each lane ``n`` bytes long, before the first
        AddRoundKey.  The caller builds it from the template of
        ``layout``, which is ``lane_layout(n)``.  SubBytes is one
        ``translate`` over the buffer;
        ShiftRows rotates row ``r`` by ``r`` lanes with slices;
        MixColumns is XORs of the state as a big int with its rows
        rotated, and xtime is shifts, masks and one multiply on that int.
        Each round-key byte is spread over its lane by translating the
        template, so no table is indexed by key bytes.  The cost per
        round is a fixed ~25 C-level calls plus linear work, instead of
        one Python-level block transform per block.
        """
        template, ones, high7, mask, gather = layout
        size = len(template)
        n = size >> 4
        row = 4 * n                         # bytes per state row
        row_bits = 8 * row
        frombytes = int.from_bytes
        lane_keys = self._lane_keys
        state ^= frombytes(template.translate(lane_keys[0]), "big")
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
            # big int left by k rows puts row r+k in row r's place.  xtime
            # shifts every byte left within itself and reduces each byte
            # whose top bit fell out by 0x1B.
            u = shifted ^ (((shifted << row_bits) & mask)
                           | (shifted >> 3 * row_bits))
            state = (shifted ^ u
                     ^ (((u << 2 * row_bits) & mask) | (u >> 2 * row_bits))
                     ^ ((u << 1) & high7) ^ ((u >> 7) & ones) * 0x1B
                     ^ round_lanes)
        lanes = state.to_bytes(size, "big")
        if gather is not None:
            return bytes(gather(lanes))
        out = bytearray(size)
        for p, i in enumerate(_LANE_BYTE):
            out[i::16] = lanes[p * n:(p + 1) * n]
        return bytes(out)
