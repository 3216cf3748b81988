"""MRENCLAVE computation — the SGX measurement chain.

The hardware builds MRENCLAVE as a running SHA-256: ECREATE contributes the
enclave's size/attributes, each EADD contributes a page's metadata and each
EEXTEND its contents (256 bytes at a time), and EINIT finalizes.  The same
chain is reproduced here over an :class:`EnclaveImage`'s code bytes, so two
images differing in a single byte — or in page layout — measure differently,
exactly like the hardware.
"""

from __future__ import annotations

import struct

from repro.crypto.sha256 import SHA256

PAGE_SIZE = 4096
EXTEND_CHUNK = 256
#: Save-state-area frames per thread (part of ECREATE's input).
SSA_FRAME_SIZE = 1

_ECREATE_TAG = b"\x45\x43\x52\x45\x41\x54\x45\x00"  # "ECREATE\0"
_EADD_TAG = b"\x45\x41\x44\x44\x00\x00\x00\x00"      # "EADD\0\0\0\0"
_EEXTEND_TAG = b"\x45\x45\x58\x54\x45\x4e\x44\x00"   # "EEXTEND\0"


def _paginate(code: bytes) -> list:
    """Split code into zero-padded 4 KiB pages (at least one page)."""
    if not code:
        code = b"\x00"
    pages = []
    for offset in range(0, len(code), PAGE_SIZE):
        page = code[offset:offset + PAGE_SIZE]
        pages.append(page.ljust(PAGE_SIZE, b"\x00"))
    return pages


def measure_image(code: bytes, attributes: int = 0) -> bytes:
    """Compute the MRENCLAVE of an enclave image.

    Args:
        code: the enclave's code/data image bytes.
        attributes: enclave attribute flags (DEBUG, 64-bit, ...).

    Returns:
        The 32-byte measurement.
    """
    pages = _paginate(code)
    running = SHA256()
    running.update(
        _ECREATE_TAG
        + struct.pack("<IQ", SSA_FRAME_SIZE, len(pages) * PAGE_SIZE)
        + struct.pack("<Q", attributes)
        + b"\x00" * 36
    )
    for index, page in enumerate(pages):
        offset = index * PAGE_SIZE
        # EADD measures the page's offset and security info (RWX for a
        # regular page in this model).
        running.update(
            _EADD_TAG + struct.pack("<Q", offset) + b"REG:RWX-" * 6
        )
        # EEXTEND measures the page contents 256 bytes at a time.
        for chunk_start in range(0, PAGE_SIZE, EXTEND_CHUNK):
            running.update(
                _EEXTEND_TAG
                + struct.pack("<Q", offset + chunk_start)
                + b"\x00" * 48
            )
            running.update(page[chunk_start:chunk_start + EXTEND_CHUNK])
    # EINIT finalizes the measurement.
    return running.digest()
