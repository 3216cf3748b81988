"""Session cache, key derivation, config validation."""

import pytest

from repro.errors import TlsError
from repro.tls.ciphersuites import DEFAULT_SUITE
from repro.tls.prf import prf
from repro.tls.session import (
    SessionCache,
    TlsConfig,
    TlsSession,
    derive_key_block,
    derive_master_secret,
    finished_verify_data,
)


def make_session(session_id: bytes) -> TlsSession:
    return TlsSession(session_id=session_id, master_secret=b"m" * 48,
                      suite=DEFAULT_SUITE)


def test_cache_store_lookup():
    cache = SessionCache()
    session = make_session(b"\x01" * 32)
    cache.store(session)
    assert cache.lookup(b"\x01" * 32) is session
    assert cache.lookup(b"\x02" * 32) is None
    assert cache.lookup(b"") is None


def test_cache_eviction_fifo():
    cache = SessionCache(capacity=2)
    for i in range(3):
        cache.store(make_session(bytes([i]) * 32))
    assert cache.lookup(bytes([0]) * 32) is None
    assert cache.lookup(bytes([2]) * 32) is not None
    assert len(cache) == 2


def test_cache_overwrite_does_not_evict():
    """Regression: re-storing an existing session_id at capacity used to
    evict the FIFO-oldest *other* session even though the cache was not
    growing.  An overwrite must only replace its own entry."""
    cache = SessionCache(capacity=2)
    first = make_session(b"\x01" * 32)
    second = make_session(b"\x02" * 32)
    cache.store(first)
    cache.store(second)
    replacement = make_session(b"\x02" * 32)
    cache.store(replacement)  # overwrite at capacity: no eviction
    assert cache.lookup(b"\x01" * 32) is first
    assert cache.lookup(b"\x02" * 32) is replacement
    assert len(cache) == 2
    # A genuinely new id still evicts the oldest.
    cache.store(make_session(b"\x03" * 32))
    assert cache.lookup(b"\x01" * 32) is None
    assert len(cache) == 2


def test_cache_invalidate():
    cache = SessionCache()
    cache.store(make_session(b"\x07" * 32))
    cache.invalidate(b"\x07" * 32)
    assert cache.lookup(b"\x07" * 32) is None


def test_cache_invalidate_where():
    cache = SessionCache()
    for i in range(4):
        cache.store(make_session(bytes([i]) * 32))
    removed = cache.invalidate_where(lambda s: s.session_id[0] % 2 == 0)
    assert removed == 2
    assert len(cache) == 2


def test_cache_rejects_bad_capacity():
    with pytest.raises(TlsError):
        SessionCache(capacity=0)


def test_master_secret_derivation_matches_prf():
    pre_master, cr, sr = b"p" * 32, b"c" * 32, b"s" * 32
    assert derive_master_secret(pre_master, cr, sr) == prf(
        pre_master, b"master secret", cr + sr, 48
    )


def test_key_block_layout():
    keys = derive_key_block(b"m" * 48, b"c" * 32, b"s" * 32, DEFAULT_SUITE)
    assert len(keys.client_key) == 16
    assert len(keys.server_key) == 16
    assert len(keys.client_iv) == 4
    assert len(keys.server_iv) == 4
    assert keys.client_key != keys.server_key


def test_key_block_depends_on_randoms():
    a = derive_key_block(b"m" * 48, b"c" * 32, b"s" * 32, DEFAULT_SUITE)
    b = derive_key_block(b"m" * 48, b"C" * 32, b"s" * 32, DEFAULT_SUITE)
    assert a.client_key != b.client_key


def test_finished_verify_data_direction_asymmetric():
    assert finished_verify_data(b"m" * 48, b"h" * 32, True) != (
        finished_verify_data(b"m" * 48, b"h" * 32, False)
    )
    assert len(finished_verify_data(b"m" * 48, b"h" * 32, True)) == 12


def test_config_validation(pki, rng):
    with pytest.raises(TlsError):
        TlsConfig(rng=rng).validate(server_side=True)  # no cert/key
    with pytest.raises(TlsError):
        TlsConfig(certificate_chain=[pki.server_cert],
                  private_key=pki.server_key,
                  require_client_auth=True, rng=rng).validate(server_side=True)
    # key/cert mismatch
    with pytest.raises(TlsError):
        TlsConfig(certificate_chain=[pki.server_cert],
                  private_key=pki.client_key, rng=rng).validate(server_side=False)
