"""Property: a revoked attested identity can never resume.

Drives a :class:`~repro.tls.ratls.RatlsVerifier` plus attached session
caches through arbitrary interleavings of session stores, subject
revocations, host revocations and resumption checks.  After every
single step, every identity the model considers revoked must be
(a) denied by ``resumable`` and (b) absent from every attached cache —
no interleaving may leave a window where a revoked identity's cached
session would still be honoured.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.rng import HmacDrbg
from repro.crypto.keys import generate_keypair
from repro.net.clock import VirtualClock
from repro.tls.ciphersuites import DEFAULT_SUITE
from repro.tls.ratls import RatlsVerifier, build_ratls_certificate
from repro.tls.session import SessionCache, TlsSession

SUBJECTS = ("vnf-a", "vnf-b", "vnf-c")
HOSTS = {"vnf-a": "host-1", "vnf-b": "host-1", "vnf-c": "host-2"}

_rng = HmacDrbg(b"revocation-property")
CERTS = {
    name: build_ratls_certificate(
        generate_keypair(_rng), name, b"quote", now=0,
        validity_seconds=10**9, san=(HOSTS[name],),
    )
    for name in SUBJECTS
}


def _session(name, counter):
    return TlsSession(
        session_id=f"{name}:{counter}".encode(),
        master_secret=b"\x00" * 48,
        suite=DEFAULT_SUITE,
        peer_certificate=CERTS[name],
    )


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("store"), st.sampled_from(SUBJECTS)),
        st.tuples(st.just("revoke_subject"), st.sampled_from(SUBJECTS)),
        st.tuples(st.just("revoke_host"),
                  st.sampled_from(sorted(set(HOSTS.values())))),
        st.tuples(st.just("check"), st.sampled_from(SUBJECTS)),
    ),
    min_size=1, max_size=12,
)


@given(OPS)
@settings(max_examples=120, deadline=None)
def test_revoked_identity_never_resumes(ops):
    verifier = RatlsVerifier(
        verify_evidence=lambda quote, subject: None,
        check_identity=lambda quote, subject: None,
        clock=VirtualClock(),
    )
    caches = [SessionCache(), SessionCache()]
    for cache in caches:
        verifier.attach_session_cache(cache)
    for name in SUBJECTS:
        verifier.register_subject(name, (HOSTS[name],))

    revoked_subjects = set()
    revoked_hosts = set()
    stored = []  # (subject, session_id) the model expects cached

    def model_revoked(name):
        return name in revoked_subjects or HOSTS[name] in revoked_hosts

    for step, (op, arg) in enumerate(ops):
        if op == "store":
            session = _session(arg, step)
            # Once revoked, the server never completes a handshake for
            # this identity, so nothing new gets cached for it.
            if not model_revoked(arg):
                for cache in caches:
                    cache.store(session)
                stored.append((arg, session.session_id))
        elif op == "revoke_subject":
            verifier.revoke_subject(arg)
            revoked_subjects.add(arg)
        elif op == "revoke_host":
            verifier.revoke_host(arg)
            revoked_hosts.add(arg)
        elif op == "check":
            assert verifier.resumable(_session(arg, step)) == (
                not model_revoked(arg)
            )

        # The invariant holds after *every* step, not just at the end.
        for name in SUBJECTS:
            if model_revoked(name):
                assert not verifier.resumable(_session(name, step))
        for subject, session_id in stored:
            for cache in caches:
                entry = cache.lookup(session_id)
                if model_revoked(subject):
                    assert entry is None, (
                        f"revoked {subject} still cached after step "
                        f"{step} ({op} {arg})"
                    )
                else:
                    assert entry is not None
