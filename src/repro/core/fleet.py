"""What a fleet run shares across its workers.

The paper enrolls two VNFs; an operator enrolls hundreds.  The serial
Figure 1 loop repeats two expensive steps once *per VNF* that a fleet
(:meth:`~repro.core.workflow.Deployment.enroll_fleet`) only needs once
*per run*:

- **host attestation** — every serial enrollment re-attests the VNF's
  container host (fresh nonce, fresh quote, full IAS round trip, full
  IML appraisal).  :class:`SingleFlightHosts` attests each distinct
  host exactly once: the first session that needs a host attests it
  while holding that host's lock; every other session waits and reuses
  the verdict;
- **the IAS connection** — :class:`~repro.ias.api.IasClient` dials and
  TLS-handshakes per verification.  :class:`PooledIasClient` keeps one
  persistent connection and pipelines report requests over it,
  serializing whole exchanges under a lock as
  :mod:`repro.net.channel`'s sharing rule requires.

Everything else — the per-VNF driver, the run loop and its report — is
the serial loop's own code path in :mod:`repro.core.workflow`, which
also reserves a fleet's certificate serials in submission order.
Locking rules for everything the workers share are catalogued in
``docs/CONCURRENCY.md``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.analysis.sanitizer import make_lock, make_rlock
from repro.core.enrollment import STATE_HOST_ATTESTED, EnrollmentSession
from repro.errors import NetError, ReproError, VnfSgxError
from repro.ias.api import IasClient
from repro.net.transport import ClientStream


class PooledIasClient(IasClient):
    """An :class:`IasClient` that keeps one persistent connection.

    The base client dials IAS and runs a full TLS handshake for every
    quote; a fleet of N VNFs on H hosts performs N + H verifications, so
    the handshake tax dominates.  This subclass keeps one
    :class:`~repro.net.transport.ClientStream` open, pipelines report
    requests over it (the IAS server's parser loop already answers
    back-to-back requests on one connection), and replays once on a
    fresh connection when a *reused* one faults, so the retry layer sees
    exactly the usual transient errors.  Like every client, it follows
    the retry policy on its network's clock at each verification, so a
    pool handed out before ``Deployment.set_retry_policy`` follows the
    change.

    Thread-safe: the pooled connection is a lockstep request/response
    rail, so whole exchanges serialize under ``_pool_lock`` — the
    sharing rule from :mod:`repro.net.channel`.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._stream = ClientStream(self._dial)
        self._pool_lock = make_rlock("ias_pool")
        #: Exchanges served over a reused connection (telemetry for E12).
        self.reused_exchanges = 0
        #: Connections (re-)established, including the first.
        self.connects = 0

    def _dial(self):
        conn = self._open_connection()
        self.connects += 1
        return conn

    def _verify_once(self, quote_bytes, nonce):
        """One verification on the pooled connection.

        On a transport fault over a *reused* connection, the connection
        may simply have gone stale since the last exchange — replay once
        on a fresh handshake within this same attempt, so the error
        that ultimately reaches the retry layer (and, once the retry
        deadline is exhausted, the caller) is the underlying
        :class:`~repro.errors.IasError`, not the stale transport's
        ``ChannelClosed``.  A fault on a *fresh* connection is genuine
        and propagates for the retry layer's backoff.
        """
        with self._pool_lock:
            reused = self._stream.is_open
            if reused:
                self.reused_exchanges += 1
            try:
                return self._verify_on(self._stream, quote_bytes, nonce)
            except NetError:
                if not reused:
                    raise
                return self._verify_on(self._stream, quote_bytes, nonce)

    def close(self) -> None:
        """Tear down the pooled connection (idempotent)."""
        with self._pool_lock:
            self._stream.close()


class SingleFlightHosts:
    """The fleet's host policy: one attestation per host per run.

    The first session on a host runs its own timed, retried
    :meth:`~repro.core.enrollment.EnrollmentSession.attest_host` while
    holding the host's lock; later sessions (on any worker) block on the
    lock, then reuse the verdict.  A host that *failed* attestation
    fails every VNF scheduled on it — the same outcome the serial loop
    reaches one enrollment at a time.
    """

    def __init__(self, host_names: Iterable[str]) -> None:
        self._host_locks = {name: make_lock("host") for name in host_names}
        #: host -> ``None`` (trusted) or the failing attempt's error;
        #: each entry is written and read under its own host's lock.
        self._verdicts: Dict[str, Optional[str]] = {}

    def attest(self, session: EnrollmentSession) -> None:
        """Take ``session`` past the host step: attest its host, or
        reuse the verdict of the session that did."""
        host = session.host_name
        with self._host_locks[host]:
            if host not in self._verdicts:
                try:
                    session.attest_host()
                except ReproError as exc:
                    self._verdicts[host] = f"{type(exc).__name__}: {exc}"
                    raise
                self._verdicts[host] = None
                return
            error = self._verdicts[host]
        if error is not None:
            raise VnfSgxError(f"host {host} failed fleet attestation: {error}")
        session.state = STATE_HOST_ATTESTED
