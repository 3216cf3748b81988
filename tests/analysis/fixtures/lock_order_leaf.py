"""Seeded LOCK002 — analyzed as core/events.py (the 'audit' leaf lock).

Calling out to the VM *inside* the audit lock is the inversion
AuditLog.record avoids by counting its event after release.
"""


class AuditLog:
    def record_and_notify(self, event):
        with self._lock:                      # acquires leaf 'audit'
            self._events.append(event)
            self.vm.on_audit_event(event)     # LOCK002: leaf holds chain

    def record_only(self, event):
        with self._lock:                      # acquires leaf 'audit'
            self._events.append(event)        # ok: no chain lock touched
