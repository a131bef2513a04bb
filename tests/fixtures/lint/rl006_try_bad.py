"""Seeded RL006 violations on the non-blocking acquire: a foreign helper
mutating shared state inside a ``try_acquire_read`` region, and a try
nested inside a held read lock."""

from repro.api.locks import RWLock


def remember(svc, key):
    svc._seen.add(key)


class TryReadService:
    def __init__(self):
        self._lock = RWLock()
        self._seen = set()

    def peek(self, key):
        if not self._lock.try_acquire_read():
            return None
        try:
            remember(self, key)
            return key
        finally:
            self._lock.release_read()

    def nested(self, key):
        with self._lock.read_locked():
            if self._lock.try_acquire_read():
                self._lock.release_read()
        return key
