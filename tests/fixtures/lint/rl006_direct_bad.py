"""Seeded RL006 violations: shared-state writes made directly inside a
read-locked region, with no helper call in between."""

from repro.api.locks import RWLock


class DirectWriteService:
    def __init__(self):
        self._lock = RWLock()
        self._n = 0
        self._seen = set()

    def count(self, key):
        with self._lock.read_locked():
            self._n += 1
            self._seen.add(key)
            return self._n

    def bump(self):
        self._lock.acquire_read()
        try:
            self._n = self._n + 1
        finally:
            self._lock.release_read()
