"""Seeded RL006 violation: a same-class helper reached under the read
lock mutates shared state.

``lookup`` enters the read lock and calls ``_fetch``, which writes to
``self._cache`` — two concurrent readers would race on that dict."""


class BadFacade:
    def __init__(self):
        self._lock = object()
        self._cache = {}
        self._rows = []

    def lookup(self, key):
        with self._lock.read_locked():
            return self._fetch(key)  # line 16: RL006 flags the call

    def _fetch(self, key):
        if key not in self._cache:
            self._cache[key] = len(self._rows)  # the write it reaches
        return self._cache[key]

    def ingest(self, row):
        with self._lock.write_locked():
            self._rows.append(row)
