"""The one memo the solver routes share."""

from collections import OrderedDict


class Memo:
    """At most `size` values, each built once per key by `get_or` and evicted
    least recently used first; `hits` and `misses` count the lookups."""

    def __init__(self, size: int):
        self.size = size
        self.hits = 0
        self.misses = 0
        self._entries = OrderedDict()

    def get_or(self, key, build):
        """The value stored under key; on a miss, build() is stored and returned."""
        if key in self._entries:
            self.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]
        self.misses += 1
        # evict before building, so a one-entry memo never holds two values
        while len(self._entries) >= self.size:
            self._entries.popitem(last=False)
        value = self._entries[key] = build()
        return value
