"""Per-key version model: which bytes a GET hit may return.

Each connection owns its keys, and the server executes one
connection's requests in order, so replies processed in order see the
model exactly as the server's cache saw it.  A miss is always legal (it
is a cache); a hit must return the bytes of a version the key may hold.
A write whose outcome is unknown (refused or lost) widens the key's set
of acceptable versions instead of guessing.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

#: The "no value" version: never written, or deleted.
ABSENT = None


class Oracle:
    def __init__(self, value_of: Callable[[int, int], bytes]) -> None:
        self._value_of = value_of
        #: key -> acceptable versions (ABSENT included when a miss-only
        #: state is possible); missing keys were never written.
        self._state: Dict[int, Tuple[Optional[int], ...]] = {}
        self._deleted: Dict[int, bool] = {}
        self.violations: List[str] = []

    def acknowledged_set(self, key: int, version: int) -> None:
        self._state[key] = (version,)
        self._deleted[key] = False

    def unknown_set(self, key: int, version: int) -> None:
        self._state[key] = self._state.get(key, (ABSENT,)) + (version,)

    def acknowledged_delete(self, key: int) -> None:
        self._state[key] = (ABSENT,)
        self._deleted[key] = True

    def unknown_delete(self, key: int) -> None:
        self._state[key] = self._state.get(key, (ABSENT,)) + (ABSENT,)

    def check_hit(self, key: int, data: bytes) -> bool:
        """True when ``data`` is a legal hit for ``key``; records why not."""
        acceptable = self._state.get(key, (ABSENT,))
        for version in acceptable:
            if version is not ABSENT and self._value_of(key, version) == data:
                return True
        if all(version is ABSENT for version in acceptable):
            reason = "hit after delete" if self._deleted.get(key) else "hit on a key never written"
            self.violations.append(f"key {key}: {reason} ({len(data)} B)")
        else:
            self.violations.append(
                f"key {key}: wrong bytes ({len(data)} B, expected one of "
                f"versions {[v for v in acceptable if v is not ABSENT]})"
            )
        return False
