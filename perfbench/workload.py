"""Seeded request streams for the serving benchmark.

Requests are generated, and encoded to wire bytes, before the phase
that sends them starts, so the timed phases only move pre-built bytes; a
closed loop faster than the stream was built for grows it by a chunk in
place.  Connections own disjoint key ranges (connection
``c`` owns the key ids ``i`` with ``i % connections == c``), so each
connection's replies can be checked against a per-key model in send
order.

Each connection's stream is one seeded sequence, built in fixed-size
chunks so that any length of it is a prefix of any longer one: the
first closed-loop slice starts at its head, and each later slice
continues where the one before stopped; an open-loop slice first has
:meth:`Workload.extend` build as many requests as its schedule holds.

The dataset's shape -- each key's value size and each connection's
popularity order -- is part of the workload's definition and is drawn
from :data:`DATASET_SEED`, not from the run's seed.  Under Zipf 0.99 the
few hottest keys take a large share of the requests, so a seed that gave
them 1.5 KB values instead of 60 B moved the server's cost per request
by up to 40% between seeds; that is sampling luck, not program
behaviour.  The run's seed draws everything else: the value bytes, the
operation sequence, the keys each request picks and multi-get widths.

Values are tweet-like text: a pool of :class:`TweetValueGenerator`
tweets joined into one stream, from which a value of the wanted size is
cut starting at a tweet boundary.  ``tweet`` sizing keeps one whole
tweet per value; ``etc`` sizing draws one size per key from the ETC
sampler of :mod:`repro.workloads.facebook`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.common.rng import derive_seed
from repro.workloads.facebook import ETC_SPEC, SPECS
from repro.workloads.values import TweetValueGenerator
from repro.workloads.zipfian import ZipfianGenerator

GET, SET, DELETE = "get", "set", "delete"

#: Tweets in the value pool; values start at a random tweet boundary.
POOL_TWEETS = 8192
#: Seed of the dataset's shape (value sizes and popularity order).
DATASET_SEED = 0
#: Requests per generation step; a stream grows by whole chunks so its
#: content never depends on how far it was grown.
CHUNK = 4096


def key_name(key_id: int) -> bytes:
    return b"k%d" % key_id


def encode_get(key_ids: Tuple[int, ...]) -> bytes:
    return b"get " + b" ".join(key_name(k) for k in key_ids) + b"\r\n"


def encode_set(key_id: int, value: bytes, noreply: bool = False) -> bytes:
    tail = b" noreply\r\n" if noreply else b"\r\n"
    return (
        b"set %s 0 0 %d" % (key_name(key_id), len(value)) + tail + value + b"\r\n"
    )


def encode_delete(key_id: int) -> bytes:
    return b"delete " + key_name(key_id) + b"\r\n"


@dataclass(frozen=True)
class Request:
    """One stream request: ``version`` is the write's new version
    (SET) or the version a DELETE moves the backing store to."""

    kind: str
    keys: Tuple[int, ...]
    wire: bytes
    version: int = 0


@dataclass
class WorkloadSpec:
    """The generator's knobs for one workload (read from spec.json)."""

    name: str
    keys: int
    capacity: int
    sizes: str  # "tweet" or "etc"
    theta: float
    #: The rest of the requests are DELETEs.
    get_frac: float
    set_frac: float
    #: keys-per-GET distribution as {count: probability}
    multiget: Dict[int, float]
    cache_aside: bool
    #: Closed-loop rate the stream is built for before timing starts; a
    #: faster server grows it by chunks inside the closed phase.
    closed_rate: float
    journal: bool = False
    #: Further ``cli serve`` flags, as given.
    server_flags: List[str] = field(default_factory=list)

    @classmethod
    def from_json(cls, name: str, entry: dict) -> "WorkloadSpec":
        gen = entry["generator"]
        server = entry["server"]
        mix = _mix(gen["mix"])
        return cls(
            name=name,
            keys=int(gen["keys"]),
            capacity=int(server["capacity"]),
            sizes=gen["sizes"],
            theta=float(gen["zipf_theta"]),
            get_frac=float(mix["get"]),
            set_frac=float(mix["set"]),
            multiget={int(k): float(v) for k, v in gen["keys_per_get"].items()},
            cache_aside=bool(gen["cache_aside"]),
            closed_rate=float(entry["prebuilt_closed_rate"]),
            journal=bool(server["journal"]),
            server_flags=list(server["flags"]),
        )


def _mix(entry: Union[str, Dict[str, float]]) -> Dict[str, float]:
    """An explicit {"get", "set", "delete"} mix, or a trace's by name."""
    if isinstance(entry, str):
        trace = SPECS[entry]
        return {"get": trace.get_fraction, "set": trace.set_fraction,
                "delete": trace.delete_fraction}
    return entry


class ValueBook:
    """Deterministic value bytes per (key, version), encoded once."""

    def __init__(self, seed: int, num_keys: int, sizes: str) -> None:
        self.seed = seed
        self.num_keys = num_keys
        generator = TweetValueGenerator(seed=derive_seed(seed, "value-pool"))
        tweets = [generator.generate(i) for i in range(POOL_TWEETS)]
        self._stream = b" ".join(tweets)
        starts, position = [], 0
        for tweet in tweets:
            starts.append(position)
            position += len(tweet) + 1
        self._starts = starts
        self._lengths = [len(t) for t in tweets]
        self._sizes: Optional[List[int]] = None
        if sizes == "etc":
            sampler = ETC_SPEC.size_sampler()
            rng = random.Random(derive_seed(DATASET_SEED, "value-sizes"))
            self._sizes = [sampler.sample(rng) for _ in range(num_keys)]
        elif sizes != "tweet":
            raise ValueError(f"unknown value sizing {sizes!r}")
        self._values: Dict[Tuple[int, int], bytes] = {}
        self._wire: Dict[Tuple[int, int], bytes] = {}

    def value(self, key_id: int, version: int) -> bytes:
        cached = self._values.get((key_id, version))
        if cached is not None:
            return cached
        rng = random.Random(
            derive_seed(self.seed, "value") ^ (key_id << 20) ^ version
        )
        index = rng.randrange(POOL_TWEETS)
        size = (
            self._lengths[index] if self._sizes is None else self._sizes[key_id]
        )
        start = self._starts[index]
        if start + size > len(self._stream):
            start = 0
        value = self._stream[start : start + size]
        self._values[(key_id, version)] = value
        return value

    def set_wire(self, key_id: int, version: int) -> bytes:
        """The encoded (acknowledged) SET of this version; built once."""
        wire = self._wire.get((key_id, version))
        if wire is None:
            wire = encode_set(key_id, self.value(key_id, version))
            self._wire[(key_id, version)] = wire
        return wire

    @property
    def raw_bytes(self) -> int:
        """Dataset size: one version-0 value per key."""
        if self._sizes is not None:
            return sum(self._sizes)
        return sum(len(self.value(k, 0)) for k in range(self.num_keys))


@dataclass
class ConnectionStream:
    """Everything one connection sends, pre-encoded; ``requests`` is a
    prefix of the connection's seeded sequence."""

    conn: int
    key_ids: List[int]
    preload: bytes
    requests: List[Request] = field(default_factory=list)


class Workload:
    """A seeded workload: value book plus per-connection streams."""

    def __init__(
        self,
        spec: WorkloadSpec,
        seed: int,
        closed_seconds: float,
        connections: int = 2,
    ) -> None:
        self.spec = spec
        self.connections = connections
        self.book = ValueBook(seed, spec.keys, spec.sizes)
        #: Highest version handed out per key (the backing store).
        self._versions = [0] * spec.keys
        self.streams: List[ConnectionStream] = []
        self._sources = []
        for conn in range(connections):
            key_ids = list(range(conn, spec.keys, connections))
            preload = b"".join(
                encode_set(k, self.book.value(k, 0), noreply=True)
                for k in key_ids
            )
            for k in key_ids:
                self.book.set_wire(k, 0)
            self.streams.append(ConnectionStream(conn, key_ids, preload))
            self._sources.append((
                np.random.default_rng(derive_seed(seed, f"ops-{conn}")),
                ZipfianGenerator(
                    len(key_ids), theta=spec.theta,
                    seed=derive_seed(seed, f"zipf-{conn}"),
                ),
                np.random.default_rng(
                    derive_seed(DATASET_SEED, f"perm-{conn}")
                ).permutation(len(key_ids)),
            ))
        closed_count = int(spec.closed_rate * closed_seconds / connections) + 1
        for conn in range(connections):
            self.extend(conn, closed_count)

    def extend(self, conn: int, count: int) -> None:
        """Grow connection ``conn``'s stream to at least ``count`` requests.

        Streams grow in whole chunks in a fixed order per connection, and
        key versions are handed out per connection's own keys, so the
        sequence is the same however it was grown."""
        stream = self.streams[conn]
        rng, zipf, order = self._sources[conn]
        while len(stream.requests) < count:
            stream.requests.extend(
                self._requests(CHUNK, stream.key_ids, order, zipf, rng)
            )

    def _requests(
        self,
        count: int,
        key_ids: List[int],
        order: np.ndarray,
        zipf: ZipfianGenerator,
        rng: np.random.Generator,
    ) -> List[Request]:
        spec = self.spec
        sizes = sorted(spec.multiget)
        weights = np.array([spec.multiget[s] for s in sizes], dtype=float)
        per_get = rng.choice(sizes, size=count, p=weights / weights.sum())
        kinds = rng.random(count)
        ranks = zipf.sample(int(per_get.sum()))
        out: List[Request] = []
        cursor = 0
        get_cut = spec.get_frac
        set_cut = spec.get_frac + spec.set_frac
        for i in range(count):
            draw = kinds[i]
            if draw < get_cut:
                width = int(per_get[i])
                chosen = ranks[cursor : cursor + width]
                cursor += width
                keys = tuple(
                    dict.fromkeys(key_ids[int(order[r])] for r in chosen)
                )
                out.append(Request(GET, keys, encode_get(keys)))
                continue
            key = key_ids[int(order[ranks[cursor]])]
            cursor += 1
            self._versions[key] += 1
            version = self._versions[key]
            if draw < set_cut:
                out.append(
                    Request(SET, (key,), self.book.set_wire(key, version), version)
                )
            else:
                self.book.set_wire(key, version)  # a later cache-aside fill
                out.append(Request(DELETE, (key,), encode_delete(key), version))
        return out

    def stream_bytes(self, count: int) -> bytes:
        """The preload and first ``count`` requests of every connection,
        in order (determinism)."""
        parts = []
        for stream in self.streams:
            self.extend(stream.conn, count)
            parts.append(stream.preload)
            parts.extend(r.wire for r in stream.requests[:count])
        return b"".join(parts)
