"""Server child: the shipped ``cli serve``, optionally traced.

Usage: ``python3 perfbench/serve.py [--trace-out PATH] serve ARGS...``

Everything after the launcher's own options is handed unchanged to
``repro.experiments.cli.main``, so the served configuration is exactly
the one ``cli serve`` ships.  The launcher only wraps public functions
at class level before the server is built:

* always, ``CacheServer.stats_dict`` gains ``bench_*`` keys (cache
  promotion/adaptation counters and per-shard Z-zone counters summed),
  which the cache keeps but the stats wire does not carry;
* with ``--trace-out``, one span per call into each layer's public
  functions (see ``_instrument``), written to PATH when the server exits.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

#: Z-zone counters summed over shards into ``bench_zzone_<name>``.
ZZONE_COUNTERS = (
    "gets", "hits", "filter_skips", "decompressions", "puts",
    "evicted_items", "sweep_visits", "container_decodes_saved",
)
CORE_COUNTERS = ("promotions", "allocation_adjustments")


def _extend_stats(server_cls, servers):
    original_init = server_cls.__init__
    original_stats = server_cls.stats_dict

    def __init__(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        servers.append(self)

    def stats_dict(self):
        out = original_stats(self)
        shards = getattr(self.cache, "shards", [self.cache])
        for name in CORE_COUNTERS:
            out["bench_core_" + name] = sum(getattr(s.stats, name) for s in shards)
        for name in ZZONE_COUNTERS:
            out["bench_zzone_" + name] = sum(
                getattr(s.zzone.stats, name) for s in shards
            )
        return out

    server_cls.__init__ = __init__
    server_cls.stats_dict = stats_dict


def _evicted(args, result):
    return len(result), 0


def _compressed(args, result):
    return len(args[1]), len(result.payload)


def _instrument(recorder) -> None:
    from repro.compression.null import NullCompressor
    from repro.compression.zlibc import ZlibCompressor
    from repro.core.sharded import ShardedZExpander
    from repro.durability.journal import JournalWriter
    from repro.durability.manager import DurabilityManager, checkpoint_name
    from repro.nzone.hpcache import HPCacheZone
    from repro.server import protocol
    from repro.server.admission import AdmissionController
    from repro.server.meta import ItemMetaStore
    from repro.zzone.block import Block, LargeItem
    from repro.zzone.zzone import ZZone

    def patch(owner, attr, name, measure=None):
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), measure))

    # The server drains the parser's generator into a list at once, so
    # draining it inside the span times the parse without changing it.
    lazy_events = protocol.RequestParser.events

    def events(self):
        return iter(list(lazy_events(self)))

    protocol.RequestParser.events = events
    patch(protocol.RequestParser, "events", "protocol.parse")
    patch(protocol.RequestParser, "feed", "protocol.parse")
    patch(protocol, "encode_value", "protocol.encode")
    patch(AdmissionController, "admit", "admission.admit")
    for method in ("on_set", "on_delete", "get", "flags_of", "cas_of", "prune"):
        patch(ItemMetaStore, method, "meta." + method)
    patch(ShardedZExpander, "get", "core.get")
    patch(ShardedZExpander, "get_many", "core.get")
    patch(ShardedZExpander, "set", "core.set")
    patch(ShardedZExpander, "delete", "core.delete")
    # ``cli serve`` always builds its N-zone as an HPCacheZone.
    patch(HPCacheZone, "get", "nzone.get")
    patch(HPCacheZone, "set", "nzone.set", _evicted)
    patch(HPCacheZone, "delete", "nzone.delete")
    for method in ("get", "get_batched", "get_many"):
        patch(ZZone, method, "zzone.get")
    patch(ZZone, "put", "zzone.put")
    patch(ZZone, "delete", "zzone.delete")
    patch(Block, "checksum_ok", "zzone.crc")
    patch(Block, "staged_checksum_ok", "zzone.crc")
    patch(LargeItem, "checksum_ok", "zzone.crc")
    for codec in (ZlibCompressor, NullCompressor):
        patch(codec, "compress", "compression.compress", _compressed)
        patch(codec, "decompress", "compression.decompress")
    patch(JournalWriter, "append_set", "durability.append")
    patch(JournalWriter, "append_delete", "durability.append")
    patch(JournalWriter, "maybe_sync", "durability.sync")
    patch(JournalWriter, "sync", "durability.sync")
    patch(os, "fsync", "durability.fsync")

    def checkpoint_bytes(args, seq):
        manager = args[0]
        path = os.path.join(manager.config.directory, checkpoint_name(seq))
        return os.path.getsize(path), 0

    patch(DurabilityManager, "checkpoint", "durability.checkpoint", checkpoint_bytes)


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from perfbench.trace import SpanRecorder
    from repro.experiments import cli
    from repro.server.server import CacheServer

    servers = []
    _extend_stats(CacheServer, servers)
    recorder = None
    if trace_out is not None:
        recorder = SpanRecorder(
            lambda: servers[0].stats.commands if servers else 0
        )
        _instrument(recorder)
    code = cli.main(argv)
    if recorder is not None:
        recorder.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
