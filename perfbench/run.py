"""Out-of-process serving benchmark for ``cli serve``.

Usage::

    python3 perfbench/run.py --workload etc-overflow --seed 1 --seconds 45 --trace 0

One load-generator process (this one) drives a ``cli serve`` child over
loopback with pre-encoded, seeded requests on two connections.  The
timed part alternates :data:`SLICES` closed-loop slices (half of
``--seconds`` in all, :data:`WINDOW` requests outstanding per connection)
with open-loop slices offered at :data:`OPEN_LOAD` of the preceding
closed slice's rate; a residency sweep follows.  Before that the server is set up
(spawned and preloaded) three times and the last one is kept.  Every
GET hit is checked byte for byte against a per-key version model, and
the hit/miss counts against the server's own stats.  The last stdout
line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` repeats the
run against a server whose layers are wrapped in spans and reports the
per-layer metrics.  The exit code is 0 only when every check passed.
Metric names and units come from ``BENCHMARK.json``; workload
definitions and what each metric means live in ``perfbench/spec.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Reported in place of an infinite (failed) latency percentile.
FAILED_LATENCY_US = 5e6
#: The generator, not the server, was the bottleneck above this.
LOADGEN_SATURATED = 0.9
#: Share of ``--seconds`` in the closed loop; the open loop gets the rest.
CLOSED_SHARE = 0.5
#: Requests each connection keeps outstanding in the closed loop, so the
#: server always has the next request queued when it finishes one and
#: ops_s measures the server, not how fast an idle VM wakes the generator.
WINDOW = 4
#: Closed/open slice pairs the timed part of a run alternates through.
SLICES = 9
#: The open loop offers this share of the closed loop's stream-request
#: rate (cache-aside fills come on top in both phases).  A shared VM's
#: speed can halve for a second at a time; at this load such a second does
#: not yet build a backlog, so latency stays close to service time.  At
#: 0.15 the server sat idle so often that p50 grew by a fifth and spread
#: more between runs.
OPEN_LOAD = 0.3


def _server_cmd(spec, seed: int, workdir: str, trace_out=None):
    cmd = [sys.executable, os.path.join(HERE, "serve.py")]
    if trace_out is not None:
        cmd += ["--trace-out", trace_out]
    cmd += [
        "serve", "--port", "0", "--capacity", str(spec.capacity),
        "--seed", str(seed),
    ]
    if spec.journal:
        cmd += ["--journal-dir", os.path.join(workdir, "journal")]
    return cmd + spec.server_flags


class Server:
    """One ``cli serve`` child; ``port`` is learned from its banner."""

    def __init__(self, cmd, log_path: str) -> None:
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=self._log
        )
        self.port = self._await_port(deadline=time.monotonic() + 120.0)

    def _await_port(self, deadline: float) -> int:
        fd = self.proc.stdout.fileno()
        seen = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            seen += chunk
            for line in seen.splitlines():
                if line.startswith(b"serving memcached protocol on "):
                    address = line.split()[4]
                    return int(address.rsplit(b":", 1)[1])
        self.stop(graceful=False)
        raise RuntimeError(f"server did not start (output {seen[-300:]!r})")

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as stream:
            fields = stream.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM")

    def stop(self, graceful: bool = True) -> int:
        """SIGTERM drains (and lets a traced server write its spans);
        SIGKILL discards a throwaway set-up server."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM if graceful else signal.SIGKILL)
        try:
            code = self.proc.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return code


def _setup(workload, seed: int, workdir: str, trace_out=None):
    """Spawn, connect, preload: (server, loadgen, seconds taken)."""
    from perfbench.loadgen import LoadGen

    shutil.rmtree(os.path.join(workdir, "journal"), ignore_errors=True)
    started = time.perf_counter()
    server = Server(
        _server_cmd(workload.spec, seed, workdir, trace_out),
        os.path.join(workdir, "server.log"),
    )
    try:
        loadgen = LoadGen(workload, server.port)
        loadgen.preload()
    except BaseException:
        server.stop(graceful=False)
        raise
    return server, loadgen, time.perf_counter() - started


def _delta(before, after, name: str) -> float:
    return float(after.get(name, 0)) - float(before.get(name, 0))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Measurement:
    """Both timed phases, the sweep and the server-side deltas.

    The run alternates :data:`SLICES` closed-loop and open-loop slices,
    so that each phase samples the whole run: a shared VM's speed drifts
    by tens of percent over tens of seconds, and a phase confined to one
    stretch of the run would take that stretch's speed for the program's.
    """

    def __init__(self, server, loadgen, closed_s: float, open_s: float) -> None:
        from perfbench.loadgen import PhaseResult
        from perfbench.stats import Tally

        self.closed, self.opened = PhaseResult(), PhaseResult()
        #: Server stats (before, after) each closed-loop slice.
        self.closed_stats = []
        offered = []
        server_cpu = 0.0
        self.s0 = before = loadgen.stats()
        with loadgen.timing():
            for _ in range(SLICES):
                cpu0 = server.cpu_seconds()
                closed = loadgen.closed_phase(closed_s / SLICES, WINDOW)
                server_cpu += server.cpu_seconds() - cpu0
                after = loadgen.stats()
                self.closed_stats.append((before, after))
                # Offered load follows the server's speed of the moment: at
                # a fixed rate the same server would sit at low load in a
                # fast stretch and near saturation in a slow one, where
                # latency is all queueing.
                offered.append(OPEN_LOAD * closed.sent / closed.seconds)
                opened = loadgen.open_phase(open_s / SLICES, offered[-1])
                before = loadgen.stats()
                self.closed.absorb(closed)
                self.opened.absorb(opened)
        self.s2 = before
        self.open_rate = statistics.fmean(offered)
        self.server_cpu_frac = server_cpu / self.closed.seconds
        self.rss_mb = server.peak_rss_mb()
        self.swept_keys, self.swept_hits, self.swept_bytes = loadgen.sweep()
        self.violations = list(loadgen.oracle.violations)
        phases = (self.closed, self.opened)
        self.tally = Tally(
            sum(p.tally.attempted for p in phases),
            sum(p.tally.failed for p in phases),
        )
        self.get_keys = sum(p.get_keys for p in phases)
        self.get_hits = sum(p.get_hits for p in phases)
        wall = sum(p.seconds for p in phases)
        self.loadgen_cpu_frac = sum(p.cpu_seconds for p in phases) / wall
        self._cross_check()
        self.valid = not (
            self.loadgen_cpu_frac >= LOADGEN_SATURATED
            and self.loadgen_cpu_frac >= self.server_cpu_frac
        )

    def _cross_check(self) -> None:
        """Loadgen hit/miss counts must equal the server's stats delta,
        give or take keys of GETs whose replies were lost."""
        lost = self.closed.lost_get_keys + self.opened.lost_get_keys
        hits = _delta(self.s0, self.s2, "get_hits")
        misses = _delta(self.s0, self.s2, "get_misses")
        mine = (self.get_hits, self.get_keys - self.get_hits)
        if abs(hits - mine[0]) > lost or abs(misses - mine[1]) > lost:
            self.violations.append(
                f"hit/miss disagreement: loadgen {mine[0]}/{mine[1]}, "
                f"server {hits:.0f}/{misses:.0f} (lost GET keys {lost})"
            )

    @property
    def closed_commands(self):
        """Server command ids (first, last) of each closed-loop slice."""
        return [(int(a["commands"]), int(b["commands"]) - 1)
                for a, b in self.closed_stats]

    def closed_delta(self, name: str) -> float:
        """A server counter's growth over the closed-loop slices."""
        return sum(_delta(a, b, name) for a, b in self.closed_stats)

    @property
    def ops_s(self) -> float:
        return len(self.closed.completions) / self.closed.seconds

    @property
    def mean_rtt_s(self) -> float:
        finite = [x for x in self.closed.all_latency if not math.isinf(x)]
        return statistics.fmean(finite) if finite else math.nan


def _end_to_end(m: Measurement, setups, capacity: int):
    from perfbench.stats import finite, percentile

    def us(samples, q):
        return finite(percentile(samples, q) * 1e6, FAILED_LATENCY_US)

    gets, sets = m.opened.get_latency, m.opened.set_latency
    return {
        "ops_s": m.ops_s,
        "get_p50_us": us(gets, 50),
        "set_p50_us": us(sets, 50),
        "hit_ratio": _ratio(m.get_hits, m.get_keys),
        "cached_bytes_ratio": m.swept_bytes / capacity,
        "ok_frac": 1.0 - m.tally.failed_frac,
        "setup_s": statistics.median(setups),
        "server_rss_mb": m.rss_mb,
    }


def _wire_layers(m: Measurement):
    """Per-layer metrics from the stats wire, /proc and the generator."""
    from perfbench.stats import percentile

    a, b = m.s0, m.s2
    d = lambda name: _delta(a, b, name)  # noqa: E731
    nz, zz = d("cache_hits_nzone"), d("cache_hits_zzone")
    return {
        "server.cpu_frac": m.server_cpu_frac,
        "loadgen.cpu_frac": m.loadgen_cpu_frac,
        "loadgen.late_p99_ms": (
            percentile(m.opened.lateness, 99) * 1e3 if m.opened.lateness else 0.0),
        "admission.shed_frac": _ratio(d("admission_shed_total"), d("commands")),
        "meta.entries_per_item": _ratio(float(b["meta_items"]), float(b["curr_items"])),
        "core.nzone_service_frac": _ratio(nz, nz + zz),
        "core.promotions_per_kget": 1e3 * _ratio(
            d("bench_core_promotions"), d("cache_gets")),
        "core.allocation_adjustments": d("bench_core_allocation_adjustments"),
        "zzone.decodes_per_lookup": _ratio(
            d("bench_zzone_decompressions"), d("bench_zzone_gets")),
        "zzone.useful_decode_frac": _ratio(
            d("bench_zzone_hits"), d("bench_zzone_decompressions")),
        "zzone.filter_skip_frac": _ratio(
            d("bench_zzone_filter_skips"), d("bench_zzone_gets")),
        "zzone.decodes_saved_frac": _ratio(
            d("bench_zzone_container_decodes_saved"), d("bench_zzone_decompressions")),
        "zzone.sweep_visits_per_put": _ratio(
            d("bench_zzone_sweep_visits"), d("bench_zzone_puts")),
        "zzone.evicted_items": d("bench_zzone_evicted_items"),
    }


#: Traced per-layer self times: metric -> span names summed.
SELF_TIME_METRICS = {
    "protocol.parse_us_per_req": ("protocol.parse",),
    "protocol.encode_us_per_req": ("protocol.encode",),
    "admission.admit_us_per_req": ("admission.admit",),
    "meta.us_per_req": ("meta.on_set", "meta.on_delete", "meta.get",
                        "meta.flags_of", "meta.cas_of", "meta.prune"),
    "core.get_self_us": ("core.get",),
    "core.set_self_us": ("core.set", "core.delete"),
    "nzone.get_us": ("nzone.get",),
    "nzone.set_us": ("nzone.set", "nzone.delete"),
    "zzone.get_us": ("zzone.get",),
    "zzone.crc_us": ("zzone.crc",),
    "zzone.put_us": ("zzone.put", "zzone.delete"),
    "compression.decompress_us": ("compression.decompress",),
    "compression.compress_us": ("compression.compress",),
    "durability.append_us": ("durability.append",),
    "durability.sync_us": ("durability.sync", "durability.fsync"),
}


def _traced_layers(
    m: Measurement, trace_path: str, untraced_ops: float, connections: int
):
    """Per-request self times over the traced closed-loop slices."""
    from perfbench.trace import SpanRecorder, layer_totals

    recorder = SpanRecorder.load(trace_path)
    totals = layer_totals(recorder, m.closed_commands)
    requests = max(1, sum(last - first for first, last in m.closed_commands))
    zero = {"calls": 0, "total_ns": 0, "self_ns": 0, "aux": 0, "aux2": 0}
    get = lambda name: totals.get(name, zero)  # noqa: E731
    out = {
        metric: sum(get(n)["self_ns"] for n in names) / requests / 1e3
        for metric, names in SELF_TIME_METRICS.items()
    }
    traced_self_us = sum(t["self_ns"] for t in totals.values()) / requests / 1e3
    # Little's law: with WINDOW requests always outstanding on each
    # connection, the server's wall time per request is the mean RTT over
    # the number outstanding.
    per_request_us = m.mean_rtt_s / (connections * WINDOW) * 1e6
    sets = get("nzone.set")
    compress = get("compression.compress")
    checkpoint = get("durability.checkpoint")
    written = m.closed_delta("durability_journal_bytes") + checkpoint["aux"]
    out.update({
        "server.residual_us_per_req": per_request_us - traced_self_us,
        "trace.layer_share": _ratio(traced_self_us, per_request_us),
        "trace.overhead_frac": 1.0 - _ratio(m.ops_s, untraced_ops),
        "nzone.evicted_per_set": _ratio(sets["aux"], sets["calls"]),
        "compression.ratio": _ratio(compress["aux"], compress["aux2"]),
        "durability.fsyncs": m.closed_delta("durability_fsyncs"),
        "durability.checkpoint_s": checkpoint["total_ns"] / 1e9,
        "durability.write_amp": _ratio(written, m.closed.acked_value_bytes),
    })
    return out, traced_self_us, per_request_us


def _render(title: str, metrics, units) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]}")


#: One idle-priority busy loop on CPU ``argv[1]``, which exits once its
#: parent has gone.
_SPIN = (
    "import os, sys\n"
    "os.sched_setaffinity(0, {int(sys.argv[1])})\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "parent = os.getppid()\n"
    "while os.getppid() == parent:\n"
    "    for _ in range(100000):\n"
    "        pass\n"
)


@contextlib.contextmanager
def _cpus_kept_busy():
    """One ``SCHED_IDLE`` busy loop per CPU while the block runs.

    On a virtual machine a vCPU with nothing to run is halted, and waking
    it for the next packet or timer costs from tens of microseconds to
    milliseconds, depending on what else the host runs at the time.  That
    wake-up delay would dominate every latency here and swing with the
    neighbours.  An idle-class task runs only when nothing else wants
    the CPU and is preempted at once when something does, so the loops
    take no time from the server or the generator; they only keep the
    CPUs from halting.

    Busy vCPUs use up the CPU share the VM's block-device emulation also
    runs on, so a server that fsyncs inside its event loop every 50 ms
    (``--fsync interval``) stalled for up to 0.6 s at a time; the
    journalled workload therefore leaves fsync pacing to the OS."""
    spinners = [
        subprocess.Popen(
            [sys.executable, "-c", _SPIN, str(cpu)], stdin=subprocess.DEVNULL
        )
        for cpu in sorted(os.sched_getaffinity(0))
    ]
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


def _measure_once(workload, seed, workdir, closed_s, open_s, setups, trace_out=None):
    """Set up ``setups`` times (keeping the last server), then measure.

    Returns the measurement and every set-up time."""
    server = loadgen = None
    times = []
    try:
        for _ in range(setups):
            if server is not None:
                loadgen.close()
                server.stop(graceful=False)
            server, loadgen, took = _setup(workload, seed, workdir, trace_out)
            times.append(took)
        # Only the timed phases: a preload keeps the server busy anyway.
        with _cpus_kept_busy():
            measurement = Measurement(server, loadgen, closed_s, open_s)
        loadgen.close()
        loadgen = None
        code = server.stop(graceful=True)
        server = None
        if code != 0:
            measurement.violations.append(f"server exited {code}")
        return measurement, times
    finally:
        if loadgen is not None:
            loadgen.close()
        if server is not None:
            server.stop(graceful=False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its server child (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from perfbench.stats import percentile
    from perfbench.workload import Workload, WorkloadSpec

    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        bench = json.load(stream)
    with open(os.path.join(HERE, "spec.json")) as stream:
        config = json.load(stream)
    if args.workload not in config["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    for section in ("end_to_end", "per_layer"):
        undocumented = {m["name"] for m in bench[section]} ^ set(config[section])
        if undocumented:
            print(f"error: spec.json and BENCHMARK.json disagree on "
                  f"{sorted(undocumented)}", file=sys.stderr)
            return 2
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    declared = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    spec = WorkloadSpec.from_json(args.workload, config["workloads"][args.workload])
    closed_s = args.seconds * CLOSED_SHARE
    open_s = args.seconds - closed_s
    workload = Workload(spec, args.seed, closed_s, config["connections"])
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = config["setups_per_run"] if not args.trace else 1
        m, setup_times = _measure_once(
            workload, args.seed, workdir, closed_s, open_s, setups
        )
        e2e = _end_to_end(m, setup_times, spec.capacity)
        print(
            f"workload {args.workload} seed {args.seed}: "
            f"dataset {workload.book.raw_bytes / spec.capacity:.2f}x capacity, "
            f"{m.tally.attempted} requests, open loop at {m.open_rate:.0f} req/s "
            f"({len(m.opened.get_latency)} GET and {len(m.opened.set_latency)} "
            f"SET samples), failed_frac {m.tally.failed_frac:.6f}, valid {m.valid}"
        )
        _render("end-to-end:", e2e, units)
        # The tail is printed but not scored: on a shared 2-vCPU VM, p90
        # and p99 spread from 0.1 to above 5 of their median between runs
        # of the same code (see spec.json).
        for kind, samples in (("GET", m.opened.get_latency),
                              ("SET", m.opened.set_latency)):
            print(f"  unscored {kind} tail: p90 {percentile(samples, 90) * 1e6:.6g} us, "
                  f"p99 {percentile(samples, 99) * 1e6:.6g} us of {len(samples)} samples")
        metrics = e2e
        violations = list(m.violations)
        if args.trace:
            trace_path = os.path.join(workdir, "spans.bin")
            t, _ = _measure_once(
                workload, args.seed, workdir, closed_s, open_s, 1, trace_path
            )
            violations += [f"traced run: {v}" for v in t.violations]
            traced, self_us, per_req_us = _traced_layers(
                t, trace_path, m.ops_s, config["connections"]
            )
            if self_us > 1.05 * per_req_us:
                violations.append(
                    f"traced self time {self_us:.1f} us/req exceeds the "
                    f"server's wall time per request {per_req_us:.1f} us"
                )
            metrics = {**_wire_layers(m), **traced}
            _render("per-layer:", metrics, units)
        if set(metrics) != set(declared):
            raise AssertionError(
                f"metrics {sorted(set(metrics) ^ set(declared))} disagree "
                "with BENCHMARK.json"
            )
        for violation in violations[:20]:
            print(f"VIOLATION {violation}")
        if not m.valid:
            print("INVALID: the load generator, not the server, limited this run")
        correct = not violations and m.valid
        print(json.dumps({
            "correct": correct,
            "attempted": m.tally.attempted,
            "failed": m.tally.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]}
                for name in declared
            },
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only when no run is left


if __name__ == "__main__":
    sys.exit(main())
