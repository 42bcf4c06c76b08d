"""Same-machine benchmark of the TFMCC reproduction, from hot path to service.

Run from the repository root::

    python3 perfbench/run.py --workload multicast_200 --seed 3 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

``multicast_200``      one ``wireless_last_hop`` run at 200 receivers, each
                       repetition in a fresh interpreter (``repro run``)
``fairness_sweep``     a cold serial ``SweepRunner`` pass over a fairness
                       grid, then warm passes the cache answers
``serve_closed_loop``  ``ReproService`` with one worker driven by one
                       closed-loop ``ServiceClient``: fresh jobs, each
                       followed by resubmissions the cache answers
``report_quick``       ``repro report --quick --check --no-plots --jobs 2``,
                       cold and then twice with ``--reuse``

With ``--trace 0`` the run measures the end-to-end metrics untraced; with
``--trace 1`` it makes one untraced reference repetition and one traced
repetition (span wrappers in their own processes) and reports the
per-layer metrics.  End-to-end times are in reference seconds (see
``common.to_reference``).  Every run checks the program's outputs; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import random
import shutil
import signal
import sys
import time
from statistics import median
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    KERNEL_ITERATIONS,
    Child,
    child_env,
    children_peak_rss_mb,
    digest,
    environment,
    kernel_seconds,
    reference_span,
    run_child,
    tail,
    to_reference,
)

#: Hard cap on the measuring loop, so a slow machine still exits in time.
MAX_LOOP_S = 110.0
#: Past this many seconds a run stops waiting for work and fails instead.
DEADLINE_S = 165.0


class Run:
    """State of one benchmark invocation: inputs, samples and checks."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, root: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.src = os.path.join(root, "src")
        self.env = child_env(self.src)
        self.work = os.path.join(".perfbench", f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: Every reference-kernel time taken in this run (seconds).
        self.kernel_s: List[float] = []
        self.lines: List[str] = []
        self.details: Dict[str, Any] = {}
        #: Long-lived children (daemons), stopped on the way out.
        self.children: List[Child] = []

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def remaining(self) -> float:
        """Seconds left before the run must give up (at least one)."""
        return max(1.0, DEADLINE_S - self.elapsed())

    def more(self, done: int, minimum: int) -> bool:
        """Start another repetition? At least ``minimum``, then while one more fits.

        A repetition fits when the mean repetition so far would still end
        within ``--seconds`` of the start.
        """
        if done < minimum:
            return True
        elapsed = self.elapsed()
        return elapsed + elapsed / done <= min(self.seconds, MAX_LOOP_S)

    def kernel(self, burst: int = 4) -> float:
        """Time the reference kernel ``burst`` times now; the mean seconds.

        Workloads take one between consecutive timed operations, and
        ``to_reference`` each operation with the mean of the kernels either
        side of it.
        """
        times = [kernel_seconds() for _ in range(burst)]
        self.kernel_s.extend(times)
        return sum(times) / burst

    def span(self, marks: List[List[float]]) -> float:
        """``reference_span`` of a child's kernel marks, kept for the stamp."""
        self.kernel_s.extend(seconds for _at, seconds in marks)
        return reference_span(marks)

    def calibration_mops(self) -> float:
        """The kernel's median score in this run, in Mops (the environment stamp)."""
        return KERNEL_ITERATIONS / median(self.kernel_s or [kernel_seconds()]) / 1e6

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def note(self, line: str) -> None:
        self.lines.append(line)


# ------------------------------------------------------------ per-layer


#: Span-timed entry points reported as ``<name>.calls`` and ``<name>.self_s``.
SPAN_LAYERS = [
    "link.enqueue", "link.finish", "node.receive", "node.send", "monitor.record",
    "channel.should_drop", "tfmcc.receiver.receive", "tfmcc.sender.receive",
    "tfmcc.sender.send", "tcp.sender.receive", "tcp.sink.receive", "tfrc.receive",
    "trace.probe", "trace.summarise", "cohort.step", "build", "collect",
    "spec.resolve", "spec.to_dict", "cache.fingerprint", "cache.get", "cache.put",
    "store.append", "sweep.manifest_save", "sweep.heartbeat", "service.journal_append",
]

#: Work counters copied through unchanged.
COUNTERS = [
    "engine.events", "engine.compactions", "engine.reschedule_fast_hits",
    "link.queue_drops", "link.queue_peak", "tfmcc.feedback_sent", "tfmcc.clr_changes",
    "tcp.retransmits", "tcp.timeouts", "cohort.reports_injected", "store.bytes",
    "sweep.retried", "sweep.utilisation", "service.submit_s", "service.wait_s",
    "service.result_s", "service.units_cached", "service.units_executed",
    "report.pool_efficiency", "tracing_overhead",
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def kernel_time(result: Dict[str, Any]) -> float:
    """Seconds an untraced child spent timing the reference kernel."""
    return sum(seconds for _at, seconds in result.get("marks", []))


def layer_metrics(spans: Dict[str, Dict[str, float]], counts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from aggregated spans plus counters.

    Span-derived ``.calls`` win over worker-telemetry event counts when the
    layer ran in the traced process; pool workloads fall back on telemetry.
    """
    out: Dict[str, float] = {}
    for layer in SPAN_LAYERS:
        entry = spans.get(layer)
        if entry is not None:
            out[layer + ".calls"] = entry["calls"]
            out[layer + ".self_s"] = entry["self_s"]
        elif layer + ".calls" in counts:
            out[layer + ".calls"] = counts[layer + ".calls"]
    if "engine.run" in spans:
        out["engine.self_s"] = spans["engine.run"]["self_s"]
    if "pool.start" in spans:
        out["sweep.pool_start_s"] = spans["pool.start"]["total_s"]
    for name in COUNTERS:
        if name in counts:
            out[name] = counts[name]
    for name, value in counts.items():
        if name.startswith("report.") and name.endswith("_s"):
            out[name] = value
    out["node.fanout"] = _ratio(counts.get("node.forwarded", 0), out.get("node.receive.calls", 0))
    out["channel.drop_ratio"] = _ratio(
        counts.get("channel.drops", 0), out.get("channel.should_drop.calls", 0)
    )
    sent = counts.get("tfmcc.feedback_sent", 0)
    suppressed = counts.get("tfmcc.feedback_suppressed", 0)
    out["tfmcc.suppression_ratio"] = _ratio(suppressed, sent + suppressed)
    hits, misses = counts.get("cache.hits", 0), counts.get("cache.misses", 0)
    out["cache.hit_ratio"] = _ratio(hits, hits + misses)
    return out


def traced_layers(run: Run, dumps: List[str], counts: Dict[str, float]) -> Dict[str, float]:
    from spans import aggregate, load_dump

    loaded = []
    for path in dumps:
        dump = load_dump(path)
        if run.check(dump is not None, f"span dump {path} missing"):
            loaded.append(dump)
            for name, value in dump["counts"].items():
                counts[name] = counts.get(name, 0) + value
    return layer_metrics(aggregate(loaded), counts)


# ------------------------------------------------------------ multicast_200

MC_DURATION = 20.0
MC_RECEIVERS = 200
#: The simulation seed is pinned: across seeds this scenario's event count
#: ranges over almost an order of magnitude (its slow-start exit is
#: seed-sensitive), which would make wall_s measure the seed, not the code.
MC_SIM_SEED = 1
#: Equal slices of simulated time a fresh run is cut into, the reference
#: kernel timed between them.
MC_SLICES = 40
#: Cache-hit lookups after each fresh run.
MC_WARM_LOOKUPS = 2


def multicast_200(run: Run) -> Dict[str, float]:
    args = {"duration": MC_DURATION, "receivers": MC_RECEIVERS, "seed": MC_SIM_SEED,
            "slices": MC_SLICES}

    def fresh(i: int, traced: bool = False, record_out: Optional[str] = None):
        out = dict(args, out=run.path(f"fresh{i}.json"), trace=traced,
                   spans=run.path(f"spans{i}.json"), record_out=record_out)
        child, result = run_child("multicast_run", out, run.env, run.remaining())
        run.check(child.returncode == 0 and bool(result), f"multicast run {i} failed")
        return child, result

    if run.trace:
        ref_child, ref = fresh(0)
        traced_child, traced = fresh(1, traced=True)
        run.check(ref.get("digest") == traced.get("digest") is not None,
                  "traced record digest differs from untraced")
        counts = dict(traced.get("counts", {}))
        counts["tracing_overhead"] = _ratio(traced_child.wall, ref_child.wall - kernel_time(ref))
        return traced_layers(run, [run.path("spans1.json")], counts)

    from repro.scenarios import ResultCache, fingerprint_spec, get_scenario

    cache_path = run.path("cache.jsonl")
    walls, setups, warm_walls, digests = [], [], [], set()
    i = 0
    while run.more(i, 3):
        before = run.kernel()
        record_out = run.path("record.json") if i == 0 else None
        child, result = fresh(i, record_out=record_out)
        after = run.kernel()
        if result:
            marks = result["marks"]
            walls.append(run.span([(child.started - before, before), *marks, (child.ended, after)]))
            setups.append(to_reference(result["built"] - child.started, (before + marks[0][1]) / 2))
            digests.add(result["digest"])
        if record_out and os.path.exists(record_out):
            with open(record_out, encoding="utf-8") as fh:
                record = json.load(fh)
            spec = get_scenario("wireless_last_hop").spec(
                duration=MC_DURATION, num_receivers=MC_RECEIVERS
            )
            ResultCache(cache_path).put(fingerprint_spec(spec, MC_SIM_SEED), record)
        for j in range(MC_WARM_LOOKUPS):
            warm_child, warm = run_child(
                "multicast_warm", dict(args, cache=cache_path, out=run.path(f"warm{i}-{j}.json")),
                run.env, run.remaining(),
            )
            before, after = after, run.kernel()
            if run.check(warm_child.returncode == 0 and warm.get("hit", False),
                         f"multicast warm lookup {i}-{j} missed"):
                warm_walls.append(run.span([(warm_child.started - before, before), *warm["marks"],
                                            (warm_child.ended, after)]))
                digests.add(warm["digest"])
        i += 1
    run.check(len(digests) == 1, f"record digests differ across repetitions: {sorted(digests)}")
    run.note(f"multicast_200: {len(walls)} fresh runs, {len(warm_walls)} cache hits, "
             f"digest {sorted(digests)[0][:16] if digests else '-'}")
    return e2e(run, walls, warm_walls, setups, runs=len(walls))


# ------------------------------------------------------------ fairness_sweep

SWEEP_NUM_TCP = [1, 2, 4, 8]
SWEEP_REPLICATIONS = 1
SWEEP_DURATION = 20.0
#: Serial, in one process: at jobs=2 on a 2-vCPU host the pass time moved
#: with how the host placed the two busy vCPUs, by more than the bound.
SWEEP_JOBS = 1
#: Warm re-runs per cycle, each in a fresh interpreter.
SWEEP_WARM_RUNS = 2


def fairness_sweep(run: Run) -> Dict[str, float]:
    rng = random.Random(f"fairness_sweep:{run.seed}")
    base_seed = rng.randrange(1, 1_000_000)
    args = {"num_tcp": SWEEP_NUM_TCP, "replications": SWEEP_REPLICATIONS,
            "duration": SWEEP_DURATION, "jobs": SWEEP_JOBS, "base_seed": base_seed}
    run.note(f"fairness_sweep: grid num_tcp={SWEEP_NUM_TCP} x {SWEEP_REPLICATIONS} seeds "
             f"from {base_seed}, {SWEEP_DURATION:g} s each, jobs={SWEEP_JOBS}")

    def cycle(i: int, traced: bool = False, warm_runs: int = SWEEP_WARM_RUNS):
        """A cold pass, then warm re-runs of the same sweep against its cache.

        Also returns the reference kernel's time right before the cold
        child was spawned.
        """
        work = run.path(f"cycle{i}")
        os.makedirs(work, exist_ok=True)
        before = run.kernel()
        child, cold = run_child("sweep_cold", dict(
            args, dir=work, out=run.path(f"cold{i}.json"), trace=traced,
            spans=run.path(f"cold{i}-spans.json")), run.env, run.remaining())
        warms: List[Dict[str, Any]] = []
        if not run.check(child.returncode == 0 and bool(cold), f"sweep cycle {i}: cold pass failed"):
            return child, cold, before, warms
        run.check(cold["executed"] == cold["runs"] == len(SWEEP_NUM_TCP) * SWEEP_REPLICATIONS
                  and cold["failed"] == 0, f"sweep cycle {i}: cold pass incomplete")
        for j in range(warm_runs):
            warm_child, warm = run_child("sweep_warm", dict(
                args, dir=work, store=f"warm{j}.jsonl", out=run.path(f"warm{i}-{j}.json"),
                trace=traced, spans=run.path(f"warm{i}-{j}-spans.json")), run.env, run.remaining())
            if run.check(warm_child.returncode == 0 and warm.get("executed") == 0
                         and warm.get("digests") == cold["digests"],
                         f"sweep cycle {i}: warm re-run {j} simulated or differs"):
                warms.append(warm)
        return child, cold, before, warms

    if run.trace:
        _child, ref, _kernel, _warms = cycle(0, warm_runs=1)
        _child, traced, _kernel, _warms = cycle(1, traced=True, warm_runs=1)
        run.check(ref.get("digests") == traced.get("digests") is not None,
                  "traced record digests differ from untraced")
        work = run.path("cycle1")
        # The reference's cold_s includes the kernels its progress hook timed.
        progress_kernels = sum(seconds for _at, seconds in ref.get("marks", [])[1:-1])
        counts = {
            "tracing_overhead": _ratio(traced.get("cold_s", 0),
                                       ref.get("cold_s", 0) - progress_kernels),
            "store.bytes": sum(os.path.getsize(os.path.join(work, name))
                               for name in os.listdir(work)
                               if name.endswith(".jsonl") and name != "cache.jsonl"),
        }
        return traced_layers(run, [run.path("cold1-spans.json"), run.path("warm1-0-spans.json")],
                             counts)

    colds, warms, setups, runs, digests = [], [], [], 0, set()
    i = 0
    while run.more(i, 3):
        child, cold, before, warm = cycle(i)
        if cold:
            colds.append(run.span(cold["marks"]))
            setups.append(to_reference(cold["ready"] - child.started,
                                       (before + cold["marks"][0][1]) / 2))
            runs += cold["runs"]
            digests.add(tuple(cold["digests"]))
        warms.extend(run.span(w["marks"]) for w in warm)
        i += 1
    run.check(len(digests) == 1, "sweep records differ across cycles")
    return e2e(run, colds, warms, setups, runs=runs)


# ------------------------------------------------------------ serve_closed_loop

SERVE_DURATION = 3.0
#: One flow mix for every submission: mixing sizes makes the latency
#: distribution multi-modal, and its median jumps between the modes.
SERVE_NUM_TCP = 2
SERVE_RESUBMITS = 4
#: Daemon starts that only answer the set-up job; the main start makes one more.
SERVE_PROBE_STARTS = 9


def _serve_payloads(seed: int, seconds: int) -> List[Dict[str, Any]]:
    """Distinct short fairness submissions; the first one is the set-up job."""
    rng = random.Random(f"serve_closed_loop:{seed}")
    count = 1 + max(100, 6 * seconds)
    seeds = rng.sample(range(1, 1_000_000), count)
    return [
        {"scenario": "fairness", "seed": s,
         "params": {"duration": SERVE_DURATION, "num_tcp": SERVE_NUM_TCP}}
        for s in seeds
    ]


class Daemon:
    """A ``repro serve``-style daemon child plus its client."""

    def __init__(self, run: Run, name: str, traced: bool = False):
        from repro.service import ServiceClient

        self.sock = os.path.join(run.work, f"{name}.sock")
        self.spans = run.path(f"{name}-spans.json")
        self.child = Child("serve_daemon", {
            "data_dir": run.path(f"{name}-data"), "sock": self.sock,
            "trace": traced, "spans": self.spans,
        }, run.env)
        run.children.append(self.child)
        self.run = run
        self.client = ServiceClient("unix://" + self.sock, timeout=60.0)
        deadline = time.monotonic() + 30.0
        while True:
            try:
                self.client.health()
                break
            except OSError:
                if time.monotonic() > deadline or self.child.proc.poll() is not None:
                    raise RuntimeError("service did not come up")
                time.sleep(0.005)

    def job(self, payload: Dict[str, Any], times: Optional[Dict[str, float]] = None):
        """Submit, wait for the terminal state and fetch the result."""
        t0 = time.perf_counter()
        job = self.client.submit(payload)
        t1 = time.perf_counter()
        status = self.client.wait(job["id"], timeout=self.run.remaining())
        t2 = time.perf_counter()
        record = self.client.result(job["id"]) if status["state"] == "done" else None
        t3 = time.perf_counter()
        if times is not None:
            times["service.submit_s"] = times.get("service.submit_s", 0.0) + (t1 - t0)
            times["service.wait_s"] = times.get("service.wait_s", 0.0) + (t2 - t1)
            times["service.result_s"] = times.get("service.result_s", 0.0) + (t3 - t2)
        return t3 - t0, status, record

    def stop(self) -> int:
        self.child.proc.send_signal(signal.SIGTERM)
        return self.child.wait(timeout=self.run.remaining())


def _service_counters(text: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for line in text.splitlines():
        for name in ("units_cached", "units_executed"):
            if line.startswith(f"repro_service_{name}_total"):
                out["service." + name] = float(line.split()[-1])
    return out


def serve_session(run: Run, daemon: Daemon, payloads: List[Dict[str, Any]],
                  times: Dict[str, float]):
    """Fresh submissions, each followed by cached resubmissions of earlier ones.

    After fresh job ``i`` is answered, the client resubmits
    ``SERVE_RESUBMITS`` seeded draws from jobs ``0..i``, which the cache
    answers.  Interleaving spreads both kinds of sample over the whole
    session: the host's speed changes every few seconds, and a cached phase
    of its own would sit inside one or two of those periods.
    """
    from repro.scenarios import encode_record

    rng = random.Random(f"serve_closed_loop:order:{run.seed}")
    fresh_lat, fresh_records, cached_lat = [], [], []
    last = run.kernel(burst=1)

    def job(payload: Dict[str, Any]):
        """One job; its latency on the reference host (kernels either side)."""
        nonlocal last
        latency, status, record = daemon.job(payload, times)
        now = run.kernel(burst=1)
        latency, last = to_reference(latency, (last + now) / 2), now
        return latency, status, record

    for i, payload in enumerate(payloads):
        latency, status, record = job(payload)
        if run.check(status["state"] == "done" and record is not None,
                     f"fresh job {i} ended {status['state']}"):
            fresh_lat.append(latency)
        fresh_records.append(record)
        for _ in range(SERVE_RESUBMITS):
            j = rng.randrange(i + 1)
            latency, status, record = job(payloads[j])
            cached = status["state"] == "done" and status["sources"]["cached"] == 1
            same = record is not None and fresh_records[j] is not None and (
                encode_record(record) == encode_record(fresh_records[j]))
            if run.check(cached and same, f"cached job {j} not cached or not identical"):
                cached_lat.append(latency)
    return fresh_lat, fresh_records, cached_lat


def serve_closed_loop(run: Run) -> Dict[str, float]:
    payloads = _serve_payloads(run.seed, run.seconds)
    setup_job, session = payloads[0], payloads[1:]
    run.note(f"serve_closed_loop: {len(session)} fresh submissions (fairness "
             f"{SERVE_DURATION:g} s, num_tcp={SERVE_NUM_TCP}, seeded), "
             f"{SERVE_RESUBMITS} cached resubmissions after each, "
             "1 worker, 1 closed-loop client on a Unix socket")

    def start(name: str, traced: bool = False):
        """A daemon that has answered the set-up job; its set-up on the reference host."""
        before = run.kernel()
        daemon = Daemon(run, name, traced)
        _latency, status, _record = daemon.job(setup_job)
        setup = time.monotonic() - daemon.child.started
        setup = to_reference(setup, (before + run.kernel()) / 2)
        run.check(status["state"] == "done", f"{name}: set-up job ended {status['state']}")
        return daemon, setup

    def stop(daemon: Daemon, name: str) -> None:
        run.check(daemon.stop() == 0, f"{name}: daemon did not drain cleanly")

    if run.trace:
        ref, _setup = start("ref")
        t0, k0 = time.perf_counter(), len(run.kernel_s)
        ref_out = serve_session(run, ref, session, {})
        ref_wall = time.perf_counter() - t0 - sum(run.kernel_s[k0:])
        stop(ref, "ref")
        traced, _setup = start("traced", traced=True)
        times: Dict[str, float] = {}
        t0, k0 = time.perf_counter(), len(run.kernel_s)
        out = serve_session(run, traced, session, times)
        traced_wall = time.perf_counter() - t0 - sum(run.kernel_s[k0:])
        times.update(_service_counters(traced.client.metrics()))
        stats = traced.client.stats()
        stop(traced, "traced")
        run.check([digest(r) for r in out[1] if r] == [digest(r) for r in ref_out[1] if r],
                  "traced served records differ from untraced")
        times["cache.hits"] = stats["cache_hits"]
        times["cache.misses"] = stats["cache_misses"]
        times["tracing_overhead"] = _ratio(traced_wall, ref_wall)
        from layers import record_counts

        # The scheduler caches and serves pure records, so worker telemetry
        # never reaches the answers; the records' own counts remain.
        times.update(record_counts(r for r in out[1] if r))
        return traced_layers(run, [traced.spans], times)

    setups = []
    for probe in range(SERVE_PROBE_STARTS):
        daemon, setup = start(f"probe{probe}")
        setups.append(setup)
        stop(daemon, f"probe{probe}")
    daemon, setup = start("main")
    setups.append(setup)
    fresh_lat, fresh_records, cached_lat = serve_session(run, daemon, session, {})
    stop(daemon, "main")

    # Outside the timed window: one served record equals a direct run.
    from repro.scenarios import encode_record, get_scenario, pure_record, run_scenario

    payload, served = session[0], fresh_records[0]
    direct = run_scenario(get_scenario("fairness").spec(**payload["params"]), seed=payload["seed"])
    run.check(served is not None and encode_record(pure_record(served)) == encode_record(direct),
              "served record differs from a direct run_scenario")
    run.note(f"serve_closed_loop: jobs_per_s={_ratio(len(cached_lat), sum(cached_lat))!r} "
             "(cached jobs on the reference host, one closed-loop client)")
    return e2e(run, fresh_lat, cached_lat, setups, runs=len(fresh_lat))


# ------------------------------------------------------------ report_quick

REPORT_JOBS = 2
#: ``--reuse`` reports after each cold one.
REPORT_WARM_RUNS = 2


def _report_data(out_dir: str) -> Dict[str, List[Dict[str, Any]]]:
    """Records of each figure dataset a report wrote, without the meta line."""
    out = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "data", "*.jsonl"))):
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        out[os.path.basename(path)] = [r for r in records if "_report_meta" not in r]
    return out


def _report_digests(out_dir: str) -> Dict[str, List[str]]:
    return {name: [digest(r) for r in records] for name, records in _report_data(out_dir).items()}


def report_quick(run: Run) -> Dict[str, float]:
    def report(name: str, out_dir: str, reuse: bool = False, traced: bool = False):
        args = {"out_dir": out_dir, "jobs": REPORT_JOBS, "reuse": reuse,
                "out": run.path(f"{name}.json"), "trace": traced,
                "spans": run.path(f"{name}-spans.json"), "run_walls": run.path(f"{name}-walls")}
        if traced:
            os.makedirs(args["run_walls"], exist_ok=True)
        child, result = run_child("report", args, run.env, run.remaining())
        run.check(child.returncode == 0 and result.get("exit") == 0,
                  f"report {name} failed --check (exit {result.get('exit')})")
        return child, result

    if run.trace:
        ref_child, ref = report("ref", run.path("ref-out"))
        traced_child, _ = report("traced", run.path("traced-out"), traced=True)
        run.check(_report_digests(run.path("ref-out")) == _report_digests(run.path("traced-out")),
                  "traced report records differ from untraced")
        from layers import read_run_walls, record_counts

        counts = record_counts(
            r for records in _report_data(run.path("traced-out")).values() for r in records
        )
        counts["tracing_overhead"] = _ratio(traced_child.wall, ref_child.wall - kernel_time(ref))
        metrics = traced_layers(run, [run.path("traced-spans.json")], counts)
        simulate = sum(v for k, v in metrics.items() if k.endswith(".simulate_s"))
        walls = read_run_walls(run.path("traced-walls"))
        metrics["report.pool_efficiency"] = _ratio(sum(walls), REPORT_JOBS * simulate)
        return metrics

    colds, warms, setups, runs, digests = [], [], [], 0, []

    def timed(name: str, out_dir: str, before: float, samples: List[float],
              reuse: bool = False) -> float:
        """One report, its reference seconds spawn to exit in ``samples``.

        ``before`` is the kernel time taken right before the spawn; returns
        the one taken right after the exit.
        """
        child, result = report(name, out_dir, reuse=reuse)
        after = run.kernel()
        if result:
            samples.append(run.span([(child.started - before, before), *result["marks"],
                                     (child.ended, after)]))
            setups.append(to_reference(result["imported"] - child.started, (before + after) / 2))
        return after

    last = run.kernel()
    i = 0
    while run.more(i, 2):
        out_dir = run.path(f"out{i}")
        last = timed(f"cold{i}", out_dir, last, colds)
        cold = _report_digests(out_dir)
        runs += sum(len(v) for v in cold.values())
        digests.append(cold)
        for j in range(REPORT_WARM_RUNS):
            last = timed(f"warm{i}-{j}", out_dir, last, warms, reuse=True)
            run.check(_report_digests(out_dir) == cold, f"report {i}: --reuse changed the data")
        i += 1
    run.check(all(d == digests[0] for d in digests), "report records differ across repetitions")
    return e2e(run, colds, warms, setups, runs=runs)


# ------------------------------------------------------------ assembly


def e2e(run: Run, fresh: List[float], warm: List[float], setups: List[float],
        runs: int) -> Dict[str, float]:
    """The end-to-end metric set shared by all workloads.

    Every sample is already in reference seconds (``to_reference``): each
    time is the median of its samples, and ``runs_per_s`` is the runs of one
    fresh sample over ``wall_s``.  Tails are printed with their sample
    counts but not gated: on a shared host they move by more than any bound
    a gate could use.
    """
    if not fresh or not warm or not setups:
        raise RuntimeError("no successful repetition to measure")
    run.details["samples"] = {"fresh": fresh, "warm": warm, "setup": setups}
    for name, values in (("fresh", fresh), ("warm", warm)):
        value, label = tail(values)
        run.note(f"{name}: n={len(values)} p50={median(values)!r} s {label}={value!r} s")
    run.note(f"setup: n={len(setups)}")
    return {
        "wall_s": median(fresh),
        "warm_s": median(warm),
        "runs_per_s": _ratio(runs / len(fresh), median(fresh)),
        "setup_s": median(setups),
        "peak_rss_mb": children_peak_rss_mb(),
    }


WORKLOADS: Dict[str, Callable[[Run], Dict[str, float]]] = {
    "multicast_200": multicast_200,
    "fairness_sweep": fairness_sweep,
    "serve_closed_loop": serve_closed_loop,
    "report_quick": report_quick,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    try:
        values = WORKLOADS[args.workload](run)
    finally:
        for child in run.children:
            if child.proc.poll() is None:
                child.proc.kill()
                child.wait()
        shutil.rmtree(run.work, ignore_errors=True)

    kind = "per_layer" if run.trace else "end_to_end"
    unknown = sorted(set(values) - {m["name"] for m in declared[kind]})
    if unknown:
        print(f"error: undeclared metrics {unknown}", file=sys.stderr)
        return 1
    metrics = {}
    absent = []
    for metric in declared[kind]:
        if metric["name"] not in values:
            absent.append(metric["name"])
        metrics[metric["name"]] = {"value": values.get(metric["name"], 0), "unit": metric["unit"]}

    env = environment()
    env["calibration_mops"] = run.calibration_mops()
    print(f"workload {run.workload} seed {run.seed} seconds {run.seconds} trace {int(run.trace)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in run.lines:
        print(line)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    if absent:
        print(f"not exercised by this workload (reported as 0): {' '.join(absent)}")
    print(f"error_rate {_ratio(run.failed, run.attempted)!r} "
          f"(failed {run.failed} / attempted {run.attempted})")
    for failure in run.failures:
        print(f"FAILED: {failure}")
    os.makedirs(os.path.join(".perfbench", "results"), exist_ok=True)
    stamp = os.path.join(".perfbench", "results",
                         f"{run.workload}-seed{run.seed}-trace{int(run.trace)}-{os.getpid()}.json")
    with open(stamp, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "kernel_s": run.kernel_s, "metrics": metrics,
                   "failures": run.failures, "lines": run.lines, **run.details}, fh, indent=1)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
