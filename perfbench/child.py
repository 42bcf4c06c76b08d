"""Child-process tasks of the benchmark: ``python3 child.py <task> '<json args>'``.

Every task runs in a fresh interpreter, as a user's ``repro`` command would,
and writes its result as JSON to ``args["out"]`` (the daemon task writes
nothing and serves until SIGTERM).  Times are ``time.monotonic()`` readings,
which share one clock with the parent on Linux, so the parent can measure
set-up from the moment it spawned the process.  With ``"trace": true`` the
task installs the span wrappers first and dumps its spans to
``args["spans"]`` on the way out.
"""

import json
import os
import sys
import time


def _tracer(args):
    if not args.get("trace"):
        return None
    from spans import Tracer

    return Tracer()


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _mark(marks):
    """Time the reference kernel now; note ``(started, seconds)`` in ``marks``.

    The parent scales the time between two marks by the kernel's speed at
    both ends (``common.reference_span``).
    """
    from common import kernel_seconds

    marks.append((time.monotonic(), kernel_seconds()))


def multicast_run(args):
    """One ``wireless_last_hop`` simulation on the exact engine."""
    from common import digest
    from repro.engines import get_engine
    from repro.scenarios import get_scenario

    tracer = _tracer(args)
    if tracer is not None:
        import layers

        layers.install_sim(tracer)
        layers.install_orch(tracer)
    imported = time.monotonic()
    spec = get_scenario("wireless_last_hop").spec(
        duration=args["duration"], num_receivers=args["receivers"]
    )
    factory = get_engine(spec.engine.kind)
    marks = []
    if tracer is None:
        built = factory.build(spec, seed=args["seed"])
        built_at = time.monotonic()
        # The run to spec.duration, as BuiltScenario.run makes it, in equal
        # slices of simulated time with the reference kernel timed between
        # them, so the host's speed is sampled all through the run.  The
        # traced run is not cut, and its record must still be identical.
        slices = args["slices"]
        for k in range(1, slices + 1):
            built.sim.run(until=spec.duration * k / slices)
            _mark(marks)
        ran_at = time.monotonic()
        record = built.collect()
    else:
        built = tracer.call("build", factory.build, spec, seed=args["seed"])
        built_at = time.monotonic()
        built.run()
        ran_at = time.monotonic()
        record = tracer.call("collect", built.collect)
    done = time.monotonic()
    result = {
        "imported": imported,
        "built": built_at,
        "ran": ran_at,
        "marks": marks,
        "done": done,
        "events": record["events"],
        "digest": digest(record),
    }
    if args.get("record_out"):
        _write(args["record_out"], record)
    if tracer is not None:
        import layers

        result["counts"] = layers.sim_counts(built)
        tracer.dump(args["spans"])
    _write(args["out"], result)


def multicast_warm(args):
    """The same run answered from the result cache (``repro run --cache``).

    The reference kernel is timed before and after the imports and at the end.
    """
    marks = []
    _mark(marks)
    from common import digest
    from repro.scenarios import ResultCache, fingerprint_spec, get_scenario

    _mark(marks)
    spec = get_scenario("wireless_last_hop").spec(
        duration=args["duration"], num_receivers=args["receivers"]
    )
    cache = ResultCache(args["cache"])
    record = cache.get(fingerprint_spec(spec, args["seed"]))
    hit = record is not None
    found = digest(record) if hit else None
    _mark(marks)
    _write(args["out"], {"hit": hit, "digest": found, "marks": marks})


def _fairness_sweep(args):
    from repro.scenarios import SweepRunner

    return SweepRunner(
        "fairness",
        grid={"num_tcp": args["num_tcp"]},
        params={"duration": args["duration"]},
        replications=args["replications"],
        base_seed=args["base_seed"],
        jobs=args["jobs"],
    )


def sweep_cold(args):
    """A cold ``SweepRunner`` pass with a store and a fresh result cache.

    Untraced, the reference kernel is timed before and after the pass and,
    through the ``progress`` hook ``repro sweep`` reports with, after every
    run.
    """
    from common import digest
    from repro.scenarios import ResultCache, ResultStore

    tracer = _tracer(args)
    if tracer is not None:
        import layers

        os.environ["REPRO_TELEMETRY"] = "1"
        # The pass is serial, so its simulations run in this process.
        layers.install_sim(tracer)
        layers.install_orch(tracer)
    runner = _fairness_sweep(args)
    ready = time.monotonic()
    work = args["dir"]
    cache = ResultCache(os.path.join(work, "cache.jsonl"))
    marks = []
    progress = None
    if tracer is None:
        _mark(marks)
        progress = lambda done, total, record: _mark(marks)  # noqa: E731
    started = time.perf_counter()
    records = runner.execute(store=ResultStore(os.path.join(work, "cold.jsonl")), cache=cache,
                             progress=progress)
    cold_s = time.perf_counter() - started
    if tracer is None:
        _mark(marks)
    stats = runner.stats
    if tracer is not None:
        for name, value in layers.record_counts(records).items():
            tracer.count(name, value)
        tracer.count("sweep.retried", stats.retried)
        tracer.count("sweep.utilisation", stats.utilisation(args["jobs"]))
        tracer.count("cache.hits", cache.hits)
        tracer.count("cache.misses", cache.misses)
        tracer.dump(args["spans"])
    _write(args["out"], {
        "ready": ready,
        "cold_s": cold_s,
        "marks": marks,
        "runs": len(records),
        "executed": stats.executed,
        "failed": stats.failed,
        "digests": [digest(r) for r in records],
    })


def sweep_warm(args):
    """The same sweep re-run in a fresh interpreter, answered by the cache.

    A fresh interpreter, as a user's re-run is: the first warm pass in a
    process pays one-off costs (the provenance stamp imports numpy) that
    further passes in the same process would hide.
    """
    from common import digest
    from repro.scenarios import ResultCache, ResultStore

    tracer = _tracer(args)
    if tracer is not None:
        import layers

        layers.install_orch(tracer)
    runner = _fairness_sweep(args)
    work = args["dir"]
    cache = ResultCache(os.path.join(work, "cache.jsonl"))
    marks = []
    _mark(marks)
    started = time.perf_counter()
    records = runner.execute(store=ResultStore(os.path.join(work, args["store"])), cache=cache)
    warm_s = time.perf_counter() - started
    _mark(marks)
    if tracer is not None:
        tracer.count("cache.hits", cache.hits)
        tracer.count("cache.misses", cache.misses)
        tracer.dump(args["spans"])
    _write(args["out"], {
        "warm_s": warm_s,
        "marks": marks,
        "executed": runner.stats.executed,
        "digests": [digest(r) for r in records],
    })


def serve_daemon(args):
    """A ``ReproService`` on a Unix socket with one worker, until SIGTERM."""
    tracer = _tracer(args)
    if tracer is not None:
        import layers

        layers.install_orch(tracer)
    from repro.service import ReproService

    service = ReproService(args["data_dir"], uds=args["sock"], workers=1)
    try:
        service.run(install_signals=True)
    finally:
        if tracer is not None:
            tracer.dump(args["spans"])


class _KernelClock:
    """Stands in for ``sys.stderr``: times the reference kernel at log lines.

    The report logs when each figure starts and ends its simulations and
    each check's outcome, so the host's speed is sampled all through the
    report.  Lines logged while a figure's pool is busy ("k/n done") are
    skipped: the kernel would share the cores with the pool's workers.
    """

    def __init__(self, stream):
        self.stream = stream
        self.line = ""
        self.marks = []

    def write(self, text):
        written = self.stream.write(text)
        self.line += text
        if "\n" in self.line:
            if not self.line.rstrip().endswith(" done"):
                _mark(self.marks)
            self.line = self.line.rsplit("\n", 1)[1]
        return written

    def __getattr__(self, name):
        return getattr(self.stream, name)


def report(args):
    """``repro report --quick --check --no-plots`` through the CLI entry point."""
    tracer = _tracer(args)
    phases = None
    if tracer is not None:
        import layers

        os.environ["REPRO_TELEMETRY"] = "1"
        os.environ[layers.RUN_WALL_DIR] = args["run_walls"]
    from repro import cli
    import repro.report.runner  # noqa: F401 - the command imports it lazily; count it in set-up

    if tracer is not None:
        layers.install_orch(tracer)
        phases = layers.ReportPhases(tracer)
        phases.install()
    imported = time.monotonic()
    argv = ["report", "--quick", "--check", "--no-plots", "--jobs", str(args["jobs"]),
            "--out", args["out_dir"]]
    if args.get("reuse"):
        argv.append("--reuse")
    clock = _KernelClock(sys.stderr) if tracer is None else None
    if clock is not None:
        sys.stderr = clock
    try:
        code = cli.main(argv)
    finally:
        sys.stderr = sys.__stderr__
    result = {"imported": imported, "exit": code, "marks": clock.marks if clock else []}
    if tracer is not None:
        for name, value in phases.phases().items():
            tracer.count(name, value)
        tracer.dump(args["spans"])
    _write(args["out"], result)


TASKS = {
    "multicast_run": multicast_run,
    "multicast_warm": multicast_warm,
    "sweep_cold": sweep_cold,
    "sweep_warm": sweep_warm,
    "serve_daemon": serve_daemon,
    "report": report,
}


if __name__ == "__main__":
    TASKS[sys.argv[1]](json.loads(sys.argv[2]))
