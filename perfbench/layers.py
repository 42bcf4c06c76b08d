"""Where the traced runs put their spans, and how counts are read back.

``install_sim`` wraps the per-packet simulation layers at the class, before
any scenario is built, so event callbacks captured later (link drains,
multicast fan-out targets) already point at the wrappers.  ``install_orch``
wraps the orchestration layers a sweep, the service daemon or the report
runner drive from their own process.  ``sim_counts`` and
``record_counts`` read the work counters the simulator already keeps:
the first from a finished in-process simulation, the second from result
records, including the ``run.telemetry`` section pool workers attach
under ``REPRO_TELEMETRY=1``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import os
import time
from typing import Any, Dict, Iterable, List, Mapping

from spans import Tracer

#: (module, class, attribute, span name) of every simulation-layer wrap.
SIM_WRAPS = [
    ("repro.simulator.engine", "Simulator", "run", "engine.run"),
    ("repro.simulator.link", "Link", "enqueue", "link.enqueue"),
    ("repro.simulator.link", "Link", "_finish_transmission", "link.finish"),
    ("repro.simulator.node", "Node", "receive", "node.receive"),
    ("repro.simulator.node", "Node", "send", "node.send"),
    ("repro.simulator.monitor", "ThroughputMonitor", "record", "monitor.record"),
    ("repro.core.receiver", "TFMCCReceiver", "receive", "tfmcc.receiver.receive"),
    ("repro.core.sender", "TFMCCSender", "receive", "tfmcc.sender.receive"),
    ("repro.core.sender", "TFMCCSender", "_send_next_packet", "tfmcc.sender.send"),
    ("repro.tcp.reno", "TCPRenoSender", "receive", "tcp.sender.receive"),
    ("repro.tcp.sink", "TCPSink", "receive", "tcp.sink.receive"),
    ("repro.tfrc.receiver", "TFRCReceiver", "receive", "tfrc.receive"),
    ("repro.metrics.trace", "TraceRecorder", "emit", "trace.probe"),
    ("repro.engines.cohort", "_FlowCohort", "_step", "cohort.step"),
    ("repro.scenarios.build", None, "summarise_trace", "trace.summarise"),
]

#: Orchestration-layer wraps (parent side of sweeps, service, report).
ORCH_WRAPS = [
    ("repro.scenarios.sweep", "SweepRun", "resolve_spec", "spec.resolve"),
    ("repro.scenarios.spec", "ScenarioSpec", "to_dict", "spec.to_dict"),
    ("repro.scenarios.cache", None, "fingerprint", "cache.fingerprint"),
    ("repro.scenarios.cache", "ResultCache", "get", "cache.get"),
    ("repro.scenarios.cache", "ResultCache", "put", "cache.put"),
    ("repro.scenarios.store", "ResultStore", "append_many", "store.append"),
    ("repro.scenarios.sweep", "SweepManifest", "save", "sweep.manifest_save"),
    ("repro.scenarios.sweep", "HeartbeatStream", "emit", "sweep.heartbeat"),
    ("repro.service.jobs", "JobJournal", "append", "service.journal_append"),
    ("concurrent.futures.process", "ProcessPoolExecutor",
     "_start_executor_manager_thread", "pool.start"),
    ("multiprocessing.pool", "Pool", "__init__", "pool.start"),
]

#: Engine event categories (``module.Class.method``) behind event-callback
#: layers, for counts taken from worker telemetry.
EVENT_CATEGORIES = {
    "link.finish": "link.Link._finish_transmission",
    "node.receive": "node.Node.receive",
    "tfmcc.sender.send": "sender.TFMCCSender._send_next_packet",
    "cohort.step": "cohort._FlowCohort._step",
}


def _apply(tracer: Tracer, wraps: Iterable[tuple]) -> None:
    for module_name, class_name, attr, span in wraps:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        tracer.patch(owner, attr, span)


def install_sim(tracer: Tracer) -> None:
    """Wrap the simulation layers (call before building any scenario)."""
    _apply(tracer, SIM_WRAPS)
    from repro.channel import models

    for value in list(vars(models).values()):
        if isinstance(value, type) and "should_drop" in value.__dict__:
            if value is not models.ChannelModel:
                tracer.patch(value, "should_drop", "channel.should_drop")


def install_orch(tracer: Tracer) -> None:
    """Wrap the orchestration layers and unpatch them in forked workers."""
    _apply(tracer, ORCH_WRAPS)
    from repro.scenarios.store import ResultStore

    original = ResultStore.__dict__["appender"]

    @contextlib.contextmanager
    def appender(store: Any):
        with original(store) as write:
            yield tracer.wrap("store.append", write)

    tracer.replace(ResultStore, "appender", appender)
    tracer.forget_after_fork()


# ----------------------------------------------------------------- report


class ReportPhases:
    """Per-figure phase times of one ``repro report`` invocation.

    Marks are taken at the figure's own calls, and each interval between
    two marks is credited to one phase: ``resolve`` from ``figure.requests``
    until the simulations start, ``simulate`` for the runner's
    ``_execute_requests``, ``figure_build`` for ``figure.build`` (analysis
    model overlays included) and ``write`` for everything between (the
    dataset, CSV and JSON files) until the next figure or the report's end.
    """

    #: Phase credited with the interval that starts at each mark.
    CREDIT = {
        "resolve": "resolve",
        "simulate": "simulate",
        "simulate.end": "write",
        "figure_build": "figure_build",
        "figure_build.end": "write",
    }

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.marks: List[tuple] = []
        self.current = None

    def install(self) -> None:
        from repro.report import runner

        for name, figure in list(runner.FIGURES.items()):
            runner.FIGURES[name] = dataclasses.replace(
                figure,
                requests=self._marking(name, "resolve", figure.requests, end=False),
                build=self._marking(name, "figure_build", figure.build, end=True),
            )
        execute = runner._execute_requests
        self.tracer.replace(
            runner, "_execute_requests",
            self._marking(None, "simulate", execute, end=True),
        )
        import repro.report as package  # the CLI calls the package's run_report

        run_report = package.run_report

        def finished(*args: Any, **kwargs: Any) -> Any:
            try:
                return run_report(*args, **kwargs)
            finally:
                self.marks.append((self.current, "end", time.perf_counter()))

        self.tracer.replace(package, "run_report", finished)
        self.tracer.replace(runner, "execute_run", timed_execute_run)
        # The runner imported ``fingerprint`` by name before it was wrapped.
        from repro.scenarios import cache

        self.tracer.replace(runner, "fingerprint", cache.fingerprint)

    def _marking(self, figure, phase, fn, end):
        def marked(*args: Any, **kwargs: Any) -> Any:
            if figure is not None and phase == "resolve":
                self.current = figure
            self.marks.append((self.current, phase, time.perf_counter()))
            try:
                return fn(*args, **kwargs)
            finally:
                if end:
                    self.marks.append((self.current, phase + ".end", time.perf_counter()))

        return marked

    def phases(self) -> Dict[str, float]:
        """``report.<figure>.<phase>_s`` for every figure that ran."""
        out: Dict[str, float] = {}
        for (figure, phase, t), (_f, _p, t_next) in zip(self.marks, self.marks[1:]):
            key = f"report.{figure}.{self.CREDIT[phase]}_s"
            out[key] = out.get(key, 0.0) + (t_next - t)
        return out


#: Directory (from the environment, inherited by pool workers) where
#: :func:`timed_execute_run` appends one wall time per executed run.
RUN_WALL_DIR = "PERFBENCH_RUN_WALL_DIR"


def timed_execute_run(run: Any) -> Dict[str, Any]:
    """``execute_run`` that also logs its wall time, wherever it runs.

    The report runner's pool gives the parent no per-run timing, and pool
    efficiency needs the sum of run walls; this is the one time taken
    inside a worker.  The record is returned unchanged.
    """
    from repro.scenarios.sweep import execute_run

    started = time.perf_counter()
    record = execute_run(run)
    wall = time.perf_counter() - started
    directory = os.environ.get(RUN_WALL_DIR)
    if directory:
        with open(os.path.join(directory, f"runwall-{os.getpid()}.txt"), "a") as fh:
            fh.write(f"{wall!r}\n")
    return record


def read_run_walls(directory: str) -> List[float]:
    walls: List[float] = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("runwall-"):
            with open(os.path.join(directory, name)) as fh:
                walls.extend(float(line) for line in fh if line.strip())
    return walls


# ----------------------------------------------------------------- counts


def _agents(built: Any) -> List[Any]:
    seen: Dict[int, Any] = {}
    for node in built.network.nodes.values():
        for agent in node.agents.values():
            seen.setdefault(id(agent), agent)
        for members in node.group_members.values():
            for agent in members:
                seen.setdefault(id(agent), agent)
    return list(seen.values())


def sim_counts(built: Any) -> Dict[str, float]:
    """Work counters of a finished in-process simulation."""
    from repro.core.receiver import TFMCCReceiver
    from repro.core.sender import TFMCCSender
    from repro.tcp.reno import TCPRenoSender

    sim, links = built.sim, built.network.links
    out: Dict[str, float] = {
        "engine.events": sim.events_processed,
        "engine.compactions": sim.compactions,
        "engine.reschedule_fast_hits": sim.reschedule_fast_hits,
        "link.queue_drops": sum(link.queue_drops for link in links),
        "link.queue_peak": max((link.queue_peak for link in links), default=0),
        "channel.drops": sum(link.random_drops for link in links),
        "node.forwarded": sum(n.packets_forwarded for n in built.network.nodes.values()),
    }
    for agent in _agents(built):
        if isinstance(agent, TFMCCReceiver):
            out["tfmcc.feedback_sent"] = out.get("tfmcc.feedback_sent", 0) + agent.feedback_sent
            out["tfmcc.feedback_suppressed"] = (
                out.get("tfmcc.feedback_suppressed", 0) + agent.feedback_suppressed
            )
        elif isinstance(agent, TFMCCSender):
            out["tfmcc.clr_changes"] = out.get("tfmcc.clr_changes", 0) + agent.clr_changes
        elif isinstance(agent, TCPRenoSender):
            out["tcp.retransmits"] = out.get("tcp.retransmits", 0) + agent.retransmits
            out["tcp.timeouts"] = out.get("tcp.timeouts", 0) + agent.timeouts
    return out


def record_counts(records: Iterable[Mapping[str, Any]]) -> Dict[str, float]:
    """Work counters summed over result records.

    Every record carries its event count and, with ``link_stats``, link
    drop totals; records executed under ``REPRO_TELEMETRY=1`` add their
    ``run.telemetry`` section (engine counters and events by callback).
    """
    out: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    for record in records:
        add("engine.events", record.get("events", 0))
        section = (record.get("run") or {}).get("telemetry")
        if not section:
            links = record.get("links") or {}
            add("link.queue_drops", links.get("queue_drops", 0))
            add("channel.drops", links.get("random_drops", 0))
            continue
        counters = section.get("counters", {})
        gauges = section.get("gauges", {})
        add("engine.compactions", counters.get("engine.compactions", 0))
        add("engine.reschedule_fast_hits", counters.get("engine.reschedule_fast_hits", 0))
        add("link.queue_drops", counters.get("link.drops{cause=queue}", 0))
        add("channel.drops", counters.get("link.drops{cause=random}", 0))
        add("cohort.reports_injected", counters.get("cohort.reports_injected", 0))
        add("tcp.timeouts", counters.get(
            "engine.events{category=reno.TCPRenoSender._on_timeout}", 0))
        out["link.queue_peak"] = max(out.get("link.queue_peak", 0), gauges.get("queue.peak", 0))
        for layer, category in EVENT_CATEGORIES.items():
            add(layer + ".calls", counters.get(f"engine.events{{category={category}}}", 0))
    return out
