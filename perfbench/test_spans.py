"""Self-time arithmetic of the benchmark's span tracer on nested spans."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer, aggregate, load_dump, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    names = [0, 1, 2, 1]
    parents = [-1, 0, 1, 0]
    starts = [100.0, 101.0, 102.0, 105.0]
    ends = [110.0, 104.0, 103.0, 109.0]
    durations, selfs, open_spans = self_times(names, parents, starts, ends)
    assert durations == pytest.approx([10.0, 3.0, 1.0, 4.0])
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert open_spans == 0
    # Self times of a tree add up to its root's duration.
    assert sum(selfs) == pytest.approx(durations[0])


def test_open_span_is_skipped_and_not_subtracted():
    names = [0, 1, 1]
    parents = [-1, 0, 0]
    starts = [10.0, 11.0, 13.0]
    ends = [20.0, 12.0, 0.0]  # the second child never ended
    durations, selfs, open_spans = self_times(names, parents, starts, ends)
    assert open_spans == 1
    assert durations[2] == 0.0 and selfs[2] == 0.0
    assert selfs[0] == pytest.approx(9.0)


def test_tracer_records_nesting_and_round_trips(tmp_path):
    tracer = Tracer()

    def leaf():
        return 1

    traced_leaf = tracer.wrap("leaf", leaf)

    def middle():
        return traced_leaf() + traced_leaf()

    traced_middle = tracer.wrap("middle", middle)
    assert tracer.call("root", lambda: traced_middle() + traced_leaf()) == 3

    path = str(tmp_path / "spans.json")
    tracer.dump(path)
    dump = load_dump(path)
    (thread,) = dump["threads"]
    names = [dump["names"][i] for i in thread["names"]]
    assert names == ["root", "middle", "leaf", "leaf", "leaf"]
    assert list(thread["parents"]) == [-1, 0, 1, 1, 0]

    totals = aggregate([dump])
    assert totals["leaf"]["calls"] == 3
    assert totals["middle"]["calls"] == 1
    durations, selfs, _ = self_times(
        thread["names"], thread["parents"], thread["starts"], thread["ends"]
    )
    assert totals["root"]["self_s"] == pytest.approx(durations[0] - durations[1] - durations[4])
    assert totals["middle"]["self_s"] == pytest.approx(durations[1] - durations[2] - durations[3])
    assert sum(selfs) == pytest.approx(durations[0])


def test_patch_and_uninstall_restore_the_class():
    class Thing:
        def run(self, x):
            return x * 2

    original = Thing.__dict__["run"]
    tracer = Tracer()
    tracer.patch(Thing, "run", "thing.run")
    assert Thing().run(4) == 8
    assert aggregate([{"names": tracer.names, "threads": [
        {key: getattr(buf, key) for key in ("names", "parents", "starts", "ends")}
        for buf in tracer.buffers]}])["thing.run"]["calls"] == 1
    tracer.uninstall()
    assert Thing.__dict__["run"] is original
