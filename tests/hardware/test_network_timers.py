"""The fluid model's timers are plain ``call_later`` callbacks.

A flow costs the kernel a completion timer, a latency callback and its
own done event -- no generator process -- and the callbacks keep the
completion order, the stale-token rule and the failure paths of the
process-based timers they replace.
"""

import pytest

from repro.common.calibration import Calibration
from repro.common.errors import PartitionError
from repro.hardware import Cluster
from repro.sim import core

RATE = Calibration().nic_rate
LAT = Calibration().net_latency


@pytest.fixture()
def spawned(monkeypatch):
    """Names of the processes created while the test runs."""
    names: list[str] = []
    init = core.Process.__init__

    def counting_init(self, engine, generator, name=None):
        init(self, engine, generator, name)
        names.append(self.name)

    monkeypatch.setattr(core.Process, "__init__", counting_init)
    return names


class TestKernelCost:
    @pytest.mark.parametrize("src, dst, nbytes, dispatched", [
        ("node0", "node1", RATE, 3),  # completion timer, latency callback, done
        ("node0", "node1", 0, 2),     # latency callback, done
        ("node0", "node0", RATE, 2),  # loopback callback, done
    ])
    def test_transfer_spawns_no_process(self, spawned, src, dst, nbytes, dispatched):
        c = Cluster(2)
        engine = c.engine
        before = engine.events_dispatched
        done = c.network.transfer(src, dst, nbytes)
        engine.run(until=done)
        assert spawned == []
        assert engine.events_dispatched - before == dispatched
        assert engine.peek() == float("inf")

    def test_unreachable_drop_spawns_no_process(self, spawned):
        c = Cluster(2)
        c.network.cut("node1")
        done = c.network.transfer("node0", "node1", RATE)
        with pytest.raises(PartitionError):
            c.engine.run(until=done)
        assert spawned == []
        assert c.engine.now == LAT


class TestOrdering:
    def test_simultaneous_finishers_resolve_in_flow_set_order(self):
        c = Cluster(4)
        net = c.network
        a = net.transfer("node0", "node1", RATE)
        b = net.transfer("node2", "node3", RATE)
        label = {a: "a", b: "b"}
        set_order = [label[f.done] for f in net._flows]
        fired: list[tuple[str, float, float]] = []
        for ev in (a, b):
            ev.callbacks.append(
                lambda e: fired.append((label[e], c.engine.now, e.value)))
        c.run()
        assert [name for name, _, _ in fired] == set_order
        assert fired[0][1:] == fired[1][1:] == (1.0 + LAT, 1.0 + LAT)

    def test_superseded_timer_fires_and_changes_nothing(self):
        c = Cluster(3)
        net = c.network
        stale_calls = []
        on_timer = net._on_timer

        def state():
            return ([(f.remaining, f.rate) for f in net._flows],
                    net._timer_token, net.bytes_delivered)

        def spy(token, expected):
            stale = token != net._timer_token
            before = state()
            on_timer(token, expected)
            if stale:
                stale_calls.append(c.engine.now)
                assert state() == before

        net._on_timer = spy
        first = net.transfer("node0", "node2", RATE)  # alone: done at 1.0

        def second():
            yield c.engine.timeout(0.5)
            yield net.transfer("node1", "node2", RATE)  # halves node2's downlink

        c.engine.process(second())
        c.run()
        # the 1.0 s timer armed for the first flow fired after being superseded
        assert stale_calls == [1.0]
        assert first.value == pytest.approx(1.5 + LAT)
        assert net.bytes_delivered == 2 * RATE


class TestFailures:
    def test_cut_mid_transfer_fails_with_partition_error(self):
        c = Cluster(2)
        net = c.network
        done = net.transfer("node0", "node1", RATE)

        def chaos():
            yield c.engine.timeout(0.5)
            net.cut("node1")

        c.engine.process(chaos())
        with pytest.raises(PartitionError):
            c.engine.run(until=done)
        assert c.engine.now == 0.5
        c.run()  # the flow's superseded timer drains without delivering
        assert net.bytes_delivered == 0
        assert net.active_flow_count() == 0
