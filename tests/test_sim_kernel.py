"""Tests for the discrete-event simulation kernel, resources and devices."""

import pytest

from repro.core.config import DiskConfig, NetworkConfig
from repro.errors import SimulationError
from repro.sim.devices import CpuServer, DiskChannel, NetworkLink
from repro.sim.kernel import Environment
from repro.sim.metrics import MetricsCollector, TransactionRecord
from repro.sim.resources import Resource, Store
from repro.sim.rng import RandomStreams


# ----------------------------------------------------------------- kernel

def test_timeout_advances_virtual_time():
    env = Environment()
    times = []

    def proc(env):
        yield env.timeout(5)
        times.append(env.now)
        yield env.timeout(2.5)
        times.append(env.now)

    env.process(proc(env))
    env.run_until(100)
    assert times == [5, 7.5]
    assert env.now == 100


def test_processes_wait_on_each_other():
    env = Environment()

    def child(env):
        yield env.timeout(3)
        return "child-result"

    results = []

    def parent(env):
        value = yield env.process(child(env), "child")
        results.append((value, env.now))

    env.process(parent(env), "parent")
    env.run_until(10)
    assert results == [("child-result", 3)]


def test_all_of_waits_for_every_event():
    env = Environment()
    seen = []

    def proc(env):
        values = yield env.all_of([env.timeout(2, "a"), env.timeout(5, "b")])
        seen.append((values, env.now))

    env.process(proc(env))
    env.run_until(10)
    assert seen == [(["a", "b"], 5)]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_yielding_non_event_crashes_the_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env), "bad")
    env.run_until(1)
    assert len(env.failed_processes) == 1


def test_run_until_complete_detects_deadlock():
    env = Environment()

    def stuck(env):
        yield env.event()  # never triggered

    process = env.process(stuck(env), "stuck")
    with pytest.raises(SimulationError):
        env.run_until_complete(process)


def test_determinism_same_seed_same_schedule():
    def run():
        env = Environment()
        rng = RandomStreams(99)
        disk = DiskChannel(env, DiskConfig(), rng)
        finished = []

        def worker(env, disk, name):
            for _ in range(5):
                yield from disk.fsync()
            finished.append((name, env.now))

        env.process(worker(env, disk, "a"))
        env.process(worker(env, disk, "b"))
        env.run_until(1000)
        return finished

    assert run() == run()


# ----------------------------------------------------------------- resources

def test_resource_fifo_and_utilization():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def worker(env, resource, name, hold):
        yield resource.request()
        order.append((name, env.now))
        yield env.timeout(hold)
        resource.release()

    env.process(worker(env, resource, "a", 4))
    env.process(worker(env, resource, "b", 4))
    env.run_until(20)
    assert [name for name, _ in order] == ["a", "b"]
    assert order[1][1] == 4  # b waited for a
    assert resource.utilization(8) == pytest.approx(1.0)


def test_resource_release_when_idle_is_an_error():
    env = Environment()
    resource = Resource(env)
    with pytest.raises(SimulationError):
        resource.release()


def test_store_put_get_order_and_get_all():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    got = []

    def consumer(env, store):
        got.append((yield store.get()))
        got.append((yield store.get()))

    env.process(consumer(env, store))
    env.run_until(1)
    assert got == [1, 2]
    store.put(3)
    store.put(4)
    assert store.get_all() == [3, 4]
    assert store.pending == 0


# ----------------------------------------------------------------- devices

def test_disk_channel_service_times_within_bounds():
    env = Environment()
    disk = DiskChannel(env, DiskConfig(), RandomStreams(1))
    durations = []

    def proc(env, disk):
        for _ in range(20):
            start = env.now
            yield from disk.fsync()
            durations.append(env.now - start)

    env.process(proc(env, disk))
    env.run_until(10_000)
    assert disk.fsync_count == 20
    assert all(6.0 <= d <= 12.0 + 1e-9 for d in durations)
    assert 6.0 <= disk.mean_service_ms <= 12.0


def test_dedicated_channel_ignores_interference():
    env = Environment()
    shared = DiskChannel(env, DiskConfig(dedicated_log_channel=False), RandomStreams(1),
                         name="shared", page_io_interference_ms=50.0)
    dedicated = DiskChannel(env, DiskConfig(dedicated_log_channel=True), RandomStreams(1),
                            name="dedicated", page_io_interference_ms=50.0)
    assert shared.page_io_interference_ms == 50.0
    assert dedicated.page_io_interference_ms == 0.0


def test_cpu_server_serialises_jobs():
    env = Environment()
    cpu = CpuServer(env)
    done = []

    def worker(env, cpu, name):
        yield from cpu.execute(10)
        done.append((name, env.now))

    env.process(worker(env, cpu, "a"))
    env.process(worker(env, cpu, "b"))
    env.run_until(100)
    assert done == [("a", 10), ("b", 20)]
    assert cpu.jobs == 2


def test_network_link_delay_scales_with_size():
    env = Environment()
    net = NetworkLink(env, NetworkConfig(jitter_ms=0.0), RandomStreams(1))
    arrivals = []

    def proc(env, net):
        yield net.transfer(1024)
        arrivals.append(env.now)
        yield net.transfer(1024 * 1024)
        arrivals.append(env.now)

    env.process(proc(env, net))
    env.run_until(100)
    assert arrivals[0] < arrivals[1] - arrivals[0]
    assert net.messages == 2


# ----------------------------------------------------------------- metrics

def test_metrics_collector_window_and_summary():
    metrics = MetricsCollector(warmup_ms=100, measure_ms=1000)
    metrics.record(TransactionRecord(0, 50, True, False, "r0"))       # warm-up: ignored
    metrics.record(TransactionRecord(150, 200, True, False, "r0"))
    metrics.record(TransactionRecord(150, 250, True, True, "r1"))
    metrics.record(TransactionRecord(300, 400, False, False, "r0"))   # aborted
    metrics.record(TransactionRecord(1200, 1300, True, False, "r0"))  # after window
    assert metrics.ignored_warmup == 2
    assert metrics.count(committed=True) == 2
    assert metrics.goodput_tps() == pytest.approx(2.0)
    assert metrics.offered_tps() == pytest.approx(3.0)
    assert metrics.abort_rate() == pytest.approx(1 / 3)
    assert metrics.mean_response_ms() == pytest.approx(75.0)
    assert metrics.mean_response_ms(readonly=True) == pytest.approx(100.0)
    summary = metrics.summary()
    assert summary["completed"] == 3.0
    assert metrics.percentile_response_ms(95.0) >= metrics.percentile_response_ms(5.0)
