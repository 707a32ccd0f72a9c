"""Inline completion: an event that succeeds with no waiter skips the queue."""

from repro.fabric import Pod, TorusTopology
from repro.host import SlotClient
from repro.shell import Role
from repro.sim import Engine, Resource, Store


def test_inline_completions_dispatch_in_trigger_order():
    eng = Engine(sanitize=True)
    seen = []
    on_dispatch = eng.sanitizer.on_dispatch

    def spy(when, event):
        seen.append(event.name)
        on_dispatch(when, event)

    eng.sanitizer.on_dispatch = spy
    waited = eng.event("waited")
    waited.add_callback(lambda _event: None)
    waited.succeed()  # has a waiter: queued
    eng.event("a").succeed()  # no waiter: dispatched at once
    eng.event("b").succeed()
    assert seen == ["a", "b"]
    assert eng.queue_length == 1
    eng.run()
    assert seen == ["a", "b", "waited"]
    assert eng.events_dispatched == 3
    assert eng.events_inlined == 2
    assert eng._seq == 3  # an inline event still consumes its number
    assert eng.sanitizer.findings == []


def test_late_waiter_on_inline_event_resumes_at_once():
    eng = Engine()
    event = eng.event()
    event.succeed("v")  # nobody waits yet
    seen = []

    def waiter(eng):
        seen.append("start")
        seen.append((yield event))
        seen.append(eng.now)
        yield eng.timeout(5.0)

    eng.process(waiter(eng))
    eng.step()  # the process start; no further dispatch is needed
    assert seen == ["start", "v", 0.0]
    eng.run()
    assert eng.now == 5.0


def test_process_keeps_running_through_inline_handoffs():
    eng = Engine()
    store = Store(eng, capacity=4)
    cores = Resource(eng, capacity=1)
    log = []

    def producer(eng):
        for item in range(3):
            yield store.put(item)  # room: completes inline
            log.append(("put", item))
        yield cores.request()  # free: completes inline
        log.append(("granted", eng.now))
        cores.release()

    process = eng.process(producer(eng))
    eng.step()
    assert log == [("put", 0), ("put", 1), ("put", 2), ("granted", 0.0)]
    assert not process.is_alive  # its end, unjoined, completed inline too
    assert eng.queue_length == 0
    assert eng.events_inlined == 5  # three puts, the grant, the process end


def test_failure_without_waiter_is_still_queued():
    eng = Engine()
    event = eng.event()
    event.fail(RuntimeError("boom"))
    assert eng.queue_length == 1 and eng.events_inlined == 0
    caught = []

    def waiter(eng):
        try:
            yield event
        except RuntimeError as exc:
            caught.append(str(exc))

    eng.process(waiter(eng))
    eng.run()
    assert caught == ["boom"]


class EchoRole(Role):
    name = "echo"

    def handle(self, packet):
        yield self.shell.engine.timeout(1_000.0)
        yield self.send(packet.response_to(size_bytes=16, payload="ok"))


def test_counts_match_the_queued_kernel_on_a_fixed_scenario():
    """Three hosts share a token and echo through a 3x4 pod.  The
    latencies and the end time are those of the kernel that queued every
    event: neither inline completion nor the shell's callback-driven DMA
    engines and links move a timestamp.  The counts are those of the
    callback-driven shell (the queued kernel with process-driven shell
    loops dispatched 763 events, 226 of them inline, over 775 numbers)."""
    eng = Engine(seed=11)
    pod = Pod(eng, topology=TorusTopology(width=3, height=4))
    pod.release_all_rx_halts()
    for node in ((2, 3), (1, 2)):
        pod.server_at(node).shell.attach_role(EchoRole())
    token = Resource(eng, capacity=1, name="token")
    # simlint: allow-unbounded-accum -- twelve requests, compared in full.
    latencies = []

    def thread(eng, client, dst, sizes):
        lease = client.lease()
        yield eng.timeout(1_000.0)
        for size in sizes:
            yield token.request()
            yield eng.timeout(10.0)
            token.release()
            yield from lease.request(dst=dst, size_bytes=size)
        latencies.extend(client.latencies_ns)

    for src, dst in (((0, 0), (2, 3)), ((1, 0), (1, 2)), ((0, 1), (2, 3))):
        client = SlotClient(pod.server_at(src))
        eng.process(thread(eng, client, dst, (4096, 512, 64, 16384)))
    eng.run()
    assert (eng.events_dispatched, eng._seq, eng.now) == (247, 259, 161_220.0)
    assert sorted(latencies) == [
        30_100.0, 30_100.0, 30_660.0, 30_660.0, 30_940.0, 31_724.0,
        35_140.0, 35_140.0, 37_996.0, 50_500.0, 50_500.0, 59_500.0,
    ]
    assert eng.events_inlined == 82
