"""Concurrent recording: N threads hammering one recorder must produce
exact merged counts, per-thread balanced stacks, and an uncorrupted
tree.  No package code shares a recorder across threads; the lock is
kept for callers that do."""

import threading

from repro.instrumentation.recorder import InstrumentationRecorder
from repro.telemetry.sink import TelemetrySink, install_sink, uninstall_sink

THREADS = 8
REPS = 200


def test_concurrent_enter_exit_counts_are_exact():
    recorder = InstrumentationRecorder()
    barrier = threading.Barrier(THREADS)
    balanced = [False] * THREADS

    def worker(tid):
        barrier.wait()  # maximize interleaving
        for i in range(REPS):
            recorder.enter("state", "shared_state")
            recorder.enter("map", f"map_t{tid}")
            recorder.exit(iterations=4, volume=32)
            recorder.event("cache", "shared_counter", itype="COUNTER")
            recorder.exit()
        balanced[tid] = recorder.is_balanced()

    threads = [threading.Thread(target=worker, args=(t,))
               for t in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert all(balanced), "every thread sees its own stack as balanced"
    assert recorder.is_balanced()

    state = recorder.root.children[("state", "shared_state")]
    assert state.count == THREADS * REPS
    assert state.duration is not None and state.duration > 0

    counter = state.children[("cache", "shared_counter")]
    assert counter.count == THREADS * REPS

    # Each thread's private map nested under the shared state, with
    # exact per-thread counts and summed measurements.
    for tid in range(THREADS):
        node = state.children[("map", f"map_t{tid}")]
        assert node.count == REPS
        assert node.iterations == REPS * 4
        assert node.volume_bytes == REPS * 32


def test_threaded_exits_forward_to_telemetry_sink():
    sink = TelemetrySink(capacity=8192)
    previous = install_sink(sink)
    try:
        recorder = InstrumentationRecorder()

        def worker():
            for _ in range(50):
                recorder.enter("tasklet", "t")
                recorder.exit(volume=8)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        install_sink(previous)
        if previous is None:
            uninstall_sink()

    events, _, dropped = sink.drain(0)
    assert dropped == 0
    timed = [e for e in events if e.kind == "tasklet"]
    assert len(timed) == 4 * 50
    assert all(e.value is not None and e.value >= 0 for e in timed)
    assert timed[0].fields == {"volume_bytes": 8}
