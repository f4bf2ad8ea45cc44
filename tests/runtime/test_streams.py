"""Stream container runtime: FIFO semantics and the structured E101
out-of-bounds diagnostic that replaced the raw ``IndexError``."""

import numpy as np
import pytest

from repro.runtime.streams import StreamArray, StreamError, StreamQueue


# ------------------------------------------------------------ StreamQueue
def test_queue_fifo_roundtrip():
    q = StreamQueue()
    q.push(1, 2)
    q.append(3)
    assert len(q) == 3 and bool(q)
    assert [q.pop(), q.read(), q.pop()] == [1, 2, 3]
    assert not q


def test_queue_capacity_overflow():
    q = StreamQueue(capacity=2)
    q.push(1, 2)
    with pytest.raises(RuntimeError, match="overflow"):
        q.push(3)


def test_queue_pop_empty():
    with pytest.raises(RuntimeError, match="empty"):
        StreamQueue().pop()


# -------------------------------------------------- bulk push and drain
def _filled(capacity, items):
    q = StreamQueue(capacity)
    q.push(*items)
    return q


@pytest.mark.parametrize("bulk", [[4, 5, 6], np.array([4, 5, 6])])
def test_push_many_is_a_run_of_pushes(bulk):
    one, many = _filled(0, [1, 2]), _filled(0, [1, 2])
    one.push(*bulk)
    many.push_many(bulk)
    assert len(many) == len(one) == 5 and bool(many)
    assert list(many) == list(one) == [1, 2, 4, 5, 6]
    many.push(7)  # elements pushed after a bulk push stay behind it
    assert [many.pop() for _ in range(6)] == [1, 2, 4, 5, 6, 7]
    assert not many and len(many) == 0


@pytest.mark.parametrize("bulk", [list(range(10)), np.arange(10)])
def test_push_many_overflows_at_the_same_element_as_push(bulk):
    one, many = _filled(5, [0, 0]), _filled(5, [0, 0])
    with pytest.raises(RuntimeError) as e1:
        one.push(*bulk)
    with pytest.raises(RuntimeError) as e2:
        many.push_many(bulk)
    assert str(e1.value) == str(e2.value)
    assert list(many) == list(one) == [0, 0, 0, 1, 2]
    with pytest.raises(RuntimeError, match="overflow"):
        many.push_many([9])  # full: not even one more
    many.push_many([])


def test_push_many_copies_the_callers_array():
    src = np.arange(4.0)
    q = StreamQueue()
    q.push_many(src[1:])
    src[:] = -1
    assert list(q.drain()) == [1.0, 2.0, 3.0]


def test_drain_empties_in_fifo_order():
    q = _filled(0, [1, 2])
    q.push_many(np.array([3, 4]))
    q.push_many(np.array([5]))
    got = q.drain()
    assert isinstance(got, np.ndarray) and got.tolist() == [1, 2, 3, 4, 5]
    empty = q.drain()
    assert len(q) == 0 and isinstance(empty, np.ndarray) and empty.shape == (0,)
    with pytest.raises(RuntimeError, match="empty"):
        q.pop()
    # One bulk push drains as the array itself: no per-element work.
    q.push_many(np.array([7.5, 8.5]))
    got = q.drain()
    assert isinstance(got, np.ndarray) and got.tolist() == [7.5, 8.5]
    q.push_many(np.array([1, 2]))
    q.clear()
    assert not q


# ------------------------------------------------------------ StreamArray
def test_array_indexing_and_flattening():
    arr = StreamArray((2, 3))
    arr[1, 2].push(42)
    assert arr.queues[5].pop() == 42
    arr2 = StreamArray((4,))
    arr2[3].push(1)  # scalar index for rank-1 streams
    assert arr2.total_elements() == 1 and arr2.any_nonempty()


def test_oob_raises_structured_e101():
    arr = StreamArray((2, 3), name="S", location=("prog", "state0"))
    with pytest.raises(StreamError) as exc:
        arr[1, 3]
    err = exc.value
    assert err.code == "E101"
    assert err.diagnostic.data == "S"
    assert err.diagnostic.sdfg == "prog"
    assert err.diagnostic.state == "state0"
    assert "dimension 1" in str(err)
    assert "3 not in [0, 3)" in str(err)


def test_negative_index_rejected_not_wrapped():
    """Flattened stream addressing must not silently alias another
    queue, so negative indices are E101 rather than python wraparound."""
    arr = StreamArray((2, 3), name="S")
    with pytest.raises(StreamError, match="-1 not in"):
        arr[1, -1]


def test_rank_mismatch_is_e101():
    arr = StreamArray((2, 3), name="S")
    with pytest.raises(StreamError, match="2 dimensions"):
        arr[1]
    with pytest.raises(StreamError, match="shape"):
        arr[1, 1, 1]


def test_stream_error_is_catchable_as_index_error():
    """Pre-existing ``except IndexError`` call sites keep working."""
    arr = StreamArray((2,))
    with pytest.raises(IndexError):
        arr[5]


def test_anonymous_stream_has_usable_message():
    arr = StreamArray((2,))  # no name/location provenance
    with pytest.raises(StreamError, match="stream 'stream'"):
        arr[2]
