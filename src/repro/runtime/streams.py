"""Stream container runtime: arrays of concurrent FIFO queues (paper §3.1)."""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional, Tuple

import numpy as np

from repro.diagnostics import DiagnosticError, Severity, make_diagnostic


class StreamError(DiagnosticError, IndexError):
    """Out-of-bounds stream access (code ``E101``).

    Subclasses ``IndexError`` so pre-existing ``except IndexError``
    call sites keep working, while carrying the structured diagnostic
    (stream name + SDFG location) the rest of the error layer expects.
    """

    def __init__(self, message: str, name: Optional[str] = None, location=None):
        sdfg = state = None
        if location is not None:
            sdfg, state = (tuple(location) + (None, None))[:2]
        super().__init__(
            make_diagnostic(
                "E101", message, Severity.ERROR, sdfg=sdfg, state=state, data=name
            )
        )


class StreamQueue:
    """One FIFO queue with optional bounded capacity.

    Tasklet code interacts with streams through this object: ``push``
    enqueues (the write direction of a stream memlet), ``pop`` dequeues.
    Assigning to a stream-bound output connector is equivalent to a
    single ``push``.

    Whole-domain lowerings move streams in bulk: :meth:`push_many`
    enqueues an array without touching its elements and :meth:`drain`
    hands everything back as one array, so a stream that is filled and
    emptied in bulk (the Query pattern) never pays per element.  Arrays
    pushed in bulk wait in ``_tail``, logically behind ``_q``, and are
    itemized the first time anything needs single elements.
    """

    __slots__ = ("_q", "_tail", "capacity")

    def __init__(self, capacity: int = 0, items: Optional[Iterable] = None):
        self._q: Deque = deque(items or ())
        self._tail: List[np.ndarray] = []
        self.capacity = capacity

    def _itemize(self) -> None:
        for chunk in self._tail:
            self._q.extend(chunk)
        self._tail.clear()

    def _overflow(self) -> RuntimeError:
        return RuntimeError(
            f"stream overflow (capacity {self.capacity}); on FPGA this "
            "would deadlock the pipeline"
        )

    def push(self, *values) -> None:
        if self._tail:
            self._itemize()
        for v in values:
            if self.capacity and len(self._q) >= self.capacity:
                raise self._overflow()
            self._q.append(v)

    # DaCe-compatible aliases
    append = push
    write = push

    def push_many(self, values) -> None:
        """Enqueue a sequence (list or 1-D array) in order.  A bounded
        queue overflows exactly where the equivalent run of :meth:`push`
        calls would: the elements that fit are enqueued, then the same
        error is raised."""
        room = max(self.capacity - len(self), 0) if self.capacity else len(values)
        if isinstance(values, np.ndarray):
            # A private copy: the caller's array may be a view of program data.
            self._tail.append(np.array(values[:room]))
        else:
            self._itemize()
            self._q.extend(values[:room])
        if len(values) > room:
            raise self._overflow()

    def pop(self):
        if not self._q:
            self._itemize()
            if not self._q:
                raise RuntimeError("pop from empty stream")
        return self._q.popleft()

    read = pop

    def drain(self) -> np.ndarray:
        """Dequeue everything at once, in FIFO order, as one 1-D array."""
        chunks = ([np.array(list(self._q))] if self._q else []) + self._tail
        self._q.clear()
        self._tail = []
        if len(chunks) == 1:
            return chunks[0]
        return np.concatenate(chunks) if chunks else np.empty(0)

    def __len__(self) -> int:
        return len(self._q) + sum(map(len, self._tail))

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self):
        self._itemize()
        return iter(self._q)

    def clear(self) -> None:
        self._q.clear()
        self._tail.clear()

    def __repr__(self) -> str:
        return f"StreamQueue(len={len(self)}, capacity={self.capacity})"


class StreamArray:
    """A multi-dimensional array of :class:`StreamQueue` (flattened).

    ``name`` and ``location`` (an ``(sdfg, state)`` pair) are optional
    provenance used to build structured :class:`StreamError` diagnostics
    instead of anonymous index errors.
    """

    def __init__(
        self,
        shape: Tuple[int, ...],
        capacity: int = 0,
        name: Optional[str] = None,
        location=None,
    ):
        self.shape = shape
        self.name = name
        self.location = location
        total = 1
        for s in shape:
            total *= int(s)
        self.queues: List[StreamQueue] = [StreamQueue(capacity) for _ in range(total)]

    def _flat_index(self, idx: Tuple[int, ...]) -> int:
        label = self.name or "stream"
        if len(idx) != len(self.shape):
            raise StreamError(
                f"index {idx} into stream '{label}' does not match its "
                f"shape {self.shape} ({len(idx)} components vs "
                f"{len(self.shape)} dimensions)",
                name=self.name,
                location=self.location,
            )
        flat = 0
        for dim, (x, s) in enumerate(zip(idx, self.shape)):
            x, s = int(x), int(s)
            # Negative indices are rejected rather than wrapped: flattened
            # stream addressing would silently alias a different queue.
            if x < 0 or x >= s:
                raise StreamError(
                    f"index {idx} into stream '{label}' is out of bounds "
                    f"in dimension {dim}: {x} not in [0, {s})",
                    name=self.name,
                    location=self.location,
                )
            flat = flat * s + x
        return flat

    def __getitem__(self, idx) -> StreamQueue:
        if not isinstance(idx, tuple):
            idx = (idx,)
        return self.queues[self._flat_index(idx)]

    def total_elements(self) -> int:
        return sum(len(q) for q in self.queues)

    def any_nonempty(self) -> bool:
        return any(self.queues)

    def __repr__(self) -> str:
        return f"StreamArray(shape={self.shape}, total={self.total_elements()})"
