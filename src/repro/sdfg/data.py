"""Data descriptors: the SDFG's containers (paper §3.1).

A descriptor describes *what a container is* (element type, shape,
strides, storage location, transience); :class:`~repro.sdfg.nodes.AccessNode`
instances in states reference descriptors by name.  Two container kinds
exist: ``Array`` (a location in memory mapped to a multi-dimensional
array) and ``Stream`` (multi-dimensional arrays of concurrent queues with
push/pop semantics).  ``Scalar`` is a zero-dimensional convenience.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from repro.sdfg.dtypes import StorageType, typeclass
from repro.symbolic import Expr, Integer, Mul, Subset, sympify


class Data:
    """Base class for container descriptors."""

    def __init__(
        self,
        dtype: typeclass,
        shape: Sequence,
        transient: bool = False,
        storage: StorageType = StorageType.Default,
    ):
        if not isinstance(dtype, typeclass):
            dtype = typeclass(dtype)
        self.dtype = dtype
        self.shape: Tuple[Expr, ...] = tuple(sympify(s) for s in shape)
        self.transient = transient
        self.storage = storage

    @property
    def dims(self) -> int:
        return len(self.shape)

    def total_size(self) -> Expr:
        out: Expr = Integer(1)
        for s in self.shape:
            out = Mul.make(out, s)
        return out

    def size_bytes(self) -> Expr:
        return Mul.make(self.total_size(), Integer(self.dtype.bytes))

    def full_subset(self) -> Subset:
        return Subset.from_array(self.shape)

    @property
    def free_symbols(self) -> frozenset:
        out: frozenset = frozenset()
        for s in self.shape:
            out |= s.free_symbols
        return out

    def clone(self) -> "Data":
        raise NotImplementedError

    def validate(self) -> None:
        if any(isinstance(s, Integer) and s.value <= 0 for s in self.shape):
            raise ValueError(f"descriptor has non-positive dimension: {self.shape}")

    def __repr__(self) -> str:
        t = ", transient" if self.transient else ""
        shape = "x".join(str(s) for s in self.shape)
        return f"{type(self).__name__}({self.dtype}, [{shape}]{t})"


class Array(Data):
    """N-dimensional array container.

    ``strides`` are element strides (row-major by default); ``lifetime``
    of transients is scoped to one SDFG invocation.  ``alignment`` and
    ``start_offset`` exist for vectorization-related layouts.
    """

    def __init__(
        self,
        dtype: typeclass,
        shape: Sequence,
        transient: bool = False,
        storage: StorageType = StorageType.Default,
        strides: Optional[Sequence] = None,
        alignment: int = 0,
    ):
        super().__init__(dtype, shape, transient, storage)
        if strides is not None:
            self.strides: Tuple[Expr, ...] = tuple(sympify(s) for s in strides)
        else:
            self.strides = self.default_strides(self.shape)
        self.alignment = alignment
        #: Set by DoubleBuffering, whose added leading dimension of 2
        #: holds the two halves; it keeps the buffer from being doubled
        #: again and flags the scope in the performance model.
        self.double_buffered = False

    @staticmethod
    def default_strides(shape: Sequence[Expr]) -> Tuple[Expr, ...]:
        """C-order (row-major) strides in elements."""
        out: List[Expr] = []
        acc: Expr = Integer(1)
        for dim in reversed(shape):
            out.append(acc)
            acc = Mul.make(acc, dim)
        return tuple(reversed(out))

    def clone(self) -> "Array":
        out = Array(
            self.dtype,
            self.shape,
            self.transient,
            self.storage,
            self.strides,
            self.alignment,
        )
        out.double_buffered = self.double_buffered
        return out

    def validate(self) -> None:
        super().validate()
        if len(self.strides) != len(self.shape):
            raise ValueError(
                f"strides rank {len(self.strides)} != shape rank {len(self.shape)}"
            )


class Scalar(Data):
    """Zero-dimensional container (a single element)."""

    def __init__(
        self,
        dtype: typeclass,
        transient: bool = False,
        storage: StorageType = StorageType.Default,
    ):
        super().__init__(dtype, (1,), transient, storage)

    @property
    def dims(self) -> int:
        return 1

    def clone(self) -> "Scalar":
        return Scalar(self.dtype, self.transient, self.storage)


class Stream(Data):
    """Multi-dimensional array of concurrent FIFO queues (paper §3.1).

    ``buffer_size`` bounds each queue's capacity (0 = unbounded in
    software, synthesized depth on FPGA where Streams instantiate FIFO
    interfaces between hardware modules).
    """

    def __init__(
        self,
        dtype: typeclass,
        shape: Sequence = (1,),
        buffer_size: int = 0,
        transient: bool = False,
        storage: StorageType = StorageType.Default,
    ):
        super().__init__(dtype, shape, transient, storage)
        self.buffer_size = sympify(buffer_size)

    def clone(self) -> "Stream":
        return Stream(
            self.dtype, self.shape, self.buffer_size, self.transient, self.storage
        )
