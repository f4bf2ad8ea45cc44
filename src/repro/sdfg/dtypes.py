"""Type system and enumerations of the SDFG IR.

``typeclass`` wraps a NumPy scalar type and knows how to render itself in
each code-generation dialect.  Storage and schedule enumerations mirror
the paper's container/Map properties (§3.1, §3.3): containers are *tied
to a specific storage location* and Maps are *tied to schedules* that
determine how they lower to code on each platform.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

import numpy as np


class typeclass:
    """A scalar element type, bridging NumPy, C++, and Python."""

    _CTYPES: Dict[str, str] = {
        "bool": "bool",
        "int8": "char",
        "int16": "short",
        "int32": "int",
        "int64": "long long",
        "uint8": "unsigned char",
        "uint16": "unsigned short",
        "uint32": "unsigned int",
        "uint64": "unsigned long long",
        "float32": "float",
        "float64": "double",
        "complex64": "cuFloatComplex",
        "complex128": "cuDoubleComplex",
    }

    def __init__(self, nptype: type):
        self.nptype = np.dtype(nptype)
        self.name = self.nptype.name

    @property
    def bytes(self) -> int:
        return self.nptype.itemsize

    @property
    def ctype(self) -> str:
        if self.name.startswith("complex"):
            inner = "float" if self.name == "complex64" else "double"
            return f"std::complex<{inner}>"
        return self._CTYPES[self.name]

    def as_numpy(self) -> np.dtype:
        return self.nptype

    def is_integer(self) -> bool:
        return np.issubdtype(self.nptype, np.integer)

    def is_float(self) -> bool:
        return np.issubdtype(self.nptype, np.floating)

    def is_complex(self) -> bool:
        return np.issubdtype(self.nptype, np.complexfloating)

    def zero(self):
        return self.nptype.type(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, typeclass):
            return self.nptype == other.nptype
        if isinstance(other, (type, np.dtype)):
            return self.nptype == np.dtype(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.nptype)

    def __call__(self, *shape):
        """``float64[M, N]``-style annotation support (via __getitem__)."""
        return self.__getitem__(shape)

    def __getitem__(self, shape):
        from repro.sdfg.data import Array

        if not isinstance(shape, tuple):
            shape = (shape,)
        return Array(self, shape)

    def __repr__(self) -> str:
        return f"repro.{self.name}"

    def __str__(self) -> str:
        return self.name


bool_ = typeclass(np.bool_)
int8 = typeclass(np.int8)
int16 = typeclass(np.int16)
int32 = typeclass(np.int32)
int64 = typeclass(np.int64)
uint8 = typeclass(np.uint8)
uint16 = typeclass(np.uint16)
uint32 = typeclass(np.uint32)
uint64 = typeclass(np.uint64)
float32 = typeclass(np.float32)
float64 = typeclass(np.float64)
complex64 = typeclass(np.complex64)
complex128 = typeclass(np.complex128)

_BY_NAME = {
    t.name: t
    for t in (
        bool_,
        int8,
        int16,
        int32,
        int64,
        uint8,
        uint16,
        uint32,
        uint64,
        float32,
        float64,
        complex64,
        complex128,
    )
}


def dtype_from_name(name: str) -> typeclass:
    try:
        return _BY_NAME[name]
    except KeyError as err:
        raise ValueError(f"unknown dtype {name!r}") from err


def dtype_of(value) -> typeclass:
    """Typeclass of a NumPy array/scalar or Python number."""
    if isinstance(value, np.ndarray):
        return typeclass(value.dtype.type)
    if isinstance(value, (bool, np.bool_)):
        return bool_
    if isinstance(value, (int, np.integer)):
        return int64
    if isinstance(value, (float, np.floating)):
        return float64
    if isinstance(value, (complex, np.complexfloating)):
        return complex128
    raise TypeError(f"cannot infer dtype of {type(value).__name__}")


class StorageType(enum.Enum):
    """Where a container lives (paper §3.1: containers are tied to a
    storage location, which may be on a GPU 'or even a file')."""

    Default = enum.auto()
    CPU_Heap = enum.auto()
    CPU_Pinned = enum.auto()
    CPU_ThreadLocal = enum.auto()
    Register = enum.auto()
    GPU_Global = enum.auto()
    GPU_Shared = enum.auto()
    FPGA_Global = enum.auto()  # off-chip DDR banks
    FPGA_Local = enum.auto()  # on-chip BRAM/URAM
    FPGA_Registers = enum.auto()


class ScheduleType(enum.Enum):
    """How a Map/Consume scope lowers to code (paper §3.3)."""

    Default = enum.auto()
    Sequential = enum.auto()
    CPU_Multicore = enum.auto()  # OpenMP parallel for
    GPU_Device = enum.auto()  # CUDA kernel grid
    GPU_ThreadBlock = enum.auto()  # CUDA block-level
    FPGA_Device = enum.auto()  # processing-element replication


#: Storage a schedule's local transients default to.
SCOPEDEFAULT_STORAGE = {
    ScheduleType.Default: StorageType.CPU_Heap,
    ScheduleType.Sequential: StorageType.CPU_Heap,
    ScheduleType.CPU_Multicore: StorageType.CPU_ThreadLocal,
    ScheduleType.GPU_Device: StorageType.GPU_Shared,
    ScheduleType.GPU_ThreadBlock: StorageType.Register,
    ScheduleType.FPGA_Device: StorageType.FPGA_Local,
}

#: Which storage types a given schedule may legally access (validation).
STORAGE_ACCESSIBLE_FROM = {
    ScheduleType.Default: {
        StorageType.Default,
        StorageType.CPU_Heap,
        StorageType.CPU_Pinned,
        StorageType.CPU_ThreadLocal,
        StorageType.Register,
    },
    ScheduleType.Sequential: {
        StorageType.Default,
        StorageType.CPU_Heap,
        StorageType.CPU_Pinned,
        StorageType.CPU_ThreadLocal,
        StorageType.Register,
    },
    ScheduleType.CPU_Multicore: {
        StorageType.Default,
        StorageType.CPU_Heap,
        StorageType.CPU_Pinned,
        StorageType.CPU_ThreadLocal,
        StorageType.Register,
    },
    ScheduleType.GPU_Device: {
        StorageType.GPU_Global,
        StorageType.GPU_Shared,
        StorageType.Register,
        StorageType.CPU_Pinned,
    },
    ScheduleType.GPU_ThreadBlock: {
        StorageType.GPU_Global,
        StorageType.GPU_Shared,
        StorageType.Register,
    },
    ScheduleType.FPGA_Device: {
        StorageType.FPGA_Global,
        StorageType.FPGA_Local,
        StorageType.FPGA_Registers,
    },
}


class Language(enum.Enum):
    """Tasklet source language (paper §2.1 "External Code")."""

    Python = enum.auto()
    CPP = enum.auto()


class ReductionType(enum.Enum):
    """Recognized write-conflict-resolution functions.

    WCR memlets carry arbitrary lambdas; recognizing common reductions
    lets backends emit atomics/vendor reductions (paper §3.3).
    """

    Custom = enum.auto()
    Sum = enum.auto()
    Product = enum.auto()
    Min = enum.auto()
    Max = enum.auto()
    LogicalAnd = enum.auto()
    LogicalOr = enum.auto()


_WCR_CANONICAL = {
    "lambda a, b: a + b": ReductionType.Sum,
    "lambda a, b: a * b": ReductionType.Product,
    "lambda a, b: min(a, b)": ReductionType.Min,
    "lambda a, b: max(a, b)": ReductionType.Max,
    "lambda a, b: a and b": ReductionType.LogicalAnd,
    "lambda a, b: a or b": ReductionType.LogicalOr,
}

_WCR_ALIASES = {
    "sum": "lambda a, b: a + b",
    "+": "lambda a, b: a + b",
    "product": "lambda a, b: a * b",
    "*": "lambda a, b: a * b",
    "min": "lambda a, b: min(a, b)",
    "max": "lambda a, b: max(a, b)",
}


def canonicalize_wcr(wcr: Optional[str]) -> Optional[str]:
    """Normalize a WCR spec (alias or lambda string) to a lambda string."""
    if wcr is None:
        return None
    wcr = wcr.strip()
    return _WCR_ALIASES.get(wcr, wcr)


def detect_reduction_type(wcr: Optional[str]) -> ReductionType:
    wcr = canonicalize_wcr(wcr)
    if wcr is None:
        raise ValueError("no WCR given")
    normalized = " ".join(wcr.split())
    return _WCR_CANONICAL.get(normalized, ReductionType.Custom)
