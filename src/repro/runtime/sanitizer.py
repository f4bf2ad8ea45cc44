"""Dynamic memlet sanitizer: per-access guards for executing SDFGs.

Static validation (``V306`` bounds checks, the ``W501`` write-conflict
detector) is limited by what the symbolic layer can decide — containment
of *indirect* accesses like ``x[A_col[j]]`` is undecidable before
running.  The sanitizer is the dynamic complement: when enabled
(``compile_sdfg(..., sanitize=True)`` or ``REPRO_SANITIZE=1`` when
compiling), the Python code generator and the reference interpreter
route every memlet access through a :class:`GuardContext`, which checks

* ``R801`` — out-of-bounds reads/writes, including indirect subscripts
  inside tasklet code (loaded array views are wrapped in
  :class:`GuardedView` so ``arr[idx]`` is checked element-exactly; note
  that *negative* indices are treated as out of bounds — silent numpy
  wraparound is precisely the bug class being hunted);
* ``R802`` — NaN/Inf produced at a tasklet output;
* ``R803`` — reads of never-written transient elements (a per-transient
  shadow bitmask tracks writes at element granularity);
* ``R804`` — runtime write conflicts: two map iterations writing the
  same element without a conflict-resolution function, detected with a
  shadow write-set per map execution (dynamic ``W501``).

Each finding is a structured :class:`~repro.diagnostics.Diagnostic`
carrying the exact element index, the memlet, and the SDFG location,
and is surfaced both as an exception (``mode="raise"``) or a collected
list (``mode="collect"``), and as ``sanitizer`` events on the
instrumentation recorder so ``repro.report`` can render summaries.

``python -m repro.runtime.sanitizer --kernels`` runs the fundamental
kernels under the sanitizer and checks agreement with unsanitized runs;
``--fault-matrix`` injects one bug per R-code and asserts each fires.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.diagnostics import Diagnostic, DiagnosticError, Severity

#: Upper bound on recorded findings (collect mode); further findings are
#: only counted, so a hot loop cannot flood memory with diagnostics.
MAX_FINDINGS = 1000


class SanitizerError(DiagnosticError):
    """A sanitizer finding in ``raise`` mode.

    Carries the structured diagnostic plus the exact element ``index``
    the access touched (a tuple of ints/slices), for precise reporting.
    """

    def __init__(self, diagnostic: Diagnostic, index: Optional[tuple] = None):
        super().__init__(diagnostic)
        self.index = index


def _idx_tuple(idx: Any) -> tuple:
    return idx if isinstance(idx, tuple) else (idx,)


def _fmt_index(idx: Any) -> str:
    parts = []
    for i in _idx_tuple(idx):
        if isinstance(i, slice):
            parts.append(
                f"{'' if i.start is None else i.start}:"
                f"{'' if i.stop is None else i.stop}"
                + (f":{i.step}" if i.step not in (None, 1) else "")
            )
        else:
            parts.append(str(i))
    return "[" + ", ".join(parts) + "]"


def _clamp_index(shape: Tuple[int, ...], idx: Any) -> tuple:
    """Collect mode: map an out-of-bounds index to the nearest valid one
    so execution can continue past a recorded finding (numpy would raise
    on positive overflow and silently wrap on negative)."""
    tup = _idx_tuple(idx)[: len(shape)]
    out: List[Any] = []
    for i, dim in zip(tup, shape):
        dim = int(dim)
        hi = max(dim - 1, 0)
        if isinstance(i, slice):
            start = 0 if i.start is None else int(i.start)
            stop = dim if i.stop is None else int(i.stop)
            start = min(max(start, 0), dim)
            stop = min(max(stop, start), dim)
            out.append(slice(start, stop, i.step))
        elif isinstance(i, np.ndarray):
            out.append(np.clip(i, 0, hi))
        else:
            out.append(min(max(int(i), 0), hi))
    return tuple(out)


def _absolute_index(idx: tuple, rel: Tuple[int, ...]) -> tuple:
    """Map a coordinate relative to the selected view back to container
    coordinates (ints pass through, slices add ``start + r*step``)."""
    out: List[int] = []
    k = 0
    for i in idx:
        if isinstance(i, slice):
            start = 0 if i.start is None else int(i.start)
            step = 1 if i.step in (None, 0) else int(i.step)
            out.append(start + int(rel[k]) * step)
            k += 1
        else:
            out.append(int(i))
    return tuple(out)


class _Frame:
    """Shadow write-set for one execution of a map scope."""

    __slots__ = ("label", "iter", "writes")

    def __init__(self, label: str):
        self.label = label
        #: Current iteration identity (tuple of map parameter values).
        self.iter: Optional[tuple] = None
        #: (data, element) → iteration identity that last wrote it.
        self.writes: Dict[tuple, tuple] = {}


class Sanitizer:
    """Finding collector and check implementations.

    One instance lives per guarded call; ``mode`` is ``"raise"`` (first
    ERROR aborts execution with :class:`SanitizerError`) or
    ``"collect"`` (all findings are recorded and execution continues
    with numpy's native semantics).
    """

    def __init__(self, mode: str = "raise"):
        if mode not in ("raise", "collect"):
            raise ValueError(f"unknown sanitizer mode {mode!r}")
        self.mode = mode
        self.findings: List[Diagnostic] = []
        #: Per-code finding counts (includes findings beyond MAX_FINDINGS).
        self.counters: Dict[str, int] = {}
        #: Total number of checks performed (for overhead reporting).
        self.checks = 0
        #: Shadow write masks for transients, keyed ``<prefix>.<name>``.
        self.masks: Dict[str, np.ndarray] = {}
        #: Active map-scope write-set frames.
        self.frames: List[_Frame] = []
        self._seen: set = set()

    # --------------------------------------------------------------- findings
    def record(
        self,
        code: str,
        message: str,
        data: Optional[str] = None,
        loc: Optional[tuple] = None,
        index: Optional[tuple] = None,
    ) -> None:
        sdfg, state, node = loc if loc is not None else (None, None, None)
        diag = Diagnostic(
            code=code,
            severity=Severity.ERROR,
            message=message,
            sdfg=sdfg,
            state=state,
            node=node,
            data=data,
        )
        self.counters[code] = self.counters.get(code, 0) + 1
        key = (code, data, state, node, str(index))
        if key not in self._seen and len(self.findings) < MAX_FINDINGS:
            self._seen.add(key)
            self.findings.append(diag)
        if self.mode == "raise":
            raise SanitizerError(diag, index=index)

    # ----------------------------------------------------------------- checks
    def check_bounds(
        self,
        name: str,
        shape: Tuple[int, ...],
        idx: Any,
        memlet: str = "",
        loc: Optional[tuple] = None,
    ) -> bool:
        """R801: every index component must lie inside the container.

        Negative indices and out-of-extent slices are findings even
        though numpy would silently wrap/clamp them.  Returns True when
        every component is in bounds (collect-mode callers clamp or skip
        the access when False; raise mode never returns False).
        """
        self.checks += 1
        ok = True
        tup = _idx_tuple(idx)
        if len(tup) > len(shape):
            self.record(
                "R801",
                f"access {name}{_fmt_index(tup)} has rank {len(tup)} but "
                f"{name!r} has rank {len(shape)}"
                + (f" (memlet {memlet})" if memlet else ""),
                data=name, loc=loc, index=tup,
            )
            return False
        for d, (i, dim) in enumerate(zip(tup, shape)):
            dim = int(dim)
            if isinstance(i, slice):
                start = 0 if i.start is None else int(i.start)
                stop = dim if i.stop is None else int(i.stop)
                if start < 0 or stop > dim or start > stop:
                    ok = False
                    self.record(
                        "R801",
                        f"slice {start}:{stop} out of bounds for dimension "
                        f"{d} of {name!r} (extent {dim})"
                        + (f" via memlet {memlet}" if memlet else ""),
                        data=name, loc=loc, index=tup,
                    )
            elif isinstance(i, np.ndarray):
                bad = (i < 0) | (i >= dim)
                if bad.any():
                    ok = False
                    offender = int(np.asarray(i)[bad].flat[0])
                    self.record(
                        "R801",
                        f"indirect index {offender} out of bounds for "
                        f"dimension {d} of {name!r} (extent {dim})"
                        + (f" via memlet {memlet}" if memlet else ""),
                        data=name, loc=loc,
                        index=tuple(int(x) if not isinstance(x, (slice, np.ndarray)) else x for x in tup),
                    )
            else:
                ii = int(i)
                if ii < 0 or ii >= dim:
                    ok = False
                    exact = tuple(
                        int(x) if not isinstance(x, (slice, np.ndarray)) else x
                        for x in tup
                    )
                    self.record(
                        "R801",
                        f"index {ii} out of bounds for dimension {d} of "
                        f"{name!r} (extent {dim}), at element "
                        f"{name}{_fmt_index(exact)}"
                        + (f" via memlet {memlet}" if memlet else ""),
                        data=name, loc=loc, index=exact,
                    )
        return ok

    def check_finite(
        self,
        name: str,
        idx: Any,
        value: Any,
        memlet: str = "",
        loc: Optional[tuple] = None,
    ) -> None:
        """R802: tasklet outputs of float/complex kind must be finite."""
        self.checks += 1
        arr = np.asarray(value)
        if arr.dtype.kind not in "fc":
            return
        finite = np.isfinite(arr)
        if finite.all():
            return
        tup = _idx_tuple(idx)
        if arr.ndim == 0:
            exact = tuple(int(x) if not isinstance(x, slice) else x for x in tup)
            val = arr[()]
        else:
            rel = tuple(int(r) for r in np.argwhere(~finite)[0])
            exact = _absolute_index(tup, rel)
            val = arr[rel]
        self.record(
            "R802",
            f"non-finite value {val!r} written to {name}{_fmt_index(exact)}"
            + (f" via memlet {memlet}" if memlet else ""),
            data=name, loc=loc, index=exact,
        )

    # ------------------------------------------------------- transient shadow
    def register_transient(self, key: str, arr: np.ndarray) -> None:
        """(Re-)register a transient allocation: its shadow mask starts
        all-unwritten."""
        self.masks[key] = np.zeros(arr.shape, dtype=bool)

    def mark_written(self, key: str, idx: Any = None) -> None:
        mask = self.masks.get(key)
        if mask is None:
            return
        if idx is None:
            mask[...] = True
        else:
            mask[idx] = True

    def mask_for(self, key: Optional[str]) -> Optional[np.ndarray]:
        if key is None:
            return None
        return self.masks.get(key)

    def check_initialized(
        self,
        key: str,
        name: str,
        idx: Any,
        memlet: str = "",
        loc: Optional[tuple] = None,
    ) -> None:
        """R803: reading a transient element that was never written."""
        mask = self.masks.get(key)
        if mask is None:
            return
        self.checks += 1
        tup = _idx_tuple(idx)
        try:
            view = mask[tup]
        except IndexError:
            return  # bounds finding already recorded by check_bounds
        if isinstance(view, np.ndarray) and view.ndim > 0:
            if view.all():
                return
            rel = tuple(int(r) for r in np.argwhere(~view)[0])
            exact = _absolute_index(tup, rel)
        else:
            if bool(view):
                return
            exact = tuple(int(x) if not isinstance(x, slice) else x for x in tup)
        self.record(
            "R803",
            f"read of never-written transient element {name}{_fmt_index(exact)}"
            + (f" via memlet {memlet}" if memlet else ""),
            data=name, loc=loc, index=exact,
        )

    # ------------------------------------------------------- WCR write frames
    def map_enter(self, label: str) -> None:
        self.frames.append(_Frame(label))

    def map_iter(self, values: tuple) -> None:
        if self.frames:
            self.frames[-1].iter = values if isinstance(values, tuple) else (values,)

    def map_exit(self) -> None:
        if self.frames:
            self.frames.pop()

    def record_write(
        self,
        name: str,
        idx: Any,
        memlet: str = "",
        loc: Optional[tuple] = None,
    ) -> None:
        """R804: a *static, non-WCR* point write inside a map scope that
        lands on an element another iteration already wrote."""
        if not self.frames:
            return
        tup = _idx_tuple(idx)
        if any(isinstance(i, (slice, np.ndarray)) for i in tup):
            return  # only point writes are tracked
        self.checks += 1
        elem = tuple(int(i) for i in tup)
        iters = [f.iter if f.iter is not None else () for f in self.frames]
        for k, frame in enumerate(self.frames):
            ident = tuple(v for it in iters[k:] for v in it)
            prev = frame.writes.get((name, elem))
            if prev is None:
                frame.writes[(name, elem)] = ident
            elif prev != ident:
                frame.writes[(name, elem)] = ident
                self.record(
                    "R804",
                    f"write conflict on {name}{_fmt_index(elem)} in map "
                    f"{frame.label!r}: iterations {prev} and {ident} both "
                    "write it without conflict resolution"
                    + (f" (memlet {memlet})" if memlet else ""),
                    data=name, loc=loc, index=elem,
                )


class GuardedView(np.ndarray):
    """ndarray view that bounds-checks subscripts inside tasklet code.

    The frontend lowers indirect accesses (``x[A_col[j]]``) into tasklet
    code that subscripts a loaded slice view — wrapping that view makes
    the data-dependent subscript checkable.  Derived arrays (slices of
    slices, ufunc results) deliberately *lose* the guard: only the view
    a memlet load produced is checked, everything downstream behaves
    like a plain ndarray.
    """

    def __array_finalize__(self, obj):
        # Every construction path lands here; guards are only attached
        # explicitly by wrap(), so views/copies revert to plain behavior.
        self._san = None
        self._gname = None
        self._gmask = None
        self._gmemlet = ""
        self._gloc = None

    @staticmethod
    def wrap(
        arr: np.ndarray,
        san: Sanitizer,
        name: str,
        mask: Optional[np.ndarray],
        memlet: str = "",
        loc: Optional[tuple] = None,
    ) -> "GuardedView":
        view = arr.view(GuardedView)
        view._san = san
        view._gname = name
        view._gmask = mask
        view._gmemlet = memlet
        view._gloc = loc
        return view

    def __getitem__(self, idx):
        san = self._san
        if san is not None:
            ok = san.check_bounds(
                self._gname, self.shape, idx, self._gmemlet, self._gloc
            )
            if not ok:  # collect mode: continue on the nearest valid element
                idx = _clamp_index(self.shape, idx)
            mask = self._gmask
            if mask is not None:
                try:
                    sel = mask[idx]
                except IndexError:
                    sel = True  # bounds finding already recorded (collect mode)
                if not np.all(sel):
                    if isinstance(sel, np.ndarray) and sel.ndim > 0:
                        rel = tuple(int(r) for r in np.argwhere(~sel)[0])
                        exact = _absolute_index(_idx_tuple(idx), rel)
                    else:
                        exact = tuple(
                            int(x) if not isinstance(x, (slice, np.ndarray)) else x
                            for x in _idx_tuple(idx)
                        )
                    san.record(
                        "R803",
                        "read of never-written transient element "
                        f"{self._gname}{_fmt_index(exact)}"
                        + (f" via memlet {self._gmemlet}" if self._gmemlet else ""),
                        data=self._gname, loc=self._gloc, index=exact,
                    )
        return np.ndarray.__getitem__(self, idx)

    def __setitem__(self, idx, value):
        san = self._san
        if san is not None:
            ok = san.check_bounds(
                self._gname, self.shape, idx, self._gmemlet, self._gloc
            )
            san.check_finite(self._gname, idx, value, self._gmemlet, self._gloc)
            if not ok:
                return  # collect mode: drop the store, don't corrupt a neighbor
            mask = self._gmask
            if mask is not None:
                mask[idx] = True
        np.ndarray.__setitem__(self, idx, value)


class GuardContext:
    """Per-call bundle of sanitizer + watchdog threaded through a run.

    Generated entry functions receive it as ``__guard``; the interpreter
    holds it as ``self.guard``.  All methods are no-ops for whichever of
    the two policies is not armed.
    """

    __slots__ = ("sanitizer", "watchdog", "overhead")

    def __init__(self, sanitizer: Optional[Sanitizer] = None, watchdog=None):
        self.sanitizer = sanitizer
        self.watchdog = watchdog
        #: Accumulated seconds spent inside guard checks.
        self.overhead = 0.0

    # --------------------------------------------------------- memlet guards
    def load(
        self,
        name: str,
        container: np.ndarray,
        idx: Any,
        memlet: str = "",
        loc: Optional[tuple] = None,
        tkey: Optional[str] = None,
    ):
        """Guarded memlet read: bounds + init checks, then the access.

        Array results are wrapped in :class:`GuardedView` (with the
        shadow mask aligned to the same subset for transients) so
        data-dependent subscripts inside tasklet code stay checked.
        """
        san = self.sanitizer
        if san is None:
            return container[idx]
        t0 = time.perf_counter()
        ok = san.check_bounds(name, container.shape, idx, memlet, loc)
        if not ok:  # collect mode: continue on the nearest valid element
            idx = _clamp_index(container.shape, idx)
        if tkey is not None:
            san.check_initialized(tkey, name, idx, memlet, loc)
        value = container[idx]
        if isinstance(value, np.ndarray) and value.ndim > 0:
            mask = san.mask_for(tkey)
            if mask is not None:
                mask = mask[idx]
            value = GuardedView.wrap(value, san, name, mask, memlet, loc)
        self.overhead += time.perf_counter() - t0
        return value

    def pre_store(
        self,
        name: str,
        container: np.ndarray,
        idx: Any,
        value: Any,
        memlet: str = "",
        loc: Optional[tuple] = None,
        tkey: Optional[str] = None,
        wcr: bool = False,
        dynamic: bool = False,
    ) -> bool:
        """Guarded memlet write (checks only; the caller performs the
        store so WCR/ufunc semantics stay in one place).  Returns True
        when the store may proceed — in collect mode an out-of-bounds
        store is recorded and dropped (False) rather than corrupting a
        wrapped-around neighbor or aborting on numpy's IndexError."""
        san = self.sanitizer
        if san is None:
            return True
        t0 = time.perf_counter()
        ok = san.check_bounds(name, container.shape, idx, memlet, loc)
        san.check_finite(name, idx, value, memlet, loc)
        # Size-1 transients are the frontend's per-iteration scalar
        # scratch (indirection temps): rebinding them every iteration is
        # the idiom, not a write conflict.
        scratch = tkey is not None and container.size == 1
        if ok:
            if not wcr and not dynamic and not scratch:
                san.record_write(name, idx, memlet, loc)
            if tkey is not None:
                san.mark_written(tkey, idx)
        self.overhead += time.perf_counter() - t0
        return ok

    def mark_written(self, tkey: str, idx: Any = None) -> None:
        """Copies/reductions into a transient mark it written (whole
        container unless a subset is given — conservative for R803)."""
        if self.sanitizer is not None:
            self.sanitizer.mark_written(tkey, idx)

    # ----------------------------------------------------------- scope hooks
    def map_enter(self, label: str) -> None:
        if self.sanitizer is not None:
            self.sanitizer.map_enter(label)

    def map_iter(self, values: tuple) -> None:
        if self.sanitizer is not None:
            self.sanitizer.map_iter(values)
        if self.watchdog is not None:
            self.watchdog.checkpoint()

    def map_exit(self) -> None:
        if self.sanitizer is not None:
            self.sanitizer.map_exit()

    # ------------------------------------------------------- watchdog relays
    def checkpoint(self) -> None:
        if self.watchdog is not None:
            self.watchdog.checkpoint()

    def on_alloc(self, key: str, name: str, arr: np.ndarray) -> None:
        """Transient allocation: account memory, reset the shadow mask."""
        if self.watchdog is not None:
            self.watchdog.account_alloc(name, arr.nbytes)
        if self.sanitizer is not None:
            self.sanitizer.register_transient(key, arr)

    # -------------------------------------------------------------- reporting
    def finish(self, recorder=None, label: str = "") -> None:
        """Emit sanitizer/watchdog summary events onto the recorder."""
        if recorder is None:
            return
        san = self.sanitizer
        if san is not None:
            recorder.event("sanitizer", "checks", itype="COUNTER",
                           iterations=san.checks)
            recorder.event("sanitizer", "overhead", itype="TIMER",
                           duration=self.overhead, iterations=san.checks)
            for code in sorted(san.counters):
                recorder.event("sanitizer", code, itype="COUNTER",
                               iterations=san.counters[code])
        if self.watchdog is not None:
            recorder.event("watchdog", "checkpoints", itype="COUNTER",
                           iterations=self.watchdog.checkpoints)


# =====================================================================
# Seeded faults: one intentionally-broken SDFG per R-code.  Used by the
# fault-matrix tests and by ``python -m repro.runtime.sanitizer``.
# =====================================================================


def _fault_r801():
    """Indirect gather where one index points past the source array."""
    from repro.sdfg import SDFG, Memlet, dtypes

    sdfg = SDFG("fault_r801")
    sdfg.add_array("X", ("N",), dtypes.float64)
    sdfg.add_array("I", ("N",), dtypes.int64)
    sdfg.add_array("B", ("N",), dtypes.float64)
    st = sdfg.add_state("gather")
    st.add_mapped_tasklet(
        "gather",
        {"i": "0:N"},
        inputs={
            "idx": Memlet.simple("I", "i"),
            "arr": Memlet.simple("X", "0:N"),
        },
        code="out = arr[idx]",
        outputs={"out": Memlet.simple("B", "i")},
    )
    n = 6
    data = {
        "X": np.arange(n, dtype=np.float64),
        "I": np.array([0, 1, 2, n, 3, 4], dtype=np.int64),  # I[3] == N: OOB
        "B": np.zeros(n, dtype=np.float64),
        "N": n,
    }
    return sdfg, data, {"code": "R801", "data": "X", "index": (n,)}


def _fault_r802():
    """Multiply that overflows float64 to inf at one element."""
    from repro.sdfg import SDFG, Memlet, dtypes

    sdfg = SDFG("fault_r802")
    sdfg.add_array("A", ("N",), dtypes.float64)
    sdfg.add_array("B", ("N",), dtypes.float64)
    st = sdfg.add_state("scale")
    st.add_mapped_tasklet(
        "scale",
        {"i": "0:N"},
        inputs={"a": Memlet.simple("A", "i")},
        code="b = a * 2.0",
        outputs={"b": Memlet.simple("B", "i")},
    )
    n = 5
    a = np.ones(n, dtype=np.float64)
    a[3] = 1e308  # 2e308 overflows to inf
    data = {"A": a, "B": np.zeros(n, dtype=np.float64), "N": n}
    return sdfg, data, {"code": "R802", "data": "B", "index": (3,)}


def _fault_r803():
    """Copies a transient to the output without ever writing it."""
    from repro.sdfg import SDFG, Memlet, dtypes

    sdfg = SDFG("fault_r803")
    sdfg.add_array("B", ("N",), dtypes.float64)
    sdfg.add_transient("T", ("N",), dtypes.float64)
    st = sdfg.add_state("drain")
    st.add_mapped_tasklet(
        "drain",
        {"i": "0:N"},
        inputs={"t": Memlet.simple("T", "i")},
        code="b = t + 1.0",
        outputs={"b": Memlet.simple("B", "i")},
    )
    n = 4
    data = {"B": np.zeros(n, dtype=np.float64), "N": n}
    return sdfg, data, {"code": "R803", "data": "T", "index": (0,)}


def _fault_r804():
    """Every map iteration writes element 0 without a WCR function."""
    from repro.sdfg import SDFG, Memlet, dtypes

    sdfg = SDFG("fault_r804")
    sdfg.add_array("A", ("N",), dtypes.float64)
    sdfg.add_array("B", ("N",), dtypes.float64)
    st = sdfg.add_state("clobber")
    st.add_mapped_tasklet(
        "clobber",
        {"i": "0:N"},
        inputs={"a": Memlet.simple("A", "i")},
        code="b = a",
        outputs={"b": Memlet.simple("B", "0")},
    )
    n = 4
    data = {
        "A": np.arange(n, dtype=np.float64),
        "B": np.zeros(n, dtype=np.float64),
        "N": n,
    }
    return sdfg, data, {"code": "R804", "data": "B", "index": (0,)}


def _fault_r805():
    """Interstate loop whose increment makes no progress: never ends."""
    from repro.sdfg import SDFG, Memlet, dtypes

    sdfg = SDFG("fault_r805")
    sdfg.add_array("A", ("N",), dtypes.float64)
    body = sdfg.add_state("body")
    body.add_mapped_tasklet(
        "touch",
        {"k": "0:1"},
        inputs={"a": Memlet.simple("A", "0")},
        code="b = a + 1.0",
        outputs={"b": Memlet.simple("A", "0")},
    )
    before = sdfg.add_state("init", is_start=True)
    sdfg.add_loop(before, body, None, "it", 0, "it < N", "it")  # it never grows
    n = 4
    data = {"A": np.zeros(n, dtype=np.float64), "N": n}
    return sdfg, data, {"code": "R805", "data": None, "index": None}


#: R-code → builder returning ``(sdfg, kwargs, expectation)``.  The
#: expectation names the code that must fire, the container it must
#: point at, and the exact element index.
SEEDED_FAULTS = {
    "R801": _fault_r801,
    "R802": _fault_r802,
    "R803": _fault_r803,
    "R804": _fault_r804,
    "R805": _fault_r805,
}


# =====================================================================
# CLI: kernel fidelity sweep + fault matrix (used by the CI sanitize job)
# =====================================================================


def fundamental_kernel_cases():
    """``name → (sdfg_factory, data dict, extra scalar args, outputs)``
    for the five fundamental kernels, at sanitizer-friendly sizes."""
    from repro.workloads import kernels as wl

    spmv_data, _csr = wl.spmv_data(12, 3)
    return {
        "matmul": (wl.matmul_sdfg, wl.matmul_data(8), {}, ["C"]),
        "jacobi2d": (wl.jacobi2d_sdfg, wl.jacobi2d_data(8), {"T": 3}, ["A"]),
        "histogram": (wl.histogram_sdfg, wl.histogram_data(8, 10, bins=8),
                      {}, ["hist"]),
        "query": (wl.query_sdfg, wl.query_data(40), {}, ["out", "size"]),
        "spmv": (wl.spmv_sdfg, spmv_data, {}, ["b"]),
    }


def _run_kernels(backend: str = "python") -> int:
    """Run the fundamental kernels sanitized and unsanitized; assert
    zero findings and 1e-8 agreement.  Returns a process exit code."""
    import copy

    from repro.codegen.compiler import compile_sdfg

    failures = 0
    for name, (factory, data, extra, outputs) in fundamental_kernel_cases().items():
        ref_args = {**copy.deepcopy(data), **extra}
        san_args = {**copy.deepcopy(data), **extra}
        compile_sdfg(factory(), backend=backend)(**ref_args)
        guarded = compile_sdfg(factory(), backend=backend, sanitize="collect")
        guarded(**san_args)
        findings = guarded.last_findings or []
        ok = not findings
        for out in outputs:
            if not np.allclose(san_args[out], ref_args[out],
                               rtol=1e-8, atol=1e-8):
                ok = False
                print(f"FAIL {name}: output {out} diverges under sanitizer")
        for f in findings:
            print(f"FAIL {name}: unexpected finding {f}")
        print(f"{'ok  ' if ok else 'FAIL'} {name}: sanitized run matches "
              f"({len(findings)} findings)")
        failures += 0 if ok else 1
    return 1 if failures else 0


def _run_polybench(names, backend: str = "python") -> int:
    from repro.codegen.compiler import compile_sdfg
    from repro.workloads import polybench

    failures = 0
    for name in names:
        kernel = polybench.get(name)
        sdfg = kernel.make_sdfg()
        # Data builders seed their RNGs, so two calls yield identical inputs.
        ref_data = kernel.data()
        san_data = kernel.data()
        kernel.run_sdfg(ref_data, compiled=compile_sdfg(sdfg, backend=backend))
        guarded = compile_sdfg(kernel.make_sdfg(), backend=backend,
                               sanitize="collect")
        kernel.run_sdfg(san_data, compiled=guarded)
        findings = guarded.last_findings or []
        ok = not findings
        for out in kernel.outputs:
            if not np.allclose(san_data[out], ref_data[out], rtol=1e-8, atol=1e-8):
                ok = False
                print(f"FAIL {name}: output {out} diverges under sanitizer")
        for f in findings:
            print(f"FAIL {name}: unexpected finding {f}")
        print(f"{'ok  ' if ok else 'FAIL'} {name} ({len(findings)} findings)")
        failures += 0 if ok else 1
    return 1 if failures else 0


def _run_fault_matrix(backend: str = "python") -> int:
    from repro.codegen.compiler import compile_sdfg

    # Import the canonical classes: under ``python -m`` this module runs
    # as ``__main__``, so the local SanitizerError is a different class
    # object than the one the compiled pipeline raises.
    from repro.runtime.sanitizer import SanitizerError as _SanitizerError
    from repro.runtime.watchdog import WatchdogViolation

    failures = 0
    for code, builder in sorted(SEEDED_FAULTS.items()):
        sdfg, kwargs, expect = builder()
        try:
            if code == "R805":
                compiled = compile_sdfg(sdfg, backend=backend, deadline=0.5)
            else:
                compiled = compile_sdfg(sdfg, backend=backend, sanitize=True)
            compiled(**kwargs)
        except (_SanitizerError, WatchdogViolation) as err:
            got = err.code
            idx = getattr(err, "index", None)
            ok = got == expect["code"] and (
                expect["index"] is None or idx == expect["index"]
            )
            print(f"{'ok  ' if ok else 'FAIL'} {code}: fired {got} at "
                  f"index {idx} — {err.diagnostic.message}")
            failures += 0 if ok else 1
        else:
            print(f"FAIL {code}: no finding fired")
            failures += 1
    return 1 if failures else 0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.sanitizer",
        description="Sanitizer fidelity sweep and seeded-fault matrix.",
    )
    parser.add_argument("--kernels", action="store_true",
                        help="run the fundamental kernels sanitized vs not")
    parser.add_argument("--polybench", nargs="*", metavar="NAME",
                        help="run the named Polybench kernels sanitized vs not")
    parser.add_argument("--fault-matrix", action="store_true",
                        help="inject one bug per R-code and assert it fires")
    parser.add_argument("--backend", default="python",
                        choices=("python", "interpreter"))
    args = parser.parse_args(argv)

    rc = 0
    ran = False
    if args.kernels:
        ran = True
        rc |= _run_kernels(args.backend)
    if args.polybench is not None:
        ran = True
        rc |= _run_polybench(args.polybench, args.backend)
    if args.fault_matrix:
        ran = True
        rc |= _run_fault_matrix(args.backend)
    if not ran:
        parser.print_help()
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
