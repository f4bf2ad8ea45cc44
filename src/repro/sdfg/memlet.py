"""Memlets: data-movement descriptors annotating dataflow edges.

A memlet records *what moves*: the container, the subset of elements
read/written, the number of accesses (volume, used for performance
modeling), an optional write-conflict-resolution function, and — for
copies between differently-indexed containers — the subset on the other
side (``other_subset``, the paper's *reindex* function, Appendix A.1).

Fig. 3 of the paper dissects the memlet's Python syntax::

    var << A(1, WCR)[0:N]
           ^  ^  ^    ^--- subset
           |  |  +-------- conflict resolution
           |  +----------- number of accesses
           +-------------- data container
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from repro.sdfg.dtypes import ReductionType, canonicalize_wcr, detect_reduction_type
from repro.symbolic import Expr, Integer, Subset, sympify


class Memlet:
    """Data-movement annotation for one dataflow edge."""

    def __init__(
        self,
        data: Optional[str] = None,
        subset: Optional[Union[str, Subset]] = None,
        other_subset: Optional[Union[str, Subset]] = None,
        volume: Optional[Union[int, str, Expr]] = None,
        dynamic: bool = False,
        wcr: Optional[str] = None,
    ):
        """
        :param data: Name of the container the data flows from/to.
        :param subset: Element subset on the container; ``None`` on an
            *empty memlet* (pure ordering dependency, carries no data).
        :param other_subset: Subset on the opposite side of a copy
            (reindexing), when both endpoints are containers.
        :param volume: Number of element accesses this edge performs; by
            default the subset's size.  The paper writes it as ``A(1)[...]``.
        :param dynamic: Volume is a runtime quantity (the paper's ``dyn``
            annotation, e.g. consume scopes and data-dependent accesses);
            ``volume`` is then a best-effort upper bound.
        :param wcr: Write-conflict resolution: a ``lambda a, b: ...``
            string (or alias like ``"sum"``) combining the old and new
            value on conflicting writes.
        """
        self.data = data
        if isinstance(subset, str):
            subset = Subset.from_string(subset)
        self.subset: Optional[Subset] = subset
        if isinstance(other_subset, str):
            other_subset = Subset.from_string(other_subset)
        self.other_subset: Optional[Subset] = other_subset
        self.wcr = canonicalize_wcr(wcr)
        self.dynamic = dynamic
        if volume is not None:
            self._volume: Optional[Expr] = sympify(volume)
        else:
            self._volume = None

    # -- constructors ----------------------------------------------------------
    @staticmethod
    def simple(data: str, subset: Union[str, Subset], wcr: Optional[str] = None) -> "Memlet":
        return Memlet(data=data, subset=subset, wcr=wcr)

    @staticmethod
    def from_array(name: str, desc) -> "Memlet":
        """Memlet covering an entire container."""
        return Memlet(data=name, subset=desc.full_subset())

    @staticmethod
    def empty() -> "Memlet":
        """Pure ordering dependency (paper Fig. 7 uses empty memlets to
        keep systolic PEs inside one scope)."""
        return Memlet()

    # -- queries ---------------------------------------------------------------
    def is_empty(self) -> bool:
        return self.data is None and self.subset is None

    @property
    def volume(self) -> Expr:
        if self._volume is not None:
            return self._volume
        if self.subset is None:
            return Integer(0)
        return self.subset.num_elements()

    @volume.setter
    def volume(self, value) -> None:
        self._volume = sympify(value) if value is not None else None

    def reduction_type(self) -> Optional[ReductionType]:
        if self.wcr is None:
            return None
        return detect_reduction_type(self.wcr)

    @property
    def free_symbols(self) -> frozenset:
        # The parts' sets are cached on them: return the subset's as it
        # is when nothing else contributes.
        out = self.subset.free_symbols if self.subset is not None else frozenset()
        if self.other_subset is not None:
            out = out | self.other_subset.free_symbols
        if self._volume is not None:
            out = out | self._volume.free_symbols
        return out

    # -- manipulation ------------------------------------------------------------
    def subs(self, mapping: Mapping) -> "Memlet":
        m = Memlet(
            data=self.data,
            subset=self.subset.subs(mapping) if self.subset is not None else None,
            other_subset=(
                self.other_subset.subs(mapping)
                if self.other_subset is not None
                else None
            ),
            volume=self._volume.subs(mapping) if self._volume is not None else None,
            dynamic=self.dynamic,
            wcr=self.wcr,
        )
        return m

    def clone(self) -> "Memlet":
        # Every field is a string, a flag or an immutable symbolic value
        # the constructor already normalized: copy them as they are, in
        # the constructor's order (so the instances share one key table).
        new = object.__new__(Memlet)
        new.data = self.data
        new.subset = self.subset
        new.other_subset = self.other_subset
        new.wcr = self.wcr
        new.dynamic = self.dynamic
        new._volume = self._volume
        return new

    def __eq__(self, other) -> bool:
        if not isinstance(other, Memlet):
            return NotImplemented
        return (
            self.data == other.data
            and self.subset == other.subset
            and self.other_subset == other.other_subset
            and self.wcr == other.wcr
            and self.dynamic == other.dynamic
        )

    def __hash__(self) -> int:
        return hash((self.data, self.subset, self.other_subset, self.wcr, self.dynamic))

    def __repr__(self) -> str:
        if self.is_empty():
            return "Memlet(∅)"
        parts = [f"{self.data}[{self.subset}]"]
        if self.dynamic:
            parts.append("(dyn)")
        if self.wcr is not None:
            parts.append(f"(CR: {self.wcr})")
        if self.other_subset is not None:
            parts.append(f"-> [{self.other_subset}]")
        return "Memlet(" + " ".join(parts) + ")"
