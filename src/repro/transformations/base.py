"""Transformation infrastructure (paper §4.1, Appendix B/D).

A transformation is a "find and replace" operation on an SDFG: a
*pattern* subgraph located with VF2 subgraph matching, a programmatic
``can_be_applied`` check, and an ``apply`` that rewrites the graph
(single-pushout graph rewriting in the formal model of Appendix B).

Transformations register themselves in a global registry
(``Transformation.register_pattern`` in the paper's Appendix D listing);
the optimizer module enumerates and applies them, recording each
application in the SDFG's transformation history — the "optimization
version control" of DIODE (§4.2).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Type

from repro.graph import OrderedMultiDiGraph, subgraph_monomorphisms
from repro.sdfg.nodes import Node
from repro.sdfg.state import SDFGState

#: Global transformation registry (name -> class).
REGISTRY: Dict[str, Type["Transformation"]] = {}


def register_transformation(cls: Type["Transformation"]) -> Type["Transformation"]:
    """Register a transformation class (usable as a decorator)."""
    REGISTRY[cls.__name__] = cls
    return cls


class PatternNode:
    """Placeholder node in a transformation pattern graph.

    Matches host nodes by ``isinstance`` against the given classes.  The
    Appendix D listing writes these as class attributes of the
    transformation (``_in_array = nodes.AccessNode('_')``).
    """

    def __init__(self, *node_classes: type):
        self.node_classes = node_classes

    def matches(self, host_node) -> bool:
        return isinstance(host_node, self.node_classes)

    def __repr__(self) -> str:
        names = "|".join(c.__name__ for c in self.node_classes)
        return f"PatternNode({names})"


def path_graph(*nodes: PatternNode) -> OrderedMultiDiGraph:
    """Convenience: a chain pattern a -> b -> c (the paper's
    ``nxutil.node_path_graph``)."""
    g: OrderedMultiDiGraph = OrderedMultiDiGraph()
    for n in nodes:
        g.add_node(n)
    for a, b in zip(nodes, nodes[1:]):
        g.add_edge(a, b, None)
    return g


class Transformation:
    """Base class of single-state (dataflow) transformations."""

    #: Set by subclasses when the rewrite can only improve the program
    #: (applied automatically by ``apply_strict_transformations``).
    strict = False

    def __init__(self, sdfg, state: Optional[SDFGState], candidate: Dict[PatternNode, Node]):
        self.sdfg = sdfg
        self.state = state
        self.candidate = candidate

    # -- pattern interface ----------------------------------------------------
    @classmethod
    def expressions(cls) -> List[OrderedMultiDiGraph]:
        """Pattern graphs to search for (any match of any expression)."""
        raise NotImplementedError

    @classmethod
    def patterns(cls) -> List[OrderedMultiDiGraph]:
        """:meth:`expressions`, built once per class.  Nothing changes a
        pattern graph, so every enumeration shares the same graphs and
        the match plan the matcher keeps on each."""
        built = cls.__dict__.get("_patterns")
        if built is None:
            built = cls.expressions()
            cls._patterns = built
        return built

    @classmethod
    def can_be_applied(cls, state: SDFGState, candidate, sdfg, strict: bool = False) -> bool:
        """Programmatic verification that requirements are met."""
        raise NotImplementedError

    def apply(self) -> None:
        """Perform the rewrite.  Assumes ``can_be_applied`` returned True."""
        raise NotImplementedError

    # -- matching -------------------------------------------------------------
    @classmethod
    def matches_in_state(
        cls, sdfg, state: SDFGState, strict: bool = False
    ) -> Iterator["Transformation"]:
        for pattern in cls.patterns():
            for cand in subgraph_monomorphisms(
                pattern, state, node_match=lambda pn, hn: pn.matches(hn)
            ):
                if cls.can_be_applied(state, cand, sdfg, strict):
                    yield cls(sdfg, state, cand)

    @classmethod
    def matches(cls, sdfg, strict: bool = False) -> Iterator["Transformation"]:
        for state in sdfg.nodes():
            yield from cls.matches_in_state(sdfg, state, strict)

    def node(self, pattern_node: PatternNode):
        return self.candidate[pattern_node]

    # -- bookkeeping ----------------------------------------------------------
    def apply_and_record(self) -> None:
        self.apply()
        self.sdfg.transformation_history.append(type(self).__name__)
        self.sdfg.invalidate_compiled()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.candidate})"


class MultiStateTransformation(Transformation):
    """Base class of transformations matching the top-level state machine.

    The pattern graph's nodes match SDFG states; ``state`` is None.
    """

    @classmethod
    def matches(cls, sdfg, strict: bool = False) -> Iterator["Transformation"]:
        for pattern in cls.patterns():
            for cand in subgraph_monomorphisms(
                pattern, sdfg, node_match=lambda pn, hn: pn.matches(hn)
            ):
                if cls.can_be_applied(None, cand, sdfg, strict):
                    yield cls(sdfg, None, cand)


class SDFGTransformation(Transformation):
    """Whole-SDFG transformations (hardware offloading): no pattern; they
    either apply to the SDFG or not."""

    @classmethod
    def expressions(cls) -> List[OrderedMultiDiGraph]:
        return []

    @classmethod
    def matches(cls, sdfg, strict: bool = False) -> Iterator["Transformation"]:
        if cls.applicable(sdfg):
            yield cls(sdfg, None, {})

    @classmethod
    def applicable(cls, sdfg) -> bool:
        return True
