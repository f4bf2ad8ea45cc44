"""JSON (de)serialization of SDFGs.

Serialized SDFGs are what DIODE-style tooling exchanges and what
"optimization version control" snapshots; the format is a plain
dictionary so it can be stored, diffed, and inspected.

Every dictionary is emitted with its keys in sorted order: fixed keys
are written sorted, and maps with data-dependent keys (arrays, symbols,
constants, interstate assignments, ``symbol_mapping``) are built from
sorted keys.

A *canonical* form (:func:`canonical_form` of the plain dictionary, or
``sdfg_to_json(sdfg, canonical=True)``) additionally fixes every source
of incidental order — edges sorted by endpoint indices and connectors,
transitions sorted — and omits the transformation history, so that two
SDFGs with identical structure serialize to identical bytes.  Since the
keys are sorted already, the dump does not sort them again.  That form
backs :func:`content_hash`, the content address used by the tuning
cache, the program cache and serve routing.
"""

from __future__ import annotations

import hashlib
import json
from itertools import groupby
from typing import Any, Dict, List

from repro.instrumentation.types import InstrumentationType
from repro.sdfg import dtypes
from repro.sdfg.data import Array, Data, Scalar, Stream
from repro.sdfg.dtypes import Language, ScheduleType, StorageType, dtype_from_name
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import (
    AccessNode,
    Consume,
    ConsumeEntry,
    ConsumeExit,
    EntryNode,
    ExitNode,
    Map,
    MapEntry,
    MapExit,
    NestedSDFG,
    Node,
    Reduce,
    Tasklet,
)
from repro.sdfg.state import SDFGState, _scope_of
from repro.symbolic import Subset


# The ``*_to_json`` functions write each dictionary's keys in sorted
# order, and read enum names from ``_name_`` (``.name`` is a descriptor
# that costs a call per read).


def _instrument_from_json(obj: Dict[str, Any]) -> InstrumentationType:
    return InstrumentationType[obj.get("instrument", "NONE")]


def _subset_to_json(s):
    return str(s) if s is not None else None


def _subset_from_json(s):
    return Subset.from_string(s) if s is not None else None


def memlet_to_json(m: Memlet) -> Dict[str, Any]:
    return {
        "data": m.data,
        "dynamic": m.dynamic,
        "other_subset": _subset_to_json(m.other_subset),
        "subset": _subset_to_json(m.subset),
        "volume": str(m._volume) if m._volume is not None else None,
        "wcr": m.wcr,
    }


def memlet_from_json(obj: Dict[str, Any]) -> Memlet:
    return Memlet(
        data=obj["data"],
        subset=_subset_from_json(obj["subset"]),
        other_subset=_subset_from_json(obj["other_subset"]),
        volume=obj["volume"],
        dynamic=obj["dynamic"],
        wcr=obj["wcr"],
    )


def data_to_json(desc: Data) -> Dict[str, Any]:
    # Keys are written in sorted order.
    out: Dict[str, Any] = {}
    if isinstance(desc, Stream):
        out["buffer_size"] = str(desc.buffer_size)
    if isinstance(desc, Array) and desc.double_buffered:
        out["double_buffered"] = True  # written only when set: hashes stay put
    out["dtype"] = desc.dtype.name
    out["shape"] = [str(s) for s in desc.shape]
    out["storage"] = desc.storage._name_
    if isinstance(desc, Array):
        out["strides"] = [str(s) for s in desc.strides]
    out["transient"] = desc.transient
    out["type"] = type(desc).__name__
    return out


def data_from_json(obj: Dict[str, Any]) -> Data:
    dtype = dtype_from_name(obj["dtype"])
    storage = StorageType[obj["storage"]]
    kind = obj["type"]
    if kind == "Array":
        arr = Array(dtype, obj["shape"], obj["transient"], storage, obj.get("strides"))
        arr.double_buffered = obj.get("double_buffered", False)
        return arr
    if kind == "Scalar":
        return Scalar(dtype, obj["transient"], storage)
    if kind == "Stream":
        return Stream(
            dtype, obj["shape"], int(obj.get("buffer_size", "0")), obj["transient"], storage
        )
    raise ValueError(f"unknown descriptor type {kind!r}")


def node_to_json(node: Node) -> Dict[str, Any]:
    ins = sorted(node.in_connectors)
    outs = sorted(node.out_connectors)
    if isinstance(node, AccessNode):
        return {
            "data": node.data,
            "in_connectors": ins,
            "out_connectors": outs,
            "type": "AccessNode",
        }
    if isinstance(node, Tasklet):
        return {
            "code": node.code,
            "code_global": node.code_global,
            "in_connectors": ins,
            "instrument": node.instrument._name_,
            "language": node.language._name_,
            "name": node.name,
            "out_connectors": outs,
            "type": "Tasklet",
        }
    if isinstance(node, (MapEntry, MapExit)):
        m = node.map
        return {
            "in_connectors": ins,
            "instrument": m.instrument._name_,
            "label": m.label,
            "out_connectors": outs,
            "params": m.params,
            "range": str(m.range),
            "schedule": m.schedule._name_,
            "type": type(node).__name__,
            "unroll": m.unroll,
            "vectorized": m.vectorized,
        }
    if isinstance(node, (ConsumeEntry, ConsumeExit)):
        c = node.consume
        return {
            "condition": c.condition,
            "in_connectors": ins,
            "instrument": c.instrument._name_,
            "label": c.label,
            "num_pes": str(c.num_pes),
            "out_connectors": outs,
            "pe_param": c.pe_param,
            "schedule": c.schedule._name_,
            "type": type(node).__name__,
        }
    if isinstance(node, Reduce):
        return {
            "axes": list(node.axes) if node.axes is not None else None,
            "identity": node.identity,
            "in_connectors": ins,
            "name": node.name,
            "out_connectors": outs,
            "type": "Reduce",
            "wcr": node.wcr,
        }
    if isinstance(node, NestedSDFG):
        mapping = node.symbol_mapping
        return {
            "in_connectors": ins,
            "name": node.name,
            "out_connectors": outs,
            "sdfg": sdfg_to_json(node.sdfg),
            "symbol_mapping": {k: str(mapping[k]) for k in sorted(mapping)},
            "type": "NestedSDFG",
        }
    raise ValueError(f"cannot serialize node {node!r}")


def _restore_connectors(node: Node, obj: Dict[str, Any]) -> Node:
    node.in_connectors = set(obj.get("in_connectors", ()))
    node.out_connectors = set(obj.get("out_connectors", ()))
    return node


def _scope_key(obj: Dict[str, Any]):
    """What a parse pairs a scope entry with its exit by, unless the
    exit names its entry (``scope_entry``): the serialized label and
    range (map) or PE count (consume)."""
    if obj["type"] in ("MapEntry", "MapExit"):
        return ("map", obj["label"], obj["range"], tuple(obj["params"]))
    return ("consume", obj["label"], obj["num_pes"])


def node_from_json(
    obj: Dict[str, Any], scope_cache: Dict[Any, Any], pair: Any = None
) -> Node:
    kind = obj["type"]
    if kind == "AccessNode":
        return _restore_connectors(AccessNode(obj["data"]), obj)
    if kind == "Tasklet":
        t = Tasklet(
            obj["name"],
            code=obj["code"],
            language=Language[obj["language"]],
            code_global=obj.get("code_global", ""),
        )
        t.instrument = _instrument_from_json(obj)
        return _restore_connectors(t, obj)
    if kind in ("MapEntry", "MapExit"):
        # Entry/exit pairs must share one Map object.
        key = _scope_key(obj) if pair is None else pair
        if key not in scope_cache:
            scope_cache[key] = Map(
                obj["label"],
                obj["params"],
                obj["range"],
                ScheduleType[obj["schedule"]],
                obj.get("unroll", False),
                obj.get("vectorized", False),
            )
            scope_cache[key].instrument = _instrument_from_json(obj)
        cls = MapEntry if kind == "MapEntry" else MapExit
        return _restore_connectors(cls(scope_cache[key]), obj)
    if kind in ("ConsumeEntry", "ConsumeExit"):
        key = _scope_key(obj) if pair is None else pair
        if key not in scope_cache:
            scope_cache[key] = Consume(
                obj["label"],
                obj["pe_param"],
                obj["num_pes"],
                obj.get("condition"),
                ScheduleType[obj["schedule"]],
            )
            scope_cache[key].instrument = _instrument_from_json(obj)
        cls = ConsumeEntry if kind == "ConsumeEntry" else ConsumeExit
        return _restore_connectors(cls(scope_cache[key]), obj)
    if kind == "Reduce":
        axes = obj["axes"]
        return _restore_connectors(
            Reduce(obj["wcr"], axes, obj.get("identity"), obj["name"]), obj
        )
    if kind == "NestedSDFG":
        inner = sdfg_from_json(obj["sdfg"])
        node = NestedSDFG(
            obj["name"],
            inner,
            obj.get("in_connectors", ()),
            obj.get("out_connectors", ()),
            obj.get("symbol_mapping", {}),
        )
        return _restore_connectors(node, obj)
    raise ValueError(f"unknown node type {kind!r}")


def state_to_json(state: SDFGState) -> Dict[str, Any]:
    nodes = state.nodes()
    index = {id(n): i for i, n in enumerate(nodes)}
    edges = [
        {
            "dst": index[id(e.dst)],
            "dst_conn": e.dst_conn,
            "memlet": memlet_to_json(e.data),
            "src": index[id(e.src)],
            "src_conn": e.src_conn,
        }
        for e in state.edges()
    ]
    jnodes = [node_to_json(n) for n in nodes]
    _pair_ambiguous_scopes(nodes, jnodes)
    return {
        "edges": edges,
        "instrument": state.instrument._name_,
        "name": state.name,
        "nodes": jnodes,
    }


def _pair_ambiguous_scopes(nodes: List[Node], jnodes: List[Dict[str, Any]]) -> None:
    """Give each exit of a scope whose :func:`_scope_key` another scope
    of the state shares its entry's node index (``scope_entry``), so a
    parse does not merge the two.  Other states serialize unchanged."""
    entries = [i for i, n in enumerate(nodes) if isinstance(n, EntryNode)]
    if len(entries) < 2:
        return
    entry_index: Dict[int, int] = {}  # id(scope object) -> entry node index
    owners: Dict[Any, set] = {}  # scope key -> ids of the scope objects
    for i in entries:
        scope = _scope_of(nodes[i])
        entry_index.setdefault(id(scope), i)
        owners.setdefault(_scope_key(jnodes[i]), set()).add(id(scope))
    if all(len(ids) == 1 for ids in owners.values()):
        return
    for n, j in zip(nodes, jnodes):
        if isinstance(n, ExitNode):
            scope = _scope_of(n)
            if len(owners.get(_scope_key(j), ())) > 1 and id(scope) in entry_index:
                # Re-insert every key so ``scope_entry`` takes its sorted place.
                items = sorted({**j, "scope_entry": entry_index[id(scope)]}.items())
                j.clear()
                j.update(items)


def state_from_json(obj: Dict[str, Any], sdfg) -> SDFGState:
    state = SDFGState(obj["name"], sdfg)
    state.instrument = _instrument_from_json(obj)
    scope_cache: Dict[Any, Any] = {}
    # Scopes told apart by ``scope_entry`` pair by the entry's index.
    pairs: Dict[int, Any] = {}
    for i, n in enumerate(obj["nodes"]):
        if "scope_entry" in n:
            pairs[i] = pairs[n["scope_entry"]] = ("entry", n["scope_entry"])
    nodes = [
        node_from_json(n, scope_cache, pairs.get(i))
        for i, n in enumerate(obj["nodes"])
    ]
    for n in nodes:
        state.add_node(n)
    for e in obj["edges"]:
        state.add_edge(
            nodes[e["src"]],
            nodes[e["dst"]],
            memlet_from_json(e["memlet"]),
            e["src_conn"],
            e["dst_conn"],
        )
    return state


def sdfg_to_json(sdfg, canonical: bool = False) -> Dict[str, Any]:
    """Serialize an SDFG to a plain dictionary.

    With ``canonical=True`` the result is :func:`canonical_form` of the
    plain dictionary.
    """
    states = sdfg.nodes()
    index = {id(s): i for i, s in enumerate(states)}
    arrays, symbols, constants = sdfg.arrays, sdfg.symbols, sdfg.constants
    out = {
        "arrays": {name: data_to_json(arrays[name]) for name in sorted(arrays)},
        "constants": {name: constants[name] for name in sorted(constants)},
        "instrument": sdfg.instrument._name_,
        "name": sdfg.name,
        "start_state": (
            index[id(sdfg.start_state)] if sdfg.start_state is not None else None
        ),
        "states": [state_to_json(s) for s in states],
        "symbols": {name: symbols[name].name for name in sorted(symbols)},
        "transformation_history": list(sdfg.transformation_history),
        "transitions": [
            {
                "assignments": {
                    k: str(e.data.assignments[k]) for k in sorted(e.data.assignments)
                },
                "condition": str(e.data.condition),
                "dst": index[id(e.dst)],
                "src": index[id(e.src)],
            }
            for e in sdfg.edges()
        ],
    }
    return canonical_form(out) if canonical else out


def _edge_key(e: Dict[str, Any]):
    return (e["src"], e["dst"], e["src_conn"] or "", e["dst_conn"] or "")


def _memlet_key(e: Dict[str, Any]) -> str:
    return json.dumps(e["memlet"])


def _sorted_edges(edges: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """``edges`` sorted by endpoints, connectors, then memlet JSON.

    Only parallel edges with equal connectors need the memlet, so it is
    dumped inside such runs alone; both sorts are stable, which gives
    the order a single sort on the whole key would."""
    keys = list(map(_edge_key, edges))
    order = sorted(range(len(edges)), key=keys.__getitem__)
    if len(set(keys)) == len(keys):
        return [edges[i] for i in order]
    out: List[Dict[str, Any]] = []
    for _, run in groupby(order, key=keys.__getitem__):
        run = [edges[i] for i in run]
        out.extend(sorted(run, key=_memlet_key) if len(run) > 1 else run)
    return out


def canonical_form(obj: Dict[str, Any]) -> Dict[str, Any]:
    """The order-normalized form of a :func:`sdfg_to_json` dictionary.

    State edges and interstate transitions are sorted, the (semantically
    irrelevant) transformation history is dropped, and nested SDFGs are
    normalized recursively, so two structurally identical SDFGs have
    identical canonical forms.  ``obj`` is not modified; the result
    shares its unchanged parts.
    """
    out = {k: v for k, v in obj.items() if k != "transformation_history"}
    out["states"] = [
        {
            **state,
            "nodes": [
                {**n, "sdfg": canonical_form(n["sdfg"])}
                if n["type"] == "NestedSDFG" else n
                for n in state["nodes"]
            ],
            "edges": _sorted_edges(state["edges"]),
        }
        for state in obj["states"]
    ]
    out["transitions"] = sorted(
        obj["transitions"], key=lambda t: (t["src"], t["dst"], t["condition"])
    )
    return out


#: The canonical dump: compact, non-JSON values as ``str``.  Keys are
#: emitted sorted and a serialized graph holds no cycle, so the encoder
#: neither sorts nor tracks containers.
_CANONICAL_ENCODER = json.JSONEncoder(
    separators=(",", ":"), default=str, check_circular=False
)


def _canonical_dump(obj: Dict[str, Any]) -> str:
    return _CANONICAL_ENCODER.encode(canonical_form(obj))


def canonical_sdfg_json(sdfg) -> str:
    """The canonical serialized form as one deterministic string."""
    return _canonical_dump(sdfg_to_json(sdfg))


def content_hash(sdfg) -> str:
    """Content address of an SDFG: SHA-256 over the canonical form.

    Structurally identical graphs hash identically regardless of how
    they were built or what transformation history they carry; any
    change to dataflow, descriptors, symbols, or instrumentation
    changes the hash.  This is the cache key the tuning subsystem uses.
    """
    return hashlib.sha256(canonical_sdfg_json(sdfg).encode("utf-8")).hexdigest()


def structural_fingerprint(sdfg) -> tuple:
    """A cheap partial key of the canonical form, built in one pass.

    Per state: each node's serialized ``type``, plus a map entry's or
    exit's label, params, range, schedule and ``vectorized`` mark, an
    access node's data name and a tasklet's name and code, all in the
    form :func:`node_to_json` writes them; and the state's edge count.
    Then the sorted container names and the transition count.  Nothing
    here is something :func:`canonical_form` drops or reorders (edge
    and transition order, the transformation history), so equal
    canonical forms give equal fingerprints; the converse does not
    hold, so two graphs with one fingerprint are told apart by
    :func:`content_hash`.
    """
    states = []
    for state in sdfg.nodes():
        kinds = []
        for node in state.nodes():
            if isinstance(node, AccessNode):
                kinds.append(("AccessNode", node.data))
            elif isinstance(node, Tasklet):
                kinds.append(("Tasklet", node.name, node.code))
            elif isinstance(node, (MapEntry, MapExit)):
                m = node.map
                kinds.append((
                    type(node).__name__, m.label, tuple(m.params), str(m.range),
                    m.schedule._name_, m.vectorized,
                ))
            elif isinstance(node, Reduce):
                kinds.append("Reduce")
            elif isinstance(node, NestedSDFG):
                kinds.append("NestedSDFG")
            else:
                kinds.append(type(node).__name__)
        states.append((tuple(kinds), state.number_of_edges()))
    return tuple(states), tuple(sorted(sdfg.arrays)), sdfg.number_of_edges()


def sdfg_from_json(obj: Dict[str, Any]):
    from repro.sdfg.sdfg import SDFG, InterstateEdge

    sdfg = SDFG(
        obj["name"],
        symbols={k: dtype_from_name(v) for k, v in obj["symbols"].items()},
        constants=obj.get("constants", {}),
    )
    sdfg.instrument = _instrument_from_json(obj)
    for name, dobj in obj["arrays"].items():
        sdfg.arrays[name] = data_from_json(dobj)
    states = [state_from_json(s, sdfg) for s in obj["states"]]
    for s in states:
        sdfg.add_node(s)
    if obj["start_state"] is not None:
        sdfg.start_state = states[obj["start_state"]]
    for t in obj["transitions"]:
        sdfg.add_edge(
            states[t["src"]],
            states[t["dst"]],
            InterstateEdge(t["condition"], t["assignments"]),
        )
    sdfg.transformation_history = list(obj.get("transformation_history", ()))
    return sdfg
