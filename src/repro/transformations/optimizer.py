"""Transformation enumeration and application (the programmatic half of
the paper's §4.1/§4.2 workflow).

``enumerate_matches`` lists applicable instances in a stable,
deterministic order (sorted by state/node indices, so tuning traces and
beam search are reproducible); ``apply_transformations`` applies a
sequence by name or class (recording history — the "optimization
version control"); ``apply_match`` applies one specific candidate by
its index in that order; ``apply_strict_transformations`` runs the
always-beneficial set to fixpoint, as DaCe does after frontend parsing;
``replay`` re-applies a recorded chain onto a fresh SDFG.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.transformations.base import REGISTRY, Transformation

XformLike = Union[str, Type[Transformation]]

#: One replayable step: a bare transformation name (apply the first
#: sorted match, as ``apply_and_record`` logs) or a mapping with
#: ``transformation`` / optional ``match`` index / optional ``options``
#: — the form the tuner's winning histories use.
HistoryEntry = Union[str, Mapping[str, Any]]


def _resolve(x: XformLike) -> Type[Transformation]:
    if isinstance(x, str):
        try:
            return REGISTRY[x]
        except KeyError as err:
            raise KeyError(
                f"unknown transformation {x!r}; available: {sorted(REGISTRY)}"
            ) from err
    return x


def sort_matches(sdfg, matches: Iterable[Transformation]) -> List[Transformation]:
    """Order transformation instances deterministically.

    The key is ``(state index, candidate node indices)`` in graph
    insertion order — for multi-state transformations the candidate
    entries are states, keyed by their index in the SDFG.  Sorting is
    stable, so instances the key cannot distinguish keep enumeration
    order.  Every enumeration/application path routes through this, so
    "the k-th match" means the same candidate across runs, processes,
    and replayed histories.
    """
    states = sdfg.node_index()

    def key(inst: Transformation) -> Tuple:
        values = inst.candidate.values()
        if inst.state is not None:
            nodes = inst.state.node_index()
            return (
                states.get(inst.state, -1),
                tuple(nodes.get(v, -1) for v in values),
            )
        return (-1, tuple(states.get(v, -1) for v in values))

    return sorted(matches, key=key)


def rebind_match(inst: Transformation, sdfg) -> Transformation:
    """``inst``'s match on ``sdfg``, a graph that serializes to the same
    snapshot as ``inst.sdfg`` (a parse of it, or a copy).  Each matched state and node is found
    by its (state index, node index), the positions :func:`sort_matches`
    orders by, so the rebound instance is the same candidate on the
    other copy.  Nothing is enumerated."""
    src_states, dst_states = inst.sdfg.nodes(), sdfg.nodes()
    if inst.state is None:  # multi-state: the candidate's values are states
        src, dst, state = src_states, dst_states, None
    else:
        state = dst_states[next(i for i, s in enumerate(src_states) if s is inst.state)]
        src, dst = inst.state.nodes(), state.nodes()
    index = {id(v): i for i, v in enumerate(src)}
    candidate = {p: dst[index[id(v)]] for p, v in inst.candidate.items()}
    return type(inst)(sdfg, state, candidate)


def enumerate_matches(
    sdfg, xform: XformLike, strict: bool = False
) -> List[Transformation]:
    """All applicable instances of a transformation in the SDFG, in the
    stable order of :func:`sort_matches`."""
    sdfg.propagate()
    return sort_matches(sdfg, _resolve(xform).matches(sdfg, strict))


def apply_transformations(
    sdfg,
    xforms: Union[XformLike, Sequence[XformLike]],
    options: Optional[Union[Mapping, Sequence[Optional[Mapping]]]] = None,
    validate: bool = True,
) -> int:
    """Apply the first match of each given transformation, in order.

    ``options`` sets instance attributes (e.g. ``{"tile_sizes": (64,)}``)
    for the corresponding transformation.  Returns how many applied.
    """
    if isinstance(xforms, (str, type)):
        xforms = [xforms]
    if options is None:
        opt_list: List[Optional[Mapping]] = [None] * len(xforms)
    elif isinstance(options, Mapping):
        opt_list = [options] * len(xforms)
    else:
        opt_list = list(options)
    applied = 0
    for xf, opts in zip(xforms, opt_list):
        if apply_match(sdfg, xf, options=opts, validate=False):
            applied += 1
    if validate and applied:
        sdfg.propagate()
        sdfg.validate()
    return applied


def apply_match(
    sdfg,
    xform: XformLike,
    match_index: int = 0,
    options: Optional[Mapping] = None,
    validate: bool = False,
) -> bool:
    """Apply the ``match_index``-th candidate of ``xform`` (in the
    deterministic order of :func:`enumerate_matches`).  Returns whether
    a candidate at that index existed and was applied."""
    matches = enumerate_matches(sdfg, xform)
    if match_index >= len(matches):
        return False
    inst = matches[match_index]
    for k, v in (options or {}).items():
        setattr(inst, k, v)
    inst.apply_and_record()
    if validate:
        sdfg.propagate()
        sdfg.validate()
    return True


def apply_transformations_repeated(
    sdfg,
    xforms: Union[XformLike, Sequence[XformLike]],
    validate: bool = True,
    max_applications: int = 1000,
) -> int:
    """Apply the given transformations until no more matches exist."""
    if isinstance(xforms, (str, type)):
        xforms = [xforms]
    classes = [_resolve(x) for x in xforms]
    applied = 0
    progress = True
    while progress and applied < max_applications:
        progress = False
        for cls in classes:
            if apply_match(sdfg, cls, validate=False):
                applied += 1
                progress = True
    if validate and applied:
        sdfg.propagate()
        sdfg.validate()
    return applied


def apply_strict_transformations(sdfg, validate: bool = True) -> int:
    """Apply all strict (only-beneficial) transformations to fixpoint."""
    strict = [cls for cls in REGISTRY.values() if cls.strict]
    return apply_transformations_repeated(sdfg, strict, validate=validate)


def replay(
    sdfg, history: Iterable[HistoryEntry], options: Optional[Dict] = None
) -> int:
    """Re-apply a recorded transformation chain (DIODE's saved chains,
    §4.2: 'diverging from a mid-point in the chain' when retargeting).

    Entries are bare transformation names (``sdfg.transformation_history``
    form, applying the first sorted match) or mappings with
    ``transformation``, optional ``match`` index, and optional
    ``options`` — the form the auto-tuner's winning histories use, so a
    cached tuning result replays exactly the searched candidate chain.
    """
    applied = 0
    for entry in history:
        if isinstance(entry, str):
            name, index, opts = entry, 0, (options or {}).get(entry)
        else:
            name = entry["transformation"]
            index = int(entry.get("match", 0))
            opts = entry.get("options") or (options or {}).get(name)
        if apply_match(sdfg, name, match_index=index, options=opts):
            applied += 1
    sdfg.propagate()
    sdfg.validate()
    return applied
