"""The chaos engine itself: grammar, determinism, actions, telemetry."""

import time

import pytest

from repro.chaos import (
    ACTIONS,
    CATALOG,
    LAYERS,
    ChaosFault,
    FaultPlan,
    FaultRule,
    active_engine,
    faultpoint,
    install_plan,
    parse_rule,
    plan_from_env,
    uninstall_engine,
)
from repro.chaos.engine import CORRUPT_MARKER
from repro.telemetry.sink import TelemetrySink, install_sink, uninstall_sink


# ------------------------------------------------------------- grammar
def test_parse_rule_round_trips_through_spec():
    rule = parse_rule("progcache.disk_write:raise-io@hit=2,seed=11")
    assert rule.point == "progcache.disk_write"
    assert rule.action == "raise-io"
    assert rule.hit == 2 and rule.seed == 11
    assert rule.times == 1, "hit= implies a one-shot rule"
    again = parse_rule(rule.spec())
    assert again.spec() == rule.spec()


def test_parse_plan_multiple_clauses():
    plan = FaultPlan.parse(
        "progcache.disk_write:raise-io@hit=2;"
        "pool.worker_spawn:kill@p=0.3,seed=7"
    )
    assert [r.point for r in plan.rules] == [
        "progcache.disk_write", "pool.worker_spawn",
    ]
    assert plan.rules[1].p == pytest.approx(0.3)
    # Every rule's spec is itself parseable.
    FaultPlan.parse(plan.spec())


@pytest.mark.parametrize("bad", [
    "",                                  # empty plan
    "nocolon",                           # no action
    "point:frobnicate",                  # unknown action
    "point:raise@hit=0",                 # hit is 1-based
    "point:raise@p=1.5",                 # not a probability
    "point:raise@banana=1",              # unknown parameter
    "point:raise@hit",                   # missing value
])
def test_malformed_specs_are_rejected(bad):
    with pytest.raises(ValueError):
        FaultPlan.parse(bad)


def test_strict_parse_checks_the_catalog():
    FaultPlan.parse("progcache.disk_write:raise@hit=1", strict=True)
    FaultPlan.parse("progcache.*:raise@hit=1", strict=True)
    with pytest.raises(ValueError, match="unknown fault point"):
        FaultPlan.parse("no.such.point:raise@hit=1", strict=True)
    with pytest.raises(ValueError, match="matches no registered"):
        FaultPlan.parse("nosuchprefix.*:raise@hit=1", strict=True)


def test_catalog_spans_all_layers_with_at_least_15_points():
    assert len(CATALOG) >= 15
    assert {pt.layer for pt in CATALOG.values()} == set(LAYERS)
    for name in CATALOG:
        # Point names are the grammar's left-hand side: dotted, no colons.
        assert "." in name and ":" not in name


def test_catalog_matches_the_faultpoint_call_sites():
    """Each registered name is a quoted literal in its declared module,
    and every literal ``faultpoint("...")`` under ``src/repro`` is
    registered — so a call site cannot move or be renamed silently."""
    import importlib.util
    import pathlib
    import re

    for name, point in CATALOG.items():
        source = pathlib.Path(importlib.util.find_spec(point.module).origin).read_text()
        assert f'"{name}"' in source or f"'{name}'" in source, (name, point.module)

    root = pathlib.Path(importlib.util.find_spec("repro").origin).parent
    literal = re.compile(r"""faultpoint\(\s*(["'])([^"']+)\1""")
    called = {
        m.group(2)
        for path in root.rglob("*.py")
        for m in literal.finditer(path.read_text())
    }
    assert called, "no faultpoint call sites found"
    assert called <= set(CATALOG), sorted(called - set(CATALOG))


def test_seed_defaults_are_deterministic_per_point():
    a = parse_rule("progcache.disk_write:raise")
    b = parse_rule("progcache.disk_write:raise")
    c = parse_rule("tuningcache.disk_write:raise")
    assert a.seed == b.seed
    assert a.seed != c.seed


# --------------------------------------------------------- determinism
def _firing_pattern(spec: str, point: str, n: int):
    engine = install_plan(FaultPlan.parse(spec))
    pattern = []
    for _ in range(n):
        try:
            engine.evaluate(point, None, None, {})
            pattern.append(False)
        except ChaosFault:
            pattern.append(True)
    uninstall_engine()
    return pattern


def test_probabilistic_rules_replay_identically_from_the_seed():
    spec = "x.y:raise@p=0.5,seed=42"
    first = _firing_pattern(spec, "x.y", 200)
    second = _firing_pattern(spec, "x.y", 200)
    assert first == second
    assert any(first) and not all(first), "p=0.5 fires sometimes, not always"
    other = _firing_pattern("x.y:raise@p=0.5,seed=43", "x.y", 200)
    assert other != first, "a different seed gives a different stream"


def test_hit_rule_fires_exactly_on_the_nth_evaluation():
    pattern = _firing_pattern("x.y:raise@hit=3", "x.y", 6)
    assert pattern == [False, False, True, False, False, False]


def test_times_caps_total_firings():
    pattern = _firing_pattern("x.y:raise@p=1,times=2", "x.y", 5)
    assert pattern == [True, True, False, False, False]


def test_wildcard_matches_the_prefix():
    engine = install_plan(FaultPlan.parse("progcache.*:raise@p=1"))
    with pytest.raises(ChaosFault):
        engine.evaluate("progcache.disk_write", None, None, {})
    with pytest.raises(ChaosFault):
        engine.evaluate("progcache.disk_read", None, None, {})
    assert engine.evaluate("tuningcache.disk_write", "ok", None, {}) == "ok"


# -------------------------------------------------------------- actions
def test_all_actions_are_spelled_in_the_grammar_table():
    assert set(ACTIONS) == {
        "raise", "raise-io", "enospc", "corrupt", "delay", "kill", "exit",
    }


def test_raise_io_and_enospc_are_oserrors():
    import errno

    engine = install_plan(FaultPlan.parse("x.y:raise-io@p=1;x.z:enospc@p=1"))
    with pytest.raises(OSError) as io_err:
        engine.evaluate("x.y", None, None, {})
    assert io_err.value.errno == errno.EIO
    with pytest.raises(OSError) as full_err:
        engine.evaluate("x.z", None, None, {})
    assert full_err.value.errno == errno.ENOSPC


def test_corrupt_is_deterministic_and_never_parseable():
    import json

    payload = '{"key": "abc", "value": [1, 2, 3]}'
    first = install_plan(
        FaultPlan.parse("x.y:corrupt@p=1,seed=5")
    ).evaluate("x.y", payload, None, {})
    second = install_plan(
        FaultPlan.parse("x.y:corrupt@p=1,seed=5")
    ).evaluate("x.y", payload, None, {})
    assert first == second, "same seed, same torn bytes"
    assert first != payload and first.endswith(CORRUPT_MARKER)
    with pytest.raises(json.JSONDecodeError):
        json.loads(first)
    # bytes payloads tear too; None passes through untouched.
    engine = install_plan(FaultPlan.parse("x.y:corrupt@p=1"))
    torn = engine.evaluate("x.y", payload.encode(), None, {})
    assert isinstance(torn, bytes) and torn.endswith(CORRUPT_MARKER.encode())
    assert engine.evaluate("x.y", None, None, {}) is None


def test_delay_sleeps_for_ms():
    engine = install_plan(FaultPlan.parse("x.y:delay@p=1,ms=60"))
    start = time.monotonic()
    assert engine.evaluate("x.y", "payload", None, {}) == "payload"
    assert time.monotonic() - start >= 0.05


# ---------------------------------------------------------- activation
def test_no_engine_is_a_passthrough():
    assert active_engine() is None
    assert faultpoint("x.y", payload="p") == "p"


def test_env_var_activates_the_engine(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS", "x.y:raise@hit=1")
    uninstall_engine()  # drop the cached "no engine" resolution
    with pytest.raises(ChaosFault):
        faultpoint("x.y")
    faultpoint("x.y")  # one-shot: the second evaluation passes


def test_malformed_env_spec_is_ignored_with_a_warning(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FAULTS", "not a spec")
    assert plan_from_env() is None
    assert "malformed REPRO_FAULTS" in capsys.readouterr().err
    uninstall_engine()
    assert active_engine() is None, "a typo must not take the process down"


# ----------------------------------------------------------- telemetry
def test_every_firing_is_published_and_snapshotted():
    sink = TelemetrySink()
    previous = install_sink(sink)
    try:
        engine = install_plan(FaultPlan.parse("x.y:raise@hit=1,seed=9"))
        with pytest.raises(ChaosFault):
            faultpoint("x.y", ctx_key="ctx_value")
        events, _, _ = sink.drain(0)
        faults = [e for e in events if e.kind == "fault"]
        assert len(faults) == 1
        assert faults[0].label == "x.y"
        assert faults[0].fields["action"] == "raise"
        assert faults[0].fields["seed"] == 9
        assert faults[0].fields["ctx_key"] == "ctx_value"
        snap = engine.snapshot()
        assert snap["firings"] == 1
        assert snap["by_point"] == {"x.y": 1}
        assert snap["rules"][0]["fired"] == 1
    finally:
        install_sink(previous)
        uninstall_sink()


def test_faults_on_the_telemetry_path_do_not_recurse():
    """A rule on ``telemetry.publish`` fires for user publishes, but the
    engine's own ``fault:*`` publication is reentrancy-guarded — the
    firing is still recorded and the process does not loop."""
    sink = TelemetrySink()
    previous = install_sink(sink)
    try:
        engine = install_plan(
            FaultPlan.parse("telemetry.publish:raise@p=1,times=3")
        )
        with pytest.raises(ChaosFault):
            sink.publish("kernel", "k")
        snap = engine.snapshot()
        assert snap["firings"] == 1
    finally:
        install_sink(previous)
        uninstall_sink()


# ------------------------------------------------------------------ CLI
def test_cli_list_counts_the_catalog(capsys):
    from repro.chaos.__main__ import main

    assert main(["list", "--count"]) == 0
    assert int(capsys.readouterr().out.strip()) >= 15
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for layer in LAYERS:
        assert f"[{layer}]" in out


def test_cli_check_validates_specs(capsys):
    from repro.chaos.__main__ import main

    assert main(["check", "progcache.disk_write:raise-io@hit=2"]) == 0
    assert main(["check", "no.such.point:raise"]) == 1
    assert "invalid" in capsys.readouterr().err
