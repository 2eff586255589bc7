"""Topology checks: the spec types hold the rules, so a topology from YAML
and one built in code pass the same checks and fail with a ConfigError
that names the field."""

import copy
from dataclasses import fields, replace
from pathlib import Path

import pytest
import yaml

from tigsim import descriptors as dm
from tigsim.harness import (
    BusSpec,
    ConfigError,
    CycleLimitExceeded,
    InjectorSpec,
    MasterSpec,
    Topology,
    VictimSpec,
    build,
    load_topology,
)

SAMPLES = Path(__file__).parent.parent / "samples"

# The odd values every leaf is replaced by; _DELETE removes the leaf.
_DELETE = object()
ODD = (None, -1, 0, 2**40, "x", "a,b", [], 1.5, True)


# ---------------------------------------------------------------------------
# YAML: the whole message of one fault per rule kind
# ---------------------------------------------------------------------------

def _two_bus_config():
    return {
        "buses": [{"name": "a", "kind": "ahb", "L": 1},
                  {"name": "x", "kind": "axi", "L": 2, "O": 2}],
        "masters": [
            {"name": "v", "bus": "a", "role": "victim",
             "victim": {"period": 4, "count": 2, "kind": "read", "address": 0}},
            {"name": "i", "bus": "x", "role": "injector",
             "injector": {"descriptors": [{"kind": "read_fix", "address": 0}]}},
        ],
    }


def _lone_injector(**injector):
    return [{"name": "i", "bus": "x", "role": "injector", "injector": injector}]


def _set(cfg, path, value):
    """cfg with the node at path, a tuple of keys, set to value or removed."""
    target = cfg
    for key in path[:-1]:
        target = target[key]
    if value is _DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return cfg


@pytest.mark.parametrize("where,value,message", [
    ("buses.0.L", True, "buses[0].L: expected an integer, got True"),
    ("buses.1.L", 0, "buses[1].L: must be >= 1, got 0"),
    ("masters.0.victim.address", 2**40,
     "masters[0].victim.address: must be <= 4294967295, got 1099511627776"),
    ("masters.0.victim.period", _DELETE,
     "masters[0].victim.period: missing required integer"),
    ("masters.0.name", _DELETE, "masters[0].name: missing required master name"),
    ("buses.0.name", 5, "buses[0].name: expected bus name"),
    ("masters.0.bus", "a,b", "masters[0].bus: expected one of ('a', 'x'), got 'a,b'"),
    ("masters.1.role", _DELETE, "masters[1].role: missing required value"),
    ("buses.1.kind", "pci", "buses[1].kind: expected one of ('ahb', 'axi'), got 'pci'"),
    ("buses.0.policy", "lottery", "buses[0].policy: expected one of "
                                  "('fixed_priority', 'round_robin'), got 'lottery'"),
    ("name", "a,b", "name: names are limited to [A-Za-z0-9_.-], got 'a,b'"),
    ("masters.0.name", "v\n",
     r"masters[0].name: names are limited to [A-Za-z0-9_.-], got 'v\n'"),
    ("masters.1.injector.enabled", None,
     "masters[1].injector.enabled: expected a boolean, got None"),
    ("masters", _lone_injector(descriptors=[{"kind": "read", "address": 0}],
                               ctrl=["bogus"]),
     "masters[0].injector.ctrl: unknown flag 'bogus'"),
    ("masters.1.injector.ctrl", "loop",
     "masters[1].injector.ctrl: expected a list of flag names"),
    ("buses.0.O", 2, "buses[0].O: only meaningful for axi buses"),
    ("masters.0.victim", _DELETE, "masters[0].victim: expected a mapping"),
    ("masters.0.injector", {}, "masters[0].injector: not allowed when role is 'victim'"),
    ("masters.1.injector.pattern", "stress.tig",
     "masters[1].injector: exactly one of 'pattern' or 'descriptors' required"),
    ("masters.1.injector.descriptors.0.kind", "jump",
     "masters[1].injector.descriptors[0].kind: expected one of "
     "('delay', 'read', 'write', 'read_fix', 'write_fix'), got 'jump'"),
    ("masters", _lone_injector(descriptors=[{"kind": "read"}]),
     "masters[0].injector.descriptors[0].address: missing required integer"),
    ("masters", _lone_injector(descriptors=[{"kind": "read", "address": 0}] * 129),
     "masters[0].injector: i: 129 descriptors need 258 words; buffer holds 256"),
    ("buses.1.name", "a", "buses: bus names must be unique"),
    ("masters.1.name", "v", "masters: master names must be unique"),
    ("masters", [], "masters: at least one master required"),
    ("buses", _DELETE, "buses: at least one bus required"),
    ("seed", -1, "seed: must be >= 0, got -1"),
    ("bogus", 1, "bogus: unknown key"),
    ("masters.1.injector.descriptors", {"kind": "read"},
     "masters[1].injector.descriptors: expected a non-empty list of descriptors"),
    ("masters.1.injector.descriptors", [],
     "masters[1].injector.descriptors: expected a non-empty list of descriptors"),
    ("masters.0.injector", None, "masters[0].injector: not allowed when role is 'victim'"),
])
def test_loader_error_messages_are_pinned(where, value, message):
    """One YAML fault per rule kind, with the whole message it ends in."""
    path = tuple(int(k) if k.isdigit() else k for k in where.split("."))
    with pytest.raises(ConfigError) as excinfo:
        load_topology(_set(_two_bus_config(), path, value))
    assert str(excinfo.value) == message


# ---------------------------------------------------------------------------
# Specs built in code
# ---------------------------------------------------------------------------

AHB = BusSpec("a", "ahb", 1)
AXI = BusSpec("x", "axi", 2, outstanding=2)
VICTIM = VictimSpec(period=4, count=2, kind="read", address=0)
INJECTOR = InjectorSpec(descriptors=(dm.Descriptor(dm.Kind.READ_FIX, last=True),))
CORE = MasterSpec("v", "a", "victim", victim=VICTIM)
INJ = MasterSpec("i", "x", "injector", injector=INJECTOR)
TOPO = Topology(buses=(AHB, AXI), masters=(CORE, INJ))


@pytest.mark.parametrize("make,path", [
    (lambda: replace(AHB, name="a,b"), "name"),
    (lambda: replace(AHB, latency=0), "L"),
    (lambda: replace(AXI, outstanding=0), "O"),
    (lambda: replace(AHB, kind="pci"), "kind"),
    (lambda: replace(AXI, policy="lottery"), "policy"),
    (lambda: replace(VICTIM, period=0), "period"),
    (lambda: replace(VICTIM, period=True), "period"),
    (lambda: replace(VICTIM, count=0), "count"),
    (lambda: replace(VICTIM, address=-1), "address"),
    (lambda: replace(VICTIM, size_bytes=0), "size_bytes"),
    (lambda: replace(INJECTOR, program_via="x"), "program_via"),
    (lambda: replace(INJECTOR, program_at=-5), "program_at"),
    (lambda: replace(INJECTOR, ctrl=("bogus",)), "ctrl"),
    (lambda: replace(INJECTOR, descriptors=()), "descriptors"),
    (lambda: replace(INJECTOR, descriptors=("read",)), "descriptors"),
    (lambda: replace(INJECTOR, descriptors=(dm.Descriptor(dm.Kind.READ_FIX),)), "descriptors"),
    (lambda: InjectorSpec(), "descriptors"),
    (lambda: replace(INJ, injector=replace(INJECTOR, descriptors=INJECTOR.descriptors * 129)),
     "injector"),
    (lambda: Topology(masters=(CORE,)), "buses"),
    (lambda: replace(CORE, role="x"), "role"),
    (lambda: replace(CORE, injector=INJECTOR), "injector"),
    (lambda: replace(INJ, injector=None), "injector"),
    (lambda: replace(TOPO, seed=-1), "seed"),
    (lambda: replace(TOPO, max_cycles=0), "max_cycles"),
    (lambda: replace(TOPO, masters=()), "masters"),
    (lambda: replace(TOPO, masters=(CORE, CORE)), "masters"),
    (lambda: replace(TOPO, buses=(AHB, replace(AXI, name="a"))), "buses"),
    (lambda: replace(TOPO, buses=(AHB, VICTIM)), "buses[1]"),
    (lambda: replace(TOPO, masters=(CORE, replace(INJ, bus="zz"))), "masters[1].bus"),
])
def test_a_bad_spec_built_in_code_names_its_field(make, path):
    with pytest.raises(ConfigError) as excinfo:
        make()
    assert excinfo.value.path == path


def test_an_ahb_bus_spec_has_an_outstanding_cap_of_one():
    """A serial channel grants only while empty, so the cap cannot act:
    the spec holds 1 and equal buses give equal digests."""
    assert BusSpec("a", "ahb", 1, outstanding=4) == AHB
    assert BusSpec("a", "ahb", 1, outstanding=4).outstanding == 1
    four = replace(TOPO, buses=(replace(AHB, outstanding=4), AXI))
    assert four.digest() == TOPO.digest()


def test_sequences_are_held_as_tuples():
    spec = replace(INJECTOR, ctrl=["loop"], descriptors=list(INJECTOR.descriptors))
    assert spec == replace(INJECTOR, ctrl=("loop",))
    topo = replace(TOPO, buses=list(TOPO.buses), masters=list(TOPO.masters))
    assert topo == TOPO


def test_fields_at_their_maximum_build_and_run():
    """The top of a bounded range is in it: a victim of 8192 bytes at
    address 0xFFFFFFFF, from YAML and in code."""
    victim = {"period": 1, "count": 1, "kind": "write", "address": 0xFFFFFFFF,
              "size_bytes": 8192}
    topo = load_topology({"buses": [{"name": "a", "kind": "ahb", "L": 1}],
                          "masters": [{"name": "v", "bus": "a", "role": "victim",
                                       "victim": victim}]})
    assert topo.masters[0].victim == VictimSpec(**victim)
    assert build(topo).run().masters["v"].total_bytes == 8192


# ---------------------------------------------------------------------------
# Never a traceback: every single-leaf fault, from YAML and in code
# ---------------------------------------------------------------------------

def _leaves(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield path
        return
    for key, child in items:
        yield from _leaves(child, (*path, key))


def test_every_yaml_leaf_fault_loads_or_is_a_config_error(monkeypatch):
    """Each leaf of dual_bus.yaml, removed or replaced by each odd value."""
    monkeypatch.chdir(SAMPLES)    # its pattern path is relative
    base = yaml.safe_load((SAMPLES / "dual_bus.yaml").read_text(encoding="utf-8"))
    cases = 0
    for path in _leaves(base):
        for value in (*ODD, _DELETE):
            try:
                load_topology(_set(copy.deepcopy(base), path, copy.copy(value)))
            except ConfigError:
                pass
            cases += 1
    assert cases > 400


def _specs_of(topo):
    """(path, spec) for every spec of topo, outermost first; a path step is
    (field, index), index None for a field that holds one spec."""
    yield (), topo
    for key in ("buses", "masters"):
        for i, spec in enumerate(getattr(topo, key)):
            yield ((key, i),), spec
    for i, master in enumerate(topo.masters):
        role = master.victim or master.injector
        yield (("masters", i), (master.role, None)), role


def _with(spec, path, name, value):
    """spec with the field name of the spec at path set to value."""
    if not path:
        return replace(spec, **{name: value})
    (key, i), *rest = path
    inner = getattr(spec, key) if i is None else getattr(spec, key)[i]
    inner = _with(inner, rest, name, value)
    if i is None:
        return replace(spec, **{key: inner})
    items = list(getattr(spec, key))
    items[i] = inner
    return replace(spec, **{key: tuple(items)})


def test_every_code_built_field_fault_is_a_config_error_or_runs():
    """Each field of each spec of dual_bus.yaml, replaced by each odd value:
    ConfigError, or a build and a run that ends normally or at its cap."""
    topo = replace(load_topology(SAMPLES / "dual_bus.yaml"), max_cycles=2000)
    cases = 0
    for path, spec in _specs_of(topo):
        for f in fields(spec):
            for value in ODD:
                cases += 1
                try:
                    bad = _with(topo, path, f.name, value)
                except ConfigError:
                    continue
                try:
                    build(bad).run()
                except CycleLimitExceeded:
                    pass
    assert cases > 400
