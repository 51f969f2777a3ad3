"""Write-once records: the slotted dataclasses built per share, per sent
message and per contract call are not ``frozen`` (a frozen ``__init__``
assigns each field through ``object.__setattr__``, three to six times the
cost of plain slot stores), so this file holds them to write-once instead.
The messages themselves are frozen records: a message with no fields
assigns no slot, so this guard could never see one built.

The simulator hands one report object from device to server to node, and a
trace digests each message when it is sent. An in-place edit after that
would change another participant's view without showing in the trace. The
``write_once`` fixture makes every slotted, non-frozen dataclass in
``dexo.*`` refuse a second assignment to a slot and any deletion, and the
flows below run under it.
"""

import dataclasses
import importlib
import pkgutil

import pytest

import dexo
from dexo.crypto import MerkleProof, SecretShare
from dexo.ledger import Call, Revert
from dexo.netsim import (
    Action,
    AdversaryScript,
    Dispute,
    Note,
    Rule,
    Sent,
    run_scenario,
    standard_scripts,
)
from dexo.tee import AttestationReport
from scenarioutil import random_cases, suite_config
from test_paper_scale import tamper_config

WRITE_ONCE = {
    SecretShare, MerkleProof, AttestationReport,
    Sent, Note, Dispute, Call, Revert,
}

RANDOM_SCHEDULES = 50


def write_once_classes() -> set[type]:
    """Every slotted dataclass in ``dexo.*`` that is not frozen."""
    found = set()
    for info in pkgutil.walk_packages(dexo.__path__, "dexo."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and dataclasses.is_dataclass(value)
                and "__slots__" in vars(value)
                and not value.__dataclass_params__.frozen
            ):
                found.add(value)
    return found


@pytest.fixture
def write_once(monkeypatch) -> dict[type, object]:
    """Guard every write-once class; returns the first instance built of
    each, filled in as the guarded code runs."""
    built: dict[type, object] = {}

    def set_once(self, name, value):
        try:
            object.__getattribute__(self, name)
        except AttributeError:  # an empty slot: the one allowed assignment
            object.__setattr__(self, name, value)
            built.setdefault(type(self), self)
            return
        raise dataclasses.FrozenInstanceError(
            f"second assignment to {type(self).__name__}.{name}")

    def no_delete(self, name):
        raise dataclasses.FrozenInstanceError(
            f"deletion of {type(self).__name__}.{name}")

    for cls in write_once_classes():
        monkeypatch.setattr(cls, "__setattr__", set_once)
        monkeypatch.setattr(cls, "__delattr__", no_delete)
    return built


def guarded_flows():
    """(label, config, script) for every flow run under the guard."""
    for name, script in sorted(standard_scripts(suite_config()).items()):
        config = suite_config(adversary=name, shared_key=script.requires_shared_key)
        yield name, config, script
    yield "HONEST shared_key", suite_config(shared_key=True, seed=1), None
    yield "HONEST unmerged", suite_config(merged_query=False, seed=2), None
    yield "TAMPER_SHARES n=25", tamper_config(25, seed=3), None
    for case, (config, script) in enumerate(random_cases(RANDOM_SCHEDULES)):
        yield f"random case={case},{script.name}", config, script


def test_the_write_once_records_are_the_slotted_non_frozen_dataclasses():
    assert write_once_classes() == WRITE_ONCE
    for cls in WRITE_ONCE:
        assert cls.__eq__ is not object.__eq__


def test_every_flow_writes_each_record_once(write_once):
    for label, config, script in guarded_flows():
        try:
            run_scenario(config, script)
        except dataclasses.FrozenInstanceError as exc:
            pytest.fail(f"{label}: {exc}")
    assert set(write_once) == WRITE_ONCE  # every class was built under the guard


def test_the_guard_refuses_reassignment_and_deletion(write_once):
    run_scenario(suite_config(adversary="SERVER_PERMUTE"))  # notes and disputes too
    wrong_key = AdversaryScript(name="WRONG_KEY", corrupted_nodes=frozenset({1}),
                                rules=(Rule(Action.WRONG_KEY),))
    run_scenario(suite_config(seed=9), wrong_key)  # a rejected reveal: a Revert
    assert set(write_once) == WRITE_ONCE
    for cls, record in write_once.items():
        for field in dataclasses.fields(cls):
            value = getattr(record, field.name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, field.name)
            assert getattr(record, field.name) is value, f"{cls.__name__}.{field.name}"
