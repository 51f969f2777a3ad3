"""Attested-execution simulation: rules, reports, registry, fault injection."""

import dataclasses
import pickle
import random

import pytest

from dexo import tee
from dexo.crypto import KeyMaterial, MerkleProof, SecretShare, reconstruct
from dexo.ledger import Call, Revert
from dexo.netsim import Dispute, Note, Sent
from dexo.participants import ShareDelivery
from dexo.tee import (
    AttestationRegistry,
    PreprocessingFailure,
    PreprocessingRule,
    TeePlatform,
    TeeError,
    attest_report,
    encode_readings,
    measure,
    open_openings,
    openings_nonce,
    preprocess,
    seal_openings,
)
from scenarioutil import count_calls
from test_write_once import WRITE_ONCE

RATIFIED = b"trusted-data-formatter"


def _app_with_registry(seed=1, tampered=False):
    app = TeePlatform(random.Random(seed), RATIFIED, tampered=tampered)
    registry = AttestationRegistry(expected_measurement=measure(RATIFIED))
    registry.register_key(app.public_key)
    return app, registry


# ---------------------------------------------------------------- rules


def test_clamp_boundary():
    rule = PreprocessingRule(kind="clamp", value_min=0, value_max=255)
    assert preprocess(encode_readings([300]), rule) == b"\xff"


def test_clamp_lower_bound():
    rule = PreprocessingRule(kind="clamp", value_min=10, value_max=20)
    assert preprocess(encode_readings([3, 15, 400]), rule) == bytes([10, 15, 20])


def test_full_window_mean():
    rule = PreprocessingRule(kind="moving_average", value_min=0, value_max=255, window=3)
    assert preprocess(encode_readings([10, 20, 30]), rule) == bytes([20])


def test_moving_average_slides():
    rule = PreprocessingRule(kind="moving_average", value_min=0, value_max=255, window=2)
    assert preprocess(encode_readings([10, 20, 40]), rule) == bytes([15, 30])


def test_moving_average_needs_full_window():
    rule = PreprocessingRule(kind="moving_average", value_min=0, value_max=255, window=4)
    with pytest.raises(PreprocessingFailure):
        preprocess(encode_readings([1, 2]), rule)


def test_fixed_width_rejects_out_of_range():
    rule = PreprocessingRule(kind="fixed_width", value_min=0, value_max=100)
    assert preprocess(encode_readings([5, 100]), rule) == bytes([5, 100])
    with pytest.raises(PreprocessingFailure):
        preprocess(encode_readings([101]), rule)


def test_rule_validation():
    with pytest.raises(ValueError):
        PreprocessingRule(kind="nope", value_min=0, value_max=10)
    with pytest.raises(ValueError):
        PreprocessingRule(kind="clamp", value_min=5, value_max=4)
    with pytest.raises(ValueError):
        PreprocessingRule(kind="clamp", value_min=0, value_max=256)
    with pytest.raises(ValueError):
        PreprocessingRule(kind="clamp", value_min=-1, value_max=4)


def test_raw_length_must_match_reading_width():
    rule = PreprocessingRule(kind="clamp", value_min=0, value_max=255)
    with pytest.raises(PreprocessingFailure):
        preprocess(b"\x01\x02\x03", rule)


# ---------------------------------------------------------------- build/attest


def test_two_apps_from_one_platform_stream_have_distinct_keys():
    platform = random.Random(2)
    a, b = TeePlatform(platform, RATIFIED), TeePlatform(platform, RATIFIED)
    _, _, mpk1 = a.resume_attest()
    _, _, mpk2 = b.resume_attest()
    assert mpk1 != mpk2


def test_same_descriptor_same_measurement():
    platform = random.Random(3)
    a, b = TeePlatform(platform, RATIFIED), TeePlatform(platform, RATIFIED)
    m1, _, _ = a.resume_attest()
    m2, _, _ = b.resume_attest()
    assert m1 == m2 == measure(RATIFIED)


def test_tampered_instance_measurement_differs():
    m, _, _ = TeePlatform(random.Random(4), RATIFIED, tampered=True).resume_attest()
    assert m != measure(RATIFIED)


def test_attest_against_registry():
    app, registry = _app_with_registry(seed=5)
    measurement, _, mpk = app.resume_attest()
    assert registry.admits(mpk, measurement)


def test_tampered_instance_rejected_by_registry():
    app, registry = _app_with_registry(seed=6, tampered=True)
    measurement, _, mpk = app.resume_attest()
    assert not registry.admits(mpk, measurement)


def test_unregistered_key_rejected():
    app = TeePlatform(random.Random(7), RATIFIED)
    registry = AttestationRegistry(expected_measurement=measure(RATIFIED))
    measurement, _, mpk = app.resume_attest()
    assert not registry.admits(mpk, measurement)


def test_empty_descriptor_rejected():
    with pytest.raises(TeeError):
        TeePlatform(random.Random(8), b"")


# ---------------------------------------------------------------- gendata


def test_gendata_shares_reconstruct_to_preprocessed_datum():
    app, registry = _app_with_registry(seed=9)
    rule = PreprocessingRule(kind="clamp", value_min=0, value_max=255)
    raw = encode_readings([17, 42, 99])
    reports = app.resume_gendata(n=3, t=2, raw=raw, rule=rule)
    shares = [r.share for r in reports]
    mpk = app.public_key
    assert [s.node_index for s in shares] == [1, 2, 3]
    for pick in ([0, 1], [0, 2], [1, 2]):
        got = reconstruct(2, 3, [shares[i] for i in pick])
        assert got == preprocess(raw, rule) == bytes([17, 42, 99])
    for r in reports:
        assert attest_report(registry, r)
        assert r.platform_public_key == mpk


def test_gendata_is_deterministic_for_fixed_seed():
    rule = PreprocessingRule(kind="clamp", value_min=0, value_max=255)
    raw = encode_readings([1, 2, 3, 4])

    def run():
        app, _ = _app_with_registry(seed=10)
        return app.resume_gendata(n=4, t=2, raw=raw, rule=rule)

    r1, r2 = run(), run()
    assert [r.share for r in r1] == [r.share for r in r2]
    assert [r.platform_public_key for r in r1] == [r.platform_public_key for r in r2]
    assert [r.signature for r in r1] == [r.signature for r in r2]


def test_post_hoc_share_mutation_rejected():
    # source verifiability: a report only attests the exact share it signed
    app, registry = _app_with_registry(seed=11)
    rule = PreprocessingRule(kind="clamp", value_min=0, value_max=255)
    reports = app.resume_gendata(n=3, t=2, raw=encode_readings([5]), rule=rule)
    report = reports[0]
    mutated_share = dataclasses.replace(
        report.share, y_values=bytes([report.share.y_values[0] ^ 1])
    )
    mutated = dataclasses.replace(report, share=mutated_share)
    assert attest_report(registry, report)
    assert not attest_report(registry, mutated)


def test_report_from_tampered_platform_rejected():
    app, registry = _app_with_registry(seed=12, tampered=True)
    rule = PreprocessingRule(kind="clamp", value_min=0, value_max=255)
    reports = app.resume_gendata(n=3, t=2, raw=encode_readings([5]), rule=rule)
    registry.register_key(app.public_key)
    assert all(not attest_report(registry, r) for r in reports)


def test_private_key_never_leaves_instance():
    app, _ = _app_with_registry(seed=13)
    msk_bytes = app.keypair.private_key.private_bytes_raw()
    rule = PreprocessingRule(kind="clamp", value_min=0, value_max=255)
    reports = app.resume_gendata(n=3, t=2, raw=encode_readings([5, 6]), rule=rule)
    measurement, sig, mpk = app.resume_attest()
    blobs = [mpk, sig, measurement.digest]
    blobs += [tee.wire.encode_share(r.share) for r in reports]
    blobs += [r.platform_public_key for r in reports]
    blobs += [r.signature for r in reports] + [r.salt for r in reports]
    for blob in blobs:
        assert msk_bytes not in blob
        assert app.salt_key not in blob


def test_empty_raw_rejected():
    app, _ = _app_with_registry(seed=14)
    rule = PreprocessingRule(kind="clamp", value_min=0, value_max=255)
    with pytest.raises(PreprocessingFailure):
        app.resume_gendata(n=3, t=2, raw=b"", rule=rule)


# ---------------------------------------------------------------- share openings


def _reports(seed, readings=(5, 6), n=5, t=3):
    app, registry = _app_with_registry(seed=seed)
    rule = PreprocessingRule(kind="clamp", value_min=0, value_max=255)
    reports = app.resume_gendata(n=n, t=t, raw=encode_readings(list(readings)), rule=rule)
    return app, registry, rule, reports


def test_one_signature_per_datum_with_distinct_salts():
    _, registry, _, reports = _reports(seed=20)
    assert len({r.signature for r in reports}) == 1
    assert len({r.salt for r in reports}) == len(reports)
    assert [r.proof.leaf_index for r in reports] == list(range(5))
    assert all(attest_report(registry, r) for r in reports)
    # five openings of one root cost one signature verification
    assert len(registry.verified) == 1


def test_salts_differ_between_data_of_one_device():
    app, _, rule, first = _reports(seed=21)
    second = app.resume_gendata(n=5, t=3, raw=encode_readings([5, 6]), rule=rule)
    assert {r.salt for r in first}.isdisjoint(r.salt for r in second)
    assert first[0].signature != second[0].signature


def test_altered_salt_rejected():
    _, registry, _, reports = _reports(seed=22)
    report = reports[1]
    assert attest_report(registry, report)  # the root's verdict is now remembered
    salt = bytes([report.salt[0] ^ 1]) + report.salt[1:]
    assert not attest_report(registry, dataclasses.replace(report, salt=salt))
    assert attest_report(registry, report)


def test_proof_from_another_datum_of_the_device_rejected():
    app, registry, rule, first = _reports(seed=23)
    second = app.resume_gendata(n=5, t=3, raw=encode_readings([7, 8]), rule=rule)
    report, other = first[2], second[2]
    assert attest_report(registry, report) and attest_report(registry, other)
    assert not attest_report(registry, dataclasses.replace(report, proof=other.proof))
    assert not attest_report(
        registry,
        dataclasses.replace(report, proof=other.proof, signature=other.signature),
    )
    assert not attest_report(
        registry, dataclasses.replace(report, salt=other.salt, proof=other.proof,
                                      signature=other.signature),
    )


def test_relabeled_share_rejected():
    _, registry, _, reports = _reports(seed=24)
    report, neighbour = reports[0], reports[1]
    relabeled = dataclasses.replace(report.share, node_index=2)
    # the leaf index follows the label, so the old path no longer applies
    assert not attest_report(registry, dataclasses.replace(report, share=relabeled))
    # and the neighbour's path and salt do not open the relabeled record
    assert not attest_report(
        registry, dataclasses.replace(neighbour, share=relabeled),
    )
    assert not attest_report(
        registry, dataclasses.replace(report, share=relabeled, proof=neighbour.proof),
    )
    # a leaf index that walks the same path but names another leaf
    aliased = dataclasses.replace(report.proof, leaf_index=report.proof.leaf_index + 8)
    assert not attest_report(registry, dataclasses.replace(report, proof=aliased))


def test_forged_root_signature_rejected():
    _, registry, _, reports = _reports(seed=25)
    report = reports[3]
    forged = bytes([report.signature[0] ^ 1]) + report.signature[1:]
    assert attest_report(registry, report)
    assert not attest_report(registry, dataclasses.replace(report, signature=forged))
    # a second genuine device cannot vouch for the first one's root
    _, _, other_key = TeePlatform(random.Random(99), RATIFIED).resume_attest()
    registry.register_key(other_key)
    assert not attest_report(
        registry, dataclasses.replace(report, platform_public_key=other_key)
    )


def test_verdicts_belong_to_one_registry():
    _, registry, _, reports = _reports(seed=26)
    assert attest_report(registry, reports[0])
    fresh = AttestationRegistry(
        genuine_keys=set(registry.genuine_keys),
        expected_measurement=registry.expected_measurement,
    )
    assert fresh.verified == {} and fresh.parents == {} and fresh.opened == set()
    assert attest_report(fresh, reports[1])
    assert len(fresh.verified) == len(registry.verified) == 1


def test_slotted_values_survive_pickling():
    """Every write-once record, and a frozen message outside that set."""
    _, registry, _, reports = _reports(seed=27)
    report = reports[4]
    values = (
        report, report.share, report.proof,
        Sent("device-1", "server", "report", "0123456789abcdef"),
        Note("consumer: digest mismatch from node 1"),
        Dispute("case2 accepted=True"),
        Call(3, "node-1", "commit", 21_000),
        Revert(3, "node-1", "revealKey", 84_334, "key does not open node 1's commitment"),
    )
    assert {type(value) for value in values} == WRITE_ONCE
    for value in (*values, ShareDelivery(report)):
        assert not hasattr(value, "__dict__")
        assert pickle.loads(pickle.dumps(value)) == value
    assert isinstance(report.share, SecretShare)
    assert isinstance(report.proof, MerkleProof)
    assert attest_report(registry, pickle.loads(pickle.dumps(report)))


# ---------------------------------------------------------------- openings blob


def _node_reports(n, node, providers=3):
    """Node ``node``'s report from each of ``providers`` devices sharing
    among ``n`` nodes, in provider order."""
    platform = random.Random(n)
    registry = AttestationRegistry(expected_measurement=measure(RATIFIED))
    rule = PreprocessingRule(kind="clamp", value_min=0, value_max=255)
    reports = []
    for provider in range(1, providers + 1):
        app = TeePlatform(platform, RATIFIED)
        registry.register_key(app.public_key)
        device_reports = app.resume_gendata(
            n=n, t=min(2, n), raw=encode_readings([provider, 7, 9]), rule=rule,
            provider_index=provider,
        )
        reports.append(device_reports[node - 1])
    return registry, reports


def test_openings_roundtrip_over_device_reports():
    for n, depth in [(1, 0), (2, 1), (5, 3), (8, 3), (9, 4)]:
        key = KeyMaterial(random.Random(n).randbytes(32))
        for node in sorted({1, n // 2 + 1, n}):
            registry, reports = _node_reports(n, node)
            blob = seal_openings(reports, key, b"tid-1", node)
            assert len(blob) == 3 * (32 + 64 + 32 + 32 * depth)
            shares = {r.share.provider_index: r.share for r in reports}
            opened = open_openings(blob, shares, key, b"tid-1", node, n,
                                   registry.expected_measurement)
            assert opened == {p: r for p, r in enumerate(reports, 1)}
            assert all(attest_report(registry, r) for r in opened.values())
            for bad in (blob[:-1], blob + b"\x00"):
                assert open_openings(bad, shares, key, b"tid-1", node, n,
                                     registry.expected_measurement) == {}


def test_openings_hide_the_salts_under_the_node_key():
    registry, reports = _node_reports(5, 2)
    key = KeyMaterial(bytes(32))
    blob = seal_openings(reports, key, b"tid-1", 2)
    assert not any(r.salt in blob for r in reports)
    shares = {p: r.share for p, r in enumerate(reports, 1)}
    for other_key, other_node in ((KeyMaterial(bytes([1]) * 32), 2), (key, 3)):
        opened = open_openings(blob, shares, other_key, b"tid-1", other_node, 5,
                               registry.expected_measurement)
        assert [r.salt for r in opened.values()] != [r.salt for r in reports]
        assert not any(attest_report(registry, r) for r in opened.values())


def test_sealing_rejects_a_record_of_the_wrong_width():
    _, reports = _node_reports(5, 1)
    good = reports[0]
    proof = good.proof
    for bad in (
        dataclasses.replace(good, platform_public_key=bytes(31)),
        dataclasses.replace(good, signature=bytes(65)),
        dataclasses.replace(good, salt=bytes(33)),
        dataclasses.replace(good, proof=dataclasses.replace(proof, siblings=proof.siblings[:2])),
        dataclasses.replace(good, proof=dataclasses.replace(
            proof, siblings=proof.siblings[:2] + (bytes(31),))),
    ):
        with pytest.raises(ValueError):
            seal_openings([good, bad], KeyMaterial(bytes(32)), b"tid-1", 1)


def test_openings_nonce_is_domain_separated():
    nonces = {openings_nonce(b"tid-1", j) for j in range(1, 6)}
    assert len(nonces) == 5 and b"tid-1" not in nonces


# ---------------------------------------------------------------- signature memo


def _flip(value):
    return bytes([value[0] ^ 1]) + value[1:]


def _altered(report):
    y = report.share.y_values
    share = dataclasses.replace(report.share, y_values=bytes([y[0] ^ 1]) + y[1:])
    return dataclasses.replace(report, share=share)


def test_public_key_is_the_attesting_key():
    app = TeePlatform(random.Random(5), RATIFIED)
    assert app.public_key == app.resume_attest()[2]


def test_rerooted_report_rejected_without_a_verification(monkeypatch):
    _, registry, _, reports = _reports(seed=30)
    calls = count_calls(monkeypatch, tee, "verify")["verify"]
    assert attest_report(registry, reports[0])
    assert len(calls) == 1
    # an altered share opens to another root under the same key and signature
    assert not attest_report(registry, _altered(reports[1]))
    assert not attest_report(registry, _altered(reports[0]))
    assert all(attest_report(registry, r) for r in reports)
    assert len(calls) == 1
    assert list(registry.verified.values()) == [calls[0][1]]


def test_forged_signature_first_does_not_poison_the_memo(monkeypatch):
    _, registry, _, reports = _reports(seed=31)
    report = reports[2]
    calls = count_calls(monkeypatch, tee, "verify")["verify"]
    forged = bytes([report.signature[0] ^ 1]) + report.signature[1:]
    assert not attest_report(registry, dataclasses.replace(report, signature=forged))
    # a genuine signature over another root, seen before the genuine root
    assert not attest_report(registry, _altered(report))
    assert registry.verified == {}
    assert attest_report(registry, report)
    assert len(calls) == 3
    assert not attest_report(registry, dataclasses.replace(report, signature=forged))
    assert len(calls) == 4  # failures are never remembered
    assert attest_report(registry, reports[0])
    assert len(calls) == 4


def test_a_remembered_opening_admits_no_one_field_alteration():
    _, registry, _, reports = _reports(seed=32)
    report = reports[2]
    assert attest_report(registry, report)
    assert len(registry.opened) == 1 and registry.parents
    siblings = report.proof.siblings
    other_app = TeePlatform(random.Random(98), RATIFIED)
    registry.register_key(other_app.public_key)
    altered = {
        "salt": dataclasses.replace(report, salt=_flip(report.salt)),
        "sibling": dataclasses.replace(report, proof=dataclasses.replace(
            report.proof, siblings=(siblings[0], _flip(siblings[1]), *siblings[2:]))),
        "y byte": _altered(report),
        "node label": dataclasses.replace(
            report, share=dataclasses.replace(report.share, node_index=4)),
        "signature": dataclasses.replace(report, signature=_flip(report.signature)),
        "platform key": dataclasses.replace(report, platform_public_key=other_app.public_key),
        "measurement": dataclasses.replace(
            report, measurement=measure(RATIFIED, tampered=True)),
    }
    for field_name, bad in altered.items():
        assert not attest_report(registry, bad), field_name
    assert len(registry.opened) == 1
    assert attest_report(registry, report)
