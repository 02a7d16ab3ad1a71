import dataclasses

import pytest

from paisa import crypto
from paisa.manifest import (
    Manifest,
    ManifestError,
    ShortUrlRegistry,
    canonicalize,
    manifest_from_json,
    manifest_to_json,
    sign_manifest,
    verify_manifest,
)

MFR_KEYS = crypto.generate_keypair(b"\x11" * 32)
DEV_KEYS = crypto.generate_keypair(b"\x22" * 32)


def sample_manifest() -> Manifest:
    return Manifest(
        device_id=bytes(range(16)),
        device_type_model="motion-sensor mk2",
        manufacturer="Acme IoT",
        manufacture_date_location="2024-03-01 / Plant 7",
        sensors=("pir", "temperature"),
        actuators=("buzzer",),
        deployment_purpose="hallway occupancy",
        network_interfaces=("wifi-2.4ghz",),
        owner_id="facilities-42",
        deployment_location="Building A, floor 2",
        sw_hash=bytes(32),
        device_public_key=DEV_KEYS.public_key,
        full_url="https://mfr.example/manifests/mk2-0001.json",
        status="active",
    )


def test_canonicalize_deterministic():
    man = sample_manifest()
    assert canonicalize(man) == canonicalize(man)


def test_canonicalize_sensitive_to_fields():
    man = sample_manifest()
    other = dataclasses.replace(man, owner_id="someone-else")
    assert canonicalize(man) != canonicalize(other)


def test_canonicalize_excludes_signature_fields():
    man = sample_manifest()
    signed = sign_manifest(man, MFR_KEYS)
    assert canonicalize(man) == canonicalize(signed)


def test_canonical_length_matches_width_summing_oracle():
    man = sample_manifest()

    def str_len(s):
        return 4 + len(s.encode("utf-8"))

    def list_len(items):
        return 4 + sum(str_len(i) for i in items)

    expected = (
        16
        + str_len(man.device_type_model)
        + str_len(man.manufacturer)
        + str_len(man.manufacture_date_location)
        + list_len(man.sensors)
        + list_len(man.actuators)
        + str_len(man.deployment_purpose)
        + list_len(man.network_interfaces)
        + str_len(man.owner_id)
        + str_len(man.deployment_location)
        + 32
        + 64
        + str_len(man.full_url)
        + str_len(man.status)
    )
    assert len(canonicalize(man)) == expected


def test_sign_then_verify():
    signed = sign_manifest(sample_manifest(), MFR_KEYS)
    assert verify_manifest(signed)
    assert signed.manufacturer_public_key == MFR_KEYS.public_key


def test_mutation_after_signing_fails():
    signed = sign_manifest(sample_manifest(), MFR_KEYS)
    tampered = dataclasses.replace(signed, deployment_location="elsewhere")
    assert not verify_manifest(tampered)


def test_every_payload_field_is_signature_bound():
    signed = sign_manifest(sample_manifest(), MFR_KEYS)
    mutations = {
        "device_id": bytes(16),
        "device_type_model": "x",
        "manufacturer": "x",
        "manufacture_date_location": "x",
        "sensors": ("x",),
        "actuators": ("x",),
        "deployment_purpose": "x",
        "network_interfaces": ("x",),
        "owner_id": "x",
        "deployment_location": "x",
        "sw_hash": b"\x01" * 32,
        "device_public_key": MFR_KEYS.public_key,
        "full_url": "https://evil.example/m.json",
        "status": "revoked",
    }
    for field, value in mutations.items():
        tampered = dataclasses.replace(signed, **{field: value})
        assert not verify_manifest(tampered), f"mutation of {field} went undetected"


def test_unsigned_manifest_does_not_verify():
    assert not verify_manifest(sample_manifest())


def test_json_roundtrip_preserves_signature():
    signed = sign_manifest(sample_manifest(), MFR_KEYS)
    parsed = manifest_from_json(manifest_to_json(signed))
    assert parsed == signed
    assert verify_manifest(parsed)


def test_malformed_json_raises_manifest_error():
    with pytest.raises(ManifestError):
        manifest_from_json(b"{not json")
    with pytest.raises(ManifestError):
        manifest_from_json(b'{"device_id": "zz"}')


def test_registry_shorten_is_idempotent():
    reg = ShortUrlRegistry()
    url = "https://mfr.example/manifests/a.json"
    assert reg.shorten(url) == reg.shorten(url)


def test_registry_distinct_urls_get_distinct_keys():
    reg = ShortUrlRegistry()
    a = reg.shorten("https://mfr.example/a.json")
    b = reg.shorten("https://mfr.example/b.json")
    assert a != b
    assert len(a) == len(b) == 11


def test_registry_resolve_roundtrip():
    reg = ShortUrlRegistry()
    url = "https://mfr.example/manifests/c.json"
    assert reg.resolve(reg.shorten(url)) == url


def test_registry_unregistered_key_not_found():
    reg = ShortUrlRegistry()
    assert reg.resolve("AAAAAAAAAAA") is None


def test_registry_rejects_wrong_length_key():
    reg = ShortUrlRegistry()
    with pytest.raises(ValueError):
        reg.resolve("short")


def test_registry_serialization_roundtrip():
    reg = ShortUrlRegistry()
    key = reg.shorten("https://mfr.example/x.json")
    restored = ShortUrlRegistry.from_dict(reg.to_dict())
    assert restored.resolve(key) == "https://mfr.example/x.json"
    assert restored.shorten("https://mfr.example/x.json") == key


def test_registry_bijective_over_many_urls():
    reg = ShortUrlRegistry()
    urls = [f"https://mfr.example/m/{i}.json" for i in range(500)]
    keys = [reg.shorten(u) for u in urls]
    assert len(set(keys)) == len(urls)
    for key, url in zip(keys, urls):
        assert reg.resolve(key) == url
