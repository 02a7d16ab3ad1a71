import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from paisa import crypto
from paisa.device import ATTEST_CHUNK_SIZE, Device, TimerConfig
from paisa.manifest import (
    Manifest,
    ManifestError,
    ShortUrlRegistry,
    canonicalize,
    hosted_path,
    manifest_from_json,
    manifest_to_json,
    sign_manifest,
    verify_manifest,
)
from paisa.server import DeviceDescription, ManufacturerServer

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


def register(reg, url):
    key = reg.key_for(url)
    reg.add(key, url)
    return key


def test_registry_key_for_is_idempotent():
    reg = ShortUrlRegistry()
    url = "https://mfr.example/manifests/a.json"
    assert reg.key_for(url) == reg.key_for(url)
    key = register(reg, url)
    assert reg.key_for(url) == reg.key_for(url) == key


def test_registry_distinct_urls_get_distinct_keys():
    reg = ShortUrlRegistry()
    a = register(reg, "https://mfr.example/a.json")
    b = register(reg, "https://mfr.example/b.json")
    assert a != b
    assert len(a) == len(b) == 11


def test_registry_resolve_roundtrip():
    reg = ShortUrlRegistry()
    url = "https://mfr.example/manifests/c.json"
    assert reg.resolve(register(reg, url)) == url


def test_registry_unregistered_key_not_found():
    reg = ShortUrlRegistry()
    assert reg.resolve("AAAAAAAAAAA") is None


def test_registry_rejects_wrong_length_key():
    reg = ShortUrlRegistry()
    with pytest.raises(ValueError):
        reg.resolve("short")


def test_registry_key_for_skips_a_taken_candidate():
    reg = ShortUrlRegistry()
    url = "https://mfr.example/manifests/a.json"
    first = reg.key_for(url)
    reg.add(first, "https://other.example/squatter.json")
    key = reg.key_for(url)
    assert key != first and key == ShortUrlRegistry._candidate(url, 1)
    reg.add(key, url)
    assert reg.resolve(key) == url


@pytest.mark.parametrize(
    "key, url",
    [
        ("short", "https://mfr.example/a.json"),
        (5, "https://mfr.example/a.json"),
        ("\u00ff" * 11, "https://mfr.example/a.json"),
        ("AAAAAAAAAAA", 7),
    ],
    ids=["short_key", "int_key", "non_ascii_key", "int_url"],
)
def test_registry_add_refuses_a_bad_key_or_url(key, url):
    reg = ShortUrlRegistry()
    with pytest.raises(ManifestError):
        reg.add(key, url)
    assert reg.to_dict() == {}


@pytest.mark.parametrize(
    "full_url, path",
    [
        ("https://mfr.example/manifests/a.json", "/manifests/a.json"),
        ("mfr.example/a.json", "/a.json"),
        ("https:///m.json", "/m.json"),  # an empty host
    ],
)
def test_hosted_path_is_the_full_url_without_scheme_and_host(full_url, path):
    assert hosted_path(full_url) == path


def test_registry_bijective_over_many_urls():
    reg = ShortUrlRegistry()
    urls = [f"https://mfr.example/m/{i}.json" for i in range(500)]
    keys = [register(reg, u) for u in urls]
    assert len(set(keys)) == len(urls)
    for key, url in zip(keys, urls):
        assert reg.resolve(key) == url


# -- the JSON template against json.dumps --------------------------------------

def dumps_json(man: Manifest) -> bytes:
    """The document as ``json.dumps`` writes it from the fields: the reference
    that ``manifest_to_json``'s template must match byte for byte."""
    doc = {}
    for f in dataclasses.fields(Manifest):
        value = getattr(man, f.name)
        if isinstance(value, bytes):
            doc[f.name] = value.hex()
        elif isinstance(value, tuple):
            doc[f.name] = list(value)
        elif value is not None:
            doc[f.name] = value
    return json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")


# Quotes, backslashes, control characters, non-ASCII, astral characters and
# lone surrogates, each of which the JSON encoder escapes its own way.
SPECIAL = '"\\/\x00\x08\t\n\x1f\x7f\u00e9\u2028\ufeff\U0001f600\ud800\udfff'
texts = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters(exclude_categories=())), max_size=12)
lists = st.lists(texts, max_size=4).map(tuple)  # 0, 1 and many elements


manifests = st.builds(
    Manifest,
    device_id=st.binary(min_size=16, max_size=16),
    device_type_model=texts,
    manufacturer=texts,
    manufacture_date_location=texts,
    sensors=lists,
    actuators=lists,
    deployment_purpose=texts,
    network_interfaces=lists,
    owner_id=texts,
    deployment_location=texts,
    sw_hash=st.binary(min_size=32, max_size=32),
    device_public_key=st.binary(min_size=64, max_size=64),
    full_url=texts,
    status=st.sampled_from(["active", "revoked"]),
    manufacturer_public_key=st.none() | st.binary(min_size=64, max_size=64),
    manifest_signature=st.none() | st.binary(min_size=64, max_size=64),
)


@settings(max_examples=150, deadline=None)
@given(manifests)
def test_manifest_json_template_matches_json_dumps(man):
    assert manifest_to_json(man) == dumps_json(man)


# A registration refuses strings with no UTF-8 form, so its descriptions
# leave out the surrogates.
utf8_texts = st.text(st.characters(exclude_categories=("Cs",)), max_size=12)
descriptions = st.builds(
    DeviceDescription,
    **{
        f.name: st.lists(utf8_texts, max_size=3).map(tuple) if f.type.startswith("Tuple") else utf8_texts
        for f in dataclasses.fields(DeviceDescription)
    },
)


@settings(max_examples=40, deadline=None)
@given(descriptions, st.binary(min_size=1, max_size=64))
def test_registration_publishes_the_signed_manifest_json(desc, image):
    server = ManufacturerServer(MFR_KEYS)
    device_id, full_url = bytes(range(16)), "https://mfr.example/manifests/p.json"
    man, record = server.register_device(
        Device(), device_id, image, full_url, 0, TimerConfig(10, 30), desc, key_seed=b"\x44" * 32
    )
    unsigned = Manifest(
        **vars(desc),
        device_id=device_id,
        sw_hash=crypto.hash_chunked(image, ATTEST_CHUNK_SIZE),
        device_public_key=crypto.generate_keypair(b"\x44" * 32).public_key,
        full_url=full_url,
        status="active",
    )
    published = server.serve_manifest(record.manifest_path)
    assert published == manifest_to_json(sign_manifest(unsigned, MFR_KEYS))
    assert manifest_from_json(published) == man
    assert verify_manifest(man)
