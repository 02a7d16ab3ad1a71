import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from paisa import crypto

from p256_oracle import ecdsa_verify, scalar_mult

SEED = bytes(range(32))


def test_keypair_deterministic_with_seed():
    assert crypto.generate_keypair(SEED) == crypto.generate_keypair(SEED)


def test_keypair_distinct_without_seed():
    a = crypto.generate_keypair()
    b = crypto.generate_keypair()
    assert a.private_key != b.private_key


def test_keypair_rejects_bad_seed_length():
    with pytest.raises(crypto.CryptoError):
        crypto.generate_keypair(b"short")


def test_public_key_matches_scalar_multiplication_oracle():
    keys = crypto.generate_keypair(SEED)
    scalar = int.from_bytes(keys.private_key, "big")
    x, y = scalar_mult(scalar)
    assert keys.public_key == x.to_bytes(32, "big") + y.to_bytes(32, "big")


def test_hash_chunked_empty_is_published_constant():
    assert (
        crypto.hash_chunked(b"", 4096).hex()
        == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_hash_chunked_independent_of_chunk_size():
    data = b"\xaa" * 8192
    assert crypto.hash_chunked(data, 4096) == crypto.hash_chunked(data, 8192)


def test_hash_chunked_matches_hashlib_oracle():
    data = random.Random(1).randbytes(10000)
    assert crypto.hash_chunked(data, 4096) == hashlib.sha256(data).digest()


@given(st.binary(min_size=0, max_size=5000), st.integers(min_value=1, max_value=6000))
def test_hash_chunked_chunk_invariance_property(data, chunk):
    assert crypto.hash_chunked(data, chunk) == hashlib.sha256(data).digest()


def test_hash_chunked_rejects_nonpositive_chunk():
    with pytest.raises(ValueError):
        crypto.hash_chunked(b"x", 0)


def test_sign_verify_roundtrip():
    keys = crypto.generate_keypair(SEED)
    digest = hashlib.sha256(b"hello").digest()
    sig = crypto.sign(keys.private_key, digest)
    assert len(sig) == 64
    assert crypto.verify(keys.public_key, digest, sig)


def test_sign_is_deterministic():
    keys = crypto.generate_keypair(SEED)
    digest = hashlib.sha256(b"repeatable").digest()
    assert crypto.sign(keys.private_key, digest) == crypto.sign(keys.private_key, digest)


def test_signature_validates_against_independent_verifier_oracle():
    keys = crypto.generate_keypair(SEED)
    digest = hashlib.sha256(b"oracle me").digest()
    sig = crypto.sign(keys.private_key, digest)
    pub = (
        int.from_bytes(keys.public_key[:32], "big"),
        int.from_bytes(keys.public_key[32:], "big"),
    )
    r = int.from_bytes(sig[:32], "big")
    s = int.from_bytes(sig[32:], "big")
    assert ecdsa_verify(pub, digest, r, s)


def test_verify_wrong_key_fails():
    keys = crypto.generate_keypair(SEED)
    other = crypto.generate_keypair(bytes(reversed(SEED)))
    digest = hashlib.sha256(b"bound").digest()
    sig = crypto.sign(keys.private_key, digest)
    assert not crypto.verify(other.public_key, digest, sig)


def test_single_bit_flips_always_fail():
    rng = random.Random(42)
    keys = crypto.generate_keypair(SEED)
    digest = hashlib.sha256(b"flip").digest()
    sig = crypto.sign(keys.private_key, digest)
    for _ in range(1000):
        target = rng.choice(("sig", "digest", "pk"))
        if target == "sig":
            buf = bytearray(sig)
        elif target == "digest":
            buf = bytearray(digest)
        else:
            buf = bytearray(keys.public_key)
        bit = rng.randrange(len(buf) * 8)
        buf[bit // 8] ^= 1 << (bit % 8)
        if target == "sig":
            ok = crypto.verify(keys.public_key, digest, bytes(buf))
        elif target == "digest":
            ok = crypto.verify(keys.public_key, bytes(buf), sig)
        else:
            ok = crypto.verify(bytes(buf), digest, sig)
        assert not ok


def test_verify_survives_garbage_without_raising():
    keys = crypto.generate_keypair(SEED)
    digest = hashlib.sha256(b"x").digest()
    assert crypto.verify(keys.public_key, digest, b"\x00" * 64) is False
    assert crypto.verify(keys.public_key, digest, b"junk") is False
    assert crypto.verify(b"\xff" * 64, digest, b"\x01" * 64) is False
    assert crypto.verify(b"", digest, b"\x01" * 64) is False


def test_keypair_file_roundtrip(tmp_path):
    keys = crypto.generate_keypair(SEED)
    path = str(tmp_path / "dev.key")
    crypto.save_keypair(path, keys)
    assert crypto.load_keypair(path) == keys
    lines = open(path).read().splitlines()
    assert len(lines[0]) == 64 and len(lines[1]) == 128


def test_bad_public_keys_fail_on_every_call():
    keys = crypto.generate_keypair(SEED)
    digest = hashlib.sha256(b"cached").digest()
    sig = crypto.sign(keys.private_key, digest)
    off_curve = keys.public_key[:63] + bytes([keys.public_key[63] ^ 1])
    with pytest.raises(ValueError):
        crypto._load_public(off_curve)
    for pk in (off_curve, keys.public_key[:63], keys.public_key + b"\x00"):
        for _ in range(3):
            assert crypto.verify(pk, digest, sig) is False
    assert crypto.verify(keys.public_key, digest, sig) is True


@pytest.mark.parametrize(
    "scalar", [0, crypto.CURVE_ORDER, crypto.CURVE_ORDER + 1, 2**256 - 1]
)
def test_out_of_range_private_scalar_raises_on_every_call(scalar):
    digest = hashlib.sha256(b"cached").digest()
    for _ in range(3):
        with pytest.raises(crypto.CryptoError):
            crypto.sign(scalar.to_bytes(32, "big"), digest)


def test_key_caches_are_bounded():
    assert crypto._load_public.cache_info().maxsize == 1024
    assert crypto._load_private.cache_info().maxsize == 1024
