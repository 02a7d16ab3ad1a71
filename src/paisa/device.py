"""The IoT-device state machine: trusted state installed at provisioning,
boot-time time sync, and one secure timer, the integer ``Device.now``, that
drives periodic local attestation and scheduled announcements. Trusted state
the device could not sign its messages from is refused when it is built. The
device file is that state as ``crypto.record_to_json`` writes it: the fields
of ``TrustedState``, in order, with each ``bytes`` value in hex.

The device owns the time-sync retry policy: ``next_sync_attempt`` hands out
each SyncReq with the seconds to wait for its reply, up to
``MAX_SYNC_ATTEMPTS`` requests with the wait doubling from
``SYNC_TIMEOUT_BASE``. Its drivers (``boot``, the simulator and
``paisa device``) only move bytes and keep time.

The trusted state and private key live behind this class boundary and are
never reachable from the normal software or from network input, emulating the
TEE isolation contract. Compromise is modeled as mutation access to
``NormalSoftware`` only; it can never suppress or alter announcements.

Like a secure world hashing the normal world's memory where it lies, the
device measures its program image in place: it keeps the ``bytes`` it was
provisioned with (a mutable image is copied, so the caller cannot reach device
memory) until the first write access, and attestation hashes what is current.
It walks that memory ``ATTEST_CHUNK_SIZE`` (1 MiB) per SHA-256 update, so an
image of up to 1 MiB is one update. A finer walk measures the same digest:
here each chunk is an interpreter step that costs time and measures nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from . import crypto, wire

ATTEST_CHUNK_SIZE = 1 << 20  # one SHA-256 update per MiB of program memory

MAX_SYNC_ATTEMPTS = 5
SYNC_TIMEOUT_BASE = 2  # seconds to wait for the first SyncResp; doubles per attempt


class DeviceError(RuntimeError):
    pass


@dataclass
class TimerConfig:
    t_announce: int
    t_attest: int

    def __post_init__(self) -> None:
        if type(self.t_announce) is not int or type(self.t_attest) is not int:
            raise TypeError("timer periods must be integers")
        if self.t_announce <= 0 or self.t_attest <= 0:
            raise ValueError("timer periods must be positive")
        if self.t_attest % self.t_announce != 0:
            raise ValueError("t_attest must be a multiple of t_announce")


class NormalSoftware:
    """The untrusted application image; the only thing an adversary may touch.

    It holds the ``bytes`` it was installed with until the first access to
    ``program_memory`` swaps in a private ``bytearray``.
    """

    __slots__ = ("_memory",)

    def __init__(self, image: bytes) -> None:
        self._memory = image

    @property
    def program_memory(self) -> bytearray:
        """The writable program memory: the adversary's mutation path."""
        if type(self._memory) is not bytearray:
            self._memory = bytearray(self._memory)
        return self._memory

    @property
    def contents(self) -> bytes:
        """The current image, read without a copy: for measuring, not writing."""
        return self._memory


@dataclass(frozen=True)
class AttReport:
    att_result: int
    att_timestamp: int


@dataclass
class TrustedState:
    """The device's secure storage; its fields, in order, are the device file's keys."""

    device_id: bytes
    private_key: bytes
    public_key: bytes
    mfr_public_key: bytes
    short_url: str
    full_url: str
    sw_hash: bytes
    ts_prev: int
    t_announce: int
    t_attest: int

    def __post_init__(self) -> None:
        """Refuse state the device could not sign its messages or attest from."""
        if len(self.device_id) != wire.DEVICE_ID_LEN:
            raise DeviceError("device_id must be 16 bytes")
        if type(self.ts_prev) is not int or not 0 <= self.ts_prev <= wire.TS_MAX:
            raise DeviceError("ts_prev must be an integer that fits the 4-byte timestamp field")
        url = self.short_url
        if not (isinstance(url, str) and url.isascii() and len(url) == wire.SHORT_URL_LEN):
            raise DeviceError("short_url must be 11 ASCII characters")
        if not isinstance(self.full_url, str):
            raise DeviceError("full_url must be a string")
        if len(self.mfr_public_key) != crypto.PUBLIC_KEY_LEN:
            raise DeviceError("mfr_public_key must be 64 bytes")
        if len(self.sw_hash) != crypto.DIGEST_LEN:
            raise DeviceError("sw_hash must be 32 bytes")
        crypto.KeyPair(self.private_key, self.public_key)
        TimerConfig(self.t_announce, self.t_attest)


class Device:
    """One announcement-capable device; its secure timer is the integer ``now``.

    ``tick`` advances the timer one second. Only announce boundaries are due,
    so the simulator and ``paisa device`` instead ``wake`` the device once per
    announcement, straight to ``next_announce``, for the same frames and
    reports.
    """

    def __init__(self, nonce_source=None) -> None:
        # Anything with ``randbytes(n)``; SystemRandom's reads os.urandom.
        self._nonces = nonce_source if nonce_source is not None else random.SystemRandom()
        self.trusted: Optional[TrustedState] = None
        self.software: Optional[NormalSoftware] = None
        self.now = 0  # the secure timer in device seconds; each sync sets it
        self.synced = False
        self.sync_attempts = 0
        self._pending_sync_nonce: Optional[bytes] = None
        self._last_report: Optional[AttReport] = None

    # -- provisioning -------------------------------------------------------

    def provision(
        self,
        device_id: bytes,
        sw_dev: bytes,
        mfr_public_key: bytes,
        short_url: str,
        full_url: str,
        ts_cur: int,
        timer_config: TimerConfig,
        key_seed: Optional[bytes] = None,
    ) -> Tuple[bytes, bytes]:
        """Install software and trusted state; returns the new device public
        key and the installed image's measurement, which the manufacturer
        signs into the manifest as its ``sw_hash``.

        The keypair is generated inside the device; only the public half is
        ever output.
        """
        if self.trusted is not None:
            raise DeviceError("device is already provisioned")
        keys = crypto.generate_keypair(key_seed)
        image = bytes(sw_dev)  # the same object for bytes; a mutable image is copied
        sw_hash = crypto.hash_chunked(image, ATTEST_CHUNK_SIZE)
        self.trusted = TrustedState(
            device_id=device_id, private_key=keys.private_key, public_key=keys.public_key,
            mfr_public_key=mfr_public_key, short_url=short_url, full_url=full_url,
            sw_hash=sw_hash, ts_prev=ts_cur, t_announce=timer_config.t_announce,
            t_attest=timer_config.t_attest,
        )
        self.software = NormalSoftware(image)
        return keys.public_key, sw_hash

    def export_state(self) -> dict:
        """The trusted state as a JSON document: the device's secure storage
        when it lives in a file between runs (see ``from_state``)."""
        return crypto.record_to_json(self._require_provisioned())

    @classmethod
    def from_state(cls, doc: dict, image: bytes, nonce_source=None) -> "Device":
        """A provisioned device rebuilt from ``export_state()`` output, with
        ``image`` as its program memory (copied only if it is mutable). A
        malformed document raises ``DeviceError``."""
        try:
            state = crypto.record_from_json(TrustedState, doc, "state")
        except (ValueError, DeviceError) as exc:
            raise DeviceError(f"malformed device state: {exc}") from exc
        device = cls(nonce_source)
        device.trusted, device.software = state, NormalSoftware(bytes(image))
        return device

    @property
    def mac(self) -> bytes:
        """Locally administered MAC derived from the device identifier."""
        self._require_provisioned()
        return b"\x02" + self.trusted.device_id[:5]

    def _require_provisioned(self) -> TrustedState:
        if self.trusted is None:
            raise DeviceError("device is not provisioned")
        return self.trusted

    # -- time sync ----------------------------------------------------------

    def make_sync_req(self) -> wire.SyncReq:
        """Start (or restart) a sync exchange with a fresh request nonce."""
        st = self._require_provisioned()
        n_dev1 = self._nonces.randbytes(wire.NONCE_LEN)
        self._pending_sync_nonce = n_dev1
        return wire.signed(
            wire.SyncReq, st.private_key, st.device_id, n_dev1, st.ts_prev
        )

    def next_sync_attempt(self) -> Optional[Tuple[bytes, int]]:
        """The next encoded SyncReq and the seconds to wait for its reply, or
        None once the device is synced or has sent ``MAX_SYNC_ATTEMPTS``."""
        if self.synced or self.sync_attempts >= MAX_SYNC_ATTEMPTS:
            return None
        payload = wire.encode_sync_message(self.make_sync_req())
        wait = SYNC_TIMEOUT_BASE << self.sync_attempts
        self.sync_attempts += 1
        return payload, wait

    def handle_sync_resp(self, resp: wire.SyncResp) -> Optional[wire.SyncAck]:
        """Validate a response; returns the ack on success, None to retry.

        A failed response never changes device state.
        """
        st = self._require_provisioned()
        # With no request pending, the nonce is None and no response matches.
        if resp.device_id != st.device_id or resp.n_dev1 != self._pending_sync_nonce:
            return None
        if not wire.verifies(resp, st.mfr_public_key):
            return None
        st.ts_prev = self.now = resp.ts_cur
        self.synced = True
        self._pending_sync_nonce = None
        n_dev2 = self._nonces.randbytes(wire.NONCE_LEN)
        return wire.signed(
            wire.SyncAck, st.private_key, st.device_id, n_dev2, resp.n_svr1, st.ts_prev
        )

    def handle_sync_datagram(self, data: bytes) -> wire.SyncOutcome:
        """Handle one datagram from the server: ``device_synced`` with the
        SyncAck to send, ``device_sync_retry`` for a SyncResp that fails
        validation, or ``device_discard`` for anything but a SyncResp."""
        try:
            msg = wire.decode_sync_message(data)
        except wire.SyncParseError as exc:
            return wire.SyncOutcome("device_discard", str(exc))
        if not isinstance(msg, wire.SyncResp):
            return wire.SyncOutcome("device_discard", "unexpected_message")
        ack = self.handle_sync_resp(msg)
        if ack is None:
            return wire.SyncOutcome("device_sync_retry")
        return wire.SyncOutcome("device_synced", reply=wire.encode_sync_message(ack))

    def boot(
        self, send: Callable[[bytes], None], recv: Callable[[int], Optional[bytes]]
    ) -> List[bytes]:
        """Blocking boot: time sync over a datagram link, then the first
        announcement; an unsynced device emits nothing. Each attempt from
        ``next_sync_attempt`` sends a SyncReq and reads one reply with
        ``recv(seconds)`` (None: none in time); any reply but a valid
        SyncResp uses up the attempt, and a valid one is acknowledged."""
        while (attempt := self.next_sync_attempt()) is not None:
            payload, wait = attempt
            send(payload)
            data = recv(wait)
            ack = None if data is None else self.handle_sync_datagram(data).reply
            if ack is not None:
                send(ack)
                return self.announce_now()
        return []

    # -- attestation and announcement ---------------------------------------

    def attest(self) -> AttReport:
        """Hash the normal program memory in place, as it is now, and compare
        against the provisioned reference; stores and returns the report."""
        st = self._require_provisioned()
        assert self.software is not None
        measured = crypto.hash_chunked(self.software.contents, ATTEST_CHUNK_SIZE)
        result = 1 if measured == st.sw_hash else 0
        report = AttReport(att_result=result, att_timestamp=self.now)
        self._last_report = report
        return report

    def make_announcement(self) -> wire.AnnouncementMsg:
        """Build and sign a fresh announcement from the latest stored report."""
        st = self._require_provisioned()
        if not self.synced:
            raise DeviceError("cannot announce with an unsynced clock")
        report = self._last_report if self._last_report is not None else self.attest()
        nonce = self._nonces.randbytes(wire.NONCE_LEN)
        return wire.signed(
            wire.AnnouncementMsg, st.private_key, nonce, self.now,
            st.short_url, report.att_result, report.att_timestamp, device_id=st.device_id,
        )

    def _beacon(self) -> bytes:
        return wire.encode_beacon(self.make_announcement(), self.mac)

    def announce_now(self) -> List[bytes]:
        """Attest and broadcast immediately (the boot-time announcement)."""
        self.attest()
        return [self._beacon()]

    @property
    def next_announce(self) -> int:
        """The device time of the next announce boundary after now; every
        attest boundary is one, as ``t_attest`` is a multiple of ``t_announce``."""
        t_announce = self._require_provisioned().t_announce
        return (self.now // t_announce + 1) * t_announce

    def wake(self) -> List[bytes]:
        """Move the timer to the next announce boundary: no second in between
        is due, so the frames and reports are those of ticking every second
        up to it."""
        return self._advance(self.next_announce)

    def tick(self) -> List[bytes]:
        """Advance the virtual timer one second; returns any frames to emit."""
        return self._advance(self.now + 1)

    def _advance(self, now: int) -> List[bytes]:
        """Set a synced device's timer to ``now`` and attest and announce if it
        falls on their boundaries, strictly by the clock: nothing the normal
        software does, including compromise or busy-looping, affects emission."""
        st = self._require_provisioned()
        if not self.synced:
            return []
        self.now = now
        if now % st.t_attest == 0:
            self.attest()
        if now % st.t_announce == 0:
            return [self._beacon()]
        return []
