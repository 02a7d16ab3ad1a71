"""The IoT-device state machine: trusted state installed at provisioning,
boot-time time sync, periodic local attestation, and scheduled announcements.

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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from . import crypto, wire

ATTEST_CHUNK_SIZE = 4096

MAX_SYNC_ATTEMPTS = 5
SYNC_TIMEOUT_BASE = 2  # seconds to wait for the first SyncResp; doubles per attempt


class DeviceError(RuntimeError):
    pass


@dataclass
class TimerConfig:
    t_announce: int
    t_attest: int

    def __post_init__(self) -> None:
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


@dataclass
class DeviceClock:
    """Seconds clock: last synced base plus ticks of the virtual secure timer."""

    base_ts: int = 0
    ticks_since_sync: int = 0

    @property
    def now(self) -> int:
        return self.base_ts + self.ticks_since_sync

    def resync(self, base_ts: int) -> None:
        self.base_ts = base_ts
        self.ticks_since_sync = 0


@dataclass(frozen=True)
class AttReport:
    att_result: int
    att_timestamp: int


@dataclass
class TrustedState:
    device_id: bytes
    sw_hash_expected: bytes
    mfr_public_key: bytes
    short_url: str
    full_url: str
    device_keys: crypto.KeyPair
    ts_prev: int
    timer_config: TimerConfig


class Device:
    """One announcement-capable device driven by a one-second virtual timer.

    ``tick`` advances the timer one second. Only announce boundaries are due,
    so the simulator and ``paisa device`` instead ``wake`` the device once per
    announcement, at the device time ``next_announce``, for the same frames
    and reports.
    """

    def __init__(self, nonce_source=None) -> None:
        # Anything with ``randbytes(n)``; SystemRandom's reads os.urandom.
        self._nonces = nonce_source if nonce_source is not None else random.SystemRandom()
        self.trusted: Optional[TrustedState] = None
        self.software: Optional[NormalSoftware] = None
        self.clock = DeviceClock()
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
        self._install(
            TrustedState(
                device_id=device_id,
                sw_hash_expected=sw_hash,
                mfr_public_key=mfr_public_key,
                short_url=short_url,
                full_url=full_url,
                device_keys=keys,
                ts_prev=ts_cur,
                timer_config=timer_config,
            ),
            image,
        )
        return keys.public_key, sw_hash

    def _install(self, state: TrustedState, image: bytes) -> None:
        if len(state.device_id) != wire.DEVICE_ID_LEN:
            raise DeviceError("device_id must be 16 bytes")
        if not 0 <= state.ts_prev <= wire.TS_MAX:
            raise DeviceError("ts_prev must fit the 4-byte timestamp field")
        self.software = NormalSoftware(image)
        self.trusted = state

    def export_state(self) -> dict:
        """The trusted state as a JSON document: the device's secure storage
        when it lives in a file between runs (see ``from_state``)."""
        st = self._require_provisioned()
        return {
            "device_id": st.device_id.hex(),
            "private_key": st.device_keys.private_key.hex(),
            "public_key": st.device_keys.public_key.hex(),
            "mfr_public_key": st.mfr_public_key.hex(),
            "short_url": st.short_url,
            "full_url": st.full_url,
            "sw_hash": st.sw_hash_expected.hex(),
            "ts_prev": st.ts_prev,
            "t_announce": st.timer_config.t_announce,
            "t_attest": st.timer_config.t_attest,
        }

    @classmethod
    def from_state(cls, doc: dict, image: bytes, nonce_source=None) -> "Device":
        """A provisioned device rebuilt from ``export_state()`` output, with
        ``image`` as its program memory (copied only if it is mutable). A
        malformed document raises ``DeviceError``."""
        try:
            if not all(type(doc[k]) is int for k in ("ts_prev", "t_announce", "t_attest")):
                raise TypeError("ts_prev, t_announce and t_attest must be integers")
            state = TrustedState(
                device_id=bytes.fromhex(doc["device_id"]),
                sw_hash_expected=bytes.fromhex(doc["sw_hash"]),
                mfr_public_key=bytes.fromhex(doc["mfr_public_key"]),
                short_url=doc["short_url"],
                full_url=doc["full_url"],
                device_keys=crypto.KeyPair(
                    private_key=bytes.fromhex(doc["private_key"]),
                    public_key=bytes.fromhex(doc["public_key"]),
                ),
                ts_prev=doc["ts_prev"],
                timer_config=TimerConfig(doc["t_announce"], doc["t_attest"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DeviceError(f"malformed device state: {exc!r}") from exc
        device = cls(nonce_source)
        device._install(state, bytes(image))
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
            wire.SyncReq, st.device_keys.private_key, st.device_id, n_dev1, st.ts_prev
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
        st.ts_prev = resp.ts_cur
        self.clock.resync(resp.ts_cur)
        self.synced = True
        self._pending_sync_nonce = None
        n_dev2 = self._nonces.randbytes(wire.NONCE_LEN)
        return wire.signed(
            wire.SyncAck, st.device_keys.private_key, st.device_id, n_dev2, resp.n_svr1, st.ts_prev
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
        result = 1 if measured == st.sw_hash_expected else 0
        report = AttReport(att_result=result, att_timestamp=self.clock.now)
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
            wire.AnnouncementMsg, st.device_keys.private_key, nonce, self.clock.now,
            st.short_url, report.att_result, report.att_timestamp, device_id=st.device_id,
        )

    def announce_now(self) -> List[bytes]:
        """Attest and broadcast immediately (the boot-time announcement)."""
        self.attest()
        return [wire.encode_beacon(self.make_announcement(), self.mac)]

    @property
    def next_announce(self) -> int:
        """The device time of the next announce boundary after now; every
        attest boundary is one, as ``t_attest`` is a multiple of ``t_announce``."""
        t_announce = self._require_provisioned().timer_config.t_announce
        return (self.clock.now // t_announce + 1) * t_announce

    def wake(self) -> List[bytes]:
        """Move the timer to the second before the next announce boundary and
        tick: no second in between is due, so the frames and reports are those
        of ticking every second up to the boundary."""
        if self.synced:
            self.clock.ticks_since_sync += self.next_announce - 1 - self.clock.now
        return self.tick()

    def tick(self) -> List[bytes]:
        """Advance the virtual timer one second; returns any frames to emit.

        Scheduled strictly by the clock: nothing the normal software does,
        including compromise or busy-looping, affects emission.
        """
        st = self._require_provisioned()
        if not self.synced:
            return []
        self.clock.ticks_since_sync += 1
        now = self.clock.now
        if now % st.timer_config.t_attest == 0:
            self.attest()
        if now % st.timer_config.t_announce == 0:
            return [wire.encode_beacon(self.make_announcement(), self.mac)]
        return []
