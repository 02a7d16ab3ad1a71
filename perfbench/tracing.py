"""In-memory span tracer that wraps the package's public functions at their
call sites, without editing any file of the package.

A span is ``[name, start_ns, end_ns, parent_index, request_id]``. The request
is the benchmark operation (a frame, a sync, an announce period, a simulator
run...) that was being driven when the span opened. Self time of a span is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List

# (module, function, span name): module-level functions. Each is replaced in
# every ``paisa`` module that holds a reference to it, so a name imported with
# ``from .manifest import verify_manifest`` is wrapped as well.
FUNCTIONS = [
    ("crypto", "sign", "crypto.sign"),
    ("crypto", "verify", "crypto.verify"),
    ("crypto", "hash_chunked", "crypto.hash_chunked"),
    ("wire", "decode_beacon", "wire.decode_beacon"),
    ("wire", "encode_beacon", "wire.encode_beacon"),
    ("wire", "encode_sync_message", "wire.sync_codec"),
    ("wire", "decode_sync_message", "wire.sync_codec"),
    ("manifest", "manifest_from_json", "manifest.manifest_from_json"),
    ("manifest", "verify_manifest", "manifest.verify_manifest"),
    ("manifest", "sign_manifest", "manifest.sign_manifest"),
    ("pcapio", "read_pcap", "pcapio.read_pcap"),
    ("pcapio", "write_pcap", "pcapio.write_pcap"),
]

# (module, class, method, span name).
METHODS = [
    ("receiver", "Receiver", "process_frame", "receiver.process_frame"),
    ("receiver", "RegistryFetcher", "fetch", "receiver.fetch"),
    ("device", "Device", "attest", "device.attest"),
    ("device", "Device", "make_announcement", "device.make_announcement"),
    ("device", "Device", "make_sync_req", "device.make_sync_req"),
    ("device", "Device", "handle_sync_resp", "device.handle_sync_resp"),
    ("device", "Device", "tick", "device.tick"),
    ("server", "ManufacturerServer", "register_device", "server.register_device"),
    ("server", "ManufacturerServer", "handle_sync_req", "server.handle_sync_req"),
    ("server", "ManufacturerServer", "handle_sync_ack", "server.handle_sync_ack"),
    ("simnet", "Simulation", "run", "simnet.run"),
]

# Counted but not spanned: one event per call, too frequent to time usefully.
COUNTED = [("simnet", "VirtualClock", "schedule", "simnet.events")]

# Extra counters taken from a call's arguments.
_ARG_COUNTERS = {
    "crypto.hash_chunked": ("crypto.hash_chunked.bytes", lambda args: len(args[0])),
    "pcapio.read_pcap": ("pcapio.bytes", lambda args: os.path.getsize(args[0])),
}


class Tracer:
    """Collects spans while installed; ``begin`` tags the current request."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.requests: List[str] = []
        self.req = -1
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    def begin(self, kind: str) -> int:
        """Start a new benchmark operation; spans opened from now on belong to it.
        An uninstalled tracer keeps no state, so untraced runs pay nothing for it."""
        if not self._undo:
            return -1
        self.requests.append(kind)
        self.req = len(self.requests) - 1
        return self.req

    # -- wrapping -----------------------------------------------------------

    def _span(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns
        extra = _ARG_COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if extra is not None:
                counts[extra[0]] += extra[1](args)
            span = [name, clock(), 0, stack[-1] if stack else -1, tracer.req]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                counts[name + ".errors"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _count(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = {k: m for k, m in sys.modules.items() if k == "paisa" or k.startswith("paisa.")}
        for mod, fn_name, name in FUNCTIONS:
            original = getattr(modules.get("paisa." + mod), fn_name, None)
            if original is None:
                continue
            wrapped = self._span(original, name)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)
        for wrap, table in ((self._span, METHODS), (self._count, COUNTED)):
            for mod, cls_name, method, name in table:
                cls = getattr(modules.get("paisa." + mod), cls_name, None)
                if cls is not None and method in vars(cls):
                    self._patch(cls, method, wrap(vars(cls)[method], name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis -----------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, req in self.spans:
                kind = self.requests[req] if req >= 0 else None
                f.write(json.dumps([name, start, end, parent, req, kind]) + "\n")


def self_times(spans: List[list]) -> List[int]:
    """Self time (ns) of every span: its duration minus the union of its
    children's intervals, clipped to the span. Never negative."""
    children: Dict[int, List[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0, start
        for j in sorted(children.get(i, ()), key=lambda k: spans[k][1]):
            lo, hi = max(spans[j][1], cursor), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_totals(tracer: Tracer):
    """Per span name: (calls, self ns), plus per (name, request kind) calls."""
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    by_kind: Counter = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        calls[span[0]] += 1
        self_ns[span[0]] += own
        if span[4] >= 0:
            by_kind[span[0], tracer.requests[span[4]]] += 1
    return calls, self_ns, by_kind
