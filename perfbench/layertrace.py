"""Outside-in span tracer for dexo's public entry points.

The tracer never edits dexo: it rebinds targets while installed and restores
the originals when it is removed. A module-level function is replaced in
every ``dexo.*`` namespace that holds it, because ``participants``, ``tee``,
``wire``, ``ledger`` and ``crypto.merkle`` bind crypto functions by
``from ... import``; patching ``dexo.crypto`` alone would miss those call
sites. Methods are replaced on their classes.

Each call becomes a span (name, start, end, parent, run id) kept in compact
arrays in memory and written out by :meth:`Tracer.save` at the end. Self time
(a span's duration minus the time covered by its direct children) is
accumulated per name as spans close.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (span name, module, attribute) for module-level functions
FUNCTION_TARGETS = (
    ("crypto.sign", "dexo.crypto.primitives", "sign"),
    ("crypto.verify", "dexo.crypto.primitives", "verify"),
    ("crypto.sha256", "dexo.crypto.primitives", "sha256"),
    ("crypto.keystream", "dexo.crypto.primitives", "keystream_xor"),
    ("crypto.merkle", "dexo.crypto.merkle", "merkle_root"),
    ("crypto.merkle", "dexo.crypto.merkle", "merkle_prove"),
    ("crypto.merkle", "dexo.crypto.merkle", "merkle_verify"),
    ("crypto.shamir_create", "dexo.crypto.shamir", "create_shares"),
    ("crypto.reconstruct", "dexo.crypto.shamir", "reconstruct"),
    ("crypto.reconstruct", "dexo.crypto.shamir", "evaluate_at"),
    ("wire.encode_share", "dexo.wire", "encode_share"),
    ("wire.decode_shares", "dexo.wire", "decode_shares"),
    ("wire.encode_node_payload", "dexo.wire", "encode_node_payload"),
    ("wire.chunk_payload", "dexo.wire", "chunk_payload"),
    ("wire.build_share_evidence", "dexo.wire", "build_share_evidence"),
    ("wire.verify_share_evidence", "dexo.wire", "verify_share_evidence"),
    ("wire.payload_root", "dexo.wire", "payload_root"),
    ("tee.attest", "dexo.tee", "attest_report"),
    ("participants.stage0", "dexo.participants", "stage0_setup"),
    ("participants.stage1", "dexo.participants", "stage1_produce"),
    ("participants.stage2", "dexo.participants", "stage2_register"),
    ("participants.stage3", "dexo.participants", "stage3_exchange"),
    ("harness.run_scenario", "dexo.netsim", "run_scenario"),
    ("netsim.replay", "dexo.netsim", "replay"),
)

# (span name, module, class, method) for methods, patched on the class
METHOD_TARGETS = (
    ("tee.gendata", "dexo.tee", "TeePlatform", "resume_gendata"),
    ("tee.attest", "dexo.tee", "TeePlatform", "resume_attest"),
    ("netsim.send", "dexo.netsim", "Simulator", "send"),
    ("netsim.drain", "dexo.netsim", "Simulator", "drain"),
    ("participants.device", "dexo.participants", "DeviceHost", "on_message"),
    ("participants.server", "dexo.participants", "PDAppServer", "on_message"),
    ("participants.node", "dexo.participants", "DexoNode", "on_message"),
    ("participants.consumer", "dexo.participants", "Consumer", "start"),
    ("participants.consumer", "dexo.participants", "Consumer", "on_message"),
    ("participants.consumer", "dexo.participants", "Consumer", "on_tick"),
) + tuple(
    (f"ledger.{method}", "dexo.ledger", "Ledger", method)
    for method in (
        "create_contract",
        "initialize",
        "query",
        "accept",
        "reveal_key",
        "read",
        "no_complain",
        "settle_timeouts",
        "challenge_case1",
        "challenge_case2",
    )
)

TARGET_MODULES = sorted(
    {t[1] for t in FUNCTION_TARGETS + METHOD_TARGETS} | {"dexo.harness"}
)


class Tracer:
    """Records spans for every installed target; use as a context manager."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one column per span field; end is filled in when the span closes
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_run = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: list[float] = []
        self.inclusive_s: list[float] = []
        # per wrapper site: (name id, binding module)
        self.sites: list[tuple[int, str]] = []
        self.site_calls: list[int] = []
        self.site_errors: list[int] = []
        self.keystream_bytes = 0
        self.verify_distinct = 0
        self._verify_seen: set[tuple] = set()
        self.run_id = 0
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._restore: list[tuple[object, str, object]] = []

    # -- names and sites

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.inclusive_s.append(0.0)
        return self._name_ids[name]

    def _site(self, name: str, module: str) -> int:
        self.sites.append((self._name_id(name), module))
        self.site_calls.append(0)
        self.site_errors.append(0)
        return len(self.sites) - 1

    # -- span bookkeeping

    def _enter(self, site: int) -> list:
        self.site_calls[site] += 1
        index = len(self.span_start)
        self.span_name.append(self.sites[site][0])
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_run.append(self.run_id)
        self.span_end.append(0.0)
        frame = [index, 0.0, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        self.span_start.append(start)
        frame[1] = start
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        index, start, child = frame
        self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        name = self.span_name[index]
        self.inclusive_s[name] += duration
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def _wrap(self, fn, name: str, module: str):
        site = self._site(name, module)
        tracer = self
        hook = {
            "crypto.keystream": self._count_keystream,
            "crypto.verify": self._note_verify,
        }.get(name)
        finish = self._end_scenario if name == "harness.run_scenario" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            frame = tracer._enter(site)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.site_errors[site] += 1
                raise
            finally:
                tracer._exit(frame)
                if finish is not None:
                    finish()

        return traced

    def _count_keystream(self, args, kwargs) -> None:
        data = args[1] if len(args) > 1 else kwargs["data"]
        self.keystream_bytes += len(data)

    def _note_verify(self, args, kwargs) -> None:
        self._verify_seen.add(args + tuple(kwargs.values()))

    def _end_scenario(self) -> None:
        # distinct (public key, message, signature) triples within one run
        self.verify_distinct += len(self._verify_seen)
        self._verify_seen.clear()

    # -- installation

    def install(self) -> None:
        # netsim imports participants lazily; load every holder before scanning
        for module_name in TARGET_MODULES:
            importlib.import_module(module_name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dexo" or n.startswith("dexo.")]
        for name, module_name, attr in FUNCTION_TARGETS:
            original = getattr(sys.modules[module_name], attr)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, self._wrap(original, name, module.__name__))
        for name, module_name, cls_name, method in METHOD_TARGETS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(original, name, module_name))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results
    #
    # A prefix selects a span name and every name under it: "ledger" covers
    # "ledger.accept", "ledger.read" and so on.

    def _selected(self, prefix: str) -> list[bool]:
        return [n == prefix or n.startswith(prefix + ".") for n in self.names]

    def calls(self, prefix: str) -> int:
        chosen = self._selected(prefix)
        return sum(c for (n, _), c in zip(self.sites, self.site_calls) if chosen[n])

    def calls_from(self, prefix: str, module: str) -> int:
        """Calls made through the binding held by ``module``."""
        chosen = self._selected(prefix)
        return sum(
            c for (n, m), c in zip(self.sites, self.site_calls) if chosen[n] and m == module
        )

    def errors(self, prefix: str) -> int:
        """Calls that ended in an exception."""
        chosen = self._selected(prefix)
        return sum(e for (n, _), e in zip(self.sites, self.site_errors) if chosen[n])

    def self_time(self, prefix: str) -> float:
        return sum(s for s, chosen in zip(self.self_s, self._selected(prefix)) if chosen)

    def inclusive_time(self, name: str) -> float:
        nid = self._name_ids.get(name)
        return 0.0 if nid is None else self.inclusive_s[nid]

    def total_self(self) -> float:
        return sum(self.self_s)

    def span_count(self) -> int:
        return len(self.span_start)

    def save(self, path: str) -> None:
        """Write every span as columns of a numpy archive."""
        import numpy as np

        with open(path, "wb") as fh:
            np.savez_compressed(
                fh,
                names=np.array(self.names),
                name=np.frombuffer(self.span_name, dtype=np.int32),
                parent=np.frombuffer(self.span_parent, dtype=np.int64),
                run=np.frombuffer(self.span_run, dtype=np.int64),
                start=np.frombuffer(self.span_start, dtype=np.float64),
                end=np.frombuffer(self.span_end, dtype=np.float64),
            )

