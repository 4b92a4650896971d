"""In-memory span tracing around the program's layer boundaries.

The traced run wraps public functions and methods of ``repro`` from the
benchmark's own files; the program itself is never edited.  Every wrapped
call records one span ``(name, start, end, parent)`` in flat lists kept in
memory.  After the run, :func:`layer_metrics` turns the spans into per-layer
self times: a span's duration minus the part covered by its direct
children.

A target that no longer exists (a module, class or function a later change
deleted or renamed) is not an error: it is reported as an absent layer, and
the run still passes.
"""

from __future__ import annotations

import functools
import importlib
import pickle
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Flat span store: parallel lists indexed by span id."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.calls: Counter = Counter()
        self.ids_fed = 0
        self.wire_bytes_expected = 0
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.calls[name] += 1
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Per span name: (summed self time, summed time of outermost spans).

        "Outermost" means the span's parent has another name, so a method
        that calls its own name through ``super()`` is not counted twice.
        """
        count = len(self.names)
        child = [0.0] * count
        for index in range(count):
            parent = self.parents[index]
            if parent >= 0:
                child[parent] += self.ends[index] - self.starts[index]
        self_total: Dict[str, float] = {}
        outer_total: Dict[str, float] = {}
        for index in range(count):
            name = self.names[index]
            duration = self.ends[index] - self.starts[index]
            self_total[name] = self_total.get(name, 0.0) + duration - child[index]
            parent = self.parents[index]
            if parent < 0 or self.names[parent] != name:
                outer_total[name] = outer_total.get(name, 0.0) + duration
        return self_total, outer_total


# -- wrappers -----------------------------------------------------------------


def _timed(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


def _timed_sampler_update(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``SamplerGroup.update(self, ids)``: also count the ids streamed."""

    @functools.wraps(fn)
    def wrapper(group, ids, *args, **kwargs):
        if not hasattr(ids, "__len__"):
            ids = list(ids)
        tracer.ids_fed += len(ids)
        index = tracer.open(name)
        try:
            return fn(group, ids, *args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


def _timed_request(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``Network.request(self, src, dst, message)``: besides the span, sum
    the pickled size of the request and of every reply, the byte count the
    wire must report.  The pickling runs in its own ``bench.wire_check``
    span, so it is charged to no layer of the program."""

    @functools.wraps(fn)
    def wrapper(network, src, dst, message, *args, **kwargs):
        index = tracer.open(name)
        try:
            reply = fn(network, src, dst, message, *args, **kwargs)
        finally:
            tracer.close(index)
        check = tracer.open("bench.wire_check")
        tracer.wire_bytes_expected += len(pickle.dumps(message))
        if reply is not None:
            tracer.wire_bytes_expected += len(pickle.dumps(reply))
        tracer.close(check)
        return reply

    return wrapper


def _timed_apply(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``apply_partition(config, state, round_no, ...)``: round 1 (the
    sampler flood) gets a span name of its own."""

    @functools.wraps(fn)
    def wrapper(config, state, round_no, *args, **kwargs):
        index = tracer.open(name + "_first_round" if round_no == 1 else name)
        try:
            return fn(config, state, round_no, *args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


class _PickleProxy:
    """Stands in for the ``pickle`` module inside one program module, so
    the (de)serialisation the wire does there is timed and nothing else."""

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.dumps = _timed(tracer, name, pickle.dumps)
        self.loads = _timed(tracer, name, pickle.loads)

    def __getattr__(self, attribute: str):
        return getattr(pickle, attribute)


# (span name, module, attribute path, wrapper factory).  Paths name public
# entry points of each layer.  Module-level functions are also replaced in
# every loaded ``repro`` module that imported them by name.
TARGETS: List[Tuple[str, str, str, Callable]] = [
    # repro.sim / repro.crypto
    ("sim.network.request", "repro.sim.network", "Network.request", _timed_request),
    ("sim.network.push", "repro.sim.network", "Network.send_push", _timed),
    ("sim.network.wire", "repro.crypto.ctr", "AesCtr.from_cipher", _timed),
    ("sim.network.wire", "repro.crypto.ctr", "AesCtr.keystream", _timed),
    ("sim.network.wire", "repro.crypto.ctr", "AesCtr.encrypt", _timed),
    ("sim.network.wire", "repro.crypto.ctr", "AesCtr.decrypt", _timed),
    ("sim.engine.gossip", "repro.brahms.node", "BrahmsNode.gossip", _timed),
    ("sim.engine.gossip", "repro.adversary.byzantine", "ByzantineNode.gossip", _timed),
    ("sim.engine.end", "repro.brahms.node", "BrahmsNode.end_round", _timed),
    # repro.core / repro.sgx
    ("core.auth.challenge", "repro.core.auth", "AuthScheme.make_challenge", _timed),
    ("core.auth", "repro.core.auth", "AuthScheme.respond", _timed),
    ("core.auth", "repro.core.auth", "AuthScheme.check_response", _timed),
    ("core.auth", "repro.core.auth", "AuthScheme.confirm", _timed),
    ("core.auth", "repro.core.auth", "AuthScheme.check_confirm", _timed),
    ("sgx.enclave.auth", "repro.core.enclave", "RapteeEnclave.auth_respond", _timed),
    ("sgx.enclave.auth", "repro.core.enclave", "RapteeEnclave.auth_check_response", _timed),
    ("sgx.enclave.auth", "repro.core.enclave", "RapteeEnclave.auth_confirm", _timed),
    ("sgx.enclave.auth", "repro.core.enclave", "RapteeEnclave.auth_check_confirm", _timed),
    ("core.trusted_exchange.offer", "repro.core.trusted_exchange", "build_offer", _timed),
    ("core.trusted_exchange.swap", "repro.core.trusted_exchange", "apply_swap", _timed),
    ("sgx.provisioning", "repro.core.deployment",
     "TrustedInfrastructure.new_trusted_enclave", _timed),
    # repro.brahms
    ("brahms.sampler.feed", "repro.brahms.sampler", "SamplerGroup.update",
     _timed_sampler_update),
    ("brahms.sampler.validate", "repro.brahms.sampler", "SamplerGroup.validate", _timed),
    # repro.shard
    ("shard.engine.round", "repro.shard.engine", "ShardSimulation.run_round", _timed),
    ("shard.engine.plan", "repro.shard.engine", "plan_partition", _timed),
    ("shard.engine.barrier", "repro.shard.engine", "merge_plans", _timed),
    ("shard.engine.apply", "repro.shard.engine", "apply_partition", _timed_apply),
    ("shard.pool.map", "repro.shard.pool", "map_partitions", _timed),
    ("shard.state.build", "repro.shard.state", "build_state", _timed),
]

#: The module whose ``pickle`` global is the wire's serialiser.
WIRE_PICKLE_MODULE = "repro.sim.network"


def _resolve(module_name: str, path: str):
    """(owner, attribute name, raw attribute) or ``None`` when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attribute = parts[-1]
    if isinstance(owner, type):
        raw = owner.__dict__.get(attribute)
    else:
        raw = getattr(owner, attribute, None)
    if raw is None:
        return None
    return owner, attribute, raw


class Instrumentation:
    """Installs the wrappers for one traced repeat and removes them after."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.absent: List[str] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _patch(self, owner, attribute: str, value) -> None:
        self._restore.append((owner, attribute, owner.__dict__[attribute]
                              if isinstance(owner, type) else getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self) -> "Instrumentation":
        for name, module_name, path, factory in TARGETS:
            resolved = _resolve(module_name, path)
            if resolved is None:
                self.absent.append(f"{module_name}:{path}")
                continue
            owner, attribute, raw = resolved
            if isinstance(raw, staticmethod):
                self._patch(owner, attribute,
                            staticmethod(factory(self.tracer, name, raw.__func__)))
            elif isinstance(raw, classmethod):
                self._patch(owner, attribute,
                            classmethod(factory(self.tracer, name, raw.__func__)))
            elif isinstance(owner, type):
                self._patch(owner, attribute, factory(self.tracer, name, raw))
            else:
                wrapped = factory(self.tracer, name, raw)
                for module in list(sys.modules.values()):
                    if (
                        getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attribute, None) is raw
                    ):
                        self._patch(module, attribute, wrapped)
        try:
            module = importlib.import_module(WIRE_PICKLE_MODULE)
        except ImportError:
            module = None
        if module is not None and getattr(module, "pickle", None) is pickle:
            self._patch(module, "pickle", _PickleProxy(self.tracer, "sim.network.wire"))
        else:
            self.absent.append(f"{WIRE_PICKLE_MODULE}:pickle")
        return self

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore = []


# -- per-layer metrics ------------------------------------------------------------

#: (metric, unit, how, span names).  ``how`` is "self" (summed self time),
#: "outer" (time of outermost spans), "calls" (call count) or "count" (a
#: program counter the driver reads after the repeat).
LAYER_METRICS: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("sim.network.wire_s", "s", "self", ("sim.network.wire",)),
    ("sim.network.wire_bytes", "bytes", "count", ()),
    ("sim.network.push_s", "s", "self", ("sim.network.push",)),
    ("sim.network.pushes", "count", "calls", ("sim.network.push",)),
    ("sim.network.request_self_s", "s", "self", ("sim.network.request",)),
    ("sim.network.requests", "count", "calls", ("sim.network.request",)),
    ("sim.engine.gossip_s", "s", "outer", ("sim.engine.gossip",)),
    ("sim.engine.end_s", "s", "outer", ("sim.engine.end",)),
    ("sim.engine.residual_s", "s", "count", ()),
    ("core.auth.handshake_s", "s", "self",
     ("core.auth", "core.auth.challenge", "sgx.enclave.auth")),
    ("core.auth.handshakes", "count", "calls", ("core.auth.challenge",)),
    ("sgx.enclave.ecalls", "count", "calls", ("sgx.enclave.auth",)),
    ("core.trusted_exchange.swap_s", "s", "self",
     ("core.trusted_exchange.offer", "core.trusted_exchange.swap")),
    ("core.trusted_exchange.swaps", "count", "calls", ("core.trusted_exchange.swap",)),
    ("core.eviction.evicted_ids", "count", "count", ()),
    ("sgx.provisioning_s", "s", "outer", ("sgx.provisioning",)),
    ("brahms.sampler.feed_s", "s", "self", ("brahms.sampler.feed",)),
    ("brahms.sampler.ids_fed", "count", "count", ()),
    ("brahms.sampler.validate_s", "s", "self", ("brahms.sampler.validate",)),
    ("brahms.node.end_self_s", "s", "self", ("sim.engine.end",)),
    ("brahms.node.blocked_rounds", "count", "count", ()),
    ("brahms.node.end_rounds", "count", "calls", ("sim.engine.end",)),
    ("shard.engine.plan_s", "s", "self", ("shard.engine.plan",)),
    ("shard.engine.barrier_s", "s", "self", ("shard.engine.barrier",)),
    ("shard.engine.apply_s", "s", "self",
     ("shard.engine.apply", "shard.engine.apply_first_round")),
    ("shard.engine.apply_first_round_s", "s", "self", ("shard.engine.apply_first_round",)),
    ("shard.apply.ids_fed", "count", "count", ()),
    ("shard.apply.sampler_hashes", "count", "count", ()),
    ("shard.engine.residual_s", "s", "self", ("shard.engine.round",)),
    ("shard.pool.overhead_s", "s", "self", ("shard.pool.map",)),
    ("shard.engine.pushes", "count", "count", ()),
    ("shard.engine.requests", "count", "count", ()),
    ("shard.apply.renewals", "count", "count", ()),
    ("shard.apply.blocked", "count", "count", ()),
    ("shard.engine.trusted_exchanges", "count", "count", ()),
    ("shard.state.build_s", "s", "outer", ("shard.state.build",)),
    ("shard.state.bytes", "bytes", "count", ()),
    ("trace.spans", "count", "count", ()),
    ("trace.overhead_s", "s", "count", ()),
]

#: Span names whose wrappers were installed, given the absent targets.
def _installed_spans(absent: List[str]) -> set:
    missing = set(absent)
    installed = {name for name, module_name, path, _ in TARGETS
                 if f"{module_name}:{path}" not in missing}
    if f"{WIRE_PICKLE_MODULE}:pickle" not in missing:
        installed.add("sim.network.wire")
    # apply_partition records round 1 under a name of its own.
    if "shard.engine.apply" in installed:
        installed.add("shard.engine.apply_first_round")
    return installed


def layer_metrics(tracer: Tracer, absent: List[str],
                  counts: Dict[str, Optional[float]],
                  correction: float) -> Tuple[Dict[str, float], List[str]]:
    """One traced repeat's per-layer values, and the metrics that are absent.

    A span metric is absent when none of its wrappers could be installed; a
    counter is absent when the driver reports it as ``None``.  A counter
    the driver does not report at all belongs to the other engine and
    reads 0, like a layer that is present but idle.  Times are multiplied
    by the repeat's host-speed ``correction``, like the end-to-end ones.
    """
    self_total, outer_total = tracer.self_times()
    installed = _installed_spans(absent)
    values: Dict[str, float] = {}
    missing: List[str] = []
    for metric, unit, how, names in LAYER_METRICS:
        if how == "count":
            value = counts.get(metric, 0.0)
            if value is None:
                missing.append(metric)
                value = 0.0
        else:
            if not any(name in installed for name in names):
                missing.append(metric)
            source = {"self": self_total, "outer": outer_total,
                      "calls": tracer.calls}[how]
            value = float(sum(source.get(name, 0.0) for name in names))
        values[metric] = value * correction if unit == "s" else value
    return values, missing
