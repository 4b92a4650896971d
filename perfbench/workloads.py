"""The four workloads and the two engine drivers.

A workload is a ``ScenarioSpec`` dict built from the seed.  Drivers reach
the program only through its stable entry points:

* per-node engine: ``spec_from_dict`` -> ``compile_spec`` ->
  ``SimulationBundle.run`` (one round per call);
* shard engine: ``spec_from_dict`` -> ``shard_config_from_spec`` ->
  ``ShardSimulation`` -> ``run_round`` (inline, ``workers=1``, no
  telemetry hub).

Sizes the checks need (l1, alpha, beta, population bands) are derived here
from the spec dict, not read back from the program.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class Workload:
    name: str
    engine: str  # "pernode" | "shard"
    why: str
    spec: Callable[[int], dict]

    @property
    def rounds(self) -> int:
        return self.spec(0)["rounds"]

    def sizes(self, seed: int) -> Dict[str, int]:
        """Population and Brahms sizes, derived from the spec dict alone
        (the paper's rules: l1 = max(8, round(N * ratio)), l2 = max(4, l1 // 2),
        alpha * l1 and beta * l1 floored, fractions rounded)."""
        spec = self.spec(seed)
        topo = spec["topology"]
        n = topo["n_nodes"]
        l1 = max(8, int(round(n * topo["view_ratio"])))
        n_byz = int(round(n * topo["byzantine_fraction"]))
        n_trusted = int(round(n * topo.get("trusted_fraction", 0.0)))
        return {
            "n": n,
            "l1": l1,
            "l2": max(4, l1 // 2),
            "alpha": max(1, math.floor(0.4 * l1)),
            "beta": max(1, math.floor(0.4 * l1)),
            "n_byz": n_byz,
            "n_trusted": n_trusted,
            "n_correct": n - n_byz,
        }

    @property
    def protocol(self) -> str:
        return self.spec(0)["protocol"]

    @property
    def loss_free(self) -> bool:
        return not self.spec(0)["topology"].get("loss_rate", 0.0)


def _pernode_raptee_wire(seed: int) -> dict:
    return {
        "name": "pernode-raptee-wire",
        "protocol": "raptee",
        "seed": seed,
        "rounds": 2,
        "adversary_strategy": "adaptive_balanced",
        "topology": {
            "n_nodes": 300,
            "byzantine_fraction": 0.10,
            "trusted_fraction": 0.05,
            "view_ratio": 0.08,
            "transport_encryption": True,
        },
        "raptee": {"eviction": {"kind": "adaptive"}},
    }


def _pernode_brahms(seed: int) -> dict:
    return {
        "name": "pernode-brahms",
        "protocol": "brahms",
        "seed": seed,
        "rounds": 5,
        "adversary_strategy": "adaptive_balanced",
        "topology": {
            "n_nodes": 1000,
            "byzantine_fraction": 0.10,
            "view_ratio": 0.06,
        },
    }


def _shard_brahms_flood(seed: int) -> dict:
    return {
        "name": "shard-brahms-flood",
        "protocol": "brahms",
        "seed": seed,
        "rounds": 4,
        "adversary_strategy": "balanced",
        "topology": {
            "n_nodes": 3000,
            "byzantine_fraction": 0.10,
            "view_ratio": 0.02,
            "loss_rate": 0.01,
        },
        "engine": {"kind": "shard", "shards": 8},
    }


def _shard_raptee(seed: int) -> dict:
    return {
        "name": "shard-raptee",
        "protocol": "raptee",
        "seed": seed,
        "rounds": 10,
        "adversary_strategy": "balanced",
        "topology": {
            "n_nodes": 1000,
            "byzantine_fraction": 0.10,
            "trusted_fraction": 0.01,
            "view_ratio": 0.02,
            "transport_encryption": True,
        },
        "raptee": {"eviction": {"kind": "adaptive"}},
        "engine": {"kind": "shard", "shards": 4},
    }


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload("pernode-raptee-wire", "pernode",
                 "the AES wire and the auth handshake dominate; trusted swaps "
                 "and eviction run", _pernode_raptee_wire),
        Workload("pernode-brahms", "pernode",
                 "same engine without wire or handshake: push/pull delivery, "
                 "sampler feeds and view renewal", _pernode_brahms),
        Workload("shard-brahms-flood", "shard",
                 "round 1 is the sampler flood, later rounds are bound by the "
                 "apply phase", _shard_brahms_flood),
        Workload("shard-raptee", "shard",
                 "the scalar RAPTEE session planner dominates; the sampler "
                 "flood is small", _shard_raptee),
    )
}


def views_digest(views: Dict[int, List[int]]) -> str:
    payload = json.dumps(sorted((int(k), [int(v) for v in row])
                                for k, row in views.items()))
    return hashlib.sha256(payload.encode()).hexdigest()


class PerNodeDriver:
    """One per-node simulation through ``compile_spec`` and ``bundle.run``."""

    def __init__(self, spec_dict: dict) -> None:
        from repro.scenario.compile import compile_spec
        from repro.scenario.spec import spec_from_dict

        self.bundle = compile_spec(spec_from_dict(spec_dict))
        self.simulation = self.bundle.simulation

    def step(self) -> None:
        self.bundle.run(1)

    def views(self) -> Dict[int, List[int]]:
        return self.simulation.final_views()

    def trusted_ids(self) -> frozenset:
        return frozenset(self.bundle.trusted_ids)

    def outputs(self) -> dict:
        stats = self.simulation.network.stats
        nodes = list(self.simulation.nodes.values())
        exchanges = sum(getattr(node, "trusted_exchanges_total", 0) for node in nodes)
        return {
            "views": self.views(),
            "pushes_sent": stats.pushes_sent,
            "pushes_delivered": stats.pushes_delivered,
            "requests_sent": stats.requests_sent,
            "bytes_encrypted": stats.bytes_encrypted,
            # Each swap is counted once by its initiator, once by its responder.
            "swaps": exchanges // 2,
            "swaps_odd": exchanges % 2,
        }

    def layer_counts(self, sizes: Dict[str, int]) -> Dict[str, Optional[float]]:
        """Program-side counters for the traced report (``None`` = absent)."""
        nodes = list(self.simulation.nodes.values())
        correct = [node for node in nodes if not node.kind.is_byzantine]
        stats = self.simulation.network.stats

        def total(attribute: str, among) -> Optional[float]:
            if not any(hasattr(node, attribute) for node in among):
                return None
            return float(sum(getattr(node, attribute, 0) for node in among))

        raptee = [node for node in correct if hasattr(node, "raptee_config")]
        return {
            "sim.network.wire_bytes": float(getattr(stats, "bytes_encrypted", 0)),
            "core.eviction.evicted_ids":
                total("evicted_ids_total", raptee) if raptee else 0.0,
            "brahms.node.blocked_rounds": total("blocked_rounds", correct),
        }


class ShardDriver:
    """One shard simulation: inline partitions, no telemetry hub."""

    def __init__(self, spec_dict: dict, shards: Optional[int] = None) -> None:
        from repro.scenario.spec import spec_from_dict
        from repro.shard.compile import shard_config_from_spec
        from repro.shard.engine import ShardSimulation

        spec = spec_from_dict(spec_dict)
        self.simulation = ShardSimulation(
            shard_config_from_spec(spec),
            shards=spec.engine.shards if shards is None else shards,
        )

    def step(self) -> None:
        self.simulation.run_round()

    def views(self) -> Dict[int, List[int]]:
        return self.simulation.final_views()

    def trusted_ids(self) -> frozenset:
        config = self.simulation.config
        return frozenset(range(config.n_byzantine, config.n_byzantine + config.n_trusted))

    def outputs(self, sampler_nodes: List[int] = ()) -> dict:
        stats = self.simulation.stats
        state = self.simulation.state
        samplers = []
        for node in sampler_nodes:
            samplers.append({
                "node": node,
                "a": [int(v) for v in state.samp_a[node]],
                "b": [int(v) for v in state.samp_b[node]],
                "best": [int(v) for v in state.samp_best[node]],
                "known": [int(v) for v in _known_ids(state, node)],
            })
        return {
            "views": self.views(),
            "pushes_sent": stats.pushes_sent,
            "pushes_delivered": stats.pushes_delivered,
            "requests_sent": stats.requests_sent,
            "bytes_encrypted": stats.bytes_encrypted,
            "swaps": state.trusted_exchanges,
            "swaps_odd": 0,
            "sampler_resets": state.sampler_resets,
            "samplers": samplers,
        }

    def layer_counts(self, sizes: Dict[str, int]) -> Dict[str, Optional[float]]:
        stats = self.simulation.stats
        state = self.simulation.state
        known = getattr(state, "known", None)
        ids_fed = None
        if known is not None:
            # Every id a node has fed to its samplers is marked known, and
            # the matrix starts empty: its size is the ids fed so far.
            ids_fed = float(known.sum() if hasattr(known, "sum")
                            else sum(len(row) for row in known))
        nbytes = 0
        for name in ("view", "view_len", "samp_a", "samp_b", "samp_best",
                     "alive", "known", "reduced"):
            nbytes += int(getattr(getattr(state, name, None), "nbytes", 0))

        def attr(name: str) -> Optional[float]:
            value = getattr(state, name, None)
            return None if value is None else float(value)

        return {
            "shard.apply.ids_fed": ids_fed,
            "shard.apply.sampler_hashes":
                None if ids_fed is None else ids_fed * sizes["l2"],
            "shard.engine.pushes": float(stats.pushes_sent),
            "shard.engine.requests": float(stats.requests_sent),
            "shard.apply.renewals": attr("renewals"),
            "shard.apply.blocked": attr("blocked_rounds"),
            "shard.engine.trusted_exchanges": attr("trusted_exchanges"),
            "shard.state.bytes": float(nbytes) if nbytes else None,
        }


def _known_ids(state, node: int) -> List[int]:
    row = state.known[node]
    if isinstance(row, (set, frozenset)):
        return sorted(row)
    return [index for index, flag in enumerate(row.tolist()) if flag]


def make_driver(workload: Workload, seed: int):
    spec = workload.spec(seed)
    if workload.engine == "shard":
        return ShardDriver(spec)
    return PerNodeDriver(spec)
