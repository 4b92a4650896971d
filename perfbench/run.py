"""The repository's layered benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pernode-brahms --seed 1 --seconds 15 --trace 0

``--trace 0`` repeats the workload untraced for ``--seconds`` seconds and
reports the end-to-end metrics (``setup_s``, ``run_s``, ``round_p50_s``,
``peak_rss_mb``).  ``--trace 1`` alternates untraced and traced repeats and
reports the per-layer metrics, the residual time no named layer covers and
the tracing overhead.  Times are wall seconds corrected for the host's speed
in the same run (see ``hostspeed.py``); the raw wall values are printed
next to them.  Either way the program's outputs are checked against
independent computations (see ``checks.py``), every metric is printed by
name with its unit, and the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  One operation
is one simulated round.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional

from hostspeed import correction, sample_after

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Repeats of the whole workload per run, at least (the repeat check needs two).
MIN_REPEATS = 2
#: Set-ups timed per run, at least; extra ones are built and dropped.
MIN_SETUPS = 5
#: Shard nodes whose samplers are recomputed by the benchmark.
SAMPLER_NODES = 8

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("round_p50_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _git_revision() -> str:
    """HEAD read from the ``.git`` directory, or ``unknown`` outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _manifest() -> Dict[str, object]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git": _git_revision(),
        "platform": platform.platform(),
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Repeat:
    """One set-up plus the workload's fixed rounds."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.round_s: List[float] = []
        self.failed_rounds = 0
        self.error: Optional[str] = None
        self.outputs: Optional[dict] = None
        self.digest = ""
        self.layers: Optional[Dict[str, float]] = None
        self.absent_metrics: List[str] = []
        self.absent_targets: List[str] = []
        self.pollution: List[Dict[str, float]] = []
        #: Reference-loop samples taken between this repeat's timed steps.
        self.reference: List[float] = []

    @property
    def correction(self) -> float:
        return correction(self.reference)

    @property
    def run_s(self) -> float:
        """Host-corrected seconds of the fixed rounds."""
        return sum(self.round_s) * self.correction

    @property
    def raw_run_s(self) -> float:
        return sum(self.round_s)


def _pollution_by_kind(views: Dict[int, List[int]], n_byz: int,
                       trusted: frozenset) -> Dict[str, float]:
    """Mean Byzantine share of trusted and of honest views."""
    shares: Dict[str, List[float]] = {"trusted": [], "honest": []}
    for node, row in views.items():
        if row:
            kind = "trusted" if node in trusted else "honest"
            shares[kind].append(sum(1 for peer in row if peer < n_byz) / len(row))
    return {kind: (sum(vals) / len(vals) if vals else 0.0)
            for kind, vals in shares.items()}


def run_repeat(workload, seed: int, sizes: Dict[str, int], keep_outputs: bool,
               sampler_nodes: List[int], traced: bool) -> Repeat:
    from spans import Instrumentation, Tracer, layer_metrics
    from workloads import make_driver, views_digest

    repeat = Repeat()
    tracer = Tracer() if traced else None
    instrumentation = Instrumentation(tracer).install() if traced else None
    gc.collect()
    try:
        start = time.perf_counter()
        driver = make_driver(workload, seed)
        repeat.setup_s = time.perf_counter() - start
        sample_after(repeat.setup_s, repeat.reference)
        for _ in range(workload.rounds):
            start = time.perf_counter()
            try:
                driver.step()
            except Exception as exc:  # a round that raises is a failed operation
                repeat.failed_rounds = workload.rounds - len(repeat.round_s)
                repeat.error = f"{type(exc).__name__}: {exc}"
                return repeat
            repeat.round_s.append(time.perf_counter() - start)
            sample_after(repeat.round_s[-1], repeat.reference)
            if keep_outputs and workload.protocol == "raptee":
                repeat.pollution.append(_pollution_by_kind(
                    driver.views(), sizes["n_byz"], driver.trusted_ids()))
    finally:
        if instrumentation is not None:
            instrumentation.uninstall()
    if workload.engine == "shard":
        outputs = driver.outputs(sampler_nodes if keep_outputs or traced else [])
    else:
        outputs = driver.outputs()
    repeat.digest = views_digest(outputs["views"]) + ":" + ":".join(
        str(outputs[key]) for key in
        ("pushes_sent", "pushes_delivered", "requests_sent", "bytes_encrypted", "swaps")
    )
    if traced:
        outputs["wire_bytes_expected"] = tracer.wire_bytes_expected
        counts = driver.layer_counts(sizes)
        counts["brahms.sampler.ids_fed"] = float(tracer.ids_fed)
        counts["trace.spans"] = float(len(tracer.names))
        _, outer = tracer.self_times()
        if workload.engine == "pernode":
            counts["sim.engine.residual_s"] = repeat.raw_run_s - outer.get(
                "sim.engine.gossip", 0.0) - outer.get("sim.engine.end", 0.0)
        repeat.layers, repeat.absent_metrics = layer_metrics(
            tracer, instrumentation.absent, counts, repeat.correction)
        repeat.absent_targets = instrumentation.absent
    if keep_outputs or traced:
        repeat.outputs = outputs
    return repeat


def _shards1_views(workload, seed: int) -> Dict[int, List[int]]:
    from workloads import ShardDriver

    driver = ShardDriver(workload.spec(seed), shards=1)
    for _ in range(workload.rounds):
        driver.step()
    return driver.views()


def _median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        # Imported before any timing, so set-up never pays for module loading.
        import numpy  # noqa: F401
        import repro.scenario.compile  # noqa: F401
        import repro.scenario.spec  # noqa: F401
        import repro.shard.compile  # noqa: F401
        import repro.shard.engine  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"perfbench: imported repro from {repro.__file__}, not from this "
              f"checkout's src/", file=sys.stderr)
        return 2

    from checks import run_checks
    from spans import LAYER_METRICS
    from workloads import WORKLOADS, make_driver

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = args.seed
    traced = bool(args.trace)
    sizes = workload.sizes(seed)
    spec = workload.spec(seed)
    sampler_nodes = sorted(random.Random(seed).sample(
        range(sizes["n_byz"], sizes["n"]), SAMPLER_NODES))

    manifest = _manifest()
    print(f"perfbench workload={workload.name} seed={seed} seconds={args.seconds:g} "
          f"trace={int(traced)}")
    print("host " + " ".join(f"{key}={value}" for key, value in manifest.items()))
    print(f"spec {json.dumps(spec, sort_keys=True)}")

    # Measure: whole repeats until the time is up (trace mode alternates
    # untraced and traced repeats, so the overhead compares like with like).
    repeats: List[Repeat] = []
    deadline = time.perf_counter() + args.seconds
    while (
        len(repeats) < MIN_REPEATS
        or time.perf_counter() < deadline
    ):
        trace_this = traced and len(repeats) % 2 == 1
        repeats.append(run_repeat(workload, seed, sizes, not repeats, sampler_nodes,
                                  trace_this))
        if repeats[-1].error is not None:
            break
    setups = [(rep.setup_s, rep.correction) for rep in repeats if rep.error is None]
    if not traced:
        while len(setups) < MIN_SETUPS:
            gc.collect()
            start = time.perf_counter()
            make_driver(workload, seed)
            elapsed = time.perf_counter() - start
            reference: List[float] = []
            sample_after(elapsed, reference)
            setups.append((elapsed, correction(reference)))
    peak_rss = _peak_rss_mb()

    attempted = sum(len(rep.round_s) + rep.failed_rounds for rep in repeats)
    failed = sum(rep.failed_rounds for rep in repeats)
    correct = all(rep.error is None for rep in repeats)
    for rep in repeats:
        if rep.error is not None:
            print(f"ERROR round raised: {rep.error}")

    # Check the outputs of the first repeat, and of the first traced one.
    first = repeats[0]
    if correct:
        ctx = {
            "sizes": sizes,
            "rounds": workload.rounds,
            "protocol": workload.protocol,
            "engine": workload.engine,
            "loss_free": workload.loss_free,
            "encrypt": bool(spec["topology"].get("transport_encryption")),
            "f": spec["topology"]["byzantine_fraction"],
        }
        if workload.engine == "pernode" and workload.protocol == "raptee":
            ctx["unbounded_views"] = frozenset(
                range(sizes["n_byz"], sizes["n_byz"] + sizes["n_trusted"]))
        extra = {"repeat_digests": [rep.digest for rep in repeats]}
        if workload.engine == "shard" and workload.protocol == "raptee":
            extra["views_shards1"] = _shards1_views(workload, seed)
        checked = [first] + [rep for rep in repeats if rep.layers is not None][:1]
        for rep in checked:
            rep_traced = rep.layers is not None
            results = run_checks(dict(rep.outputs, **extra),
                                 dict(ctx, traced=rep_traced))
            label = "traced" if rep_traced else "untraced"
            for name, failures in results.items():
                status = "ok" if not failures else "FAIL " + "; ".join(failures)
                print(f"check {label} {name}: {status}")
            if any(failures for name, failures in results.items()
                   if name != "repeats"):
                correct = False
                failed += len(rep.round_s)
            if results["repeats"] and not rep_traced:
                # Repeats that disagree with the first one failed too.
                correct = False
                failed += sum(len(other.round_s) for other in repeats[1:]
                              if other.digest != first.digest)

    if first.pollution:
        half = first.pollution[len(first.pollution) // 2:]
        trusted = sum(p["trusted"] for p in half) / len(half)
        honest = sum(p["honest"] for p in half) / len(half)
        print(f"report trusted-view Byzantine share {trusted:.4f} vs honest "
              f"{honest:.4f} over rounds {len(first.pollution) - len(half) + 1}-"
              f"{len(first.pollution)} (reported, not checked)")

    untraced = [rep for rep in repeats if rep.layers is None and rep.error is None]
    traced_reps = [rep for rep in repeats if rep.layers is not None]
    round_times = [t for rep in untraced for t in rep.round_s]
    end_to_end = {
        "setup_s": _median([elapsed * factor for elapsed, factor in setups]),
        "run_s": _median([rep.run_s for rep in untraced]),
        "round_p50_s": _median([t * rep.correction for rep in untraced
                                for t in rep.round_s]),
        "peak_rss_mb": peak_rss,
    }
    raw_wall = {
        "setup_s": _median([elapsed for elapsed, _ in setups]),
        "run_s": _median([rep.raw_run_s for rep in untraced]),
        "round_p50_s": _median(round_times),
    }
    print(f"samples repeats={len(untraced)} rounds={len(round_times)} "
          f"setups={len(setups)} traced_repeats={len(traced_reps)} "
          f"host_correction={_median([rep.correction for rep in repeats]):.4f}")
    for name, unit in END_TO_END:
        note = f" (raw wall {raw_wall[name]:.6f} {unit})" if name in raw_wall else ""
        print(f"metric {name} = {end_to_end[name]:.6f} {unit}{note}")

    metrics: Dict[str, Dict[str, object]]
    if traced:
        layer_values: Dict[str, float] = {}
        absent: List[str] = []
        for metric, unit, _how, _names in LAYER_METRICS:
            layer_values[metric] = _median([rep.layers[metric] for rep in traced_reps])
        if traced_reps:
            absent = traced_reps[0].absent_metrics
            layer_values["trace.overhead_s"] = (
                _median([rep.run_s for rep in traced_reps]) - end_to_end["run_s"]
            )
        for metric, unit, _how, _names in LAYER_METRICS:
            note = " (absent)" if metric in absent else ""
            print(f"layer {metric} = {layer_values[metric]:.6f} {unit}{note}")
        if traced_reps and traced_reps[0].absent_targets:
            print("absent wrap targets: " + ", ".join(traced_reps[0].absent_targets))
        metrics = {metric: {"value": layer_values[metric], "unit": unit}
                   for metric, unit, _how, _names in LAYER_METRICS}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END}

    print(f"operations attempted={attempted} failed={failed}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
