"""Span tracing from outside the program: wrap public calls, keep spans.

The tracer patches the public entry points of each layer *on their
classes* while it is installed and restores the originals when it is
removed, so an untraced round runs the program's own code with no
wrapper at all.  Every wrapped call records one span::

    (span_id, parent_id, name, t_start, t_end, unit, value)

``unit`` is the id of the round, cell build or sweep the benchmark is
running (one id per closed-loop request); ``value`` is a count computed
from the call's operands or result (GEMM FLOPs, bytes lowered, bids
priced, samples trained).  Spans are appended to an in-memory list and
written out once the run ends.  Each thread keeps its own stack of open
spans, so a call made on another thread (the embedded coordinator's)
never nests under the benchmark thread's spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

def _nbytes(*arrays: Any) -> int:
    return int(sum(int(np.prod(a.shape)) * a.dtype.itemsize for a in arrays))


# -- value functions: counts computed from operand shapes or results ------
def _matmul_flops(args, kwargs, result) -> int:
    a, b = args[1], args[2]
    return 2 * int(np.prod(a.shape[:-1])) * int(a.shape[-1]) * int(b.shape[-1])


def _im2col_bytes(args, kwargs, result) -> int:
    # Input read once plus the (N*OH*OW, KH*KW*C) patch matrix written.
    return _nbytes(args[1], result[0])


def _col2im_bytes(args, kwargs, result) -> int:
    # Patch gradients read once plus the input-shaped gradient written.
    return _nbytes(args[1], result)


def _bids_priced(args, kwargs, result) -> int:
    return int(np.asarray(args[1]).size)


def _mechanism_accounting(args, kwargs, result) -> tuple[int, int]:
    return (int(result.accounting.n_bids), int(result.accounting.n_asked))


def _samples_trained(args, kwargs, result) -> int:
    """Samples one ``FLClient.train`` call pushes through SGD.

    Mirrors the client's own sizing: the declared subset (or all local
    data), capped at ``max_batches_per_round * batch_size``, times the
    local epochs.
    """
    client = args[0]
    declared = args[4] if len(args) > 4 else kwargs.get("declared_samples")
    n = int(client.data.size)
    if declared is not None:
        n = min(n, int(declared))
    if client.max_batches_per_round is not None:
        n = min(n, client.max_batches_per_round * client.batch_size)
    return n * client.local_epochs


def _patch_table() -> list[tuple[type, str, str, Callable | None]]:
    """(class, method, span name, value function) for every wrapped call."""
    from repro.api.coordinator import ServiceExecutor
    from repro.api.engine import FMoreEngine
    from repro.core.auction import MultiDimensionalProcurementAuction
    from repro.core.equilibrium import EquilibriumSolver
    from repro.core.hierarchy import HierarchicalMechanism
    from repro.core.mechanism import FMoreMechanism
    from repro.fl import datasets
    from repro.fl.client import FLClient
    from repro.fl.nn import layers
    from repro.fl.nn.backends import NumpyBackend
    from repro.fl.selection import AuctionSelection
    from repro.fl.server import FedAvgServer
    from repro.fl.trainer import FederatedTrainer

    table: list[tuple[type, str, str, Callable | None]] = [
        (FMoreEngine, "session", "engine.session", None),
        (EquilibriumSolver, "__init__", "core.equilibrium.build", None),
        (EquilibriumSolver, "bid_batch", "core.equilibrium.bid_batch", _bids_priced),
        (MultiDimensionalProcurementAuction, "run", "core.auction.run", None),
        (FMoreMechanism, "run_round", "core.mechanism.run_round", _mechanism_accounting),
        (HierarchicalMechanism, "run_round", "core.mechanism.run_round", _mechanism_accounting),
        (AuctionSelection, "select", "fl.selection.select", None),
        (FederatedTrainer, "run_round", "fl.trainer.run_round", None),
        (FLClient, "train", "fl.client.train", _samples_trained),
        (FedAvgServer, "aggregate", "fl.server.aggregate", None),
        (FedAvgServer, "evaluate", "fl.server.evaluate", None),
        (NumpyBackend, "matmul", "fl.nn.backends.matmul", _matmul_flops),
        (NumpyBackend, "im2col", "fl.nn.backends.im2col", _im2col_bytes),
        (NumpyBackend, "col2im", "fl.nn.backends.col2im", _col2im_bytes),
        (ServiceExecutor, "execute_plan", "api.coordinator.plan", None),
    ]
    for cls in (datasets.SyntheticImageGenerator, datasets.SyntheticTextGenerator):
        table.append((cls, "sample", "fl.datasets.sample", None))
    for cls, short in (
        (layers.Conv2D, "conv"),
        (layers.MaxPool2D, "maxpool"),
        (layers.Dense, "dense"),
        (layers.ReLU, "relu"),
        (layers.Dropout, "dropout"),
    ):
        table.append((cls, "forward", f"fl.nn.layers.{short}_fwd", None))
        table.append((cls, "backward", f"fl.nn.layers.{short}_bwd", None))
    return table


class Tracer:
    """Collects spans from wrapped layer calls while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.requests: list[tuple[str, str, str]] = []  # (unit, method, path)
        self.unit = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[type, str, Any]] = []

    # -- span stacks ----------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, value_fn: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            value = value_fn(args, kwargs, result) if value_fn else None
            tracer.spans.append((sid, parent, name, t0, t1, tracer.unit, value))
            return result

        return traced

    def _wrap_dispatch(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def counted(service, method, path, params, payload):
            tracer.requests.append((tracer.unit, method, path))
            return await fn(service, method, path, params, payload)

        return counted

    # -- install / remove -----------------------------------------------
    def install(self) -> None:
        """Patch every layer seam; idempotent."""
        if self._saved:
            return
        from repro.api.coordinator import CoordinatorService

        for cls, attr, name, value_fn in _patch_table():
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, value_fn))
        # The coordinator's one route-dispatch seam, counted by route.
        original = CoordinatorService.__dict__["_dispatch"]
        self._saved.append((CoordinatorService, "_dispatch", original))
        CoordinatorService._dispatch = self._wrap_dispatch(original)

    def remove(self) -> None:
        """Restore the original methods."""
        for cls, attr, original in reversed(self._saved):
            setattr(cls, attr, original)
        self._saved = []

    def dump(self, path: Path) -> None:
        """Write the spans (one JSON array per line) and request log."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(list(span)) + "\n")
            for unit, method, path_ in self.requests:
                fh.write(json.dumps(["request", unit, method, path_]) + "\n")


# ----------------------------------------------------------------------
# Per-layer metrics from spans
# ----------------------------------------------------------------------
def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _name, t0, t1, _unit, _value in spans:
        children[parent].append((t0, t1))
    out: dict[int, float] = {}
    for sid, _parent, _name, t0, t1, _unit, _value in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 1] of ``values``."""
    return float(np.quantile(np.asarray(values, dtype=float), q)) if values else 0.0


def layer_metrics(
    tracer: Tracer,
    rounds: list[str],
    builds: list[str],
    sweeps: list[str],
    engines: list,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, ``name -> (value, unit)``.

    Round-phase metrics are per traced round, build-phase metrics per
    traced session build, coordinator metrics per traced sweep; a layer a
    workload never reaches reads 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    round_set, build_set, sweep_set = set(rounds), set(builds), set(sweeps)
    n_rounds, n_builds = max(len(rounds), 1), max(len(builds), 1)
    n_sweeps = max(len(sweeps), 1)

    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    value: dict[str, float] = defaultdict(float)
    train_s: list[float] = []
    bids = asked = 0
    for sid, _parent, name, t0, t1, unit, val in spans:
        phase = "round" if unit in round_set else "build" if unit in build_set else (
            "sweep" if unit in sweep_set else None
        )
        if phase is None:
            continue
        key = f"{phase}:{name}"
        total[key] += t1 - t0
        self_total[key] += selfs[sid]
        calls[key] += 1
        if name == "core.mechanism.run_round":
            bids += val[0]
            asked += val[1]
        elif val is not None:
            value[key] += val
        if key == "round:fl.client.train":
            train_s.append(t1 - t0)

    def per_round(key: str, table=total) -> float:
        return table[f"round:{key}"] / n_rounds

    def per_build(key: str, table=total) -> float:
        return table[f"build:{key}"] / n_builds

    m: dict[str, tuple[float, str]] = {}
    m["engine.session_s"] = (per_build("engine.session"), "s")
    m["fl.datasets.sample_s"] = (per_build("fl.datasets.sample"), "s")
    m["fl.datasets.sample_calls"] = (per_build("fl.datasets.sample", calls), "count")
    builds_called = calls["build:core.equilibrium.build"]
    m["core.equilibrium.build_s"] = (
        total["build:core.equilibrium.build"] / max(builds_called, 1), "s"
    )
    m["engine.solver_cache_hits"] = (float(sum(e.cache_hits for e in engines)), "count")
    m["engine.solver_cache_misses"] = (
        float(sum(e.cache_misses for e in engines)), "count"
    )
    m["core.equilibrium.bid_batch_s"] = (per_round("core.equilibrium.bid_batch"), "s")
    m["core.equilibrium.bids_priced"] = (
        per_round("core.equilibrium.bid_batch", value), "count"
    )
    m["core.auction.run_s"] = (per_round("core.auction.run"), "s")
    m["core.mechanism.run_round_s"] = (per_round("core.mechanism.run_round"), "s")
    select = (
        total["round:fl.selection.select"]
        - total["round:core.equilibrium.bid_batch"]
        - total["round:core.auction.run"]
    )
    m["fl.selection.select_s"] = (select / n_rounds, "s")
    m["fl.selection.bid_ratio"] = (bids / asked if asked else 0.0, "fraction")
    m["fl.client.train_s.p50"] = (percentile(train_s, 0.5), "s")
    m["fl.client.train_s.p90"] = (percentile(train_s, 0.9), "s")
    busy = total["round:fl.client.train"]
    m["fl.client.samples_per_s"] = (
        value["round:fl.client.train"] / busy if busy else 0.0, "1/s"
    )
    mm = total["round:fl.nn.backends.matmul"]
    m["fl.nn.backends.matmul_s"] = (mm / n_rounds, "s")
    m["fl.nn.backends.matmul_calls"] = (per_round("fl.nn.backends.matmul", calls), "count")
    flops = value["round:fl.nn.backends.matmul"]
    m["fl.nn.backends.matmul_gflop"] = (flops / n_rounds / 1e9, "GFLOP")
    m["fl.nn.backends.matmul_gflop_per_s"] = (flops / mm / 1e9 if mm else 0.0, "GFLOP/s")
    for kernel in ("im2col", "col2im"):
        key = f"fl.nn.backends.{kernel}"
        m[f"{key}_s"] = (per_round(key), "s")
        m[f"{key}_mb"] = (per_round(key, value) / 1e6, "MB")
    for short in ("conv", "maxpool"):
        for d in ("fwd", "bwd"):
            key = f"fl.nn.layers.{short}_{d}"
            m[f"{key}_s"] = (per_round(key, self_total), "s")
    for short in ("dense", "relu", "dropout"):
        both = sum(
            per_round(f"fl.nn.layers.{short}_{d}", self_total) for d in ("fwd", "bwd")
        )
        m[f"fl.nn.layers.{short}_s"] = (both, "s")
    m["fl.server.aggregate_s"] = (per_round("fl.server.aggregate"), "s")
    m["fl.server.evaluate_s"] = (per_round("fl.server.evaluate"), "s")
    local = (
        total["round:fl.trainer.run_round"]
        - total["round:fl.selection.select"]
        - total["round:fl.server.aggregate"]
        - total["round:fl.server.evaluate"]
    )
    m["fl.trainer.local_phase_s"] = (local / n_rounds, "s")
    m["fl.trainer.parallel_efficiency"] = (
        busy / local if local > 0 else 0.0, "fraction"
    )
    sweep_requests = [r for r in tracer.requests if r[0] in sweep_set]
    m["api.coordinator.requests"] = (len(sweep_requests) / n_sweeps, "count")
    m["api.coordinator.plan_s"] = (
        total["sweep:api.coordinator.plan"] / n_sweeps, "s"
    )
    # Read from the store by the sweep workload; no span covers them.
    m["api.store.cell_latency_s.p50"] = (0.0, "s")
    m["api.store.cell_latency_s.p90"] = (0.0, "s")
    m["api.store.bytes_written"] = (0.0, "bytes")
    return m


def round_split(tracer: Tracer, rounds: list[str], round_total: float) -> dict[str, float]:
    """Share of the traced rounds' wall time spent in each top-level phase."""
    round_set = set(rounds)
    phases = {
        "fl.client.train": "local training",
        "fl.server.evaluate": "evaluation",
        "fl.server.aggregate": "aggregation",
        "core.mechanism.run_round": "auction (mechanism round)",
    }
    spent: dict[str, float] = defaultdict(float)
    for _sid, _parent, name, t0, t1, unit, _value in tracer.spans:
        if unit in round_set and name in phases:
            spent[phases[name]] += t1 - t0
    return {label: spent[label] / round_total if round_total else 0.0
            for label in phases.values()}


def requests_by_route(tracer: Tracer, sweeps: list[str]) -> dict[str, float]:
    """Coordinator requests per traced sweep, keyed ``METHOD /path``."""
    sweep_set = set(sweeps)
    counts: dict[str, int] = defaultdict(int)
    for unit, method, path in tracer.requests:
        if unit in sweep_set:
            counts[f"{method} {path}"] += 1
    return {k: v / max(len(sweeps), 1) for k, v in sorted(counts.items())}


def overhead(traced: list[float], untraced: list[float]) -> float:
    """Traced round median minus untraced round median (seconds)."""
    if not traced or not untraced:
        return 0.0
    return statistics.median(traced) - statistics.median(untraced)
