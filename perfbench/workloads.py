"""The benchmark workloads and their output checks.

Every workload is closed-loop with one caller: the next round (or plan)
starts only after the previous one returned.  A workload turns the
benchmark seed into :class:`repro.api.Scenario` values and hands the
program nothing else.  See README.md in this directory for why each
workload exists and which layers it stresses.
"""

from __future__ import annotations

import gc
import hashlib
import math
import multiprocessing
import os
import resource
import statistics
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from tracing import (
    Tracer,
    layer_metrics,
    overhead,
    percentile,
    requests_by_route,
    round_split,
)

#: Federations stepped round-robin per train_cnn run.  The seed decides
#: each federation's client sizes and so its build time and memory;
#: mixing three in every run keeps one draw from setting the run's
#: figures.
FEDERATIONS = 3
#: Local SGD steps per train_cnn winner and round.  Uncapped, a round's
#: local work follows the data sizes of the seed's winners (about 2000
#: to 3600 samples per round across seeds); capped, every winner runs
#: the same six batches, so a round's work no longer depends on the seed.
CNN_LOCAL_BATCHES = 6
#: Set-up passes per train_cnn run.  A pass builds each federation once;
#: ``setup_s`` is the median over passes of a pass's mean build time, so
#: each value averages the three federations' seed-dependent data sizes.
CNN_SETUP_PASSES = 5
#: Cold builds (auction_hier) or cold plans (sweep_service) per run.
SETUP_REPEATS = 3
#: A training run drains at least this many cells (sessions), so it has
#: at least 36 rounds and its p90 has more than ten rounds beyond it.
MIN_CELLS = 3
SWEEP_SCHEMES = ("FMore", "PsiFMore", "RandFL", "FixFL")
SWEEP_LOCAL_BATCHES = 2
HIER_N = 300_000


@dataclass
class Run:
    """What one workload run measured and checked."""

    # Gated times are CPU seconds (see README.md, "Why CPU time"); the
    # wall times are printed beside them.
    round_s: list[float] = field(default_factory=list)
    round_cpu_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    setup_wall_s: list[float] = field(default_factory=list)
    cell_cpu_s: list[float] = field(default_factory=list)
    cells_per_batch: int = 1
    accuracies: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed_units: set = field(default_factory=set)
    peak_rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)
    routes: dict = field(default_factory=dict)
    traced_round_s: list[float] = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    tracer: Tracer | None = None

    def fail(self, unit: str, problems: list[str]) -> None:
        """Count ``unit`` (a round, cell or check) as failed if any problem."""
        if problems:
            self.failed_units.add(unit)
            self.failures += problems


def weights_sha(weights: list[np.ndarray]) -> str:
    digest = hashlib.sha256()
    for w in weights:
        digest.update(str((w.dtype.str, w.shape)).encode())
        digest.update(np.ascontiguousarray(w).tobytes())
    return digest.hexdigest()


def _finite(x: float) -> bool:
    return math.isfinite(float(x))


def check_round(event, k_winners: int, weights: list[np.ndarray]) -> list[str]:
    """Output checks on one round's event and the new global weights."""
    where = f"round {event.round_index} ({event.scheme}, seed {event.seed})"
    problems = []
    if not (_finite(event.loss) and _finite(event.accuracy)):
        problems.append(f"{where}: non-finite loss/accuracy")
    if not _finite(event.record.mean_train_loss):
        problems.append(f"{where}: non-finite local training loss")
    if len(event.winner_ids) > k_winners:
        problems.append(f"{where}: {len(event.winner_ids)} winners > K={k_winners}")
    for node, pay in event.payments.items():
        if not _finite(pay) or pay < 0:
            problems.append(f"{where}: payment {pay!r} to node {node}")
    if not all(np.isfinite(w).all() for w in weights):
        problems.append(f"{where}: non-finite global weights")
    return problems


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Training workloads: train_cnn, auction_hier
# ----------------------------------------------------------------------
def bench_scenario(fed_seed: int, **overrides):
    """The ``bench`` preset with ``mnist_o``, FMore only, at one seed."""
    from repro.api import Scenario

    return Scenario.from_preset(
        "bench", "mnist_o", schemes=("FMore",), seeds=(fed_seed,), **overrides
    )


def train_cnn_scenario(fed_seed: int):
    return bench_scenario(fed_seed, max_batches_per_round=CNN_LOCAL_BATCHES)


def auction_hier_scenario(fed_seed: int):
    """N=3e5 bidders in N/100 lognormal clusters; one SGD step per winner."""
    return bench_scenario(
        fed_seed,
        name=f"bench-hier-{HIER_N}",
        variant="hierarchical",
        n_clients=HIER_N,
        k_winners=20,
        max_batches_per_round=1,
        clusters={
            "count": HIER_N // 100,
            "k_clusters": 10,
            "k_local": 2,
            "size_dist": "lognormal",
        },
    )


@dataclass
class _Federation:
    scenario: object
    seed: int
    engine: object
    federation: object
    session: object = None
    rounds: int = 0          # rounds stepped on this federation
    cells: int = 0           # sessions drained
    cell_cpu: float = 0.0    # reopen plus round CPU seconds of the open session
    first_sha: str | None = None


def _build(fed: _Federation, tracer: Tracer | None, unit: str) -> tuple[float, float]:
    """Open a fresh session on ``fed``; returns the build's wall and CPU seconds."""
    from repro.api.engine import build_federation

    if tracer is not None:
        tracer.unit = unit
        tracer.install()
    t0, c0 = perf_counter(), process_time()
    try:
        if fed.federation is None:
            fed.federation = build_federation(fed.scenario, fed.seed)
        fed.session = fed.engine.session(
            fed.scenario, "FMore", fed.seed, federation=fed.federation
        )
        return perf_counter() - t0, process_time() - c0
    finally:
        if tracer is not None:
            tracer.remove()


def run_training(
    make_scenario,
    seed: int,
    seconds: float,
    trace: bool,
    n_federations: int,
    setup_passes: int,
) -> Run:
    """Closed-loop rounds, round-robin over ``n_federations`` federations.

    Set-up makes ``setup_passes`` passes; each builds a session for
    every federation from a cold engine (scenario -> ready session,
    solver grid and dataset synthesis included) and records the pass's
    mean build time.  Only the federation being built and the others'
    latest are resident.  The last build per federation is kept warm.
    Every cell of the timed loop then opens its session on that warm
    engine and cached federation and steps it; a cell's CPU time is that
    reopen plus its rounds.  The loop runs until
    ``seconds`` pass, at least ``MIN_CELLS`` cells have drained and every
    federation has drained one, so ``final_accuracy`` is the accuracy
    after the preset's last round and is fixed by the seed alone; every
    round it steps is a sample.
    """
    from repro.api import FMoreEngine

    run = Run()
    tracer = Tracer() if trace else None
    engines = []
    feds: list[_Federation | None] = [None] * n_federations
    builds: list[str] = []
    pass_wall: list[float] = []
    pass_cpu: list[float] = []
    for b in range(setup_passes * n_federations):
        slot = b % n_federations
        # Drop the federation this build replaces before building, so a
        # cold build never runs beside a second copy of its federation.
        feds[slot] = None
        gc.collect()
        fed_seed = seed * n_federations + slot
        engine = FMoreEngine()
        engines.append(engine)
        fed = _Federation(make_scenario(fed_seed), fed_seed, engine, None)
        builds.append(f"build-{b}")
        wall, cpu = _build(fed, tracer, builds[-1])
        pass_wall.append(wall)
        pass_cpu.append(cpu)
        feds[slot] = fed
        if slot == n_federations - 1:
            run.setup_wall_s.append(statistics.mean(pass_wall))
            run.setup_s.append(statistics.mean(pass_cpu))
            pass_wall, pass_cpu = [], []
    k_winners = feds[0].scenario.k_winners
    n_rounds = feds[0].scenario.n_rounds
    n_classes = int(np.unique(feds[0].session.trainer.test_y).size)
    for fed in feds:
        fed.session = None  # each timed cell opens its own
    rounds_traced: list[str] = []
    untraced_s: list[float] = []

    deadline = perf_counter() + seconds
    i = 0
    while (
        perf_counter() < deadline
        or len(run.cell_cpu_s) < MIN_CELLS
        or any(f.cells == 0 for f in feds)
    ):
        f_idx = i % len(feds)
        fed = feds[f_idx]
        if fed.session is None or fed.session.rounds_remaining == 0:
            fed.cell_cpu = _build(fed, None, "")[1]
        unit = f"round-{i}"
        traced = trace and (fed.rounds + f_idx + fed.cells) % 2 == 0
        if traced:
            tracer.unit = unit
            tracer.install()
        run.attempted += 1
        t0, c0 = perf_counter(), process_time()
        try:
            event = next(fed.session)
        except Exception as exc:  # a raised round is a failed round
            run.fail(unit, [f"{unit}: {type(exc).__name__}: {exc}"])
            break
        finally:
            dt, dc = perf_counter() - t0, process_time() - c0
            if tracer is not None:
                tracer.remove()
        run.round_s.append(dt)
        run.round_cpu_s.append(dc)
        if traced:
            run.traced_round_s.append(dt)
            rounds_traced.append(unit)
        elif trace:
            untraced_s.append(dt)
        fed.cell_cpu += dc
        fed.rounds += 1
        i += 1
        weights = fed.session.trainer.server.model.get_weights()
        run.fail(unit, check_round(event, k_winners, weights))
        if fed.session.rounds_remaining == 0:
            sha = weights_sha(weights)
            if fed.cells == 0:
                fed.first_sha = sha
                run.accuracies.append(event.accuracy)
                if not event.accuracy > 1.0 / n_classes:
                    run.fail(unit, [
                        f"seed {fed.seed}: final accuracy {event.accuracy:.4f} "
                        f"not above chance 1/{n_classes}"
                    ])
            elif sha != fed.first_sha:
                run.fail(unit, [
                    f"seed {fed.seed}: reopened session drained to other weights"
                ])
            run.cell_cpu_s.append(fed.cell_cpu)
            fed.cells += 1

    run.notes = {
        "federation_seeds": [f.seed for f in feds],
        "n_rounds_per_cell": n_rounds,
        "rounds_stepped": i,
    }
    if tracer is not None:
        run.layers = layer_metrics(tracer, rounds_traced, builds, [], engines)
        run.layers["trace.overhead_s"] = (overhead(run.traced_round_s, untraced_s), "s")
        run.notes["untraced_round_s"] = untraced_s
        run.notes["round_split"] = round_split(
            tracer, rounds_traced, sum(run.traced_round_s)
        )
        run.tracer = tracer
    run.peak_rss_mb = _peak_rss_mb()
    return run


def train_cnn(seed: int, seconds: float, trace: bool) -> Run:
    """The bench preset users regenerate figures with (K=6, N=30, FMore),
    six local batches per winner."""
    return run_training(
        train_cnn_scenario, seed, seconds, trace, FEDERATIONS, CNN_SETUP_PASSES
    )


def auction_hier(seed: int, seconds: float, trace: bool) -> Run:
    # The auction over 3e5 bidders barely depends on the seed, so one
    # federation per run is steady; set-up is still timed three times.
    return run_training(
        auction_hier_scenario, seed, seconds, trace, 1, SETUP_REPEATS
    )


# ----------------------------------------------------------------------
# sweep_service: 16 cells through the coordinator and a warm fleet
# ----------------------------------------------------------------------
def sweep_scenario(seed: int):
    """The smoke preset, every winner capped at two local batches.

    Smoke clients hold 30-120 samples in batches of 16, so the cap gives
    every winner exactly two batches and a cell's work does not depend
    on which clients the seed makes win.
    """
    from repro.api import Scenario

    return Scenario.from_preset(
        "smoke",
        "mnist_o",
        schemes=SWEEP_SCHEMES,
        seeds=tuple(4 * seed + j for j in range(4)),
        max_batches_per_round=SWEEP_LOCAL_BATCHES,
    )


def sweep_cells(scenario) -> list[tuple[str, int]]:
    return [(s, d) for d in scenario.seeds for s in scenario.schemes]


def _manifests(store, scenario, cells) -> dict[str, bytes]:
    return {
        f"{s}-{d}": store.manifest_path(scenario, s, d).read_bytes() for s, d in cells
    }


def serial_reference(seed: int, root: str) -> tuple[dict[str, bytes], list[float], int]:
    """The sweep's plan run serially in-process into a store at ``root``.

    Returns its manifests, the cells' final accuracies and the number of
    test classes.  The sweep runs this in a child process, so the
    benchmark process's peak memory is that of the service path alone.
    """
    from repro.api import ExperimentStore, FMoreEngine
    from repro.api.engine import build_federation

    scenario = sweep_scenario(seed)
    cells = sweep_cells(scenario)
    store = ExperimentStore(root)
    histories = FMoreEngine().run(scenario, store=store)
    accuracies = [histories.history(s, d).final_accuracy for s, d in cells]
    test_y = build_federation(scenario, scenario.seeds[0]).test_y
    return _manifests(store, scenario, cells), accuracies, int(np.unique(test_y).size)


def _landed(store, scenario, cells, since: float) -> tuple[list[float], int]:
    """Manifest landing latencies after ``since`` and bytes written since."""
    latencies = [
        store.manifest_path(scenario, s, d).stat().st_mtime - since for s, d in cells
    ]
    written = sum(
        p.stat().st_size
        for p in store.root.rglob("*")
        if p.is_file() and p.stat().st_mtime >= since
    )
    return latencies, written


_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _children() -> dict[int, tuple[float, float]]:
    """``pid -> (CPU seconds, peak resident MB)`` of this process's live children."""
    me = os.getpid()
    found = {}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
            if int(fields[1]) != me:
                continue
            cpu = (int(fields[11]) + int(fields[12])) / _CLK_TCK  # utime + stime
            hwm_kb = 0
            for line in (stat.parent / "status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    hwm_kb = int(line.split()[1])
            found[int(stat.parent.name)] = (cpu, hwm_kb / 1024.0)
        except (OSError, ValueError, IndexError):
            continue  # the process ended while being read
    return found


def _fleet_cpu(before: dict, after: dict, fleet: set[int]) -> float:
    """CPU seconds the ``fleet`` processes spent between two snapshots."""
    return sum(after[p][0] - before.get(p, (0.0, 0.0))[0] for p in fleet if p in after)


def check_history(history, k_winners: int, where: str) -> list[str]:
    problems = []
    for rec in history.records:
        if not (_finite(rec.loss) and _finite(rec.accuracy)):
            problems.append(f"{where} round {rec.round_index}: non-finite loss/accuracy")
        if len(rec.winner_ids) > k_winners:
            problems.append(f"{where} round {rec.round_index}: too many winners")
        if any(not _finite(p) or p < 0 for p in rec.payments.values()):
            problems.append(f"{where} round {rec.round_index}: bad payment")
    return problems


def sweep_service(seed: int, seconds: float, trace: bool, workdir: Path) -> Run:
    """Warm ``force=True`` re-sweeps of a 16-cell plan on a 2-worker fleet.

    ``setup_s`` is the CPU time of the cold first plan (embedded
    coordinator start, two worker spawns, 16 cells) in this process and
    the new workers, taken ``SETUP_REPEATS`` times on fresh stores; the
    last fleet stays warm for the timed re-sweeps.  A re-sweep's CPU time
    is that of this process (coordinator included) plus its workers; a
    round sample is that over the 16 cells.  Each cell's wall latency,
    plan submission to its manifest landing, is kept beside it.  Each
    re-sweep's manifests must be byte-identical to a serial run of the
    same plan.
    """
    from repro.api import ExperimentStore, ServiceExecutor

    run = Run()
    scenario = sweep_scenario(seed)
    cells = sweep_cells(scenario)
    run.cells_per_batch = len(cells)
    k_winners = scenario.k_winners
    tracer = Tracer() if trace else None
    executor = None
    closers: list[threading.Thread] = []
    # Forked before any thread starts.  A spawned child would leave a
    # resource-tracker process behind, counted with the fleet below.
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=fork) as pool:
        reference, run.accuracies, n_classes = pool.submit(
            serial_reference, seed, str(workdir / "serial")
        ).result()
    if not statistics.mean(run.accuracies) > 1.0 / n_classes:
        run.fail("serial-reference", [
            f"mean final accuracy {statistics.mean(run.accuracies):.4f} "
            f"not above chance 1/{n_classes}"
        ])
    try:
        for b in range(SETUP_REPEATS):
            if executor is not None:
                # Closing a fleet waits out its workers' long polls; let
                # that overlap the next cold plan instead of the clock.
                closer = threading.Thread(target=executor.close)
                closer.start()
                closers.append(closer)
            executor = ServiceExecutor(max_workers=2)
            store = ExperimentStore(workdir / f"service-{b}")
            kids0 = _children()
            t0, c0 = perf_counter(), process_time()
            executor.execute_plan(scenario, cells, store)
            wall, cpu = perf_counter() - t0, process_time() - c0
            kids = _children()
            fleet = set(kids) - set(kids0)
            run.setup_wall_s.append(wall)
            run.setup_s.append(cpu + _fleet_cpu(kids0, kids, fleet))
        for closer in closers:
            closer.join()
        sweeps_traced: list[str] = []
        untraced_s: list[float] = []
        written: list[int] = []
        deadline = perf_counter() + seconds
        s_idx = 0
        while perf_counter() < deadline:
            traced = trace and s_idx % 2 == 0
            if traced:
                tracer.unit = f"sweep-{s_idx}"
                tracer.install()
            kids0 = _children()
            since = time.time()
            t0, c0 = perf_counter(), process_time()
            results = executor.execute_plan(scenario, cells, store, force=True)
            dt, dc = perf_counter() - t0, process_time() - c0
            kids = _children()
            if tracer is not None:
                tracer.remove()
            cpu = dc + _fleet_cpu(kids0, kids, fleet)
            run.cell_cpu_s.append(cpu)
            run.round_cpu_s.append(cpu / len(cells))
            if traced:
                run.traced_round_s.append(dt)
                sweeps_traced.append(f"sweep-{s_idx}")
            elif trace:
                untraced_s.append(dt)
            latencies, nbytes = _landed(store, scenario, cells, since)
            run.round_s += latencies
            written.append(nbytes)
            got = _manifests(store, scenario, cells)
            for (scheme, d), history, latency in zip(cells, results, latencies):
                run.attempted += 1
                where = f"sweep {s_idx} {scheme}-seed{d}"
                problems = check_history(history, k_winners, where)
                if got[f"{scheme}-{d}"] != reference[f"{scheme}-{d}"]:
                    problems.append(f"{where}: manifest differs from serial run")
                if latency < 0:
                    problems.append(f"{where}: manifest not rewritten by the re-sweep")
                run.fail(where, problems)
            s_idx += 1
        # The warm fleet is still up: the benchmark process plus each of
        # its workers at their peaks.
        kids = _children()
        run.peak_rss_mb = _peak_rss_mb() + sum(kids[p][1] for p in fleet if p in kids)
    finally:
        if executor is not None:
            executor.close()
        for closer in closers:
            closer.join()
        if tracer is not None:
            tracer.remove()
    run.notes = {
        "scenario_seeds": list(scenario.seeds),
        "sweeps": s_idx,
        "untraced_round_s": untraced_s,
    }
    if tracer is not None:
        run.layers = layer_metrics(tracer, [], [], sweeps_traced, [])
        run.layers["api.store.cell_latency_s.p50"] = (percentile(run.round_s, 0.5), "s")
        run.layers["api.store.cell_latency_s.p90"] = (percentile(run.round_s, 0.9), "s")
        run.layers["api.store.bytes_written"] = (
            statistics.mean(written) if written else 0.0, "bytes"
        )
        run.layers["trace.overhead_s"] = (overhead(run.traced_round_s, untraced_s), "s")
        run.routes = requests_by_route(tracer, sweeps_traced)
        run.tracer = tracer
    return run


WORKLOADS = {
    "train_cnn": train_cnn,
    "auction_hier": auction_hier,
    "sweep_service": sweep_service,
}

