"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload vod_mix --seed 1 --seconds 25 --trace 0

Each *round* builds the stack and its seeded inputs afresh (set-up) and
then runs the measured phase.  After :data:`WARMUP_ROUNDS` unmeasured
rounds, rounds repeat until ``--seconds`` of host time have passed, and
at least :data:`MIN_ROUNDS` run.  The simulated metrics reported are the
first measured round's: every process reaches it through the same
allocation history, so they repeat exactly for a seed.  Later rounds of
the same seed should match it; the network model finishes flows that
complete at the same instant in set order, which follows object
addresses, so rare ties can differ between rounds of one process.  Such
a difference is printed as a note, not treated as a failure.

``--trace 0`` reports the end-to-end metrics: host time and memory.  The
measured phase advances in :data:`SLICES` equal steps of simulated time.
``wall_s`` sums, step by step, the median host time of that step over the
rounds, so a burst of host noise during one round's step does not move
it.  ``setup_s`` is the median set-up time of the rounds.

``--trace 1`` runs one untraced and one traced round and reports the
per-layer metrics: host self time per ``repro`` layer from cProfile (see
:mod:`layers`), exact call counts, the stack's metrics registry read over
the measured phase, and the simulated viewer and uploader metrics.  The
benchmark's spans are written to ``perfbench/out/``.

Both modes print every metric by name and unit, then, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from heapq import heappop, heappush
from itertools import zip_longest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: rounds run first and not measured: the process's first rounds run
#: slower while the allocator and interpreter caches fill
WARMUP_ROUNDS = 1
MIN_ROUNDS = 3
MAX_ROUNDS = 50
SLICES = 100
#: a calibration sample is taken after every this many slices
CAL_EVERY = 4
#: calibration time of :func:`calibrate` on the reference host (a 2-vCPU
#: x86-64 container, CPython 3.11); host times are scaled to that speed
CAL_REFERENCE_S = 0.028
#: the traced run's layer self times must cover this share of its wall time
ACCOUNTED_MIN = 0.85
#: a published p99 needs this many samples, so that 10 lie beyond it
MIN_TAIL_SAMPLES = 1000

#: the latencies each workload publishes; the others publish as 0
LATENCIES = {
    "vod_mix": ("request", "startup"),
    "upload_ingest": ("publish",),
    "gray_storm": ("request", "read"),
}

Metrics = dict[str, tuple[float, str]]


def percentile(samples: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(samples)
    rank = p / 100.0 * (len(ordered) - 1)
    lo, hi = math.floor(rank), math.ceil(rank)
    return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])


class _Event:
    __slots__ = ("at", "proc", "row")

    def __init__(self, at: int, proc, row: list) -> None:
        self.at = at
        self.proc = proc
        self.row = row


def calibrate(events: int = 20000, procs: int = 2000) -> float:
    """Host seconds for a fixed tiny discrete-event loop.

    Generator processes on a heap, a fresh object per event and a
    several-megabyte table they touch: the shape of the simulator under
    test, sharing none of its code.  It tracks how fast the host runs
    such Python right now, whatever ``repro`` does.
    """
    def proc(i: int):
        x = i
        while True:
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            yield x

    # the collector would walk the workload's live heap as well
    gc.disable()
    t0 = time.perf_counter()
    table = [[i] * 8 for i in range(10 * procs)]
    heap = [(0, i, _Event(0, proc(i), table[i])) for i in range(procs)]
    seq = procs
    for _ in range(events):
        now, _, ev = heappop(heap)
        x = next(ev.proc)
        row = table[x % len(table)]
        row.append(x)
        row.pop(0)
        seq += 1
        heappush(heap, (now + (x & 15) + 1, seq, _Event(now, ev.proc, row)))
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


class RegistryWindow:
    """The stack's metrics registry, read from a mark to now."""

    def __init__(self, registry, *, from_start: bool = False) -> None:
        self.registry = registry
        self.marks = {} if from_start else {
            f.name: {c.labelvalues: self._level(c) for c in f.children()}
            for f in registry.families()}

    @staticmethod
    def _level(child) -> float:
        samples = getattr(child, "samples", None)
        return len(samples) if samples is not None else child.value

    def _children(self, name: str, labels: dict[str, str]):
        if name not in self.registry:
            return []
        family = self.registry.get(name)
        want = tuple(labels[n] for n in family.labelnames) if labels else None
        return [c for c in family.children()
                if want is None or c.labelvalues == want]

    def total(self, name: str, **labels: str) -> float:
        """Counter increase since the mark."""
        marks = self.marks.get(name, {})
        return sum(c.value - marks.get(c.labelvalues, 0.0)
                   for c in self._children(name, labels))

    def samples(self, name: str) -> list[float]:
        """Histogram observations made since the mark."""
        marks = self.marks.get(name, {})
        out: list[float] = []
        for c in self._children(name, {}):
            out.extend(c.samples[int(marks.get(c.labelvalues, 0)):])
        return out

    def pct(self, name: str, p: float) -> float:
        xs = self.samples(name)
        return percentile(xs, p) if xs else 0.0

    def wins(self, wins: str, fired: str) -> float:
        """Share of fired hedges that won their race."""
        n = self.total(fired)
        return self.total(wins, winner="hedge") / n if n else 0.0


def setup_metrics(win: RegistryWindow) -> Metrics:
    """The IaaS layer works during set-up, when the VMs deploy."""
    return {
        "one.dispatches": (win.total("one_dispatch_total"), "count"),
        "one.deploy_p50_s": (win.pct("one_deploy_seconds", 50), "sim_s"),
    }


def phase_metrics(win: RegistryWindow) -> Metrics:
    """Work, wait and waste of the measured phase, from the registry."""
    return {
        "hdfs.bytes_read": (win.total("hdfs_bytes_read_total"), "B"),
        "hdfs.bytes_written": (win.total("hdfs_bytes_written_total"), "B"),
        "hdfs.write_p50_s": (win.pct("hdfs_write_seconds", 50), "sim_s"),
        "hdfs.read_p99_s": (win.pct("hdfs_read_seconds", 99), "sim_s"),
        "hdfs.pipeline_recoveries": (
            win.total("hdfs_pipeline_recoveries_total"), "count"),
        "hdfs.hedges_fired": (win.total("hdfs_hedged_reads_total"), "count"),
        "hdfs.hedge_win_ratio": (
            win.wins("hdfs_hedge_wins_total", "hdfs_hedged_reads_total"),
            "ratio"),
        "hdfs.failover_mttr_s": (
            win.pct("hdfs_ha_failover_mttr_seconds", 50), "sim_s"),
        "video.segments": (win.total("transcode_segments_total"), "count"),
        "video.stage_p50_s": (win.pct("transcode_stage_seconds", 50), "sim_s"),
        "video.failovers": (win.total("transcode_failovers_total"), "count"),
        "mapreduce.tasks": (
            len(win.samples("mapreduce_task_seconds")), "count"),
        "mapreduce.task_p50_s": (
            win.pct("mapreduce_task_seconds", 50), "sim_s"),
        "web.requests": (win.total("web_requests_total"), "count"),
        "web.request_p99_s": (win.pct("web_request_seconds", 99), "sim_s"),
        "web.shed": (win.total("admission_shed_total")
                     + win.total("web_rate_limited_total"), "count"),
        "lb.hedge_win_ratio": (
            win.wins("lb_hedge_wins_total", "lb_hedged_requests_total"),
            "ratio"),
        "resilience.breaker_rejections": (
            win.total("breaker_rejections_total"), "count"),
        "reconcile.sweeps": (win.total("reconcile_sweeps_total"), "count"),
        "reconcile.actions": (win.total("reconcile_actions_total"), "count"),
    }


def user_metrics(workload: str, out) -> Metrics:
    """The simulated viewer's and uploader's view of the measured phase."""
    metrics: Metrics = {}
    for kind in ("request", "startup", "publish", "read"):
        xs = out.samples.get(kind, []) if kind in LATENCIES[workload] else []
        if kind in LATENCIES[workload] and len(xs) < MIN_TAIL_SAMPLES:
            raise RuntimeError(f"{workload}: {len(xs)} {kind} samples; "
                               f"a p99 needs {MIN_TAIL_SAMPLES}")
        metrics[f"{kind}_p50_s"] = (percentile(xs, 50) if xs else 0.0, "sim_s")
        metrics[f"{kind}_p99_s"] = (percentile(xs, 99) if xs else 0.0, "sim_s")
        metrics[f"{kind}_n"] = (len(xs), "count")
    metrics["rebuffer_ratio"] = (
        out.stalled_s / out.watched_s if out.watched_s else 0.0, "ratio")
    metrics["failed_ratio"] = (out.failed / out.attempted, "ratio")
    return metrics


class Round:
    """One set-up plus measured phase, optionally under cProfile."""

    def __init__(self, workload: str, seed: int, ops, *,
                 profile: bool = False) -> None:
        from workloads import WORKLOADS

        self.setup_profile = cProfile.Profile() if profile else None
        self.phase_profile = cProfile.Profile() if profile else None
        gc.collect()
        t0 = time.perf_counter()
        if profile:
            self.setup_profile.enable()
        phase = WORKLOADS[workload](seed, ops)
        if profile:
            self.setup_profile.disable()
        self.setup_s = time.perf_counter() - t0

        vc = phase.vc
        engine = vc.engine
        self.sim: Metrics = setup_metrics(
            RegistryWindow(vc.cluster.metrics, from_start=True))
        window = RegistryWindow(vc.cluster.metrics)
        events0 = engine.events_dispatched
        self.slices: list[float] = []
        cals: list[float] = []
        t0 = time.perf_counter()
        if profile:
            self.phase_profile.enable()
        done = phase.start()
        step = phase.horizon / SLICES
        while not done.processed:
            if engine.peek() == float("inf"):
                raise RuntimeError(f"{workload}: measured phase deadlocked")
            t = time.perf_counter()
            vc.run(until=engine.now + step)
            self.slices.append(time.perf_counter() - t)
            if not profile and len(self.slices) % CAL_EVERY == 0:
                cals.append(calibrate())
        t = time.perf_counter()
        phase.finish()
        self.finish_s = time.perf_counter() - t
        if profile:
            self.phase_profile.disable()
        #: host seconds of the whole measured phase, calibration included
        self.phase_s = time.perf_counter() - t0
        self.wall_s = sum(self.slices) + self.finish_s
        #: host speed during this round relative to the reference host
        self.speed = CAL_REFERENCE_S / statistics.median(cals) if cals else 1.0

        self.out = phase.out
        self.sim["sim.events"] = (engine.events_dispatched - events0, "count")
        self.sim.update(phase_metrics(window))
        self.sim.update(user_metrics(workload, phase.out))


# -- the two modes -------------------------------------------------------------------------


def note_divergence(first: Round, other: Round) -> None:
    """Print the simulated metrics on which two rounds of a seed differ."""
    differ = sorted(k for k in first.sim if first.sim[k] != other.sim[k])
    if differ:
        print(f"note: a later round of this seed differs in {', '.join(differ)}")


def untraced(workload: str, seed: int, seconds: float) -> tuple[Round, Metrics]:
    """Rounds until *seconds* pass; returns the first round and host metrics."""
    from workloads import Ops

    begin = time.perf_counter()
    for _ in range(WARMUP_ROUNDS):
        Round(workload, seed, Ops())
    rounds: list[Round] = []
    while len(rounds) < MIN_ROUNDS or (
            time.perf_counter() - begin < seconds and len(rounds) < MAX_ROUNDS):
        rounds.append(Round(workload, seed, Ops()))
    first = rounds[0]
    for r in rounds[1:]:
        note_divergence(first, r)
    # a round whose phase ended a step early counts 0 s for that step
    steps = zip_longest(*(r.slices for r in rounds), fillvalue=0.0)
    wall = sum(statistics.median(t * r.speed for r, t in zip(rounds, step))
               for step in steps)
    wall += statistics.median(r.finish_s * r.speed for r in rounds)
    return first, {
        "setup_s": (statistics.median(r.setup_s * r.speed for r in rounds), "s"),
        "wall_s": (wall, "s"),
        "wall_raw_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "host_speed": (statistics.median(r.speed for r in rounds), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "rounds": (len(rounds), "count"),
    }


def traced(workload: str, seed: int) -> tuple[Round, Metrics]:
    """One untraced and one traced round; returns the per-layer metrics."""
    import layers
    from workloads import Ops

    base = Round(workload, seed, Ops())
    spans = layers.Spans()
    run = Round(workload, seed, spans, profile=True)
    note_divergence(base, run)

    attribution = layers.Attribution(SRC / "repro", BENCH_DIR)
    phase_self = attribution.self_times(run.phase_profile)
    setup_self = attribution.self_times(run.setup_profile)
    accounted = sum(phase_self.values()) / run.phase_s
    for part, share in (("measured phase", accounted),
                        ("set-up", sum(setup_self.values()) / run.setup_s)):
        if not ACCOUNTED_MIN <= share <= 1.0 + 1e-6:
            raise RuntimeError(f"{workload}: layer self times cover {share:.1%} "
                               f"of the traced {part}")
    counts = layers.call_counts(run.phase_profile, layers.COUNTED)
    events = run.sim["sim.events"][0]

    metrics: Metrics = {}
    for layer in layers.LAYER_NAMES:
        metrics[f"{layer}.host_self_s"] = (phase_self[layer], "s")
    for layer in layers.LAYER_NAMES:
        metrics[f"{layer}.setup_self_s"] = (setup_self[layer], "s")
    metrics["sim.host_us_per_event"] = (
        phase_self["sim"] / events * 1e6 if events else 0.0, "us")
    metrics.update({name: (n, "count") for name, n in counts.items()})
    metrics.update(run.sim)
    metrics["trace.overhead"] = (run.wall_s / base.wall_s, "ratio")
    metrics["trace.accounted"] = (accounted, "ratio")
    metrics["bench.spans"] = (len(spans.records), "count")

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{workload}-{seed}.json", "w") as fh:
        json.dump({"fields": ["id", "kind", "layer", "sim_start", "sim_end",
                              "host_start", "host_end"],
                   "spans": spans.records}, fh)
    return run, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(LATENCIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if "PYTHONHASHSEED" not in os.environ:
        # one hash layout for every run, so set and dict iteration costs
        # do not vary from process to process
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.trace:
        run, published = traced(args.workload, args.seed)
        shown = dict(published)
    else:
        run, published = untraced(args.workload, args.seed, args.seconds)
        shown = {**published, **run.sim}
        published = {k: published[k] for k in ("setup_s", "wall_s", "peak_rss_mb")}

    out = run.out
    for name, (value, unit) in shown.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    for reason, n in sorted(out.failures.items()):
        print(f"FAILED {reason}: {n}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in published.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
