"""Traced-run attribution: host self time per ``repro`` layer, plus spans.

:meth:`Attribution.self_times` turns one cProfile run into seconds per
layer.  Every
function's exclusive time (``tottime``) is charged to the layer whose
source file defines it: ``src/repro/<package>/...`` is that package, the
benchmark's own files are ``bench``.  Functions with no layer -- C
builtins and the standard library -- are charged to their callers
through the profiler's caller table, in proportion to the time each
caller spent in them, recursively up to the first caller that has a
layer.  A ``repro`` file outside :data:`LAYERS` is an error: a new
package must be given a layer before the benchmark can attribute it.

:class:`Spans` is the benchmark's own trace: one span per operation it
issues into a layer, with simulated and host start and end.
"""

from __future__ import annotations

import cProfile
import importlib
import pstats
import time
from pathlib import Path
from typing import Generator

from workloads import Ops

#: ``src/repro`` entry -> layer.  Every package and top-level module of
#: ``repro`` must appear; ``repro.bench`` is the load generator, so it is
#: charged to ``bench`` with the benchmark's own files.
LAYERS: dict[str, str] = {
    "sim": "sim", "hardware": "hardware", "virt": "virt",
    "drivers": "drivers", "one": "one", "hdfs": "hdfs",
    "fusehdfs": "fusehdfs", "mapreduce": "mapreduce", "video": "video",
    "search": "search", "web": "web", "resilience": "resilience",
    "reconcile": "reconcile", "chaos": "chaos", "obs": "obs",
    "common": "common", "analysis": "analysis",
    "stack.py": "stack", "__init__.py": "stack", "bench": "bench",
}
LAYER_NAMES: tuple[str, ...] = tuple(sorted(set(LAYERS.values())))

Key = tuple[str, int, str]


class UnmappedFile(RuntimeError):
    """A ``repro`` source file that no layer claims."""


class Attribution:
    """Maps profiled functions to layers for one source tree."""

    def __init__(self, repro_dir: Path, bench_dir: Path) -> None:
        self.repro = str(repro_dir.resolve()) + "/"
        self.bench = str(bench_dir.resolve()) + "/"
        self._files: dict[str, str | None] = {}

    def layer_of_file(self, filename: str) -> str | None:
        """The layer of a source file; None for builtins and stdlib."""
        layer = self._files.get(filename, "")
        if layer != "":
            return layer
        path = str(Path(filename).resolve()) if filename[:1] not in "~<" else ""
        if path.startswith(self.bench):
            layer = "bench"
        elif path.startswith(self.repro):
            entry = path[len(self.repro):].split("/", 1)[0]
            if entry not in LAYERS:
                raise UnmappedFile(
                    f"{path} maps to no layer; add {entry!r} to LAYERS")
            layer = LAYERS[entry]
        else:
            layer = None
        self._files[filename] = layer
        return layer

    def self_times(self, profile: cProfile.Profile) -> dict[str, float]:
        """Exclusive seconds per layer (every name in LAYER_NAMES)."""
        stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
        shares: dict[Key, dict[str, float]] = {}

        def share(key: Key, seen: frozenset) -> dict[str, float]:
            """How *key*'s time splits over layers (weights sum to 1)."""
            layer = self.layer_of_file(key[0])
            if layer is not None:
                return {layer: 1.0}
            if key in shares:
                return shares[key]
            callers = {c: v for c, v in stats[key][4].items()
                       if c not in seen and c in stats}
            # weight callers by the time they spent in *key*, else calls
            weights = {c: v[2] for c, v in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {c: v[1] for c, v in callers.items()}
                total = sum(weights.values())
            out: dict[str, float] = {}
            if total <= 0:
                out = {"bench": 1.0}   # a root with no caller: the runner
            else:
                for caller, w in weights.items():
                    for lay, x in share(caller, seen | {key}).items():
                        out[lay] = out.get(lay, 0.0) + x * w / total
            if not seen:
                shares[key] = out
            return out

        times = dict.fromkeys(LAYER_NAMES, 0.0)
        for key, (_cc, _nc, tt, _ct, _callers) in stats.items():
            for layer, weight in share(key, frozenset()).items():
                times[layer] += tt * weight
        return times


#: exact call counts the traced run publishes: metric -> (module, function)
COUNTED: dict[str, tuple[str, str]] = {
    "sim.processes": ("repro.sim.core", "Process.__init__"),
    "hardware.flows": ("repro.hardware.network", "Flow.__init__"),
    "hardware.max_min_calls": ("repro.hardware.network",
                               "Network._max_min_rates"),
    "resilience.phi_calls": ("repro.resilience.detector",
                             "PhiAccrualDetector.phi"),
    "obs.percentile_calls": ("repro.obs.metrics", "Histogram.percentile"),
}


def call_counts(profile: cProfile.Profile,
                funcs: dict[str, tuple[str, str]]) -> dict[str, int]:
    """Exact call counts of the named functions in one profile.

    A function the source tree no longer has counts 0.
    """
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    out = {}
    for name, (module, qualname) in funcs.items():
        obj = importlib.import_module(module)
        for attr in qualname.split("."):
            obj = getattr(obj, attr, None)
        code = getattr(obj, "__code__", None)
        key = (code.co_filename, code.co_firstlineno, code.co_name) if code else None
        out[name] = stats[key][1] if key in stats else 0
    return out


class Spans(Ops):
    """Records one span per benchmark operation.

    A span is ``(id, kind, layer, sim_start, sim_end, host_start,
    host_end)``; host times are ``time.perf_counter`` seconds.  Spans
    stay in memory until the run writes them out.
    """

    def __init__(self) -> None:
        self.records: list[list] = []
        self._clock = None

    def attach(self, vc) -> None:
        engine = vc.engine
        self._clock = lambda: engine.now

    def op(self, kind: str, layer: str, gen: Generator) -> Generator:
        clock = self._clock
        record = [len(self.records), kind, layer, clock(), None,
                  time.perf_counter(), None]
        self.records.append(record)
        try:
            return (yield from gen)
        finally:
            record[4] = clock()
            record[6] = time.perf_counter()
