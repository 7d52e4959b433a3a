"""Benchmark-side spans around the program's layer boundaries.

A traced run patches each layer's public entry points with a wrapper that
records ``(span id, parent id, layer, function, start, end)`` in memory.  Module
functions are replaced in every loaded ``repro`` module that bound them
(``from x import f`` binds early, so the caller's own name is the one
that has to change); methods are replaced on their class.  Everything is
restored by :meth:`Tracer.uninstall`.

From the spans the run derives per-layer call counts, busy time (time
inside the outermost span of that layer), self time (span time minus its
child spans), and the top-level time no span covers.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# Spanned layers, in report order.  Each is measured as <layer>.calls,
# <layer>.busy_s and <layer>.self_s (nn.optim counts step_calls and
# orchestrator.artifacts counts puts/gets instead of calls).
LAYERS = (
    "core.defense",
    "core.pruner",
    "core.scoring",
    "core.unlearning",
    "core.evaluator",
    "core.tuner",
    "models.pruning_utils",
    "nn.inference",
    "nn.functional.conv2d",
    "nn.engine",
    "nn.optim",
    "attacks.poisoner",
    "training",
    "serving.gateway",
    "synthesis.strip",
    "orchestrator.artifacts",
    "federated.client",
)

# Metrics that are not a layer's calls/busy/self, with their units.  The
# serving, orchestrator.pool and federated.round values are read from the
# program's own results (verdicts, batcher stats, run ledgers) over the
# traced pass; the rest come from the spans below.
EXTRA_METRICS = {
    "core.tuner.epochs": "count",
    "core.tuner.samples_per_s": "1/s",
    "core.pruner.rounds": "count",
    "core.pruner.rolled_back": "count",
    "nn.inference.compiles": "count",
    "nn.engine.tiled_calls": "count",
    "nn.engine.inline_calls": "count",
    "nn.engine.shm_created": "count",
    "training.samples_per_s": "1/s",
    "orchestrator.artifacts.bytes_written": "B",
    "serving.batcher.queue_wait_p50_ms": "ms",
    "serving.batcher.queue_wait_p99_ms": "ms",
    "serving.gateway.service_ms": "ms",
    "serving.batcher.mean_batch": "requests",
    "serving.batcher.flush_size": "count",
    "serving.batcher.flush_deadline": "count",
    "serving.batcher.rejected": "count",
    "orchestrator.pool.tasks_started": "count",
    "orchestrator.pool.tasks_finished": "count",
    "orchestrator.pool.tasks_failed": "count",
    "orchestrator.pool.tasks_retried": "count",
    "orchestrator.pool.tasks_skipped": "count",
    "orchestrator.pool.queue_wait_s": "s",
    "orchestrator.pool.task_busy_s": "s",
    "federated.round.barrier_wait_s": "s",
    "trace.spans": "count",
    "trace.uncovered_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def _count_name(layer: str) -> List[str]:
    if layer == "nn.optim":
        return ["nn.optim.step_calls"]
    if layer == "orchestrator.artifacts":
        return ["orchestrator.artifacts.puts", "orchestrator.artifacts.gets"]
    return [f"{layer}.calls"]


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        for name in _count_name(layer):
            units[name] = "count"
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


# (span id, parent span id or 0, layer, qualified function name, start, end)
Span = Tuple[int, int, str, str, float, float]


class Tracer:
    """In-memory span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: Optional[str], fn: Callable, before=None, after=None) -> Callable:
        """``fn`` inside a span; ``before(args)`` feeds ``after(args, kwargs, result, token)``.

        With ``layer=None`` only the hooks run (a counter, not a span).
        """
        tracer = self
        name = f"{fn.__module__}.{fn.__qualname__}"

        if layer is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                token = before(args) if before is not None else None
                result = fn(*args, **kwargs)
                after(args, kwargs, result, token)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            token = before(args) if before is not None else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, layer, name, start, end))
            if after is not None:
                after(args, kwargs, result, token)
            return result

        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch_method(self, cls, name: str, layer: Optional[str], before=None, after=None) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, self.wrap(layer, original, before, after))
        self._undo.append(lambda: setattr(cls, name, original))

    def patch_function(self, module, name: str, layer: str, before=None, after=None) -> None:
        """Replace ``module.name`` wherever a ``repro`` module bound it."""
        original = getattr(module, name)
        wrapped = self.wrap(layer, original, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append(functools.partial(setattr, mod, attr, original))

    def install(self) -> "Tracer":
        _install_layers(self)
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def summarize(self, wall_s: float) -> Dict[str, float]:
        """Per-layer calls / busy / self time, plus the uncovered remainder."""
        by_id = {span[0]: span for span in self.spans}
        child_time: Dict[int, float] = defaultdict(float)
        for span_id, parent, _layer, _name, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        calls: Counter = Counter()
        busy: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        for span_id, parent, layer, _name, start, end in self.spans:
            duration = end - start
            calls[layer] += 1
            own[layer] += duration - child_time.get(span_id, 0.0)
            ancestor = parent
            nested = False
            while ancestor:
                above = by_id[ancestor]
                if above[2] == layer:
                    nested = True
                    break
                ancestor = above[1]
            if not nested:
                busy[layer] += duration
        covered = _union([(s[4], s[5]) for s in self.spans if s[1] == 0])
        values: Dict[str, float] = {}
        for layer in LAYERS:
            names = _count_name(layer)
            if layer == "orchestrator.artifacts":
                values[names[0]] = self.counts["artifacts.puts"]
                values[names[1]] = self.counts["artifacts.gets"]
            else:
                values[names[0]] = calls[layer]
            values[f"{layer}.busy_s"] = busy[layer]
            values[f"{layer}.self_s"] = own[layer]
        tuner_busy = busy["core.tuner"]
        training_busy = busy["training"]
        values.update(
            {
                "core.tuner.epochs": self.counts["tuner.epochs"],
                "core.tuner.samples_per_s": (
                    self.counts["tuner.samples"] / tuner_busy if tuner_busy > 0 else 0.0
                ),
                "core.pruner.rounds": self.counts["pruner.rounds"],
                "core.pruner.rolled_back": self.counts["pruner.rolled_back"],
                "nn.inference.compiles": self.counts["inference.compiles"],
                "nn.engine.tiled_calls": self.counts["engine.tiled_calls"],
                "nn.engine.inline_calls": self.counts["engine.inline_calls"],
                "nn.engine.shm_created": self.counts["engine.shm_created"],
                "training.samples_per_s": (
                    self.counts["training.samples"] / training_busy
                    if training_busy > 0 else 0.0
                ),
                "orchestrator.artifacts.bytes_written": self.counts["artifacts.bytes"],
                "trace.spans": len(self.spans),
                "trace.uncovered_s": max(0.0, wall_s - covered),
            }
        )
        return values


def _union(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _install_layers(tracer: Tracer) -> None:
    """The patch table: which public entry points carry which layer's span."""
    import repro.attacks.poisoner as poisoner
    import repro.core.scoring as scoring
    import repro.core.unlearning as unlearning
    import repro.nn.functional as functional
    import repro.synthesis.strip as strip
    import repro.training as training
    from repro.core.defense import GradPruneDefense
    from repro.core.evaluator import FusedEvaluator
    from repro.core.pruner import GradientPruner
    from repro.core.tuner import FineTuner
    from repro.federated.client import FederatedClient, MaliciousClient
    from repro.models.pruning_utils import PruningMask
    from repro.nn.engine.gemm import TiledGemmEngine
    from repro.nn.engine.pool import SharedSlabs
    from repro.nn.inference import CompiledInference
    from repro.nn.optim import SGD
    from repro.orchestrator.artifacts import ArtifactStore
    from repro.serving.gateway import ServingGateway

    counts = tracer.counts

    def tuned(args, kwargs, history, _token):
        clean = kwargs.get("clean_train", args[2] if len(args) > 2 else None)
        backdoor = kwargs.get("backdoor_train", args[4] if len(args) > 4 else None)
        size = (len(clean) if clean is not None else 0) + (
            len(backdoor) if backdoor is not None else 0
        )
        epochs = len(history.train_losses)
        counts["tuner.epochs"] += epochs
        counts["tuner.samples"] += epochs * size

    def pruned(_args, _kwargs, history, _token):
        counts["pruner.rounds"] += len(history.rounds)
        counts["pruner.rolled_back"] += sum(1 for r in history.rounds if r.rolled_back)

    def trained(args, kwargs, _result, _token):
        dataset = kwargs.get("dataset", args[1] if len(args) > 1 else None)
        config = kwargs.get("config", args[2] if len(args) > 2 else None)
        epochs = getattr(config, "epochs", 1) if config is not None else 1
        counts["training.samples"] += (len(dataset) if dataset is not None else 0) * epochs

    def engine_before(args):
        totals = args[0].totals
        return totals["tiled_calls"], totals["inline_calls"]

    def engine_after(args, _kwargs, _result, token):
        totals = args[0].totals
        counts["engine.tiled_calls"] += totals["tiled_calls"] - token[0]
        counts["engine.inline_calls"] += totals["inline_calls"] - token[1]

    def put(_args, _kwargs, path, _token):
        counts["artifacts.puts"] += 1
        try:
            counts["artifacts.bytes"] += os.path.getsize(path)
        except (OSError, TypeError):
            pass

    def got(*_unused):
        counts["artifacts.gets"] += 1

    def compiled(*_unused):
        counts["inference.compiles"] += 1

    def refold_before(args):
        return args[0]._folded is None

    def refolded(_args, _kwargs, _result, was_stale):
        if was_stale:
            counts["inference.compiles"] += 1

    def slab_before(args):
        return args[0]._slabs.get(args[1])

    def slab_after(args, _kwargs, slab, previous):
        if slab is not previous:
            counts["engine.shm_created"] += 1

    tracer.patch_method(GradPruneDefense, "apply", "core.defense")
    tracer.patch_method(GradientPruner, "prune", "core.pruner", after=pruned)
    tracer.patch_function(scoring, "compute_filter_scores", "core.scoring")
    tracer.patch_function(unlearning, "unlearning_loss_backward", "core.unlearning")
    tracer.patch_method(FusedEvaluator, "evaluate", "core.evaluator")
    tracer.patch_method(FineTuner, "tune", "core.tuner", after=tuned)
    for name in ("prune", "unprune", "apply"):
        tracer.patch_method(PruningMask, name, "models.pruning_utils")
    tracer.patch_method(CompiledInference, "__call__", "nn.inference")
    # Constructions and lazy refolds after a prune invalidated the cache
    # are counted, not spanned (the refold runs inside __call__).
    tracer.patch_method(CompiledInference, "__init__", None, after=compiled)
    tracer.patch_method(
        CompiledInference, "_ensure_folded", None,
        before=refold_before, after=refolded,
    )
    tracer.patch_function(functional, "conv2d", "nn.functional.conv2d")
    for name in ("execute", "execute_tn"):
        tracer.patch_method(
            TiledGemmEngine, name, "nn.engine", before=engine_before, after=engine_after
        )
    tracer.patch_method(
        SharedSlabs, "_slab_for", None, before=slab_before, after=slab_after
    )
    tracer.patch_method(SGD, "step", "nn.optim")
    tracer.patch_function(poisoner, "train_backdoored_model", "attacks.poisoner")
    tracer.patch_function(poisoner, "poison_dataset", "attacks.poisoner")
    tracer.patch_function(training, "train_classifier", "training", after=trained)
    tracer.patch_method(ServingGateway, "submit", "serving.gateway")
    tracer.patch_function(strip, "strip_entropy_scores", "synthesis.strip")
    for name in ("put_state", "put_json"):
        tracer.patch_method(ArtifactStore, name, "orchestrator.artifacts", after=put)
    for name in ("get_state", "get_json"):
        tracer.patch_method(ArtifactStore, name, "orchestrator.artifacts", after=got)
    tracer.patch_method(FederatedClient, "local_update", "federated.client")
    tracer.patch_method(MaliciousClient, "local_update", "federated.client")


def overhead(traced_s: float, untraced_s: float) -> Dict[str, float]:
    return {
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_pct": (
            100.0 * (traced_s - untraced_s) / untraced_s if untraced_s > 0 else 0.0
        ),
    }


def dump_spans(tracer: Tracer, path: str, origin: float) -> Optional[str]:
    """Write the recorded spans as JSON lines (times relative to ``origin``)."""
    import json

    with open(path, "w") as handle:
        for span_id, parent, layer, name, start, end in tracer.spans:
            handle.write(
                json.dumps(
                    {"id": span_id, "parent": parent, "layer": layer, "name": name,
                     "start": start - origin, "end": end - origin}
                )
                + "\n"
            )
    return path
