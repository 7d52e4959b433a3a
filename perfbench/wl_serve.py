"""Workload ``serve``: the deployment path, forward passes only.

Set-up publishes a preact_resnet18 (seeded from ``--seed``) to a scratch
``ModelRegistry`` and starts a ``ServingGateway`` (max_batch 32, max_wait
5 ms), warmed up off the clock; repeated five times, the last gateway
serves.  A second, STRIP-filtering gateway (8 overlays) is started once,
then one short uncounted pass of every phase fills per-shape caches.

Measured phase:

1. open loop: Poisson arrivals at a fixed 50 req/s, ``--seconds`` in
   all, submitted at their due times by this process (not
   ``TrafficGenerator.run``, which sleeps ``1/rate`` after each submit and
   drifts); every request is timed from its due time;
2. a saturating burst of 128 requests with STRIP off;
3. a saturating burst of 16 requests with STRIP on;

run as eight cycles of (an eighth of 1, then 2, then 3).

Refused submits (``QueueFullError``), failed futures and result timeouts
are failed requests, not crashes.
"""

from __future__ import annotations

import shutil
import statistics
import time
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

from common import OUT, Named, Outcome, Timing

RATE = 50.0  # req/s: half the gateway's capacity with the default engine on 2 cores
MAX_BATCH = 32
MAX_WAIT_MS = 5.0
SETUP_REPEATS = 5
POOL = 256  # distinct request images
STRIP_POOL = 32  # clean blending pool for STRIP
STRIP_OVERLAYS = 8
# The measured phase is CYCLES rounds of (open-loop slice, STRIP-off
# burst, STRIP-on burst), so every metric samples the whole run instead of
# one stretch of it: under the default engine the gateway's batch times
# drift by tens of percent over seconds.
CYCLES = 8
BURST = 128  # requests per STRIP-off burst (< max_queue 1024)
STRIP_BURST = 16
WARM_BURST = 128
LIMIT_MS = 50.0  # latency limit an open-loop request must meet, from its due time
RESULT_TIMEOUT_S = 30.0
CHECK_EVERY = 10  # open-loop requests checked against a plain forward


def _gateway(registry_dir, model, config, clean_pool=None):
    from repro.serving import ModelRegistry, ServingGateway

    registry = ModelRegistry(str(registry_dir))
    registry.publish(
        model, "preact_resnet18",
        factory_kwargs={"num_classes": 10, "profile": "quick"},
        metadata={"image_shape": [3, 32, 32]},
    )
    return ServingGateway(registry, config=config, clean_pool=clean_pool).start()


def _warm(gateway, images: np.ndarray) -> None:
    for image in images[:4]:
        gateway.classify(image)
    for future in [gateway.submit(image) for image in images[:MAX_BATCH]]:
        future.result(timeout=RESULT_TIMEOUT_S)


def setup(seed: int, outcome: Outcome, args) -> Dict:
    from repro.data import make_synth_cifar
    from repro.data.dataset import ImageDataset
    from repro.models import build_model
    from repro.serving import ServeConfig

    train, test = make_synth_cifar(n_train=POOL, n_test=STRIP_POOL, num_classes=10, seed=seed)
    model = build_model("preact_resnet18", num_classes=10, profile="quick", seed=seed)
    model.eval()
    root = OUT / "serve" / f"run-{time.time_ns()}"
    plain = ServeConfig(max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS, seed=seed)
    times: List[float] = []
    gateway = None
    for repeat in range(1 if args.trace else SETUP_REPEATS):
        if gateway is not None:
            gateway.stop()
        start = perf_counter()
        gateway = _gateway(root / f"plain-{repeat}", model, plain)
        _warm(gateway, train.images)
        times.append(perf_counter() - start)
    start = perf_counter()
    strip = _gateway(
        root / "strip", model,
        ServeConfig(
            max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS, strip=True,
            strip_overlays=STRIP_OVERLAYS, seed=seed,
        ),
        clean_pool=ImageDataset(test.images, test.labels),
    )
    _warm(strip, train.images)
    outcome.named["strip_setup_s"] = Named(perf_counter() - start, "s", "STRIP gateway start + calibration, once")
    # Let per-shape caches (arena plans of every batch size the drain
    # forms) fill before timing: one short, uncounted pass of each phase.
    scratch = Outcome()
    _open_loop(gateway, train.images, np.random.default_rng([seed, 0]), 1.0, scratch)
    _burst(gateway, train.images, np.arange(WARM_BURST) % POOL, scratch)
    _burst(strip, train.images, np.arange(MAX_BATCH), scratch)
    outcome.info["serve"] = {
        "rate": RATE, "max_batch": MAX_BATCH, "max_wait_ms": MAX_WAIT_MS,
        "cycles": CYCLES, "burst": BURST, "strip_burst": STRIP_BURST,
        "strip_overlays": STRIP_OVERLAYS,
    }
    return {
        "setup_times": times, "images": train.images, "model": model,
        "plain": gateway, "strip": strip, "root": root,
    }


class _Tracker:
    """Completion times of submitted requests, stamped by the drain thread."""

    def __init__(self, count: int) -> None:
        self.done = np.full(count, np.nan)
        self.futures: List[Optional[object]] = [None] * count

    def submit(self, gateway, index: int, image, outcome: Outcome) -> None:
        from repro.serving.batcher import QueueFullError

        outcome.attempted += 1
        try:
            future = gateway.submit(image)
        except QueueFullError:
            outcome.failed += 1
            return
        future.add_done_callback(lambda _f, i=index: self.done.__setitem__(i, perf_counter()))
        self.futures[index] = future

    def collect(self, outcome: Outcome) -> List[Optional[object]]:
        verdicts = []
        for future in self.futures:
            if future is None:
                verdicts.append(None)
                continue
            try:
                verdicts.append(future.result(timeout=RESULT_TIMEOUT_S))
            except Exception:  # noqa: BLE001 — timeout or failed batch
                outcome.failed += 1
                verdicts.append(None)
        return verdicts


def _open_loop(gateway, images, rng, seconds, outcome):
    count = max(1, int(round(RATE * seconds)))
    picks = rng.integers(0, len(images), size=count)
    tracker = _Tracker(count)
    origin = perf_counter() + 0.05
    due = origin + np.cumsum(rng.exponential(1.0 / RATE, size=count))
    late = np.empty(count)
    for i in range(count):
        delay = due[i] - perf_counter()
        if delay > 0:
            time.sleep(delay)
        late[i] = perf_counter() - due[i]
        tracker.submit(gateway, i, images[picks[i]], outcome)
    verdicts = tracker.collect(outcome)
    latency_ms = [
        1e3 * (tracker.done[i] - due[i]) if verdicts[i] is not None else 1e3 * RESULT_TIMEOUT_S
        for i in range(count)
    ]
    return list(picks), verdicts, latency_ms, list(late)


def _burst(gateway, images, picks, outcome):
    tracker = _Tracker(len(picks))
    start = perf_counter()
    for i, pick in enumerate(picks):
        tracker.submit(gateway, i, images[pick], outcome)
    verdicts = tracker.collect(outcome)
    completed = [i for i, v in enumerate(verdicts) if v is not None]
    wall = (np.nanmax(tracker.done) - start) if completed else float("nan")
    return wall, len(completed), verdicts


def _batcher_stats(gateway) -> Dict:
    return gateway.stats()["batcher"]


def measure(state: Dict, seed: int, outcome: Outcome, args) -> Dict:
    images = state["images"]
    plain, strip = state["plain"], state["strip"]
    before = [_batcher_stats(plain), _batcher_stats(strip)]
    rng = np.random.default_rng([seed, 1])
    picks, verdicts, latency_ms, late = [], [], [], []
    bursts, strip_bursts, extra = [], [], []
    for _ in range(CYCLES):
        slice_ = _open_loop(plain, images, rng, args.seconds / CYCLES, outcome)
        for total, part in zip((picks, verdicts, latency_ms, late), slice_):
            total.extend(part)
        wall, done, burst = _burst(plain, images, rng.integers(0, len(images), BURST), outcome)
        bursts.append((wall, done))
        extra += burst
        wall, done, burst = _burst(strip, images, rng.integers(0, len(images), STRIP_BURST), outcome)
        strip_bursts.append((wall, done))
        extra += burst
    after = [_batcher_stats(plain), _batcher_stats(strip)]
    return {
        "picks": np.array(picks), "verdicts": verdicts, "latency_ms": latency_ms,
        "late": np.array(late), "bursts": bursts, "strip_bursts": strip_bursts,
        "all_verdicts": [v for v in verdicts + extra if v is not None],
        "stats": (before, after), "images": images, "model": state["model"],
    }


def _sampled(result: Dict):
    """Every CHECK_EVERY-th answered open-loop request and a plain forward of it.

    Returns the request indices, the plain ``no_grad()`` argmax labels and
    which of them are decisive.  Folded and unfolded float32 forwards, and
    different micro-batch shapes, agree to ~1e-5; a top-2 margin below the
    tolerance cannot decide a label either way.
    """
    from repro.nn import Tensor, no_grad

    index = [i for i in range(0, len(result["picks"]), CHECK_EVERY)
             if result["verdicts"][i] is not None]
    batch = result["images"][result["picks"][index]]
    with no_grad():
        logits = result["model"](Tensor(batch)).data
    ordered = np.sort(logits, axis=1)
    decisive = (ordered[:, -1] - ordered[:, -2]) > 1e-4 * (1.0 + np.abs(ordered[:, -1]))
    return index, logits.argmax(axis=1), decisive


def _reference_check(result: Dict, outcome: Outcome) -> None:
    """Gateway labels against a plain no_grad() forward of the same weights."""
    index, expected, decisive = _sampled(result)
    got = np.array([result["verdicts"][i].label for i in index])
    mismatched = int(((got != expected) & decisive).sum())
    outcome.check(
        "serve.labels_match_reference", mismatched == 0 and len(index) > 0,
        f"{mismatched} of {int(decisive.sum())} decisive sampled requests differ "
        f"({len(index) - int(decisive.sum())} near-ties skipped)",
    )


def report(result: Dict, outcome: Outcome) -> Dict[str, Named]:
    _reference_check(result, outcome)
    latency = Timing(result["latency_ms"])
    tail, label = latency.tail
    within = 100.0 * float(np.mean(np.asarray(result["latency_ms"]) <= LIMIT_MS))
    strip_rate = statistics.median(done / wall for wall, done in result["strip_bursts"])
    rate = statistics.median(done / wall for wall, done in result["bursts"])
    # One cycle's backlog: a STRIP-off burst, then a STRIP-on burst.
    backlog_s = statistics.median(
        plain[0] + strip[0] for plain, strip in zip(result["bursts"], result["strip_bursts"])
    )
    late_ms = 1e3 * result["late"]
    named = outcome.named
    named["serve_p50_ms"] = Named(latency.median, "ms", f"open loop {RATE:g} req/s, n={latency.n}")
    named["serve_within_limit_pct"] = Named(
        within, "%", f"open-loop requests done <= {LIMIT_MS:g} ms after due; failures miss"
    )
    named[f"serve_{label}_ms"] = Named(tail, "ms", f"n={latency.n}, 10 samples beyond")
    named["serve_img_s"] = Named(rate, "1/s", f"median of {CYCLES} bursts of {BURST}")
    named["strip_img_s"] = Named(strip_rate, "1/s", f"median of {CYCLES} bursts of {STRIP_BURST}")
    named["backlog_s"] = Named(
        backlog_s, "s", f"median of {CYCLES}: {BURST} requests STRIP off, then {STRIP_BURST} STRIP on"
    )
    named["generator_late_p50_ms"] = Named(float(np.median(late_ms)), "ms", "submit time minus due time")
    named["generator_late_max_ms"] = Named(float(late_ms.max()), "ms")
    return {
        "job_s": Named(backlog_s, "s"),
        "items_per_s": Named(rate, "1/s"),
        "good_pct": Named(within, "%"),
    }


def digest_payload(result: Dict) -> Dict:
    # Only decisive labels: micro-batch composition depends on timing, and
    # a near-tie may fall either way from one run to the next.
    index, _, decisive = _sampled(result)
    return {"labels": [[i, result["verdicts"][i].label] for i, d in zip(index, decisive) if d]}


def layer_values(result: Dict) -> Dict[str, float]:
    verdicts = result["all_verdicts"]
    queued = Timing([v.queued_ms for v in verdicts])
    service = [v.latency_ms - v.queued_ms for v in verdicts]
    (before_plain, before_strip), (after_plain, after_strip) = result["stats"]
    batches = sizes = 0
    flush: Dict[str, int] = {}
    rejected = 0
    for before, after in ((before_plain, after_plain), (before_strip, after_strip)):
        for size, count in after["batch_size_histogram"].items():
            delta = count - before["batch_size_histogram"].get(size, 0)
            batches += delta
            sizes += int(size) * delta
        for reason, count in after["flush_reasons"].items():
            flush[reason] = flush.get(reason, 0) + count - before["flush_reasons"].get(reason, 0)
        rejected += after["rejected"] - before["rejected"]
    ordered = sorted(queued.samples)
    p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
    return {
        "serving.batcher.queue_wait_p50_ms": queued.median,
        "serving.batcher.queue_wait_p99_ms": p99,
        "serving.gateway.service_ms": statistics.median(service),
        "serving.batcher.mean_batch": sizes / batches if batches else 0.0,
        "serving.batcher.flush_size": flush.get("full", 0),
        "serving.batcher.flush_deadline": flush.get("deadline", 0),
        "serving.batcher.rejected": rejected,
    }


def teardown(state: Dict) -> None:
    for key in ("plain", "strip"):
        state[key].stop()
    shutil.rmtree(state["root"], ignore_errors=True)
    state.clear()
