"""Grad mode and scratch arenas are per-thread state.

A serving gateway runs compiled forwards on its drain thread while another
thread builds, warms and calibrates the replacement model for a hot-swap.
Both threads must see their own grad mode and their own arena stacks, or
the drain thread's forwards read scratch the other thread is writing.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.models import build_model
from repro.nn import Tensor, is_grad_enabled, no_grad
from repro.nn.inference import CompiledInference


@pytest.fixture(autouse=True)
def _frequent_thread_switches():
    """Switch threads often so an interleaving that corrupts shows up."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def test_no_grad_in_other_threads_leaves_main_thread_grad_mode():
    stop = threading.Event()
    seen_in_main = []

    def spin():
        while not stop.is_set():
            with no_grad():
                pass

    threads = [threading.Thread(target=spin) for _ in range(2)]
    for thread in threads:
        thread.start()
    try:
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            seen_in_main.append(is_grad_enabled())
            time.sleep(0.001)  # let the spinners run between samples
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert all(seen_in_main)
    assert is_grad_enabled()


def test_compiling_in_one_thread_leaves_other_threads_forwards_intact():
    rng = np.random.default_rng(0)
    served = build_model("preact_resnet18", num_classes=4, seed=1)
    batches = [rng.uniform(0, 1, (8, 3, 32, 32)).astype(np.float32) for _ in range(4)]
    compiled = CompiledInference(served, Tensor(batches[0][:1]))
    expected = [compiled(Tensor(x)).data.copy() for x in batches]

    stop = threading.Event()
    outputs = []

    def serve():
        while not stop.is_set():
            for i, x in enumerate(batches):
                outputs.append((i, compiled(Tensor(x)).data.copy()))

    drain = threading.Thread(target=serve)
    drain.start()
    try:
        for seed in range(3):
            other = build_model("preact_resnet18", num_classes=4, seed=10 + seed)
            CompiledInference(other, Tensor(batches[0][:1])).warmup(Tensor(batches[0]))
    finally:
        stop.set()
        drain.join(timeout=60)

    assert not drain.is_alive()
    assert outputs
    for i, out in outputs:
        np.testing.assert_allclose(out, expected[i], rtol=1e-5, atol=1e-5)
