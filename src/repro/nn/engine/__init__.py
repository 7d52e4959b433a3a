"""``repro.nn.engine`` — GEMM execution and scratch-memory planning.

Runs the fast paths' im2col GEMMs as inline BLAS calls with the
conv→BN→ReLU epilogue fused onto the output, and plans scratch memory
statically per traced shape.  See DESIGN.md §10.
"""

from .gemm import TiledGemmEngine, engine, reset_engine
from .planner import MemoryPlan, PlannedArena, SlabRequest, plan_slabs
from .training import train_step_arena, training_step

__all__ = [
    "MemoryPlan",
    "PlannedArena",
    "SlabRequest",
    "TiledGemmEngine",
    "engine",
    "plan_slabs",
    "reset_engine",
    "train_step_arena",
    "training_step",
]
