"""GEMM executor with a fused epilogue.

:class:`TiledGemmEngine` is the execution layer under the fast paths.
Given the im2col operand ``a = (M, K)`` and packed weights ``b = (K, N)``
it computes ``a @ b`` plus an optional epilogue — per-column bias add
(which, after conv–BN folding, *is* the batch-norm affine) and ReLU —
applied in place on the GEMM output, so no un-activated intermediate is
ever allocated.  ``execute_tn`` is the backward-pass ``a.T @ b`` shape
(weight gradients), optionally accumulating into an existing buffer.

Both are one inline BLAS call: BLAS owns intra-op parallelism.  The class
keeps its historical name and the ``inline_calls`` / ``tiled_calls``
counters (``tiled_calls`` stays 0) because ``perfbench/tracing.py`` reads
them.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

__all__ = ["TiledGemmEngine", "engine", "reset_engine"]


class TiledGemmEngine:
    """Inline BLAS GEMMs with a fused bias/ReLU epilogue."""

    def __init__(self) -> None:
        self.totals: Dict[str, int] = {"inline_calls": 0, "tiled_calls": 0}

    def execute(
        self,
        a: np.ndarray,
        b: np.ndarray,
        bias: Optional[np.ndarray] = None,
        activation: Optional[str] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``a @ b`` followed by the in-place bias/activation epilogue.

        ``a`` is ``(M, K)``, ``b`` is ``(K, N)``, ``bias`` broadcasts over
        rows as ``(N,)``.  Returns ``out`` (allocated fresh when omitted).
        """
        if activation not in (None, "relu"):
            raise ValueError(f"unsupported fused activation: {activation!r}")
        if out is None:
            out = np.empty((a.shape[0], b.shape[1]), dtype=a.dtype)
        self.totals["inline_calls"] += 1
        np.matmul(a, b, out=out)
        if bias is not None:
            out += bias
        if activation == "relu":
            np.maximum(out, 0.0, out=out)
        return out

    def execute_tn(
        self,
        a: np.ndarray,
        b: np.ndarray,
        out: Optional[np.ndarray] = None,
        accumulate: bool = False,
    ) -> np.ndarray:
        """``a.T @ b`` for ``a = (R, M)`` and ``b = (R, N)``; result ``(M, N)``.

        With ``accumulate=True`` the product is *added* into ``out`` (which
        must be provided), matching how backward GEMMs feed shared gradient
        buffers; otherwise ``out`` is overwritten (allocated fresh when
        omitted).
        """
        if accumulate and out is None:
            raise ValueError("execute_tn(accumulate=True) requires an out buffer")
        self.totals["inline_calls"] += 1
        if accumulate:
            out += a.T @ b
            return out
        if out is None:
            out = np.empty((a.shape[1], b.shape[1]), dtype=a.dtype)
        np.matmul(a.T, b, out=out)
        return out


_ENGINE: Optional[TiledGemmEngine] = None


def engine() -> TiledGemmEngine:
    """The process-wide GEMM engine (created lazily)."""
    global _ENGINE
    if _ENGINE is None:
        _ENGINE = TiledGemmEngine()
    return _ENGINE


def reset_engine() -> None:
    """Drop the engine singleton (its call counters start again from zero)."""
    global _ENGINE
    _ENGINE = None
