"""Named shared-memory slabs.

No GEMM path stages operands through shared memory: the engine runs every
GEMM inline and BLAS owns intra-op parallelism.  :class:`SharedSlabs` is
kept because ``perfbench/tracing.py`` patches :meth:`SharedSlabs._slab_for`
to count shared-memory segment creations (the ``nn.engine.shm_created``
metric, which now always reads 0).
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Dict

__all__ = ["SharedSlabs"]


class SharedSlabs:
    """Registry of named, growable shared-memory slabs, one per tag."""

    def __init__(self) -> None:
        self._slabs: Dict[str, shared_memory.SharedMemory] = {}

    def _slab_for(self, tag: str, nbytes: int) -> shared_memory.SharedMemory:
        slab = self._slabs.get(tag)
        if slab is None or slab.size < nbytes:
            if slab is not None:
                slab.close()
                slab.unlink()
            slab = shared_memory.SharedMemory(create=True, size=nbytes)
            self._slabs[tag] = slab
        return slab
