"""Content-addressed flow cache (deterministic artifact reuse).

The HERMES ecosystem's iteration loop — re-characterizing the component
library, re-running SEU campaigns, re-building accelerators — recomputes
mostly-unchanged flow stages.  This package memoizes the four hot
producers (HLS synthesis, per-stage NXmap place/route/STA/bitstream,
Eucalyptus characterization runs, radhard campaign reports) behind
stable content-addressed keys: canonical hashing of source text, flow
options and device parameters, salted with the package version.

The correctness bar is bit-identical warm runs: a cache hit returns an
artifact equal to what recomputation would produce, and every lookup is
visible as ``cache.hit`` / ``cache.miss`` / ``cache.evict`` telemetry.
"""

from .keys import (
    CacheKeyError,
    canonical_json,
    canonicalize,
    content_key,
    device_fingerprint,
    library_fingerprint,
    netlist_fingerprint,
)
from .store import (
    DEFAULT_MAX_BYTES,
    DEFAULT_MAX_ENTRIES,
    CacheStoreError,
    DiskStore,
    FlowCache,
    LayerStats,
    MemoryLRU,
)

__all__ = [
    "CacheKeyError", "canonical_json", "canonicalize", "content_key",
    "device_fingerprint", "library_fingerprint", "netlist_fingerprint",
    "DEFAULT_MAX_BYTES", "DEFAULT_MAX_ENTRIES", "CacheStoreError",
    "DiskStore", "FlowCache", "LayerStats", "MemoryLRU",
]
