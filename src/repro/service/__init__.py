"""The serving subsystem: persistence, multiprocess execution, a server.

The paper's economics are *preprocess once, query cheaply*: all the
polynomial work (ε-elimination, the ambiguity certificate, lowering into
the :class:`~repro.core.kernel.CompiledDAG`) happens before the first
answer, and every subsequent count / sample / enumerate / spectrum is
near-free.  That is exactly the shape of a serving workload — so this
package turns the single-process facade into a service:

* :mod:`repro.service.fingerprint` — a stable content fingerprint for
  automata and plans (canonical serialization + SHA-256), exposed as
  :meth:`repro.api.WitnessSet.fingerprint`.  Two processes compiling the
  same instance agree on the fingerprint, which is what makes kernels
  shareable across process boundaries.
* :mod:`repro.service.snapshot` — the compact binary snapshot format for
  compiled kernels (``kernel.to_bytes()`` / ``CompiledDAG.from_bytes``):
  CSR edge arrays, per-layer index maps and the packed / bignum-spill
  run-count tables round-trip exactly.
* :mod:`repro.service.store` — :class:`KernelStore`, a content-addressed
  on-disk kernel cache keyed by ``(fingerprint, n, mode)`` with LRU size
  bounding, atomic writes and hit/miss stats.  Wired into the facade, a
  warm process answers its first query with **zero lowering work**.
* :mod:`repro.service.engine` — :class:`Engine`, a stdlib
  ``multiprocessing`` worker pool routing requests by fingerprint
  affinity (each worker keeps its hot kernels resident) with
  deterministic per-request RNG substreams, so seeded ``sample`` results
  are byte-identical no matter which worker serves them.
* :mod:`repro.service.server` — the ``asyncio`` JSON-lines server
  behind ``repro serve`` / ``repro query``, multiplexing concurrent TCP
  connections or serving stdin/stdout as one connection, with request
  batching —
  same-fingerprint sample requests coalesce into one ``sample_batch``
  kernel pass, across connections — plus bounded request lines,
  per-request deadlines, backpressured writes, graceful drain, and
  streamed constant-delay ``enumerate`` (chunked responses paged by
  resumable cursors, so huge witness sets are never materialized).
"""

from importlib import import_module
from typing import Any

#: Public name → home submodule.  Resolved lazily (PEP 562) so that,
#: e.g., the facade touching only the store never imports the engine's
#: ``multiprocessing`` or the server's ``asyncio``.
_EXPORTS = {
    "Engine": "engine",
    "FingerprintError": "fingerprint",
    "fingerprint_source": "fingerprint",
    "KernelStore": "store",
    "StoreStats": "store",
    "default_store": "store",
    "SnapshotError": "snapshot",
    "kernel_to_bytes": "snapshot",
    "kernel_from_bytes": "snapshot",
    "ProtocolError": "protocol",
    "WitnessSetCache": "protocol",
    "execute_group": "protocol",
    "spec_key": "protocol",
    "witness_set_from_spec": "protocol",
    "draw_samples": "protocol",
    "draw_samples_coalesced": "protocol",
    "AsyncWitnessServer": "server",
    "serve_stdio": "server",
    "serve_tcp": "server",
    "ServiceClient": "client",
    "ServiceClientError": "client",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    submodule = _EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"repro.service.{submodule}"), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:  # pragma: no cover - introspection nicety
    return sorted(set(globals()) | set(_EXPORTS))
