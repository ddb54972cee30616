"""repro — enumeration, counting and uniform generation for logspace classes.

A faithful, production-oriented reproduction of

    Arenas, Croquevielle, Jayaram, Riveros.
    "Efficient Logspace Classes for Enumeration, Counting, and Uniform
    Generation."  PODS 2019 (arXiv:1906.09226).

Quick tour — one query object serves every question::

    from repro import WitnessSet

    # Compile once; every question reuses the cached preprocessing.
    ws = WitnessSet.from_regex("(ab|ba)*(a|b)?", 9, alphabet="ab")

    ws.count()                                 # exact |L_9|
    ws.count(backend="fpras", epsilon=0.1)     # the paper's FPRAS (Thm 22)
    ws.sample(5, rng=0)                        # 5 exactly-uniform witnesses
    list(ws.enumerate(limit=10))               # constant/poly delay ENUM
    ws.spectrum()                              # {length: |L_length|}
    ws.is_unambiguous                          # RelationUL vs RelationNL

The same facade fronts every application domain of the paper —
``WitnessSet.from_dnf`` (satisfying assignments), ``from_obdd`` (BDD
models), ``from_rpq`` (graph paths), ``from_spanner`` (document
extractions), ``from_cfg`` (grammar words) — and dispatches between the
two complexity classes the way the paper's theorems do: unambiguous
automata get the exact polynomial algorithms of RelationUL (Theorem 5),
general NFAs the FPRAS and Las Vegas generator of RelationNL (Theorem
2 / 22 / Corollary 23).  Counting strategies — including the baselines
the paper measures against — are selected by name through the pluggable
registry in :mod:`repro.backends`.

Serving (:mod:`repro.service`): compiled kernels snapshot to a
content-addressed on-disk :class:`~repro.service.store.KernelStore`
(``ws.fingerprint()`` is the key; set ``$REPRO_KERNEL_STORE`` to turn it
on process-wide), a multiprocess :class:`~repro.service.engine.Engine`
routes requests by fingerprint affinity with deterministic per-request
RNG substreams, and ``repro serve`` / ``repro query`` expose the whole
facade as a batching JSON-lines service over stdio or TCP.
"""

from __future__ import annotations

from repro import backends
from repro.api import CacheStats, WitnessSet
from repro.automata import (
    EPSILON,
    NFA,
    DFA,
    compile_regex,
    determinize,
    is_unambiguous,
    minimize,
    word,
    word_str,
)
from repro.core import (
    Atom,
    CompiledDAG,
    Concat,
    DocProduct,
    ExactUniformSampler,
    GraphProduct,
    Plan,
    Product,
    Relabel,
    Star,
    Union,
    as_plan,
    lower_plan,
    FprasParameters,
    FprasState,
    LasVegasUniformGenerator,
    SpanLFunction,
    approx_count_nfa,
    compile_nfa,
    count_accepting_runs_of_length,
    count_words_exact,
    count_words_ufa,
    enumerate_words,
    enumerate_words_nfa,
    enumerate_words_ufa,
    sample_word_ufa,
)
from repro.errors import (
    AmbiguityError,
    BackendError,
    EmptyWitnessSetError,
    GenerationFailedError,
    InvalidAutomatonError,
    InvalidRegexError,
    ReproError,
    UnknownBackendError,
)
from repro.utils.rng import make_rng

__version__ = "1.3.0"


def __getattr__(name: str):
    """Lazy ``repro.service``: the serving stack (asyncio, sockets,
    multiprocessing) loads only when first touched, so plain library and
    CLI use never pays for it."""
    if name == "service":
        import repro.service as service

        return service
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    # the facade
    "WitnessSet",
    "CacheStats",
    "backends",
    # the serving subsystem (persistent kernels, worker pool, server)
    "service",
    # automata
    "NFA",
    "DFA",
    "EPSILON",
    "word",
    "word_str",
    "compile_regex",
    "determinize",
    "minimize",
    "is_unambiguous",
    # rng plumbing (the "seed or generator or nothing" convention)
    "make_rng",
    # core
    "enumerate_words",
    "enumerate_words_ufa",
    "enumerate_words_nfa",
    "count_words_ufa",
    "count_words_exact",
    "count_accepting_runs_of_length",
    "approx_count_nfa",
    "sample_word_ufa",
    "ExactUniformSampler",
    "CompiledDAG",
    "compile_nfa",
    # the symbolic plan IR (lazy products, lowered straight to the kernel)
    "Plan",
    "Atom",
    "Product",
    "Union",
    "Concat",
    "Star",
    "Relabel",
    "GraphProduct",
    "DocProduct",
    "as_plan",
    "lower_plan",
    "FprasState",
    "FprasParameters",
    "LasVegasUniformGenerator",
    "SpanLFunction",
    # errors
    "ReproError",
    "InvalidAutomatonError",
    "AmbiguityError",
    "BackendError",
    "UnknownBackendError",
    "EmptyWitnessSetError",
    "GenerationFailedError",
    "InvalidRegexError",
]
