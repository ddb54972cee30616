"""Pluggable solver-backend registry for :class:`repro.api.WitnessSet`.

The paper's pipeline is one architecture with several interchangeable
counting strategies: the exact algorithms of RelationUL, the FPRAS of
Theorem 22, and the baselines it is measured against (naive Monte Carlo,
the KSM95-style quasi-polynomial schedule, Karp–Luby for DNF).  This
module makes those strategies first-class *backends*: named objects a
:class:`~repro.api.WitnessSet` dispatches to via ``ws.count(backend=...)``,
so benchmarks and callers select a strategy by name and new strategies
(parallel, sharded, approximate-with-different-guarantees) plug in
without touching the facade.

Built-in backends
-----------------

==============  =======  ==============================================
name            exact    strategy
==============  =======  ==============================================
``exact``       yes      run-count DP (unambiguous) / subset counter
``naive``       yes      brute-force word enumeration (ground truth)
``fpras``       no       the paper's #NFA FPRAS (Theorem 22)
``montecarlo``  no       §6.1 path-sampling estimator (fixed budget)
``kannan``      no       the same estimator at the KSM95 schedule
``karp_luby``   no       the classical DNF FPRAS [KL83] (DNF sources)
==============  =======  ==============================================

Registering a custom backend::

    from repro import backends

    class MyBackend(backends.SolverBackend):
        name = "mine"
        def count(self, witness_set, **options):
            return ...

    backends.register(MyBackend())
    ws.count(backend="mine")
"""

from __future__ import annotations

import random

from repro.errors import BackendError, UnknownBackendError
from repro.utils.rng import make_rng


class SolverBackend:
    """One counting strategy, dispatchable by name.

    Subclasses set :attr:`name`, optionally :attr:`exact` (whether
    :meth:`count` returns exact integers rather than estimates) and
    :attr:`requires_source` (a :attr:`WitnessSet.source` kind the backend
    is restricted to, e.g. ``"dnf"`` for Karp–Luby), and implement
    :meth:`count`.

    Backends execute on the witness set's compiled kernel
    (:class:`~repro.core.kernel.CompiledDAG`): the facade compiles the
    instance once and caches a trimmed kernel (``witness_set.kernel``)
    and a reachable-mode one (``witness_set.reachable_kernel``), and
    automaton-walking strategies consume those instead of re-unrolling.

    Orthogonally to the *counting strategy* chosen here, every kernel
    carries its own *execution backend* (pure Python or the NumPy
    vectorized path, see :mod:`repro.core.accel`): the facade's
    ``kernel_backend=`` selection flows through its cached kernels into
    whichever solver backend runs on them, with bit-identical results.
    """

    #: Registry key; also what callers pass as ``backend=``.
    name: str = "backend"
    #: True when :meth:`count` returns the exact count.
    exact: bool = False
    #: Restrict to witness sets of this :attr:`~repro.api.WitnessSet.source`
    #: kind (``None`` = applicable to every witness set).
    requires_source: str | None = None

    def count(self, witness_set, **options):
        """Count (or estimate) ``|W|`` for the given witness set."""
        raise NotImplementedError

    def check_applicable(self, witness_set) -> None:
        """Raise :class:`BackendError` when this backend cannot run."""
        if self.requires_source is not None and witness_set.source != self.requires_source:
            raise BackendError(
                f"backend {self.name!r} requires a {self.requires_source!r}-sourced "
                f"witness set, got source {witness_set.source!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        kind = "exact" if self.exact else "approximate"
        return f"<SolverBackend {self.name!r} ({kind})>"


_REGISTRY: dict[str, SolverBackend] = {}


def register(backend: SolverBackend, replace: bool = False) -> SolverBackend:
    """Add ``backend`` to the registry under ``backend.name``.

    Returns the backend (usable as a class decorator on instances).
    Raises :class:`BackendError` on name collisions unless ``replace``.
    """
    if not isinstance(backend, SolverBackend):
        raise BackendError(
            f"backends must be SolverBackend instances, got {type(backend).__name__}"
        )
    if backend.name in _REGISTRY and not replace:
        raise BackendError(
            f"backend {backend.name!r} is already registered (pass replace=True to override)"
        )
    _REGISTRY[backend.name] = backend
    return backend


def unregister(name: str) -> None:
    """Remove a backend (no-op when absent) — test/plugin hygiene."""
    _REGISTRY.pop(name, None)


def get(name: str) -> SolverBackend:
    """Look up a backend by name; unknown names raise with the listing."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownBackendError(name, available=tuple(_REGISTRY)) from None


def available() -> tuple[str, ...]:
    """Sorted names of every registered backend."""
    return tuple(sorted(_REGISTRY))


# ----------------------------------------------------------------------
# Built-in backends
# ----------------------------------------------------------------------


class ExactBackend(SolverBackend):
    """The paper's exact route: run-count DP over the compiled kernel
    when unambiguous, else the subset-construction counter (exponential
    worst case)."""

    name = "exact"
    exact = True

    def count(self, witness_set, **options):
        return witness_set.count_exact()


class NaiveBackend(SolverBackend):
    """Brute-force enumeration — the ground-truth oracle for small sets."""

    name = "naive"
    exact = True

    def count(self, witness_set, **options):
        from repro.baselines.naive import brute_force_count

        return brute_force_count(witness_set.stripped, witness_set.n)


class FprasBackend(SolverBackend):
    """Theorem 22's #NFA FPRAS, reusing the witness set's cached sketch
    (which itself executes on the cached reachable-mode kernel)."""

    name = "fpras"

    def count(
        self,
        witness_set,
        delta: float | None = None,
        rng: random.Random | int | None = None,
        **options,
    ):
        return witness_set.fpras_state(delta=delta, rng=rng).count_estimate


class MonteCarloBackend(SolverBackend):
    """The §6.1 unbiased path-sampling estimator at a fixed budget."""

    name = "montecarlo"

    def count(
        self,
        witness_set,
        samples: int = 2000,
        rng: random.Random | int | None = None,
        **options,
    ):
        from repro.baselines.montecarlo import naive_montecarlo_count

        estimate = naive_montecarlo_count(
            witness_set.stripped,
            witness_set.n,
            samples=samples,
            rng=make_rng(rng),
            kernel=witness_set.kernel,
        )
        return estimate.estimate


class KannanBackend(SolverBackend):
    """The KSM95-style comparator: the same estimator at the
    quasi-polynomial sampling schedule."""

    name = "kannan"

    def count(
        self,
        witness_set,
        delta: float | None = None,
        rng: random.Random | int | None = None,
        **options,
    ):
        from repro.baselines.kannan import kannan_style_count

        estimate = kannan_style_count(
            witness_set.stripped,
            witness_set.n,
            delta=delta if delta is not None else witness_set.delta,
            rng=make_rng(rng),
            **options,
        )
        return estimate.estimate


class KarpLubyBackend(SolverBackend):
    """The classical DNF FPRAS [KL83]; needs the source formula, so it is
    restricted to witness sets built by :meth:`WitnessSet.from_dnf`."""

    name = "karp_luby"
    requires_source = "dnf"

    def count(
        self,
        witness_set,
        delta: float | None = None,
        rng: random.Random | int | None = None,
        **options,
    ):
        from repro.baselines.karp_luby import karp_luby_count

        return karp_luby_count(
            witness_set.instance,
            delta=delta if delta is not None else witness_set.delta,
            rng=make_rng(rng),
            **options,
        )


for _backend in (
    ExactBackend(),
    NaiveBackend(),
    FprasBackend(),
    MonteCarloBackend(),
    KannanBackend(),
    KarpLubyBackend(),
):
    register(_backend)


__all__ = [
    "SolverBackend",
    "register",
    "unregister",
    "get",
    "available",
    "ExactBackend",
    "NaiveBackend",
    "FprasBackend",
    "MonteCarloBackend",
    "KannanBackend",
    "KarpLubyBackend",
]
