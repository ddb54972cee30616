"""The symbolic automaton-plan IR: lazy products lowered straight to the kernel.

The paper's headline applications are *compositions*: RPQ evaluation is
the synchronous product ``G × A_R`` (Section 4.2), spanner evaluation the
Lemma-13 document product ``N_{A,d}`` (Section 4.1), and the unambiguity
certificate itself is a self-product.  The eager pipeline materializes
the full cross product as an :class:`~repro.automata.nfa.NFA` — tuple
states, frozensets, validation — and then ``trim()`` throws most of it
away.  On large graphs or long documents that construction dominates
wall-clock and memory, not the counting.

This module makes the composition *symbolic*.  A :class:`Plan` is an
operator tree (:class:`Atom`, :class:`Product`, :class:`Union`,
:class:`Concat`, :class:`Star`, :class:`Relabel`, :class:`GraphProduct`,
:class:`DocProduct`) whose nodes expose one uniform on-the-fly
interface — ``initial`` / ``out_edges(state)`` / ``successors(state,
symbol)`` / ``finals`` — instead of a materialized transition set.
Composite states exist only while the lowering's frontier touches them.

:func:`lower_plan` is the one lowering: every kernel is built by it,
and a concrete automaton is lowered as its :class:`Atom`
(:func:`repro.core.kernel.compile_nfa` is that call).  It memoizes each
plan state's successor block exactly once, unrolls the memo with the
one layer function (:func:`repro.core.kernel.unroll_layers`: forward
reach, plus the Lemma 15 pruning in trimmed mode), and writes the
result *directly* into the integer-indexed CSR arrays of
:class:`~repro.core.kernel.CompiledDAG` — no intermediate NFA object
for composite inputs.  A composite lowering records a
:class:`LoweringStats` so callers (``WitnessSet.describe()``, the
``bench_lazy_product`` gate) can verify that no more states were ever
materialized than the exploration reached, and how that compares to the
nominal cross-product size the eager pipeline would have allocated; an
:class:`Atom` root has no product to report and records none.

Every plan is ε-free by construction: nodes that classically introduce
ε-transitions (:class:`Union`, :class:`Concat`, :class:`Star`) perform
the closure on the fly, Brzozowski-derivative style — the same move that
makes lazy regex engines (cf. :mod:`repro.automata.brzozowski`) avoid
materializing unreachable derivative states.

Interoperability: a plan implements enough of the :class:`NFA` read
interface (``initial`` / ``finals`` membership / ``out_edges`` /
``successors`` / ``alphabet`` / ``has_epsilon``) that the kernel and
the lazy self-product unambiguity check
(:func:`repro.automata.unambiguous.is_unambiguous`) read every source
through one code path.  :meth:`Plan.to_nfa` is the eager escape hatch
for algorithms that genuinely need a materialized automaton (the FPRAS
fallback on ambiguous instances, and the eager
:func:`repro.automata.operations.intersection`, which is
``Product(left, right).to_nfa().trim()``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Iterable, Iterator, Mapping, TypeAlias, cast

from repro.automata.nfa import NFA, State, Symbol
from repro.core.kernel import CompiledDAG, _unroll
from repro.errors import InvalidAutomatonError

if TYPE_CHECKING:
    from repro.graphdb.graph import GraphDatabase, Vertex
    from repro.spanners.eva import EVA

#: The successor memo shared between :func:`lower_plan` and
#: :class:`_MemoSource`: plan state → its (symbol, target) block.
_Adjacency: TypeAlias = "dict[State, tuple[tuple[Symbol, State], ...]]"


@dataclass(frozen=True)
class LoweringStats:
    """What :func:`lower_plan` touched, versus what eager would have built.

    Attributes
    ----------
    nominal_states:
        The cross-product state count the eager construction allocates
        (``|V|·|Q|`` for a graph product, ``|Q_L|·|Q_R|`` for an
        intersection, ...), before any trimming.
    explored_states:
        Distinct plan states whose successor blocks were computed — the
        only states that ever existed in memory.
    reached_states:
        Distinct plan states the forward exploration reached within
        ``n`` layers (a state can be reached at layer ``n`` without
        being expanded).  ``explored_states ≤ reached_states`` always:
        the lowering never materializes a state it did not reach.
    explored_edges:
        Total successor edges memoized during exploration.
    kernel_vertices / kernel_edges:
        Size of the compiled DAG actually handed to the algorithms
        (after trimmed-mode pruning).
    n / trimmed:
        The lowering request.
    """

    nominal_states: int
    explored_states: int
    reached_states: int
    explored_edges: int
    kernel_vertices: int
    kernel_edges: int
    n: int
    trimmed: bool

    def as_dict(self) -> dict[str, int | bool]:
        return {
            "nominal_states": self.nominal_states,
            "explored_states": self.explored_states,
            "reached_states": self.reached_states,
            "explored_edges": self.explored_edges,
            "kernel_vertices": self.kernel_vertices,
            "kernel_edges": self.kernel_edges,
            "n": self.n,
            "trimmed": self.trimmed,
        }


class _LazyFinals:
    """Set-like view of a plan's accepting states (membership only).

    The kernel and the lazy product explorations only ever ask ``state in
    finals``; answering through :meth:`Plan.is_final` keeps composite
    finals symbolic (no enumeration of accepting product states).  Each
    state's answer is memoized, so a view that is kept (as
    :class:`_MemoSource` keeps one) calls ``is_final`` once per distinct
    state.
    """

    __slots__ = ("_plan", "_memo")

    _plan: "Plan"
    _memo: dict[State, bool]

    def __init__(self, plan: "Plan") -> None:
        self._plan = plan
        self._memo = {}

    def __contains__(self, state: object) -> bool:
        answer = self._memo.get(state)
        if answer is None:
            answer = self._memo[state] = self._plan.is_final(state)
        return answer

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return f"<LazyFinals of {self._plan.describe()}>"


class Plan:
    """Base class: one node of the symbolic automaton-plan IR.

    Subclasses implement :attr:`initial`, :meth:`out_edges`,
    :meth:`is_final`, :attr:`alphabet` and :meth:`nominal_states`; the
    uniform derived interface (:meth:`successors`, :attr:`finals`,
    :meth:`accepts`, :meth:`to_nfa`, the ``&``/``|`` operator sugar)
    comes for free.  ``out_edges`` must yield *distinct* ``(symbol,
    target)`` pairs — the same contract :meth:`NFA.out_edges` satisfies —
    because the kernel lowering turns each pair into one CSR edge.
    """

    #: Plans are ε-free by construction (the NFA-interface contract).
    has_epsilon: bool = False

    @property
    def initial(self) -> State:
        raise NotImplementedError

    def out_edges(self, state: State) -> Iterator[tuple[Symbol, State]]:
        """Distinct ``(symbol, target)`` pairs leaving ``state`` — the
        on-the-fly successor interface every consumer walks."""
        raise NotImplementedError

    def is_final(self, state: State) -> bool:
        raise NotImplementedError

    @property
    def alphabet(self) -> frozenset[Symbol]:
        raise NotImplementedError

    def nominal_states(self) -> int:
        """The state count of the eager (cross-product) construction."""
        raise NotImplementedError

    def describe(self) -> str:
        """A short shape string for reports (`ws.describe()["plan"]`)."""
        return type(self).__name__

    # -- derived interface -------------------------------------------------

    @property
    def finals(self) -> _LazyFinals:
        """Membership-only view of the accepting states."""
        return _LazyFinals(self)

    def successors(self, state: State, symbol: Symbol) -> frozenset[State]:
        """Targets of ``state`` on ``symbol`` (the NFA-compatible form)."""
        return frozenset(t for s, t in self.out_edges(state) if s == symbol)

    def accepts(self, input_word: Iterable[Symbol]) -> bool:
        """On-the-fly subset simulation — no materialization.

        Steps with :meth:`successors`, so an :class:`Atom` answers from
        its automaton's transition index, as :meth:`NFA.accepts` does.
        """
        current: set[State] = {self.initial}
        for symbol in input_word:
            nxt: set[State] = set()
            for state in current:
                nxt |= self.successors(state, symbol)
            if not nxt:
                return False
            current = nxt
        return any(self.is_final(state) for state in current)

    def to_nfa(self) -> NFA:
        """Eagerly materialize the reachable fragment as an :class:`NFA`.

        The escape hatch for algorithms that need a concrete automaton
        (the ambiguous-instance FPRAS fallback, ``languages_equal``
        ground-truthing in tests).  Cost is the eager product cost the
        lazy pipeline otherwise avoids.
        """
        initial = self.initial
        states: set[State] = {initial}
        transitions: list[tuple[State, Symbol, State]] = []
        frontier: deque[State] = deque([initial])
        while frontier:
            state = frontier.popleft()
            for symbol, target in self.out_edges(state):
                transitions.append((state, symbol, target))
                if target not in states:
                    states.add(target)
                    frontier.append(target)
        finals = [state for state in states if self.is_final(state)]
        return NFA(states, self.alphabet, transitions, initial, finals)

    def __and__(self, other: "Plan | NFA | str") -> "Product":
        return Product(self, as_plan(other))

    def __or__(self, other: "Plan | NFA | str") -> "Union":
        return Union(self, as_plan(other))

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return f"<Plan {self.describe()}>"


def as_plan(source: "Plan | NFA | str") -> Plan:
    """Coerce an operand into a plan: plans pass through, NFAs wrap in
    :class:`Atom`, strings compile as regexes."""
    if isinstance(source, Plan):
        return source
    if isinstance(source, NFA):
        return Atom(source)
    if isinstance(source, str):
        from repro.automata.regex import compile_regex

        return Atom(compile_regex(source))
    raise InvalidAutomatonError(
        f"cannot build a plan from {type(source).__name__}; "
        "expected a Plan, NFA or regex string"
    )


class Atom(Plan):
    """A leaf: one concrete automaton (ε-eliminated at wrap time)."""

    __slots__ = ("nfa",)

    nfa: NFA

    def __init__(self, nfa: NFA) -> None:
        self.nfa = nfa.without_epsilon()

    @property
    def initial(self) -> State:
        return self.nfa.initial

    def out_edges(self, state: State) -> Iterator[tuple[Symbol, State]]:
        return self.nfa.out_edges(state)

    def successors(self, state: State, symbol: Symbol) -> frozenset[State]:
        return self.nfa.successors(state, symbol)

    def is_final(self, state: State) -> bool:
        return state in self.nfa.finals

    @property
    def alphabet(self) -> frozenset[Symbol]:
        return self.nfa.alphabet

    def nominal_states(self) -> int:
        return self.nfa.num_states

    def describe(self) -> str:
        return f"Atom(states={self.nfa.num_states})"


class Product(Plan):
    """Synchronous product / intersection: states are ``(left, right)``
    pairs, expanded only when the lowering frontier reaches them.

    The eager :func:`repro.automata.operations.intersection` is this
    node's trimmed :meth:`~Plan.to_nfa`, so the lazy lowering and the
    eager product compile to bit-identical kernels (the equivalence
    tests rely on this for seeded sampling comparisons).
    """

    __slots__ = ("left", "right")

    left: Plan
    right: Plan

    def __init__(self, left: "Plan | NFA | str", right: "Plan | NFA | str") -> None:
        self.left = as_plan(left)
        self.right = as_plan(right)

    @property
    def initial(self) -> State:
        return (self.left.initial, self.right.initial)

    def out_edges(self, state: State) -> Iterator[tuple[Symbol, State]]:
        left_state, right_state = cast("tuple[State, State]", state)
        for symbol, left_target in self.left.out_edges(left_state):
            for right_target in self.right.successors(right_state, symbol):
                yield symbol, (left_target, right_target)

    def successors(self, state: State, symbol: Symbol) -> frozenset[State]:
        left_state, right_state = cast("tuple[State, State]", state)
        return frozenset(
            (left_target, right_target)
            for left_target in self.left.successors(left_state, symbol)
            for right_target in self.right.successors(right_state, symbol)
        )

    def is_final(self, state: State) -> bool:
        pair = cast("tuple[State, State]", state)
        return self.left.is_final(pair[0]) and self.right.is_final(pair[1])

    @property
    def alphabet(self) -> frozenset[Symbol]:
        return self.left.alphabet & self.right.alphabet

    def nominal_states(self) -> int:
        return self.left.nominal_states() * self.right.nominal_states()

    def describe(self) -> str:
        return f"Product({self.left.describe()}, {self.right.describe()})"


class Union(Plan):
    """L(left) ∪ L(right) with the ε-fan-out performed on the fly.

    The classical construction adds a fresh initial state with
    ε-transitions into both operands; here the fresh state's successors
    are simply the merged successor blocks of the two operand initials,
    and it accepts iff either operand accepts ε.
    """

    __slots__ = ("left", "right")

    left: Plan
    right: Plan

    _INITIAL: ClassVar[tuple[str, int]] = ("∪", 0)

    def __init__(self, left: "Plan | NFA | str", right: "Plan | NFA | str") -> None:
        self.left = as_plan(left)
        self.right = as_plan(right)

    @property
    def initial(self) -> State:
        return self._INITIAL

    def out_edges(self, state: State) -> Iterator[tuple[Symbol, State]]:
        if state == self._INITIAL:
            for symbol, target in self.left.out_edges(self.left.initial):
                yield symbol, (0, target)
            for symbol, target in self.right.out_edges(self.right.initial):
                yield symbol, (1, target)
            return
        tag, inner = cast("tuple[int, State]", state)
        child = self.left if tag == 0 else self.right
        for symbol, target in child.out_edges(inner):
            yield symbol, (tag, target)

    def is_final(self, state: State) -> bool:
        if state == self._INITIAL:
            return self.left.is_final(self.left.initial) or self.right.is_final(
                self.right.initial
            )
        tag, inner = cast("tuple[int, State]", state)
        return (self.left if tag == 0 else self.right).is_final(inner)

    @property
    def alphabet(self) -> frozenset[Symbol]:
        return self.left.alphabet | self.right.alphabet

    def nominal_states(self) -> int:
        return self.left.nominal_states() + self.right.nominal_states() + 1

    def describe(self) -> str:
        return f"Union({self.left.describe()}, {self.right.describe()})"


class Concat(Plan):
    """L(left)·L(right) with the final→initial ε-bridge taken on the fly.

    Reading a symbol into a left-final state also offers the right
    operand's initial successors (the ε-closure of the textbook
    construction), so no ε-edges — and no unreachable right-side
    states — ever exist.
    """

    __slots__ = ("left", "right")

    left: Plan
    right: Plan

    def __init__(self, left: "Plan | NFA | str", right: "Plan | NFA | str") -> None:
        self.left = as_plan(left)
        self.right = as_plan(right)

    @property
    def initial(self) -> State:
        return (0, self.left.initial)

    def out_edges(self, state: State) -> Iterator[tuple[Symbol, State]]:
        tag, inner = cast("tuple[int, State]", state)
        if tag == 1:
            for symbol, target in self.right.out_edges(inner):
                yield symbol, (1, target)
            return
        # Left edges carry tag 0 and bridge edges tag 1, so the two
        # groups can never collide — no dedup needed (unlike Star, where
        # both groups share the child's tag).
        for symbol, target in self.left.out_edges(inner):
            yield symbol, (0, target)
        if self.left.is_final(inner):
            for symbol, target in self.right.out_edges(self.right.initial):
                yield symbol, (1, target)

    def is_final(self, state: State) -> bool:
        tag, inner = cast("tuple[int, State]", state)
        if tag == 1:
            return self.right.is_final(inner)
        return self.left.is_final(inner) and self.right.is_final(self.right.initial)

    @property
    def alphabet(self) -> frozenset[Symbol]:
        return self.left.alphabet | self.right.alphabet

    def nominal_states(self) -> int:
        return self.left.nominal_states() + self.right.nominal_states()

    def describe(self) -> str:
        return f"Concat({self.left.describe()}, {self.right.describe()})"


class Star(Plan):
    """L(child)* with the loop-back ε taken on the fly (Thompson star,
    hub state included so ε is accepted)."""

    __slots__ = ("child",)

    child: Plan

    _HUB: ClassVar[tuple[str, int]] = ("★", 0)

    def __init__(self, child: "Plan | NFA | str") -> None:
        self.child = as_plan(child)

    @property
    def initial(self) -> State:
        return self._HUB

    def out_edges(self, state: State) -> Iterator[tuple[Symbol, State]]:
        child = self.child
        if state == self._HUB:
            for symbol, target in child.out_edges(child.initial):
                yield symbol, (0, target)
            return
        _, inner = cast("tuple[int, State]", state)
        seen: set[tuple[Symbol, State]] = set()
        for symbol, target in child.out_edges(inner):
            edge = (symbol, (0, target))
            seen.add(edge)
            yield edge
        if child.is_final(inner):
            for symbol, target in child.out_edges(child.initial):
                edge = (symbol, (0, target))
                if edge not in seen:
                    seen.add(edge)
                    yield edge

    def is_final(self, state: State) -> bool:
        if state == self._HUB:
            return True
        _, inner = cast("tuple[int, State]", state)
        return self.child.is_final(inner)

    @property
    def alphabet(self) -> frozenset[Symbol]:
        return self.child.alphabet

    def nominal_states(self) -> int:
        return self.child.nominal_states() + 1

    def describe(self) -> str:
        return f"Star({self.child.describe()})"


class Relabel(Plan):
    """Symbol relabelling through an injective mapping, applied per edge."""

    __slots__ = ("child", "mapping", "_inverse")

    child: Plan
    mapping: dict[Symbol, Symbol]
    _inverse: dict[Symbol, Symbol]

    def __init__(self, child: "Plan | NFA | str", mapping: Mapping[Symbol, Symbol]) -> None:
        if len(set(mapping.values())) != len(mapping):
            raise InvalidAutomatonError("symbol mapping must be injective")
        self.child = as_plan(child)
        missing = self.child.alphabet - set(mapping)
        if missing:
            raise InvalidAutomatonError(
                f"mapping does not cover symbols {sorted(map(repr, missing))}"
            )
        self.mapping = dict(mapping)
        self._inverse = {new: old for old, new in self.mapping.items()}

    @property
    def initial(self) -> State:
        return self.child.initial

    def out_edges(self, state: State) -> Iterator[tuple[Symbol, State]]:
        mapping = self.mapping
        for symbol, target in self.child.out_edges(state):
            yield mapping[symbol], target

    def successors(self, state: State, symbol: Symbol) -> frozenset[State]:
        original = self._inverse.get(symbol)
        if original is None:
            return frozenset()
        return self.child.successors(state, original)

    def is_final(self, state: State) -> bool:
        return self.child.is_final(state)

    @property
    def alphabet(self) -> frozenset[Symbol]:
        return frozenset(self.mapping[s] for s in self.child.alphabet)

    def nominal_states(self) -> int:
        return self.child.nominal_states()

    def describe(self) -> str:
        return f"Relabel({self.child.describe()})"


class GraphProduct(Plan):
    """The RPQ product ``G × A_R`` of Section 4.2, never materialized.

    States are ``(vertex, query state)`` pairs; symbols are ``(label,
    target vertex)`` pairs so a word both *is* a path encoding and
    carries the label word (the paths-not-pairs semantics of footnote 1).
    Matches :func:`repro.graphdb.rpq.compile_rpq` state-for-state, but a
    pair exists only while the lowering frontier holds it — on a large
    graph the eager product allocates ``|V|·|Q|`` states before
    ``trim()`` discards the bulk, while this node's lowering only ever
    touches the pairs reachable from ``(source, q₀)`` within ``n``
    steps.
    """

    __slots__ = ("graph", "query", "source", "target", "_alphabet")

    graph: GraphDatabase
    query: NFA
    source: Vertex
    target: Vertex
    _alphabet: frozenset[Symbol] | None

    def __init__(
        self, graph: GraphDatabase, query: NFA, source: Vertex, target: Vertex
    ) -> None:
        from repro.errors import InvalidRelationInputError

        if source not in graph.vertices or target not in graph.vertices:
            raise InvalidRelationInputError("endpoints must be graph vertices")
        self.graph = graph
        self.query = query.without_epsilon()
        self.source = source
        self.target = target
        self._alphabet = None

    @property
    def initial(self) -> State:
        return (self.source, self.query.initial)

    def out_edges(self, state: State) -> Iterator[tuple[Symbol, State]]:
        vertex, q = cast("tuple[Vertex, State]", state)
        query = self.query
        for label, next_vertex in self.graph.out_edges(vertex):
            for q_next in query.successors(q, label):
                yield (label, next_vertex), (next_vertex, q_next)

    def successors(self, state: State, symbol: Symbol) -> frozenset[State]:
        vertex, q = cast("tuple[Vertex, State]", state)
        label, next_vertex = cast("tuple[str, Vertex]", symbol)
        if not self.graph.has_edge(vertex, label, next_vertex):
            return frozenset()
        return frozenset(
            (next_vertex, q_next) for q_next in self.query.successors(q, label)
        )

    def is_final(self, state: State) -> bool:
        vertex, q = cast("tuple[Vertex, State]", state)
        return vertex == self.target and q in self.query.finals

    @property
    def alphabet(self) -> frozenset[Symbol]:
        if self._alphabet is None:
            self._alphabet = frozenset(
                (label, target) for _, label, target in self.graph.edges
            )
        return self._alphabet

    def nominal_states(self) -> int:
        return self.graph.num_vertices * self.query.num_states

    def describe(self) -> str:
        return (
            f"GraphProduct(|V|={self.graph.num_vertices}, "
            f"|E|={self.graph.num_edges}, query_states={self.query.num_states})"
        )


class DocProduct(Plan):
    """The spanner document product ``N_{A,d}`` of Lemma 13 / Section 4.1.

    States are ``(eVA state, position)`` pairs plus the ``accept`` sink;
    symbols are marker sets (the witness encoding of Corollaries 6–7).
    Mirrors :func:`repro.spanners.evaluation.compile_eva` transition for
    transition, but the eager compiler allocates all ``|Q|·(n+1)``
    configuration states up front and trims afterwards — this node only
    ever yields the configurations a run can actually visit.
    """

    __slots__ = ("eva", "document", "_choices", "_options")

    eva: EVA
    document: str
    _choices: frozenset[Symbol]
    _options: dict[State, tuple[tuple[Symbol, State], ...]]

    _ACCEPT: ClassVar[tuple[str]] = ("accept",)

    def __init__(self, eva: EVA, document: str) -> None:
        eva.require_functional()
        self.eva = eva
        self.document = document
        self._choices = eva.marker_choices()
        # Per eVA state: the (marker set, state after markers) pairs a run
        # can take at one position — ∅ (stay put) plus each variable
        # transition.  Precomputed once so the per-configuration successor
        # walk does no marker-set scanning.
        self._options = {
            q: ((frozenset(), q),)
            + tuple((t.markers, t.target) for t in eva.variable_successors(q))
            for q in eva.states
        }

    @property
    def initial(self) -> State:
        return (self.eva.initial, 0)

    def out_edges(self, state: State) -> Iterator[tuple[Symbol, State]]:
        if state == self._ACCEPT:
            return
        q, position = cast("tuple[State, int]", state)
        eva = self.eva
        document = self.document
        n = len(document)
        seen: set[tuple[Symbol, State]] = set()
        for symbol, q_mid in self._options[q]:
            if position < n:
                for q_next in eva.letter_successors(q_mid, document[position]):
                    edge = (symbol, (q_next, position + 1))
                    if edge not in seen:
                        seen.add(edge)
                        yield edge
            elif q_mid in eva.finals:
                edge = (symbol, self._ACCEPT)
                if edge not in seen:
                    seen.add(edge)
                    yield edge

    def is_final(self, state: State) -> bool:
        return state == self._ACCEPT

    @property
    def alphabet(self) -> frozenset[Symbol]:
        return self._choices

    def nominal_states(self) -> int:
        return len(self.eva.states) * (len(self.document) + 1) + 1

    def describe(self) -> str:
        return (
            f"DocProduct(eva_states={len(self.eva.states)}, "
            f"doc_length={len(self.document)})"
        )


# ----------------------------------------------------------------------
# The fused lowering pass
# ----------------------------------------------------------------------


class _MemoSource:
    """The adjacency memo :func:`lower_plan` built, wearing the NFA read
    interface the kernel consumes.

    Every successor block computed during exploration is served from the
    memo; states that a later, longer lowering over the same shared memo
    meets first (a spectrum past ``n``) fall through to the plan and are
    memoized then.  This is what lets one CSR-construction code path
    serve both concrete NFAs and symbolic plans.  :meth:`successors`
    answers from a per-state symbol index, built once from the memoized
    block, and :attr:`finals` from a per-state memo of
    :meth:`Plan.is_final`.
    """

    __slots__ = ("plan", "adjacency", "finals", "_by_symbol")

    plan: Plan
    adjacency: _Adjacency
    finals: _LazyFinals
    _by_symbol: dict[State, dict[Symbol, frozenset[State]]]

    has_epsilon = False

    def __init__(self, plan: Plan, adjacency: _Adjacency) -> None:
        self.plan = plan
        self.adjacency = adjacency
        self.finals = plan.finals
        self._by_symbol = {}

    @property
    def initial(self) -> State:
        return self.plan.initial

    @property
    def alphabet(self) -> frozenset[Symbol]:
        return self.plan.alphabet

    def out_edges(self, state: State) -> tuple[tuple[Symbol, State], ...]:
        edges = self.adjacency.get(state)
        if edges is None:
            edges = tuple(self.plan.out_edges(state))
            self.adjacency[state] = edges
        return edges

    def successors(self, state: State, symbol: Symbol) -> frozenset[State]:
        index = self._by_symbol.get(state)
        if index is None:
            grouped: dict[Symbol, set[State]] = {}
            for edge_symbol, target in self.out_edges(state):
                grouped.setdefault(edge_symbol, set()).add(target)
            index = {s: frozenset(targets) for s, targets in grouped.items()}
            self._by_symbol[state] = index
        return index.get(symbol, frozenset())

    def __repr__(self) -> str:  # pragma: no cover - diagnostics
        return f"<MemoSource {self.plan.describe()} states={len(self.adjacency)}>"


def memoized_source(plan: "Plan | NFA | str") -> _MemoSource:
    """Wrap ``plan`` so each state's successor block is computed once.

    Used by consumers that revisit states many times (the self-product
    ambiguity walk); :func:`lower_plan` builds its own memo internally.
    """
    return _MemoSource(as_plan(plan), {})


def lower_plan(
    plan: "Plan | NFA | str",
    n: int,
    trimmed: bool = True,
    adjacency: _Adjacency | None = None,
) -> CompiledDAG:
    """Lower ``plan``'s length-``n`` unrolling straight into a kernel.

    The layers come from :func:`~repro.core.kernel.unroll_layers`, the
    one layer function every kernel uses, run over a memoized view of
    the plan: forward reach from the initial state (each state's
    successor block computed exactly once) and, when ``trimmed``, the
    Lemma 15 pruning.  :class:`~repro.core.kernel.CompiledDAG` then
    writes the CSR edge arrays from the memo — never from a
    materialized NFA.  The forward layers also feed the stats.

    The returned kernel is bit-identical (states, edge order, symbols) to
    lowering the eager product NFA of the same composition as an
    :class:`Atom`, so exact counts, spectra and seeded sampling streams
    agree with the eager pipeline; only the construction cost differs.
    ``kernel.lowering`` carries the :class:`LoweringStats` of a composite
    plan, and stays ``None`` for an :class:`Atom` root (an automaton's
    snapshot header keeps ``"lowering": null``).

    ``adjacency`` optionally supplies a successor memo shared across
    several lowerings of the *same plan* (the facade passes one dict for
    its trimmed and reachable kernels, so the exploration is paid once
    per witness set); the stats still report only the states this
    lowering's own forward pass reached.
    """
    plan = as_plan(plan)
    if adjacency is None:
        adjacency = {}
    source = _MemoSource(plan, adjacency)
    forward, live, exact = _unroll(source, n, trimmed)
    kernel = CompiledDAG(source, n, trimmed, layers=live, exact=exact)
    if isinstance(plan, Atom):
        return kernel
    reached: set[State] = set()
    reached.update(*forward)
    # Count against `reached` (not the raw memo) so a shared adjacency
    # dict from an earlier lowering never inflates this lowering's stats.
    explored = [state for state in reached if state in adjacency]
    kernel.lowering = LoweringStats(
        nominal_states=plan.nominal_states(),
        explored_states=len(explored),
        reached_states=len(reached),
        explored_edges=sum(len(adjacency[state]) for state in explored),
        kernel_vertices=kernel.vertex_count(),
        kernel_edges=kernel.edge_count(),
        n=n,
        trimmed=trimmed,
    )
    return kernel


__all__ = [
    "Plan",
    "Atom",
    "Product",
    "Union",
    "Concat",
    "Star",
    "Relabel",
    "GraphProduct",
    "DocProduct",
    "LoweringStats",
    "as_plan",
    "lower_plan",
    "memoized_source",
]
