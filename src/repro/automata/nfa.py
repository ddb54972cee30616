"""Nondeterministic finite automata — the substrate of the whole library.

The paper's complete problems (Proposition 12) are

* ``MEM-NFA``: witnesses of ``(N, 0^k)`` are the length-``k`` words accepted
  by an NFA ``N``;
* ``MEM-UFA``: the same with ``N`` unambiguous.

Every algorithm in :mod:`repro.core` — enumeration, exact counting, exact
uniform generation, the FPRAS and the Las Vegas generator — operates on the
:class:`NFA` defined here.  The class is a *value type*: the transition
structure is frozen at construction and all "mutating" operations return
new automata.  Construction validates the automaton and notes whether it
has ε-transitions; the forward and backward transition indexes behind
:meth:`NFA.successors`, :meth:`NFA.out_edges` and their reverses are built
on the first query that needs them.  :meth:`NFA.trim` and
fingerprinting read the transition set itself, so an automaton that is
only trimmed or fingerprinted never builds them, such as the ε-free raw
automaton of a cold build or a stripped automaton whose kernels a warm
store restores.

Conventions
-----------
* Symbols are arbitrary hashable objects; the usual case is 1-character
  strings (``"0"``/``"1"`` for the paper's binary alphabet).
* Words are tuples of symbols.  :func:`word` converts a string to a word
  over 1-character symbols, and :func:`word_str` renders one back.
* ε-transitions are written with the :data:`EPSILON` sentinel.  The paper's
  #NFA problem is for ε-free automata; :meth:`NFA.without_epsilon` removes
  them with the standard closure construction, preserving the language.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Hashable, Iterable, Iterator, Mapping, Sequence

from repro.errors import InvalidAutomatonError

State = Hashable
Symbol = Hashable
Word = tuple


class _Epsilon:
    """Singleton sentinel for ε-transitions."""

    _instance: "_Epsilon | None" = None

    def __new__(cls) -> "_Epsilon":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "ε"

    def __reduce__(self):  # keep singleton across pickling
        return (_Epsilon, ())


EPSILON = _Epsilon()

Transition = tuple  # (State, Symbol | _Epsilon, State)


def word(text: Iterable[Symbol]) -> Word:
    """Normalize a string or iterable of symbols into a word (tuple)."""
    return tuple(text)


def word_str(w: Word) -> str:
    """Render a word of 1-character string symbols back into a string."""
    return "".join(str(symbol) for symbol in w)


class NFA:
    """An immutable nondeterministic finite automaton.

    Parameters
    ----------
    states:
        Iterable of state labels (hashable, distinct).
    alphabet:
        Iterable of input symbols; must not contain :data:`EPSILON`.
    transitions:
        Iterable of ``(source, symbol, target)`` triples; ``symbol`` may be
        :data:`EPSILON`.
    initial:
        The initial state (the paper's machines have a single initial
        state; use an ε-fan-out from a fresh state to model several).
    finals:
        Iterable of accepting states.

    Raises
    ------
    InvalidAutomatonError
        If any transition or distinguished state refers outside the
        declared sets.
    """

    __slots__ = (
        "_states",
        "_alphabet",
        "_transitions",
        "_initial",
        "_finals",
        "_delta",
        "_rdelta",
        "_has_epsilon",
        "_hash",
    )

    def __init__(
        self,
        states: Iterable[State],
        alphabet: Iterable[Symbol],
        transitions: Iterable[Transition],
        initial: State,
        finals: Iterable[State],
    ):
        self._states = frozenset(states)
        self._alphabet = frozenset(alphabet)
        self._initial = initial
        self._finals = frozenset(finals)
        transition_set = frozenset(
            (source, symbol, target) for source, symbol, target in transitions
        )
        self._transitions = transition_set
        self._validate()
        self._hash = None
        # _delta and _rdelta stay unset until the first query needs them.

    if not TYPE_CHECKING:  # a misspelt attribute stays a type error

        def __getattr__(self, name: str) -> Any:
            # Reached only when normal lookup misses, i.e. for an index
            # slot that is still unset; once filled, reading it costs a
            # slot load.
            if name == "_delta" or name == "_rdelta":
                delta, rdelta = self._build_indexes()
                return delta if name == "_delta" else rdelta
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )

    def _build_indexes(self) -> tuple[dict, dict]:
        """Build the forward and backward transition indexes and publish both.

        Executor threads may share an automaton, so each index is complete
        before either slot is set.  Two threads racing here both build the
        same indexes, and either result is correct.
        """
        delta: dict[State, dict[Symbol, set[State]]] = {}
        rdelta: dict[State, dict[Symbol, set[State]]] = {}
        for source, symbol, target in self._transitions:
            delta.setdefault(source, {}).setdefault(symbol, set()).add(target)
            rdelta.setdefault(target, {}).setdefault(symbol, set()).add(source)
        forward = {
            source: {symbol: frozenset(targets) for symbol, targets in by_symbol.items()}
            for source, by_symbol in delta.items()
        }
        backward = {
            target: {symbol: frozenset(sources) for symbol, sources in by_symbol.items()}
            for target, by_symbol in rdelta.items()
        }
        self._rdelta = backward
        self._delta = forward
        return forward, backward

    def _validate(self) -> None:
        """Check every reference against the declared sets, and note in
        the same pass over the transitions whether any is an ε-move."""
        states, alphabet = self._states, self._alphabet
        if EPSILON in alphabet:
            raise InvalidAutomatonError("EPSILON cannot be an alphabet symbol")
        if self._initial not in states:
            raise InvalidAutomatonError(f"initial state {self._initial!r} not in states")
        missing_finals = self._finals - states
        if missing_finals:
            raise InvalidAutomatonError(f"final states not in states: {missing_finals!r}")
        has_epsilon = False
        for source, symbol, target in self._transitions:
            if source not in states:
                raise InvalidAutomatonError(f"transition source {source!r} not in states")
            if target not in states:
                raise InvalidAutomatonError(f"transition target {target!r} not in states")
            if symbol is EPSILON:
                has_epsilon = True
            elif symbol not in alphabet:
                raise InvalidAutomatonError(
                    f"transition symbol {symbol!r} not in alphabet"
                )
        self._has_epsilon = has_epsilon

    # ------------------------------------------------------------------
    # Basic structure accessors
    # ------------------------------------------------------------------

    @property
    def states(self) -> frozenset:
        return self._states

    @property
    def alphabet(self) -> frozenset:
        return self._alphabet

    @property
    def transitions(self) -> frozenset:
        return self._transitions

    @property
    def initial(self) -> State:
        return self._initial

    @property
    def finals(self) -> frozenset:
        return self._finals

    @property
    def num_states(self) -> int:
        return len(self._states)

    @property
    def num_transitions(self) -> int:
        return len(self._transitions)

    @property
    def has_epsilon(self) -> bool:
        return self._has_epsilon

    def successors(self, state: State, symbol: Symbol) -> frozenset:
        """States reachable from ``state`` by one ``symbol`` transition."""
        return self._delta.get(state, {}).get(symbol, frozenset())

    def predecessors(self, state: State, symbol: Symbol) -> frozenset:
        """States with a ``symbol`` transition into ``state``."""
        return self._rdelta.get(state, {}).get(symbol, frozenset())

    def out_symbols(self, state: State) -> frozenset:
        """Symbols (possibly including EPSILON) labelling edges out of ``state``."""
        return frozenset(self._delta.get(state, {}))

    def out_edges(self, state: State) -> Iterator[tuple[Symbol, State]]:
        """Iterate ``(symbol, target)`` over edges leaving ``state``."""
        for symbol, targets in self._delta.get(state, {}).items():
            for target in targets:
                yield symbol, target

    def in_edges(self, state: State) -> Iterator[tuple[Symbol, State]]:
        """Iterate ``(symbol, source)`` over edges entering ``state``."""
        for symbol, sources in self._rdelta.get(state, {}).items():
            for source in sources:
                yield symbol, source

    # ------------------------------------------------------------------
    # Equality / hashing / repr
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NFA):
            return NotImplemented
        return (
            self._states == other._states
            and self._alphabet == other._alphabet
            and self._transitions == other._transitions
            and self._initial == other._initial
            and self._finals == other._finals
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                (self._states, self._alphabet, self._transitions, self._initial, self._finals)
            )
        return self._hash

    def __repr__(self) -> str:
        return (
            f"NFA(states={self.num_states}, alphabet={sorted(map(repr, self._alphabet))}, "
            f"transitions={self.num_transitions}, finals={len(self._finals)})"
        )

    # ------------------------------------------------------------------
    # ε-closure and membership
    # ------------------------------------------------------------------

    def epsilon_closure(self, states: Iterable[State]) -> frozenset:
        """All states reachable from ``states`` via ε-transitions (incl. themselves)."""
        closure = set(states)
        frontier = deque(closure)
        while frontier:
            state = frontier.popleft()
            for target in self.successors(state, EPSILON):
                if target not in closure:
                    closure.add(target)
                    frontier.append(target)
        return frozenset(closure)

    def step(self, states: Iterable[State], symbol: Symbol) -> frozenset:
        """One symbol step from a state set, with ε-closure on both sides."""
        current = self.epsilon_closure(states)
        after = set()
        for state in current:
            after.update(self.successors(state, symbol))
        return self.epsilon_closure(after)

    def accepts(self, input_word: Iterable[Symbol]) -> bool:
        """Decide whether the automaton accepts ``input_word``.

        Runs the standard on-the-fly subset simulation: O(|w|·m²) time,
        O(m) space.
        """
        current = self.epsilon_closure({self._initial})
        for symbol in input_word:
            if symbol is EPSILON:
                raise InvalidAutomatonError("input word contains EPSILON")
            current = self.step(current, symbol)
            if not current:
                return False
        return bool(current & self._finals)

    def reachable_sets_by_layer(self, input_word: Sequence[Symbol]) -> list[frozenset]:
        """The subset-simulation trajectory: sets of states after each prefix.

        ``result[i]`` is the ε-closed set of states reachable by reading
        ``input_word[:i]``.  Used by the FPRAS's membership tests (checking
        whether a sampled prefix is a member of a layer vertex) and by the
        spanner/RPQ decoders.
        """
        current = self.epsilon_closure({self._initial})
        trajectory = [current]
        for symbol in input_word:
            current = self.step(current, symbol)
            trajectory.append(current)
        return trajectory

    def accepting_runs(self, input_word: Sequence[Symbol], limit: int | None = None):
        """Enumerate accepting runs (state sequences) on ``input_word``.

        A run is a tuple ``(q_0, ..., q_k)`` with ``q_0`` the initial state,
        ``q_k`` final and each step a transition on the matching symbol.
        Only defined for ε-free automata (runs and words are in sync then).
        Exponentially many runs may exist; ``limit`` caps the enumeration.
        Used by the ambiguity diagnostics and the naive Monte Carlo baseline.
        """
        if self._has_epsilon:
            raise InvalidAutomatonError("accepting_runs requires an ε-free automaton")
        w = tuple(input_word)
        found = 0
        stack: list[tuple[tuple, int]] = [((self._initial,), 0)]
        while stack:
            run, position = stack.pop()
            if position == len(w):
                if run[-1] in self._finals:
                    yield run
                    found += 1
                    if limit is not None and found >= limit:
                        return
                continue
            for target in self.successors(run[-1], w[position]):
                stack.append((run + (target,), position + 1))

    def count_accepting_runs(self, input_word: Sequence[Symbol]) -> int:
        """Count accepting runs on ``input_word`` by dynamic programming.

        Linear in ``|w|·|δ|``; this is the quantity whose equality with 1
        for every accepted word characterizes unambiguity.
        """
        if self._has_epsilon:
            raise InvalidAutomatonError("count_accepting_runs requires an ε-free automaton")
        counts: dict[State, int] = {self._initial: 1}
        for symbol in input_word:
            nxt: dict[State, int] = {}
            for state, ways in counts.items():
                for target in self.successors(state, symbol):
                    nxt[target] = nxt.get(target, 0) + ways
            counts = nxt
        return sum(ways for state, ways in counts.items() if state in self._finals)

    # ------------------------------------------------------------------
    # Structural transformations (all return new NFAs)
    # ------------------------------------------------------------------

    def without_epsilon(self) -> "NFA":
        """Equivalent ε-free NFA via the closure construction.

        For each state ``q`` and symbol ``a``, the new transitions are
        ``q --a--> r`` whenever ``q --ε*--> p --a--> r`` in the original;
        ``q`` becomes final if its ε-closure meets the final set.  The
        language is preserved exactly.
        """
        if not self._has_epsilon:
            return self
        new_transitions: set[Transition] = set()
        new_finals: set[State] = set()
        for state in self._states:
            closure = self.epsilon_closure({state})
            if closure & self._finals:
                new_finals.add(state)
            for intermediate in closure:
                for symbol, targets in self._delta.get(intermediate, {}).items():
                    if symbol is EPSILON:
                        continue
                    for target in targets:
                        new_transitions.add((state, symbol, target))
        return NFA(self._states, self._alphabet, new_transitions, self._initial, new_finals)

    def reachable_states(self) -> frozenset:
        """States reachable from the initial state (any symbols, incl. ε)."""
        seen = {self._initial}
        frontier = deque(seen)
        while frontier:
            state = frontier.popleft()
            for by_symbol in (self._delta.get(state, {}),):
                for targets in by_symbol.values():
                    for target in targets:
                        if target not in seen:
                            seen.add(target)
                            frontier.append(target)
        return frozenset(seen)

    def coreachable_states(self) -> frozenset:
        """States from which some final state is reachable."""
        seen = set(self._finals)
        frontier = deque(seen)
        while frontier:
            state = frontier.popleft()
            for by_symbol in (self._rdelta.get(state, {}),):
                for sources in by_symbol.values():
                    for source in sources:
                        if source not in seen:
                            seen.add(source)
                            frontier.append(source)
        return frozenset(seen)

    def trim(self) -> "NFA":
        """Restrict to useful states (reachable and co-reachable).

        One pass over the transitions lists each state's targets (over
        any symbol, ε included).  A walk forward from the initial state
        finds the reachable states and records the edges it crosses; a
        walk backward from the reachable finals along those edges finds
        the useful ones, since a path from a reachable state never
        leaves the reachable states.  Neither walk reads the transition
        indexes, so trimming builds neither.  An automaton whose states
        are all useful is returned as it is.

        If the initial state itself is useless the result is a canonical
        single-state automaton with the empty language (the initial state
        must exist by definition).
        """
        targets: dict[State, list[State]] = {state: [] for state in self._states}
        for source, _, target in self._transitions:
            targets[source].append(target)
        reached = {self._initial}
        sources: dict[State, list[State]] = {state: [] for state in self._states}
        frontier = [self._initial]
        while frontier:
            state = frontier.pop()
            for target in targets[state]:
                sources[target].append(state)
                if target not in reached:
                    reached.add(target)
                    frontier.append(target)
        useful = set(self._finals.intersection(reached))
        frontier = list(useful)
        while frontier:
            for source in sources[frontier.pop()]:
                if source not in useful:
                    useful.add(source)
                    frontier.append(source)
        if self._initial not in useful:
            return NFA([self._initial], self._alphabet, [], self._initial, [])
        if len(useful) == len(self._states):
            return self
        transitions = [
            (source, symbol, target)
            for source, symbol, target in self._transitions
            if source in useful and target in useful
        ]
        return NFA(useful, self._alphabet, transitions, self._initial, self._finals & useful)

    def with_unique_final(self, final_label: State = ("__final__",)) -> "NFA":
        """Equivalent NFA with exactly one final state and no ε-transitions.

        This is the normalization step of Section 5.3.1: add a fresh final
        state, ε-transitions from the old finals, then remove ε.  The label
        of the fresh state can be customized to avoid collisions.
        """
        if len(self._finals) == 1 and not self._has_epsilon:
            return self
        if final_label in self._states:
            raise InvalidAutomatonError(f"final label {final_label!r} collides with a state")
        states = set(self._states) | {final_label}
        transitions = set(self._transitions)
        for old_final in self._finals:
            transitions.add((old_final, EPSILON, final_label))
        widened = NFA(states, self._alphabet, transitions, self._initial, [final_label])
        collapsed = widened.without_epsilon()
        # ε-removal makes states whose closure meets {final_label} final, so
        # the result can again have several final states; but it accepts the
        # same language and is ε-free, which is what the downstream layered
        # algorithms need.  For a genuinely unique final state, the unrolled
        # DAG of repro.core.unroll introduces s_final — that construction is
        # what Sections 5.3.1 and 6.2 actually consume.
        return collapsed

    def renumbered(self) -> "NFA":
        """Isomorphic copy with states relabelled 0..m-1 (BFS order from initial).

        Canonicalizes instances for hashing/serialization and makes error
        messages stable.  Unreachable states keep deterministic labels after
        the reachable block (sorted by repr).
        """
        order: dict[State, int] = {}
        frontier = deque([self._initial])
        order[self._initial] = 0
        while frontier:
            state = frontier.popleft()
            by_symbol = self._delta.get(state, {})
            for symbol in sorted(by_symbol, key=repr):
                for target in sorted(by_symbol[symbol], key=repr):
                    if target not in order:
                        order[target] = len(order)
                        frontier.append(target)
        for state in sorted(self._states - set(order), key=repr):
            order[state] = len(order)
        transitions = [
            (order[source], symbol, order[target])
            for source, symbol, target in self._transitions
        ]
        return NFA(
            range(len(order)),
            self._alphabet,
            transitions,
            order[self._initial],
            [order[state] for state in self._finals],
        )

    def map_symbols(self, mapping: Mapping[Symbol, Symbol]) -> "NFA":
        """Relabel alphabet symbols through ``mapping`` (a bijection)."""
        if len(set(mapping.values())) != len(mapping):
            raise InvalidAutomatonError("symbol mapping must be injective")
        new_alphabet = {mapping[symbol] for symbol in self._alphabet}
        transitions = [
            (source, symbol if symbol is EPSILON else mapping[symbol], target)
            for source, symbol, target in self._transitions
        ]
        return NFA(self._states, new_alphabet, transitions, self._initial, self._finals)

    def is_deterministic(self) -> bool:
        """True if ε-free and every (state, symbol) has at most one successor."""
        if self._has_epsilon:
            return False
        for by_symbol in self._delta.values():
            for targets in by_symbol.values():
                if len(targets) > 1:
                    return False
        return True

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty_language(cls, alphabet: Iterable[Symbol]) -> "NFA":
        """The automaton accepting no word at all."""
        return cls(["q0"], alphabet, [], "q0", [])

    @classmethod
    def only_empty_word(cls, alphabet: Iterable[Symbol]) -> "NFA":
        """The automaton accepting exactly the empty word ε."""
        return cls(["q0"], alphabet, [], "q0", ["q0"])

    @classmethod
    def single_word(cls, input_word: Iterable[Symbol], alphabet: Iterable[Symbol] | None = None) -> "NFA":
        """The automaton accepting exactly one word."""
        w = tuple(input_word)
        alpha = frozenset(alphabet) if alphabet is not None else frozenset(w)
        states = list(range(len(w) + 1))
        transitions = [(i, symbol, i + 1) for i, symbol in enumerate(w)]
        return cls(states, alpha, transitions, 0, [len(w)])

    @classmethod
    def full_language(cls, alphabet: Iterable[Symbol]) -> "NFA":
        """The automaton accepting every word over ``alphabet`` (Σ*)."""
        alpha = frozenset(alphabet)
        return cls(["q0"], alpha, [("q0", symbol, "q0") for symbol in alpha], "q0", ["q0"])
