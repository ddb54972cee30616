"""The symbolic automaton-plan IR and its fused lazy lowering.

Two layers of guarantees:

* unit tests: each plan node's language equals the eager construction it
  replaces, the on-the-fly interface behaves, the lowering's stats tell
  the truth (never more states materialized than reached);
* randomized equivalence: across ~50 random (graph, RPQ) instances, ~50
  (eVA, document) instances and ~50 NFA intersection pairs, the
  lazy-lowered kernel and the eager product-NFA pipeline agree on
  ``count_exact``, the length spectrum and — on unambiguous instances,
  where the kernels are bit-identical — the exact seeded
  ``sample_batch`` stream.
"""

from __future__ import annotations

import pytest

from repro.api import WitnessSet
from repro.automata import operations as ops
from repro.automata.dfa import languages_equal
from repro.automata.nfa import NFA, word
from repro.automata.random_gen import random_nfa
from repro.automata.regex import compile_regex
from repro.automata.unambiguous import is_unambiguous
from repro.core.kernel import compile_nfa
from repro.core.plan import (
    Atom,
    Concat,
    DocProduct,
    GraphProduct,
    Plan,
    Product,
    Relabel,
    Star,
    Union,
    as_plan,
    lower_plan,
)
from repro.errors import InvalidAutomatonError
from repro.graphdb.graph import grid_graph, random_graph
from repro.graphdb.rpq import RPQ, compile_rpq
from repro.spanners.eva import extraction_eva
from repro.spanners.evaluation import compile_eva
from repro.utils.rng import make_rng

AB = list("ab")


def _eager_rpq_ws(graph, pattern, source, target, n):
    return WitnessSet.from_nfa(compile_rpq(graph, RPQ(pattern), source, target), n)


# ----------------------------------------------------------------------
# Plan nodes: language equality against the eager algebra
# ----------------------------------------------------------------------


class TestPlanNodes:
    @pytest.fixture
    def left(self):
        return compile_regex("(ab|ba)*", alphabet=AB)

    @pytest.fixture
    def right(self):
        return compile_regex("a(a|b)*", alphabet=AB)

    def test_product_language(self, left, right):
        plan = Product(left, right)
        assert languages_equal(plan.to_nfa(), ops.intersection(left, right))

    def test_union_language(self, left, right):
        assert languages_equal(Union(left, right).to_nfa(), ops.union(left, right))

    def test_concat_language(self, left, right):
        assert languages_equal(
            Concat(left, right).to_nfa(), ops.concatenate(left, right)
        )

    def test_star_language(self, right):
        assert languages_equal(Star(right).to_nfa(), ops.star(right))

    def test_relabel_language(self, left):
        mapping = {"a": "x", "b": "y"}
        assert languages_equal(
            Relabel(left, mapping).to_nfa(), left.map_symbols(mapping)
        )

    def test_relabel_rejects_non_injective(self, left):
        with pytest.raises(InvalidAutomatonError):
            Relabel(left, {"a": "x", "b": "x"})

    def test_operator_sugar(self, left, right):
        assert isinstance(as_plan(left) & right, Product)
        assert isinstance(as_plan(left) | right, Union)

    def test_as_plan_coercions(self, left):
        assert isinstance(as_plan(left), Atom)
        assert isinstance(as_plan("(a|b)*"), Atom)
        plan = as_plan(left)
        assert as_plan(plan) is plan
        with pytest.raises(InvalidAutomatonError):
            as_plan(42)

    def test_plan_accepts_on_the_fly(self, left, right):
        plan = Product(left, right)
        assert plan.accepts(word("abba"))
        assert not plan.accepts(word("baba"))  # not in a(a|b)*
        assert not plan.accepts(word("aa"))  # not in (ab|ba)*

    def test_nested_composition_lowers(self, left, right):
        # (L ∩ R)* ∪ L — three levels of symbolic nesting, one lowering.
        plan = Union(Star(Product(left, right)), Atom(left))
        kernel = lower_plan(plan, 6)
        eager = plan.to_nfa()
        assert kernel.total_runs >= 1
        assert (
            WitnessSet.from_plan(plan, 6).count_exact()
            == WitnessSet.from_nfa(eager, 6).count_exact()
        )


# ----------------------------------------------------------------------
# The fused lowering: stats honesty and kernel identity
# ----------------------------------------------------------------------


class TestLowering:
    def test_never_materializes_more_than_reached(self):
        g = grid_graph(5, 5)
        ws = WitnessSet.from_rpq(g, "(r|d)*", (0, 0), (4, 4), 8)
        stats = ws.describe()["lowering"]
        assert stats["explored_states"] <= stats["reached_states"]
        assert stats["reached_states"] <= stats["nominal_states"]
        assert stats["kernel_vertices"] <= stats["explored_states"] * (ws.n + 1)

    def test_lowering_stats_attached(self):
        plan = Product("(ab|ba)*", "(a|b)*a(a|b)*")
        kernel = lower_plan(plan, 8)
        assert kernel.lowering is not None
        assert kernel.lowering.trimmed
        assert kernel.lowering.n == 8
        assert kernel.lowering.kernel_vertices == kernel.vertex_count()
        assert kernel.lowering.kernel_edges == kernel.edge_count()

    def test_trimmed_and_reachable_modes(self):
        plan = as_plan(compile_regex("(ab|ba)*", alphabet=AB))
        trimmed = lower_plan(plan, 6, trimmed=True)
        reachable = lower_plan(plan, 6, trimmed=False)
        assert trimmed.total_runs == reachable.spectrum_counts()[6]
        longer = lower_plan(plan, 10, trimmed=False)
        eager = WitnessSet.from_regex("(ab|ba)*", 10, alphabet="ab")
        assert longer.spectrum_counts() == [
            eager.spectrum(10)[length] for length in range(11)
        ]

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            lower_plan(as_plan("(a|b)*"), -1)

    def test_kernel_cached_per_plan_with_stats(self):
        ws = WitnessSet.from_intersection("(ab|ba)*", "(a|b)*", 6)
        first = ws.kernel
        assert ws.kernel is first
        assert ws.stats.hits.get("kernel", 0) >= 1
        assert ws.stats.misses.get("kernel", 0) == 1

    def test_trimmed_and_reachable_kernels_share_exploration(self):
        ws = WitnessSet.from_intersection("(ab|ba)*", "(a|b)*", 6)
        trimmed = ws.kernel
        reachable = ws.reachable_kernel
        # Both lowerings feed one successor memo (same forward states),
        # and the stats stay per-lowering honest regardless of sharing.
        assert trimmed.nfa.adjacency is reachable.nfa.adjacency
        assert trimmed.lowering.explored_states <= trimmed.lowering.reached_states
        assert reachable.lowering.explored_states <= reachable.lowering.reached_states

    @pytest.mark.parametrize("kind", ["nfa", "regex"])
    def test_automaton_sources_share_exploration(self, kind):
        # NFA-backed sets lower through the same memo as plans: the
        # trimmed and reachable kernels read one successor memo.
        if kind == "nfa":
            ws = WitnessSet.from_nfa(compile_regex("(ab|ba)*a?", alphabet=AB), 6)
        else:
            ws = WitnessSet.from_regex("(ab|ba)*a?", 6, alphabet="ab")
        trimmed = ws.kernel
        reachable = ws.reachable_kernel
        assert trimmed.nfa.adjacency is reachable.nfa.adjacency
        assert trimmed.lowering is None and reachable.lowering is None

    @pytest.mark.parametrize("trimmed", [True, False])
    def test_compile_nfa_is_the_atom_lowering(self, trimmed, rng):
        # The one lowering: compiling an automaton is lowering its Atom,
        # byte for byte, and an Atom root records no LoweringStats.
        automata = [
            compile_regex("(ab|ba)*(a|b)?", alphabet=AB, method="thompson"),
            random_nfa(6, density=1.6, rng=rng),
            compile_regex("a(a|b)*b", alphabet=AB),
        ]
        for nfa in automata:
            compiled = compile_nfa(nfa, 7, trimmed)
            lowered = lower_plan(Atom(nfa), 7, trimmed)
            assert compiled.lowering is None and lowered.lowering is None
            compiled.forward_counts()
            lowered.forward_counts()
            assert compiled.to_bytes() == lowered.to_bytes()

    def test_direct_constructors_reject_foreign_plan_kernel(self):
        from repro.baselines.montecarlo import uniform_run_sampler
        from repro.core.fpras import FprasState

        other = lower_plan(as_plan("b*"), 5, trimmed=False)
        nfa = compile_regex("(a|b)*a", alphabet=AB)
        with pytest.raises(InvalidAutomatonError):
            FprasState(nfa, 5, kernel=other)
        with pytest.raises(InvalidAutomatonError):
            uniform_run_sampler(nfa, 5, kernel=lower_plan(as_plan("b*"), 5))


# ----------------------------------------------------------------------
# Randomized equivalence: lazy lowering vs eager product NFA
# ----------------------------------------------------------------------

RPQ_PATTERNS = ["(a|b)*", "a(a|b)*b", "(ab)*", "a*b*", "(a|ab)*", "b(a|b)*a"]


class TestLazyRpqEquivalence:
    @pytest.mark.parametrize("case", range(50))
    def test_lazy_agrees_with_eager(self, case):
        rng = make_rng(1000 + case)
        g = random_graph(7, labels=AB, density=1.5, rng=rng)
        vertices = sorted(g.vertices)
        source = vertices[case % len(vertices)]
        target = vertices[(case * 3 + 1) % len(vertices)]
        pattern = RPQ_PATTERNS[case % len(RPQ_PATTERNS)]
        n = 3 + case % 3

        lazy = WitnessSet.from_rpq(g, pattern, source, target, n)
        eager = _eager_rpq_ws(g, pattern, source, target, n)

        assert lazy.count_exact() == eager.count_exact()
        assert lazy.spectrum() == eager.spectrum()
        assert lazy.is_unambiguous == eager.is_unambiguous

        stats = lazy.describe()["lowering"]
        assert stats["explored_states"] <= stats["reached_states"]

        if lazy.is_unambiguous and lazy.nonempty:
            # Identical kernels ⇒ identical seeded draw streams.
            lazy_words = [tuple(p.steps) for p in lazy.sample_batch(10, rng=7)]
            eager_words = [tuple(w) for w in eager.sample_batch(10, rng=7)]
            assert lazy_words == eager_words


DOCS = ["abab", "aabba", "ab ab", "bbb", "a b ab", "abba ab", "ababab", " ab "]


class TestLazySpannerEquivalence:
    @pytest.mark.parametrize("case", range(50))
    def test_lazy_agrees_with_eager(self, case):
        rng = make_rng(2000 + case)
        alphabet = "ab "
        document = DOCS[case % len(DOCS)] + "".join(
            rng.choice(alphabet) for _ in range(case % 5)
        )
        prefix = ["a", "b", "ab", ""][case % 4]
        eva = extraction_eva(prefix, "x", "ab", alphabet)

        lazy = WitnessSet.from_spanner(eva, document)
        eager = WitnessSet.from_nfa(compile_eva(eva, document), len(document) + 1)

        assert lazy.count_exact() == eager.count_exact()
        assert lazy.spectrum() == eager.spectrum()
        assert lazy.is_unambiguous == eager.is_unambiguous
        if lazy.is_unambiguous and lazy.nonempty:
            lazy_mappings = lazy.sample_batch(8, rng=11)
            eager_words = eager.sample_batch(8, rng=11)
            assert [lazy.encode(m) for m in lazy_mappings] == eager_words


class TestFromIntersectionEquivalence:
    @pytest.mark.parametrize("case", range(50))
    def test_agrees_with_eager_intersection(self, case):
        a = random_nfa(5, alphabet=AB, density=1.2, rng=3000 + case)
        b = random_nfa(4, alphabet=AB, density=1.2, rng=4000 + case)
        n = 3 + case % 4

        lazy = WitnessSet.from_intersection(a, b, n)
        eager = WitnessSet.from_nfa(ops.intersection(a, b), n)

        assert lazy.count_exact() == eager.count_exact()
        assert lazy.spectrum() == eager.spectrum()
        assert lazy.is_unambiguous == eager.is_unambiguous
        if lazy.is_unambiguous and lazy.nonempty:
            assert lazy.sample_batch(8, rng=5) == eager.sample_batch(8, rng=5)
        # Lazy membership agrees with the eager automaton.
        for w in lazy.words(limit=5):
            assert lazy.contains(w)
            assert eager.stripped.accepts(w)


class TestLazyUnambiguityCheck:
    @pytest.mark.parametrize("case", range(20))
    def test_plan_check_matches_materialized(self, case):
        a = random_nfa(5, alphabet=AB, density=1.3, rng=5000 + case)
        b = random_nfa(4, alphabet=AB, density=1.3, rng=6000 + case)
        plan = Product(a, b)
        assert is_unambiguous(plan) == is_unambiguous(plan.to_nfa().trim())


# ----------------------------------------------------------------------
# Facade integration details
# ----------------------------------------------------------------------


class TestPlanBackedWitnessSet:
    def test_describe_reports_plan_shape(self):
        ws = WitnessSet.from_intersection("(ab|ba)*", "(a|b)*aa(a|b)*", 10)
        facts = ws.describe()
        assert facts["source"] == "intersection"
        assert facts["plan"].startswith("Product(")
        assert facts["lowering"]["nominal_states"] >= facts["lowering"]["explored_states"]
        # "states" counts distinct product states (the automaton-size
        # analog), not the unrolled per-layer vertices.
        assert facts["states"] <= facts["lowering"]["reached_states"]
        assert facts["lowering"]["kernel_vertices"] == ws.kernel.vertex_count()

    def test_requires_nfa_or_plan(self):
        from repro.errors import InvalidRelationInputError

        with pytest.raises(InvalidRelationInputError):
            WitnessSet(None, 3)

    def test_plan_positional_argument(self):
        ws = WitnessSet(Product("(ab|ba)*", "(a|b)*"), 6)
        assert ws.plan is not None
        assert ws.nfa is None
        assert ws.count_exact() == WitnessSet.from_regex("(ab|ba)*", 6).count_exact()

    def test_ambiguous_plan_fallbacks_materialize(self):
        # (a|aa)* ∩ a* is ambiguous: FPRAS count and enumeration go
        # through the materialized fallback, and still agree with naive.
        ws = WitnessSet.from_intersection("(a|aa)*", "a*", 6)
        assert not ws.is_unambiguous
        assert ws.count_exact() == 1
        assert list(ws.words()) == [tuple("aaaaaa")]
        estimate = ws.count(backend="fpras", delta=0.4, rng=0)
        assert estimate == pytest.approx(1.0, rel=0.6)

    def test_empty_intersection(self):
        ws = WitnessSet.from_intersection("aa", "ab", 2)
        assert not ws.nonempty
        assert ws.count_exact() == 0
        assert ws.sample(rng=0) is None

    def test_rpq_evaluator_exposes_plan(self):
        from repro.graphdb.rpq import RpqEvaluator

        g = grid_graph(3, 3)
        evaluator = RpqEvaluator(g, RPQ("(r|d)*"), (0, 0), (2, 2), 4)
        assert isinstance(evaluator.plan, GraphProduct)
        assert evaluator.count_exact() == 6
        assert isinstance(evaluator.nfa, NFA)  # materialized on demand

    def test_spanner_evaluator_exposes_plan(self):
        from repro.spanners.evaluation import SpannerEvaluator

        eva = extraction_eva("a", "x", "b", "ab")
        evaluator = SpannerEvaluator(eva, "abba")
        assert isinstance(evaluator.plan, DocProduct)
        assert evaluator.count_exact() == len(list(evaluator.mappings()))
