"""Core algorithms: the paper's primary contribution.

Layout (paper section → module):

* §2 relations / problems        → :mod:`repro.core.relations`
* §3 transducers, Lemma 13       → :mod:`repro.core.transducers`
* §3 SpanL, transducer relations → :mod:`repro.core.classes`
* §5 reductions (Prop. 11)       → :mod:`repro.core.reductions`
* §5.2 self-reducibility (ψ)     → :mod:`repro.core.selfreduce`
* §5.3.1 Algorithm 1             → :mod:`repro.core.enumeration`
* §6.2 unrolling, Lemma 15       → :mod:`repro.core.unroll` (paper-facing names),
                                   :mod:`repro.core.kernel` (``unroll_layers`` and
                                   the array kernel every algorithm runs on)
* symbolic plan IR, lazy lowering→ :mod:`repro.core.plan`
* §5.3.2 exact counting          → :mod:`repro.core.exact`
* §5.3.3 exact uniform sampling  → :mod:`repro.core.exact_sampler`
* §6 FPRAS (Algorithms 2/4/5)    → :mod:`repro.core.fpras`
* Corollary 23 (PLVUG)           → :mod:`repro.core.plvug`
"""

from repro.core.unroll import (
    accepted_word_exists,
    lemma15_graph,
    unroll,
    unroll_trimmed,
)
from repro.core.kernel import CompiledDAG, compile_nfa
from repro.core.plan import (
    Atom,
    Concat,
    DocProduct,
    GraphProduct,
    Intersect,
    LoweringStats,
    Plan,
    Product,
    Relabel,
    Star,
    Union,
    as_plan,
    lower_plan,
    memoized_source,
)
from repro.core.exact import (
    backward_run_table,
    count_accepting_runs_of_length,
    count_words_exact,
    count_words_ufa,
    forward_run_table,
    length_spectrum,
    run_count_by_word,
)
from repro.core.enumeration import (
    algorithm1_page,
    enumerate_words,
    enumerate_words_dag,
    enumerate_words_nfa,
    enumerate_words_ufa,
)
from repro.core.selfreduce import SelfReduction, ell, empty_word_is_witness, psi, sigma
from repro.core.exact_sampler import (
    ExactUniformSampler,
    sample_word_ufa,
    sample_word_ufa_or_none,
    sample_word_ufa_via_psi,
)
from repro.core.fpras import (
    FprasDiagnostics,
    FprasParameters,
    FprasState,
    approx_count_nfa,
)
from repro.core.plvug import LasVegasUniformGenerator
from repro.core.relations import AutomatonBackedRelation, CompiledInstance
from repro.core.reductions import (
    MemNfaRelation,
    MemUfaRelation,
    WitnessPreservingReduction,
    completeness_reduction,
)
from repro.core.transducers import (
    BLANK,
    CompilationReport,
    ConfigGraphTransducer,
    TMTransition,
    Transducer,
    TuringTransducer,
    compile_to_nfa,
    outputs_brute_force,
)
from repro.core.classes import SpanLFunction, TransducerRelation
from repro.core.spectrum import SpectrumSolver, pad_automaton, strip_padding
from repro.core.almost_uniform import AlmostUniformGenerator, total_variation_from_uniform

__all__ = [
    "CompiledDAG",
    "compile_nfa",
    "Plan",
    "Atom",
    "Product",
    "Intersect",
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
    "unroll",
    "unroll_trimmed",
    "lemma15_graph",
    "accepted_word_exists",
    "count_words_ufa",
    "count_words_exact",
    "count_accepting_runs_of_length",
    "forward_run_table",
    "backward_run_table",
    "length_spectrum",
    "run_count_by_word",
    "enumerate_words",
    "algorithm1_page",
    "enumerate_words_ufa",
    "enumerate_words_nfa",
    "enumerate_words_dag",
    "psi",
    "ell",
    "sigma",
    "empty_word_is_witness",
    "SelfReduction",
    "ExactUniformSampler",
    "sample_word_ufa",
    "sample_word_ufa_or_none",
    "sample_word_ufa_via_psi",
    "FprasState",
    "FprasParameters",
    "FprasDiagnostics",
    "approx_count_nfa",
    "LasVegasUniformGenerator",
    "AutomatonBackedRelation",
    "CompiledInstance",
    "WitnessPreservingReduction",
    "MemNfaRelation",
    "MemUfaRelation",
    "completeness_reduction",
    "Transducer",
    "ConfigGraphTransducer",
    "TuringTransducer",
    "TMTransition",
    "BLANK",
    "CompilationReport",
    "compile_to_nfa",
    "outputs_brute_force",
    "TransducerRelation",
    "SpanLFunction",
    "SpectrumSolver",
    "pad_automaton",
    "strip_padding",
    "AlmostUniformGenerator",
    "total_variation_from_uniform",
]
