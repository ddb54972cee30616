"""Exception hierarchy for the :mod:`repro` library.

The paper's framework treats malformed inputs in a precise way: an input
that is not correctly encoded simply has an *empty witness set* (Section
5.2).  At the Python API level we are stricter: constructing an invalid
object raises one of the exceptions below, so that bugs surface early
instead of silently producing empty answers.  The paper's ⊥ for an
empty witness set survives where it is asked for: ``WitnessSet.sample()``
with no ``k`` returns ``None``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class InvalidAutomatonError(ReproError):
    """An automaton definition violates a structural requirement.

    Examples: a transition mentions a state that is not declared, a symbol
    outside the declared alphabet, or an initial/final state missing from
    the state set.
    """


class AmbiguityError(ReproError):
    """An operation that requires an unambiguous NFA received an ambiguous one.

    The constant-delay enumerator, the exact counter and the exact uniform
    sampler of Section 5.3 are only correct on unambiguous NFAs; feeding
    them an ambiguous automaton would silently over-count, so we refuse.
    """


class EmptyWitnessSetError(ReproError):
    """A sampler was asked for a witness but the witness set is empty.

    Corresponds to the paper's special symbol ``⊥`` returned by GEN(R) when
    ``W_R(x) = ∅``.  Callers that prefer the symbolic convention can use
    the ``sample_or_none`` variants instead of catching this.
    """


class GenerationFailedError(ReproError):
    """A Las Vegas generator exhausted its retry budget without a sample.

    The PLVUG of Corollary 23 fails each independent attempt with
    probability < 1/2; after ``r`` attempts the failure probability is
    below ``2^-r``.  This error reports how many attempts were made.
    """

    def __init__(self, attempts: int, message: str | None = None):
        self.attempts = attempts
        super().__init__(
            message
            or f"Las Vegas generation failed after {attempts} attempts; "
            "this is astronomically unlikely unless the retry budget is tiny "
            "or the estimates are badly miscalibrated."
        )


class BackendError(ReproError):
    """A solver backend could not run on the witness set it was given.

    Example: the Karp–Luby backend is only defined for DNF-sourced
    witness sets; selecting it for a regex language raises this.
    """


class UnknownBackendError(BackendError):
    """A backend name is not present in the solver-backend registry."""

    def __init__(self, name: str, available: tuple = ()):
        self.name = name
        self.available = tuple(available)
        listing = ", ".join(sorted(map(str, self.available))) or "none"
        super().__init__(
            f"unknown solver backend {name!r}; registered backends: {listing}"
        )


class InvalidRegexError(ReproError):
    """A regular expression could not be parsed."""

    def __init__(self, pattern: str, position: int, message: str):
        self.pattern = pattern
        self.position = position
        super().__init__(f"invalid regex at position {position}: {message} (in {pattern!r})")


class InvalidRelationInputError(ReproError):
    """An input string is not a valid encoding for the relation at hand.

    The paper's convention (Section 5.2) is that such inputs have no
    witnesses; this exception carries that information for callers that
    want to distinguish "empty language" from "garbage input".
    """


class NotFunctionalError(ReproError):
    """A variable-set automaton is not functional (some accepting run is invalid).

    Evaluation of non-functional eVAs is NP-hard (Section 4.1), so the
    spanner evaluator refuses them.
    """


class InconsistentBDDError(ReproError):
    """An nOBDD violates the consistency promise of Section 4.3.

    For some assignment there are paths reaching both the 0-sink and the
    1-sink, so the represented function is ill-defined.
    """
