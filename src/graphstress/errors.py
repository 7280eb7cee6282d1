"""Exception vocabulary shared by all modules.

Every operator failure mode has a named class so callers (and the CLI's
per-cell error log) can distinguish them without string matching.
"""


class StressError(Exception):
    """Base class for all harness errors."""


# -- dataset ingestion / graph model --------------------------------------

class MissingFile(StressError):
    pass


class LengthMismatch(StressError):
    pass


class AsymmetricGraph(StressError):
    pass


class BadId(StressError):
    pass


class DirectedGraph(StressError):
    pass


# -- corruption ------------------------------------------------------------

class EmptyTrainMask(StressError):
    pass


class NonFiniteFeature(StressError):
    pass


class BadProbability(StressError):
    pass


# -- split construction -----------------------------------------------------

class EmptyLabeledSet(StressError):
    pass


class MissingYear(StressError):
    pass


class MissingScaffoldId(StressError):
    pass


# -- imbalance ---------------------------------------------------------------

class TooFewClasses(StressError):
    pass


# -- metrics -----------------------------------------------------------------

class EmptyEvalSet(StressError):
    pass


class MissingPrediction(StressError):
    pass


class OneClassOnly(StressError):
    pass


class EmptyQuerySet(StressError):
    pass


# -- fairness ------------------------------------------------------------------

class EmptyGroup(StressError):
    pass


class DegenerateGroup(StressError):
    pass


# -- interpretation ---------------------------------------------------------

class MissingNodeScore(StressError):
    pass


class EmptySubgraph(StressError):
    pass


class SeedCountMismatch(StressError):
    pass


# -- aggregation / reporting ---------------------------------------------------

class EmptyInput(StressError):
    pass


class AllUndefined(StressError):
    pass


# -- refmodel -------------------------------------------------------------------

class NoTrainLabels(StressError):
    pass


# -- CLI / pipeline ---------------------------------------------------------------

class ConfigError(StressError):
    pass


class MissingInput(StressError):
    pass


class PartialFailure(StressError):
    """At least one requested cell failed; carries the per-cell error list."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__(f"{len(self.failures)} cell(s) failed")
