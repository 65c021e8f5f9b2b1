"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Invalid parameters, malformed inputs, or contract violations."""


class RootFindError(ValidationError):
    """Root finder failed to converge within its iteration cap."""


class HypothesisError(ValidationError):
    """Environment falls outside the hypotheses a report requires."""


class NonConvergentVarianceError(HypothesisError):
    """Per-site variance has a divergent tail; no variance fit is emitted."""


class TailTruncationError(RuntimeError):
    """A value fell below the stored tail; the truncation is too coarse."""


class DeficitBudgetError(RuntimeError):
    """Accumulated truncation deficit exceeded the configured budget."""


class RebuildError(RuntimeError):
    """An environment file's builder rebuilt other tails than the file records."""
