"""Exception hierarchy for edgefol."""


class EdgefolError(Exception):
    """Base class for all edgefol errors."""


# --- jet validation / sampling ---

class JetFormatError(EdgefolError):
    """Malformed jet record: unknown keys, bad array shapes, degree overflow."""


class NonFinite(JetFormatError):
    """A coefficient is NaN or infinite."""


class ZeroCuspidalCurvature(EdgefolError):
    """|b03| at or below the zero tolerance; the map is not a cuspidal edge."""


class NegativeLimitingNormalCurvature(EdgefolError):
    """b20 < 0; outside the admitted normal form."""


class SamplingExhausted(EdgefolError):
    """Rejection sampler hit its iteration cap; scenario margins inconsistent."""


# --- surface geometry ---

class HigherTermsPresent(EdgefolError):
    """Operation requires the truncated remainder h to vanish."""


# --- BDE engine ---

class DegenerateDiscriminant(EdgefolError):
    """delta(0) = 0 with d(delta)(0) = 0 but nonzero coefficients: outside the
    regular/fold/all-vanishing trichotomy."""


class DiscriminantNearZero(EdgefolError):
    """Cubic discriminant too close to zero for a reliable root-type split."""


class CommonRoot(EdgefolError):
    """The singularity cubic and its companion quadratic share a root; the
    topological classification hypotheses fail."""


class HessianNonNegative(EdgefolError):
    """det Hess delta(0,0) >= 0; classification requires a Morse saddle."""


class InvariantViolation(EdgefolError):
    """An internally impossible sign configuration was produced."""


class FiberNotConverged(EdgefolError):
    """A Newton solve for a point of M ended with |F| above tolerance."""


class PropositionHypothesisViolated(EdgefolError):
    """One or more closed-form classification hypotheses fail for this jet."""

    def __init__(self, failed: list[str]):
        self.failed = list(failed)
        super().__init__("hypotheses violated: " + ", ".join(self.failed))


# --- rendering / CLI ---

class EmptyPortrait(EdgefolError):
    """Portrait contains no curves to render."""


class ConfigError(EdgefolError):
    """Invalid command-line configuration."""
