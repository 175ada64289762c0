"""Exception types raised by the toolkit."""


class FanolapError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(FanolapError, ValueError):
    """Invalid input value, malformed model data, or malformed trace data."""


class DoublePoleSingularity(FanolapError):
    """Static pole couplings requested at, or numerically too close to, a
    degenerate pole, where they diverge and carry no meaning."""


class EqualWidthsSingularity(FanolapError):
    """Static two-resonance parameters requested for (numerically) equal
    widths, where the shared asymmetry parameter q is undefined."""


class NegativeAkError(FanolapError):
    """Complex asymmetry parameters requested where an A_k value is negative,
    so sqrt(A_k) is not real."""

    def __init__(self, a1, a2):
        self.a1 = float(a1)
        self.a2 = float(a2)
        super().__init__(
            "A values must be non-negative to form complex q parameters, "
            "got a1=%r, a2=%r" % (self.a1, self.a2)
        )


class NoFiniteSolution(FanolapError):
    """The requested condition has no finite solution in energy for the
    given background phase."""


class InsufficientData(FanolapError):
    """Too few trace points to form an initial guess or run a fit."""


class BadInitialGuess(FanolapError):
    """The starting parameters produce non-finite residuals."""
