"""Exception types shared across the toolkit."""


class LpvsynError(Exception):
    """Base class for all toolkit errors."""


class DataFormatError(LpvsynError, ValueError):
    """A table file violates the documented schema.

    Carries the offending location (file, or file and line) when known.
    """

    def __init__(self, message, location=None):
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)
        self.location = location


class EstimationError(LpvsynError):
    """Nonparametric estimation failed; ``frequencies`` lists the bad points."""

    def __init__(self, message, frequencies=None):
        super().__init__(message)
        self.frequencies = list(frequencies) if frequencies is not None else []


class StabilizationError(LpvsynError):
    """A controller required to be stabilizing (or stable) is not."""


class ConfigError(LpvsynError):
    """Pipeline configuration is missing, malformed or inconsistent."""


class SynthesisInfeasibleError(LpvsynError):
    """No controller exists at the requested performance level."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SolverFailureError(LpvsynError):
    """Numerical failure in an optimization call, distinct from infeasibility."""


class CutRoundsExhaustedError(SolverFailureError):
    """The cutting-plane loop used every round without deciding feasibility;
    ``lp_solves`` counts the LPs it solved."""

    def __init__(self, message, lp_solves):
        super().__init__(message)
        self.lp_solves = lp_solves


class SimulationDivergedError(LpvsynError):
    """Closed-loop simulation overflowed; ``sample_index`` locates the blow-up."""

    def __init__(self, message, sample_index):
        super().__init__(f"{message} (sample {sample_index})")
        self.sample_index = sample_index
