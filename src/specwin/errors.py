"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes: configuration problems -> 2,
numerical infeasibility -> 3, I/O failures -> 4.
"""

__all__ = [
    "SpecwinError",
    "ConfigError",
    "JointNullSpaceError",
    "KernelSymmetryError",
    "EmptyWindowError",
    "SaturatedTraceError",
    "InfeasibleError",
]


class SpecwinError(Exception):
    """Base class for package errors."""


class ConfigError(SpecwinError):
    """Invalid configuration or invalid arguments wired from a config."""


class JointNullSpaceError(SpecwinError):
    """The forward and penalty operators share a null-space direction."""


class KernelSymmetryError(SpecwinError):
    """Convolution kernel is not doubly symmetric, so no DCT diagonalization."""


class EmptyWindowError(SpecwinError):
    """A spectral window received no indices (or no weight); `window` is its
    index, counted from 0, where the raiser names one."""

    def __init__(self, message: str, window: int | None = None) -> None:
        super().__init__(message)
        self.window = window


class SaturatedTraceError(SpecwinError):
    """A cross-validation denominator collapsed (effective dof ~ data size)."""


class InfeasibleError(SpecwinError):
    """An optimization could not find (or start from) a feasible point."""
