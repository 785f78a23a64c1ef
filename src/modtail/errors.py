"""Exception hierarchy and domain rule shared by all modules."""


class ModtailError(Exception):
    """Base class for all library errors."""


class DomainError(ModtailError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericError(ModtailError, RuntimeError):
    """A numerical routine failed to reach its accuracy target."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConfigError(ModtailError, ValueError):
    """A run configuration failed validation."""


def in_domain(u, u_min):
    """u >= u_min up to a relative 1e-12, elementwise: every domain's rule,
    so a rounded left end (e**e, exp(ln u_star)) lies inside."""
    return u >= u_min * (1 - 1e-12)
