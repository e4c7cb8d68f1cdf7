"""Exception types shared across the package.

The CLI maps these onto process exit codes; library code raises them
directly so callers can distinguish bad input from numerical failure.
"""


class SamAttrError(Exception):
    """Base class for all package errors."""


class InvalidInputError(SamAttrError):
    """An argument violates an operation's preconditions."""


class ConfigError(SamAttrError):
    """A configuration value or file is malformed or inconsistent."""


class DivergenceError(SamAttrError):
    """A numerical iteration diverged or missed its tolerance (training loss
    blow-up, Neumann runaway, a GMRES solve that did not converge)."""


class FormatError(SamAttrError):
    """A serialized file failed structural validation (magic, version, size)."""
