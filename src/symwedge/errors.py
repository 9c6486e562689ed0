"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
capacity problems (enumeration caps, an entry where no candidate direction
clears tau) with 3.
"""


class SymwedgeError(Exception):
    """Base class for package-specific errors."""


class DomainError(SymwedgeError, ValueError):
    """A coordinate violates a domain requirement (outside the box, not positive, ...)."""


class SizeLimitError(SymwedgeError, ValueError):
    """An input exceeds a hard algorithmic size guard."""


class CapacityError(SymwedgeError):
    """An enumeration would exceed the configured capacity cap."""


class BuildError(SymwedgeError):
    """Tabulator construction failed."""


class DirectionSearchError(BuildError):
    """No candidate projection direction clears tau for some wedge entry."""


class InversionError(SymwedgeError):
    """Power sums do not correspond to a real point multiset."""


class ConfigError(SymwedgeError, ValueError):
    """Invalid or unparsable experiment configuration."""
