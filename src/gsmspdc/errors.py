"""Exception types shared across the package."""

from contextlib import contextmanager


class ConfigError(ValueError):
    """Invalid, missing, or inconsistent experiment configuration."""


@contextmanager
def section_errors(section: str):
    """Report a model's ValueError as a ConfigError that names [section]."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


class ConvergenceError(RuntimeError):
    """A quadrature or sampling scheme failed its self-consistency check."""


class FitError(RuntimeError):
    """A least-squares fit failed or the input data is degenerate."""
