"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Inconsistent layout, invalid channel parameters, or bad config values."""


class ConfigFileError(ConfigurationError):
    """Malformed config file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class _StepError(ArithmeticError):
    """A numerical failure that can name the training step it happened at."""

    def __init__(self, message, step=None):
        self.step = step
        if step is not None:
            message = f"{message} (at step {step})"
        super().__init__(message)


class DegenerateCodewordError(_StepError):
    """Encoder produced a (near-)zero vector that cannot be energy-normalized."""


class DivergenceError(_StepError):
    """Training or loss evaluation produced a non-finite value."""
