"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Inconsistent layout, invalid channel parameters, or bad config values.

    ``key`` names the config-file key at fault, when there is one.
    """

    def __init__(self, message, key=None):
        self.key = key
        super().__init__(message)


class ConfigFileError(ConfigurationError):
    """Malformed or invalid config file; names the file and the line when
    they are known."""

    def __init__(self, message, line=None, path=None):
        self.reason, self.line, self.path = message, line, path
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class _StepError(ArithmeticError):
    """A numerical failure that can name the training step it happened at.

    ``model`` is the index of the failing model on a stack's leading axis
    (0 for a single model), when it is known; ``reason`` is the message
    without the step.
    """

    def __init__(self, message, step=None, model=None):
        self.reason, self.step, self.model = message, step, model
        if step is not None:
            message = f"{message} (at step {step})"
        super().__init__(message)


class DegenerateCodewordError(_StepError):
    """Encoder produced a (near-)zero vector that cannot be energy-normalized."""


class DivergenceError(_StepError):
    """Training or loss evaluation produced a non-finite value."""
