"""Exception types shared across the package, and ``read_lines`` for text input files."""


class LosslabError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(LosslabError):
    """Shapes or model specs do not conform."""


class ParameterError(LosslabError):
    """An argument is outside its legal domain."""


class NumericError(LosslabError):
    """A public operation produced NaN or Inf."""


class DivergenceError(LosslabError):
    """Training hit a non-finite loss.  Carries the epoch index."""

    def __init__(self, epoch: int, message: str = ""):
        self.epoch = epoch
        super().__init__(message or f"non-finite loss at epoch {epoch}")


class FormatError(LosslabError):
    """A file does not match its declared format."""


def read_lines(path) -> list[str]:
    """The lines of the UTF-8 text file at ``path``; other bytes are a FormatError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from None


class DegenerateOutputError(LosslabError):
    """Model outputs are constant; similarity is undefined."""


class ConfigError(LosslabError):
    """A run configuration is invalid.  Carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")
