"""Exception hierarchy shared across the package.

CLI exit codes map onto this hierarchy: ConfigError -> 2, DataError -> 3,
DivergenceError -> 4; a dead pool worker's BrokenProcessPool -> 5.
"""


class PipelineError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PipelineError):
    """Invalid or incomplete configuration; names the offending key."""

    def __init__(self, key, message=None):
        self.key = key
        super().__init__(message or f"config error: {key}")

    def __reduce__(self):
        # by default unpickling (from a pool worker) passes the message as key
        return type(self), (self.key, self.args[0])


class DataError(PipelineError):
    """Problems with input data: bad files, bad shapes, bad ranges."""


class FormatError(DataError):
    """File does not match the expected container format."""


class CorruptionError(DataError):
    """Container header and payload disagree."""


class RangeError(DataError, ValueError):
    """Argument outside its valid range (bad band, bad window, k too large)."""


class ShapeError(DataError, ValueError):
    """Mismatched dimensions between related inputs."""


class EmptyInputError(DataError, ValueError):
    """Operation received no data to work on."""


class DegenerateInputError(DataError, ValueError):
    """Input is formally valid but numerically unusable (e.g. zero variance)."""


class StratificationError(DataError):
    """A cross-validation fold cannot contain every class."""


class DivergenceError(PipelineError):
    """Training produced a non-finite loss or non-finite weights.

    Carries the epoch, the last finite training loss (None when the first
    batch diverged) and the channel count; cross-validation adds its seed and
    fold.
    """

    def __init__(self, epoch, last_loss=None, n_channels=None, cv_seed=None,
                 fold=None):
        self.epoch = epoch
        self.last_loss = last_loss
        self.n_channels = n_channels
        self.cv_seed = cv_seed
        self.fold = fold
        super().__init__(epoch)

    def __str__(self):
        where = [f"{name} {value}" for name, value in (
            ("cv seed", self.cv_seed), ("fold", self.fold),
            ("channels", self.n_channels)) if value is not None]
        last = "none" if self.last_loss is None else f"{self.last_loss:.6g}"
        return (f"training diverged at epoch {self.epoch}"
                + (f" ({', '.join(where)})" if where else "")
                + f"; last finite loss {last}")
