"""Exception hierarchy shared across the package.

CLI exit codes map onto this hierarchy: ConfigError -> 2, DataError -> 3,
DivergenceError -> 4.

A value rule is a (test, wanted) pair, owned by the code that enforces it
(with check); harness.CONFIG_RULES reads it from there.
"""

import math
import numbers


class PipelineError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PipelineError):
    """Invalid or incomplete configuration; names the offending key."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(message)


class DataError(PipelineError):
    """Problems with input data: bad files, bad shapes, bad ranges."""


class FormatError(DataError):
    """File does not match the expected container format."""


class CorruptionError(DataError):
    """Container header and payload disagree."""


class RangeError(DataError, ValueError):
    """Argument outside its valid range (bad band, bad window, k too large)."""


def number(v) -> bool:
    """A finite real; true and false are not numbers."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and (isinstance(v, numbers.Integral) or math.isfinite(v)))


def integer(lo: int) -> tuple:
    """The rule of an integer >= lo; true and false are not integers."""
    return (lambda v: isinstance(v, numbers.Integral)
            and not isinstance(v, bool) and v >= lo), f"an integer >= {lo}"


POSITIVE = (lambda v: number(v) and v > 0, "a number > 0")


def nonempty_str(v) -> bool:
    """A non-empty str."""
    return type(v) is str and v != ""


def list_of(test):
    """A non-empty list or tuple whose items each pass test."""
    return lambda v: (type(v) in (list, tuple) and len(v) > 0
                      and all(map(test, v)))


def _plural(wanted: str) -> str:
    """What each of several values must be: 'a number > 0' -> 'numbers > 0'."""
    for one in ("a non-empty list", "an integer", "a number"):
        wanted = wanted.replace(one, one.partition(" ")[2] + "s")
    return wanted


def list_rule(rule: tuple) -> tuple:
    """The rule of a non-empty list whose items each pass rule."""
    return list_of(rule[0]), "a non-empty list of " + _plural(rule[1])


def pair(lo: float, hi: float = math.inf) -> tuple:
    """The rule of [a, b]: two finite numbers, lo <= a < b <= hi."""
    return (lambda v: list_of(number)(v) and len(v) == 2
            and lo <= v[0] < v[1] <= hi,
            f"[a, b] with {lo:g} <= a < b"
            + (f" <= {hi:g}" if hi < math.inf else ""))


def by_class(rule: tuple) -> tuple:
    """The rule of a JSON object of class ids "0", "1", ... to rule's values."""
    return (lambda v: type(v) is dict and len(v) > 0 and all(
        nonempty_str(k) and k.isascii() and k.isdecimal()
        and (k == "0" or k[0] != "0") and rule[0](x) for k, x in v.items()),
        "an object of class ids '0', '1', ... to " + _plural(rule[1]))


def check(name: str, value, rule: tuple) -> None:
    """Raise RangeError unless value passes rule, a (test, wanted) pair."""
    test, wanted = rule
    if not test(value):
        raise RangeError(f"{name} must be {wanted}, got {value!r}")


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
