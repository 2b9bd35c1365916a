"""Exception types shared across the package, and checked config fields."""

import dataclasses
import sys
import typing


class DoclinkError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(DoclinkError):
    """Operands have incompatible shapes; the message names both."""


class InvalidMaskError(DoclinkError):
    """A softmax mask leaves some row with no admissible entry."""


class ConfigError(DoclinkError):
    """A configuration value is out of its legal range."""


def setting(default=dataclasses.MISSING, *, low=None, above=None, high=None):
    """A config dataclass field with declared bounds: ``low <= value``,
    ``above < value`` and ``value <= high`` (None: unbounded)."""
    return dataclasses.field(default=default, metadata={"low": low, "above": above, "high": high})


_KIND_NAMES = {
    int: "an integer",
    float: "a number",
    bool: "a boolean",
    list: "a list",
    dict: "an object",
    type(None): "None",
}


def _is_kind(value, kind) -> bool:
    # A bool is never an int; an int may stand for a float.
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def check_settings(config) -> None:
    """Check every field of a config dataclass: the value has its annotated
    type (``int | None`` admits None), a float is finite, and the bounds
    declared by :func:`setting` hold.  The ConfigError names the field and
    the value."""
    hints = typing.get_type_hints(type(config))
    for f in dataclasses.fields(config):
        name, value, bounds = f.name, getattr(config, f.name), f.metadata
        kinds = typing.get_args(hints[name]) or (hints[name],)
        if not any(_is_kind(value, kind) for kind in kinds):
            expected = " or ".join(_KIND_NAMES[kind] for kind in kinds)
            raise ConfigError(f"{name} must be {expected}, got {value!r}")
        if value is None:
            continue
        # Fails for NaN, infinities and ints beyond the float range.
        if float in kinds and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{name} must be finite, got {value!r}")
        low, above, high = bounds.get("low"), bounds.get("above"), bounds.get("high")
        if low is not None and value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value!r}")
        if above is not None and value <= above:
            raise ConfigError(f"{name} must be > {above}, got {value!r}")
        if high is not None and value > high:
            raise ConfigError(f"{name} must be <= {high}, got {value!r}")


class VocabularyError(DoclinkError):
    """A token id falls outside the vocabulary."""


class SequenceLengthError(DoclinkError):
    """A sentence exceeds the position-embedding capacity."""


class CorpusFormatError(DoclinkError):
    """A corpus file failed to parse; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class CorpusValidationError(DoclinkError):
    """A parsed document violates a structural invariant."""


class DegenerateEmbeddingError(DoclinkError):
    """A representation has zero norm; cosine similarity is undefined."""


class BatchError(DoclinkError):
    """A mini-batch is too small for hard-negative mining."""


class NonFiniteError(DoclinkError):
    """A loss or gradient became NaN or infinite; names the culprit."""


class MissingGoldEdgesError(DoclinkError):
    """Evaluation requires gold edges that a document does not carry."""
