"""Exception types shared across the package, and the field range check."""

import numpy as np


class MisaError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MisaError, ValueError):
    """A parameter or input is outside its valid domain."""


class DefinitenessError(MisaError, ValueError):
    """A matrix required to be positive definite is not."""


class RankError(MisaError, ValueError):
    """A matrix does not have the required rank."""


class ShapeError(MisaError, ValueError):
    """Inputs have inconsistent shapes."""


class ParseError(MisaError, ValueError):
    """An input file could not be read or parsed."""


class ConfigError(MisaError, ValueError):
    """An experiment configuration is invalid."""


def check_ranges(obj, rules, error=DomainError) -> None:
    """Raise error for the first field of obj whose value, or an entry of a
    sequence value, fails its rule. Each rule is (fields, test, wording),
    fields a space-separated list of names. Each test is a comparison, false
    for NaN, so NaN fails every rule."""
    for names, ok, want in rules:
        for name in names.split():
            for v in np.ravel(getattr(obj, name)):
                if not ok(v):
                    raise error(f"{name} must be {want}, got {v}")
