"""Field checks shared by the package's config specs."""

import math
from dataclasses import fields

import numpy as np


def require(spec, test, what, *names):
    """Raise ValueError("<name> must be <what>") for the first field of `spec`
    among `names` whose value fails `test`. Every config spec is a frozen
    dataclass that checks each field with it and the predicates below in its
    `__post_init__`, so a spec that exists is valid and its users take it as
    it is. They live here because every module with a spec imports this one
    and it imports nothing from the package, so no spec meets an import
    cycle."""
    for name in names:
        if not test(getattr(spec, name)):
            raise ValueError(f"{name} must be {what}")


def is_count(v, least=1):
    """Whether `v` is an integer (a bool is not) of at least `least`."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= least


def is_real(v):
    """Whether `v` is a finite real number (a bool or a string is not)."""
    return (isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool) and math.isfinite(v))


def is_tuple_of(v, test, n=None):
    """Whether `v` is a tuple of `n` (if given) values that pass `test`."""
    return isinstance(v, tuple) and (n is None or len(v) == n) and all(test(x) for x in v)


def store_tuples(spec):
    """Store each list field of the frozen dataclass `spec`, and each list
    inside one, as a tuple, so that a spec built from lists equals and hashes
    like the one built from tuples. A spec with tuple fields calls it first
    in `__post_init__`."""
    def tupled(v):
        return tuple(tupled(x) for x in v) if isinstance(v, list) else v

    for f in fields(spec):
        object.__setattr__(spec, f.name, tupled(getattr(spec, f.name)))
