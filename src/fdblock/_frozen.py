"""Base class of the validated value types: slots, checked once, then immutable.

A subclass lists its attributes in ``__slots__``, in constructor order,
checks its arguments in ``__init__`` and then stores them with
``_init``; after that an instance cannot change.  Equality, hash and
repr read the attributes that the subclass names in ``_compared``:
all of ``__slots__``, or the ones that take part in equality.
Integer fields are stored as Python ints (:func:`_index`), whatever
integer type (bool, numpy) they came as.
"""

from __future__ import annotations

import operator


def _index(name: str, value, error: type[Exception]) -> int:
    """value as a Python int; error, naming it, when value is no integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} {value!r} is not an integer") from None


class Frozen:
    __slots__ = ()
    _compared: tuple[str, ...]

    def _init(self, *values):
        """Store values under the names of __slots__, in order, once the checks pass."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the checking constructor
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
