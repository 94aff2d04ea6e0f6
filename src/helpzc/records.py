"""The base of helpzc's immutable records.

Every helpzc command runs in a fresh interpreter, so start-up is paid on
every command.  Frozen dataclasses cost about 30 ms of it: importing
`dataclasses` pulls in inspect, ast, dis and tokenize, and each class is
code-generated at creation.  A record is instead a plain class that lists
its fields, in order, as `__slots__` and writes its own `__init__`, setting
each field with `object.__setattr__` after any validation.  This base gives
what a frozen dataclass gave: assignment and deletion raise AttributeError,
instances are equal only to instances of the same class with equal fields,
hash the tuple of their fields, show their fields in `repr`, and copy and
pickle by calling the constructor on their fields.  Records hashed in hot
loops (partial augmentations) write `__hash__` out for their own fields.
"""

from __future__ import annotations

# sets one field inside a record's __init__
set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
