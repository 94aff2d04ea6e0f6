"""The base of helpzc's immutable records.

Every helpzc command runs in a fresh interpreter, so start-up is paid on
every command.  Frozen dataclasses cost about 30 ms of it: importing
`dataclasses` pulls in inspect, ast, dis and tokenize, and each class is
code-generated at creation.  A record is instead a plain class that lists
its fields, in order, as `__slots__`; this base builds it from them.  Every
field is required and is passed by position, in slot order, or by slot
name.  A record that validates its fields or gives them defaults writes an
`__init__` that ends in one call to the base's.  The base gives what a
frozen dataclass gave: assignment and deletion raise AttributeError,
instances are equal only to instances of the same class with equal fields,
hash the tuple of their fields, show their fields in `repr`, and copy and
pickle by calling the constructor on their fields.  Records hashed in hot
loops (partial augmentations) write `__hash__` out for their own fields.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init__(self, *values, **named):
        fields = self.__slots__
        if named:
            values += tuple([named.pop(f) for f in fields[len(values):] if f in named])
        if named or len(values) != len(fields):
            raise TypeError(
                f"{type(self).__qualname__}() takes each of the fields {fields}"
                " once, by position or by name"
            )
        for f, v in zip(fields, values):
            object.__setattr__(self, f, v)

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
