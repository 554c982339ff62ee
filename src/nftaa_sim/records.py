"""The base of the package's records.

A record class names its fields in `__slots__` and `__match_args__` and
writes its `__init__` out; `Record` gives it `==` over every field and a
repr. Records are not hashable. Nothing writes a value record (an
operation, a `Step`, an `Event`, a receipt) after its `__init__`.
"""

from __future__ import annotations


class Record:
    """Equal to a record of the same class whose fields are all equal."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        names = self.__slots__
        return [getattr(self, name) for name in names] == [getattr(other, name) for name in names]

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
