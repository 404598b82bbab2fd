"""The immutable record base shared by the package's small value types.

A subclass names its fields, in constructor order, in ``__slots__``::

    class Pair(Record):
        __slots__ = ("left", "right")

and gets a positional constructor, field-wise equality and hashing within
its own class, the ``Pair(left=..., right=...)`` repr and an
``AttributeError`` on any assignment or deletion.  Instances carry no
``__dict__``.
"""


class Record:
    __slots__ = ()

    def __init__(self, *values):
        fields = self.__slots__
        if len(values) != len(fields):
            raise TypeError(
                f"{type(self).__qualname__} takes {len(fields)} fields, got {len(values)}"
            )
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__qualname__}")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not by setattr
        return type(self), self._values()
