"""The base of the value classes, written out so that import generates no code."""

from operator import attrgetter


class Value:
    """A value class writes out its own ``__init__``: it sets every
    parameter as a field with ``object.__setattr__``, then calls
    ``self.__post_init__()`` if the class validates. Instances of one
    class are equal when their fields are, hash as their field values and
    print as ``Name(field=value, ...)``. Nothing is assigned or deleted
    after ``__init__``; a ``functools.cached_property`` still caches, as
    it writes the instance dictionary directly."""

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        # reads the field values in C: eq and hash run in hot loops
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")
