"""Immutable value records whose fields are slots.

A record type lists its fields in ``__slots__``, and ``Record.__init__``
stores them in that order, each given once by position or keyword. A type
writes its own ``__init__`` only to check its arguments; it then stores each
field with ``object.__setattr__``. ``Record`` gives every such type value
semantics by those fields, in that order: equality with instances of the
same type only, a hash, a ``Name(field=value, ...)`` repr, and copy and
pickle support through ``__init__``. Assigning or deleting a field raises
AttributeError.

Unlike ``dataclasses`` it imports nothing heavy and compiles no code per
type, so neither cost is paid at every command-line start-up.
"""

from operator import attrgetter


class Record:
    """Base of the immutable slot records; see the module docstring."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # a C-level key: the field value, or the tuple of them for several
        cls._key = attrgetter(*cls.__slots__)

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        values = dict(zip(names, args))
        if (len(args) > len(names) or values.keys() & kwargs
                or values.keys() | kwargs != set(names)):
            raise TypeError(f"{self.__class__.__qualname__} takes the fields "
                            f"({', '.join(names)}), each once, by position or keyword")
        values.update(kwargs)
        for name in names:
            object.__setattr__(self, name, values[name])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
