"""Immutable values and records, built without generating code.

`Frozen` refuses assignment and deletion.  `Record` adds fields read from a
subclass's annotations, in order, parents' fields first, and has one way to
be built: every field by position.  Every record shares one `__init__` (an
arity check, the fields into the instance `__dict__` in one call, then
`__post_init__`), one class-checked `__eq__`, a `__hash__` of the field tuple
and a `__repr__` of the form `Name(field=value, ...)`.  Each class's field
tuple is read by one `operator.attrgetter`, made once when the class is
defined.  Because a record keeps its fields in its `__dict__`, a
`functools.cached_property` works on it, and copy and pickle restore that
dictionary without calling `__init__`.  Only the slotted elements of
`elements` set their state through `object.__setattr__`.

Assignment raises `dataclasses.FrozenInstanceError`, imported only when it
is raised, so importing latring does not import `dataclasses`.
"""

from __future__ import annotations

from operator import attrgetter


class Frozen:
    """Refuses every assignment and deletion of an attribute."""

    __slots__ = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Record(Frozen):
    """An immutable record whose fields are its annotated class attributes."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__dict__.get("__annotations__", {}) if name not in cls._fields]
        cls._fields = fields = cls._fields + tuple(own)
        if len(fields) == 1:
            get = attrgetter(fields[0])
            cls._key = staticmethod(lambda x: (get(x),))
        else:
            cls._key = attrgetter(*fields)

    def __init__(self, *args):
        fields = self._fields
        if len(args) != len(fields):
            raise TypeError(f"{self.__class__.__name__}() takes {len(fields)} arguments but {len(args)} were given")
        self.__dict__.update(zip(fields, args))  # one C call, past `Frozen.__setattr__`
        self.__post_init__()

    def __post_init__(self) -> None:
        """Checks and canonicalises the fields; a subclass overrides it where it has any."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={v!r}" for f, v in zip(self._fields, self._key(self))])
        return f"{self.__class__.__qualname__}({fields})"
