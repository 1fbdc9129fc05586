"""Immutable values and records, built without generating code.

`Frozen` refuses assignment and deletion; its subclasses set their state
once, through `object.__setattr__`, while they are built.  `Record` adds
fields read from a subclass's annotations, in order, parents' fields first;
a class attribute of the same name is the field's default.  Every record
shares one `__init__` (positional or keyword arguments, then
`__post_init__`), one class-checked `__eq__`, a `__hash__` of the field
tuple and a `__repr__` of the form `Name(field=value, ...)`.  Each class's
field tuple is read by one `operator.attrgetter`, made once when the class
is defined.  A record keeps its fields in its `__dict__`, so a
`functools.cached_property` works on it, and copy and pickle restore that
dictionary without calling `__init__`.

Assignment raises `dataclasses.FrozenInstanceError`, imported only when it
is raised, so importing latring does not import `dataclasses`.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


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
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__dict__.get("__annotations__", {}) if name not in cls._fields]
        cls._fields = fields = cls._fields + tuple(own)
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}
        if len(fields) == 1:
            get = attrgetter(fields[0])
            cls._key = staticmethod(lambda x: (get(x),))
        else:
            cls._key = attrgetter(*fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values in order: the positional arguments, then keywords and defaults."""
        fields, name = cls._fields, cls.__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        rest = fields[len(args):]
        extra = kwargs.keys() - rest
        if extra:
            key = min(extra)
            kind = "multiple values for" if key in fields else "an unexpected keyword"
            raise TypeError(f"{name}() got {kind} argument {key!r}")
        defaults = cls._defaults
        try:
            return [*args, *[kwargs[f] if f in kwargs else defaults[f] for f in rest]]
        except KeyError as exc:
            raise TypeError(f"{name}() missing required argument {exc.args[0]!r}") from None

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
