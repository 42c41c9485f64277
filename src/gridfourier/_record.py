"""Frozen, slotted records, built without generating code at import.

A record class inherits ``Record`` and lists its fields as class
annotations, in order, each with an optional default that every instance
built without the field shares, so ``__post_init__`` copies a mutable one.
The metaclass turns the annotations into ``__slots__`` when the class is
created, and every method is shared, so no per-class ``exec`` runs at
import, as it does for ``dataclasses``.  Every record has:

- construction by position or keyword, defaults for missing arguments,
  and then ``__post_init__``, which may validate and normalize fields
  with ``object.__setattr__``;
- immutability: assigning or deleting an attribute raises AttributeError;
- ``==`` and ``hash`` over the field values (a record of another class is
  never equal; a class with a field that cannot be hashed sets
  ``__hash__ = None``), and ``repr`` as ``Name(field=value, ...)``;
- ``replace(**changes)``: a copy with some fields changed, built and
  validated anew;
- ``to_dict()``: field name -> value in field order, nested records as
  dicts too, the form the verify JSON is written from.
"""

from __future__ import annotations

__all__ = ["Record"]


class _RecordMeta(type):
    """Reads a record class's annotations into its fields, defaults and ``__slots__``."""

    def __new__(mcls, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        # a default left as a class attribute would shadow its slot
        namespace["_defaults"] = {f: namespace.pop(f) for f in fields if f in namespace}
        namespace["_fields"] = fields
        namespace["__slots__"] = fields
        cls = super().__new__(mcls, name, bases, namespace)
        # the slots' own setters, which bypass the refusing __setattr__
        cls._setters = tuple(getattr(cls, f).__set__ for f in fields)
        return cls


class Record(metaclass=_RecordMeta):
    """Base of an immutable record whose fields are its class annotations."""

    def __init__(self, *args, **kwargs):
        """One value per field, in field order, from args, then kwargs, then the defaults."""
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} arguments, got {len(args)}")
        values = list(args)
        for name in cls._fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__} missing argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            raise TypeError(f"{cls.__name__} got an unexpected or repeated argument {name!r}")
        for set_field, value in zip(cls._setters, values):
            set_field(self, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return type(self), self._values()

    def replace(self, **changes):
        """A copy with the fields named in ``changes`` set to their values."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

    def to_dict(self) -> dict:
        """Field name -> value in field order, with nested records as dicts too."""
        return {
            name: value.to_dict() if isinstance(value, Record) else value
            for name, value in zip(self._fields, self._values())
        }
