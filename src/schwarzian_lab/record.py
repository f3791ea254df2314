"""Immutable records: the base of the package's tree nodes and reports.

A record class lists its fields once, in order, as ``_fields``, which is
also its ``__slots__``.  ``_compare`` names the fields that ``==``, the
hash and the repr cover, by default all of them.  Records of different
classes are never equal.  Assigning or deleting an attribute raises
AttributeError.  A record pickles as the tuple of its field values and
unpickles by setting them as stored, so whatever a class's ``__init__``
checks, warns about or normalizes runs once, where the record is built,
and never again in a process that unpickles it.

The methods are written here once and shared; nothing is generated when a
class is defined.  A class whose records are built in bulk (the tree
nodes), or that takes defaults or checks its values, writes its own
``__init__``; the generic one takes one positional value per field, in
order.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]

_set = object.__setattr__


def _getter(names: tuple):
    # the values of the fields ``names``, as one tuple
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return lambda record: (get(record),)
    return lambda record: ()


class Record:
    """Base of an immutable record class; see the module docstring."""

    __slots__ = ()
    _fields: tuple = ()
    _compare: tuple | None = None  # None: every field

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the compared fields' values, as ``==`` and the hash see them, and
        # every field's, as a pickle stores them
        cls._key = staticmethod(_getter(cls._fields if cls._compare is None else cls._compare))
        cls._values = staticmethod(_getter(cls._fields))

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(values)}")
        for name, value in zip(fields, values):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        names = self._fields if self._compare is None else self._compare
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({inner})"

    def __getstate__(self):
        return self._values(self)

    def __setstate__(self, state):
        for name, value in zip(self._fields, state):
            _set(self, name, value)
