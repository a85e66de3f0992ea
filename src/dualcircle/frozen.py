"""The base of the package's immutable value types.

A subclass names its fields in ``__slots__``.  ``Frozen.__init__`` takes
them by position in that order.  A subclass that validates its fields or
has defaults or keywords writes its own ``__init__`` and passes them on;
one built in an inner loop is made by ``_new`` with each field set by
``_set``.  After that, assignment raises ``AttributeError``.
Two values are equal when they are of one class with equal fields, equal
values hash alike, and the repr names every field.  A type compared or
hashed in an inner loop spells out its own ``__eq__`` and ``__hash__``:
the generic ones read the fields through ``attrgetter``, at about twice
the cost of attribute reads in the type's own methods.
"""

from operator import attrgetter

_new = object.__new__
_set = object.__setattr__


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(name for c in reversed(cls.__mro__)
                            for name in c.__dict__.get("__slots__", ()))
        # the class and every field as one tuple, read in C; the class leads
        # so that a value without fields still has a key, and that values of
        # two classes never compare equal
        cls._key = attrgetter("__class__", *cls._fields)

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes {len(self._fields)} "
                            f"fields, got {len(values)}")
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def __eq__(self, other):
        if isinstance(other, Frozen):
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
