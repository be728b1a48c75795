"""A slotted immutable base for the package's small value classes.

A subclass lists its fields in ``__slots__``, in declaration order, and sets
them in its ``__init__`` through ``set_field``.  The base compares and hashes
instances by the tuple of those fields (same class only), prints them in the
``Name(field=value, ...)`` form, refuses assignment and deletion, and pickles
and copies by calling the constructor again on the fields.  That is what a
frozen dataclass gives, without importing ``dataclasses`` (and with it
``inspect``) at the start of every CLI run.
"""

from operator import attrgetter

set_field = object.__setattr__


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        get = attrgetter(*cls.__slots__)
        # attrgetter of one name returns the bare value, of several a tuple
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        return "%s(%s)" % (
            self.__class__.__qualname__,
            ", ".join(
                "%s=%r" % item for item in zip(self.__slots__, self._values(self))
            ),
        )

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return self.__class__, self._values(self)
