"""A slotted immutable base for the package's small value classes.

A subclass lists its fields in ``__slots__``, in declaration order, and sets
them in its ``__init__`` through ``set_field``.  The base compares and hashes
instances by the tuple of those fields (same class only), prints them in the
``Name(field=value, ...)`` form, refuses assignment and deletion, and pickles
and copies by calling the constructor again on the fields.  That is what a
frozen dataclass gives, without importing ``dataclasses`` (and with it
``inspect``) at the start of every CLI run.

``cls._derived(*values)`` builds a value from its fields in declaration order
without running ``__init__``, so nothing is checked.  It is for values the
package derives itself: the fields must come from a valid value by moves that
keep it valid.  Like a dataclass ``__init__``, it is compiled once per class,
so that it costs what a hand-written setter of the same fields costs.

``require(value, cls)`` is the boundary check of every public call that takes
a value: it raises the error class that ``cls._error`` names unless ``value``
is a ``cls``.
"""

from operator import attrgetter

set_field = object.__setattr__


def require(value, cls) -> None:
    if not isinstance(value, cls):
        raise cls._error("expected a %s, got %s" % (cls.__name__, type(value).__name__))


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        names = cls.__slots__
        get = attrgetter(*names)
        # attrgetter of one name returns the bare value, of several a tuple
        cls._values = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))
        args = ", ".join("v%d" % k for k in range(len(names)))
        body = "".join("    set_field(obj, %r, v%d)\n" % (name, k) for k, name in enumerate(names))
        scope = {"new": object.__new__, "set_field": set_field}
        exec("def _derived(cls, %s):\n    obj = new(cls)\n%s    return obj\n" % (args, body), scope)
        cls._derived = classmethod(scope["_derived"])

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
