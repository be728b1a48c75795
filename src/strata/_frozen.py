"""A slotted immutable base for the package's small value classes.

A subclass lists its fields in ``__slots__``, in declaration order.  The base
compares and hashes instances by the tuple of those fields (same class only),
prints them in the ``Name(field=value, ...)`` form, and pickles and copies by
calling the constructor again on the fields.  That is what a frozen dataclass
gives, without importing ``dataclasses`` (and with it ``inspect``) at the
start of every CLI run.

Every value is built by ``cls._derived(*values)``, which takes the fields in
declaration order and checks nothing.  A public constructor is a ``__new__``
that checks and normalises its arguments and ends with ``return
cls._derived(...)``; the package calls ``_derived`` directly for the values
it derives itself, whose fields come from a valid value by moves that keep it
valid.  Like a dataclass ``__init__``, ``_derived`` is compiled once per
class.  It is a ``staticmethod``: a plain function closed over the class it
was compiled for, so a call makes no bound method, and ``Cls._derived``
builds a ``Cls`` whether it is reached through the class or an instance.

Assignment and deletion are refused by a ``__setattr__`` and ``__delattr__``
that ``__init_subclass__`` puts on each value class, not on ``Frozen``.  A
class that overrides ``__setattr__`` makes CPython call it, and so
``object.__setattr__``, for every field store; ``_derived`` avoids that by
filling the fields on a private twin class, built once per class as a
subclass of it that adds no slots and puts ``object``'s ``__setattr__`` and
``__delattr__`` back, where a store is a plain slot write.  It then gives the
filled object its real class.  The twin never leaves ``_derived``.

The fields are recorded once, as ``_fields``, on the class that declares
them in ``__slots__``.  A subclass of a value class inherits them, with or
without ``__slots__ = ()``, and gets its own twin and ``_derived``, so the
value class's constructor builds instances of the subclass.

``Frozen`` itself declares one slot, ``__weakref__``, and no field, so a
value can be held in a ``weakref.WeakValueDictionary``: ``braids`` shares
its letters through one.

``require(value, cls)`` is the boundary check of every public call that takes
a value: it raises the error class that ``cls._error`` names unless ``value``
is a ``cls``.
"""

from operator import attrgetter


def require(value, cls) -> None:
    if not isinstance(value, cls):
        raise cls._error("expected a %s, got %s" % (cls.__name__, type(value).__name__))


def _refuse_assign(self, name, value):
    raise AttributeError("cannot assign to field %r" % name)


def _refuse_delete(self, name):
    raise AttributeError("cannot delete field %r" % name)


class Frozen:
    __slots__ = ("__weakref__",)

    def __init_subclass__(cls, twin=False):
        super().__init_subclass__()
        if twin:
            return
        cls.__setattr__ = _refuse_assign
        cls.__delattr__ = _refuse_delete
        if not hasattr(cls, "_fields"):  # a value class: its slots are the fields
            names = cls._fields = cls.__slots__
            get = attrgetter(*names)
            # attrgetter of one name returns the bare value, of several a tuple
            cls._values = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))
        names = cls._fields
        # CPython lets _derived reassign __class__ from the twin to cls because
        # the twin adds no slots, so their instances have the same layout
        twin_cls = type(
            cls.__name__,
            (cls,),
            {"__slots__": (), "__setattr__": object.__setattr__, "__delattr__": object.__delattr__},
            twin=True,
        )
        args = ", ".join("v%d" % k for k in range(len(names)))
        body = "".join("    obj.%s = v%d\n" % (name, k) for k, name in enumerate(names))
        scope ={"new": object.__new__, "twin": twin_cls, "cls": cls}
        exec(
            "def _derived(%s):\n    obj = new(twin)\n%s    obj.__class__ = cls\n"
            "    return obj\n" % (args, body),
            scope,
        )
        cls._derived = staticmethod(scope["_derived"])

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
                "%s=%r" % item for item in zip(self._fields, self._values(self))
            ),
        )

    def __reduce__(self):
        return self.__class__, self._values(self)
