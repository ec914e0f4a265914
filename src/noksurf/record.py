"""Immutable records: the base of the package's value classes.

A record keeps its fields in `__slots__`, in constructor order, and sets
them once, when it is built; assigning or deleting any attribute afterwards
raises AttributeError.  Record's constructor takes each slot positionally
or by keyword, in slot order: it checks the keywords against `_tails[i]`,
the set of the slot names after the first i, and stores each value through
the slot's own setter, kept by name in `_setters`.  Only a class whose
constructor checks its input has its own.  `_of(*values)` sets the leading
slots from values its caller has certified, with no check.  Two records of
one class are == when their compared fields are equal, hash is the hash of
the tuple of those fields, and repr is `Name(field=value, ...)` over the
shown fields.  The compared fields are the slots unless the class names
them in `_compared`, and the shown ones the compared ones unless it names
them in `_shown`; a slot outside both is a cache or a derived value.  The
one class without slots, lattice.SurfaceModel, keeps its fields and tables
in its `__dict__` and names its fields in `_compared`.
"""


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._compared = cls.__dict__.get("_compared", cls.__slots__)
        cls._shown = cls.__dict__.get("_shown", cls._compared)
        names = cls.__slots__
        cls._tails = tuple([frozenset(names[i:]) for i in range(len(names) + 1)])
        cls._setters = {name: getattr(cls, name).__set__ for name in names}

    def __init__(self, *args, **kwargs):
        """Each slot from its positional or keyword argument."""
        names = self.__slots__
        if len(args) > len(names) or kwargs.keys() != self._tails[len(args)]:
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        setters = self._setters
        for put, value in zip(setters.values(), args):
            put(self, value)
        for name, value in kwargs.items():
            setters[name](self, value)

    @classmethod
    def _of(cls, *values):
        """A record whose leading slots take `values`, unchecked."""
        out = object.__new__(cls)
        for put, value in zip(cls._setters.values(), values):
            put(out, value)
        return out

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__
