"""Immutable records: the base of the package's value classes.

A record keeps its fields in `__slots__`, in constructor order, and sets
them once, through object.__setattr__, when it is built; assigning or
deleting any attribute afterwards raises AttributeError.  == holds between
records of one class whose compared fields are equal, hash is the hash of
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

    def __init__(self, *args, **kwargs):
        """Each slot from its positional or keyword argument."""
        names, given = self.__slots__, len(args)
        if kwargs:
            args += tuple([kwargs[name] for name in names[given:] if name in kwargs])
        if len(args) != len(names) or len(args) - given != len(kwargs):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

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
