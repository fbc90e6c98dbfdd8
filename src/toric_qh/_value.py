"""The frozen-value base of Polytope and GroebnerBasis."""


class Value:
    """An immutable value over the fields that ``_fields`` names.

    A subclass's constructor sets each field once, through
    ``self.__dict__``; assigning or deleting an attribute then raises
    AttributeError.  Equality (same class only), hash and the repr
    ``Name(field=value, ...)`` read the fields alone, so derived data a
    subclass keeps beside them (a memo, a cached_property) stays out of
    all three.  A plain class, not a frozen dataclass: importing
    ``dataclasses`` would load ``inspect`` and its dependencies, about
    half of the package's import time and memory.
    """

    _fields = ()

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__name__}({fields})"
