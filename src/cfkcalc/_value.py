"""Immutable records whose methods are written once, not generated per class."""

from __future__ import annotations


class Value:
    """Base of the immutable records that validate or must stay unequal across
    classes.  A subclass names its fields once, as annotations after its base's
    (a class-level value is a default); __post_init__ runs after they are set.
    Records of one class with equal fields are equal; others never are."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields += tuple(cls.__annotations__)
        cls._defaults = {k: getattr(cls, k) for k in cls._fields if hasattr(cls, k)}

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        values = {**cls._defaults, **dict(zip(cls._fields, args)), **kwargs}
        if len(args) + len(kwargs) > len(cls._fields) or values.keys() != set(cls._fields):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(cls._fields)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._values()
