"""Records: classes whose fields are their own annotations, in order.

``record`` is a class decorator. It gives a subclass of ``Record`` an
``__init__`` that takes the fields in order, positionally or by keyword,
with the defaults the class body gives, and an ``__eq__`` that compares
the class, then the field tuple. A ``Record`` is frozen, and its hash is
that of the field tuple; a ``MutableRecord`` holds its fields in
``__slots__`` and is not hashable. The methods are compiled from
source, one ``exec`` per class: a loop over the fields at run time would
slow every construction, and the machine builds a record on every
arithmetic step. ``repr``, pickling and copying, and refusing assignment
and deletion, are written once below.
"""

from __future__ import annotations


class Record:
    """Base of a frozen record. ``_fields`` names its fields, in order;
    its ``__init__`` sets them through ``object.__setattr__``."""

    __slots__ = ()
    _fields: tuple = ()

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        # Pickled and copied by its fields alone, rebuilt by its class.
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class MutableRecord(Record):
    """Base of a record whose fields may be assigned."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


def record(cls: type) -> type:
    """Make ``cls``, a subclass of ``Record``, a record of its own
    annotations, and return it; a mutable record is a new class, built
    with its ``__slots__``."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = tuple(cls.__dict__[n] for n in names if n in cls.__dict__)
    frozen = not issubclass(cls, MutableRecord)
    if frozen:
        body = [f" _set(self, {n!r}, {n})" for n in names]
    else:
        ns = {k: v for k, v in cls.__dict__.items()
              if k not in names and k not in ("__dict__", "__weakref__")}
        cls = type(cls)(cls.__name__, cls.__bases__,
                        {**ns, "__slots__": names, "__qualname__": cls.__qualname__})
        body = [f" self.{n} = {n}" for n in names]
    fields = "".join(f"self.{n}, " for n in names)
    src = [f"def __init__(self, {', '.join(names)}):", *(body or [" pass"]),
           "def __eq__(self, other):",
           " if other.__class__ is self.__class__:",
           f"  return ({fields}) == ({fields.replace('self.', 'other.')})",
           " return NotImplemented"]
    if frozen:
        src.append(f"def __hash__(self):\n return hash(({fields}))")
    made: dict = {}
    exec("\n".join(src), {"_set": object.__setattr__}, made)
    made["__init__"].__defaults__ = defaults or None
    for name, fn in made.items():
        fn.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, fn)
    cls._fields = names
    if not frozen:
        cls.__hash__ = None
    return cls


def replace(rec: Record, **changes) -> Record:
    """A copy of ``rec`` with the fields that ``changes`` names set anew."""
    return type(rec)(**{**{n: getattr(rec, n) for n in rec._fields}, **changes})
