"""``fields_of``: what an object holds, by field name, whether it keeps
its fields in slots, in a ``__dict__`` or in both."""

from __future__ import annotations


def fields_of(obj) -> dict:
    """``{name: value}`` for every field ``obj`` has set: the slots its
    classes declare, base classes first, then its ``__dict__``, if any."""
    fields = {}
    for cls in reversed(type(obj).__mro__):
        slots = cls.__dict__.get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if name in ("__dict__", "__weakref__"):
                continue
            try:
                fields[name] = cls.__dict__[name].__get__(obj, cls)
            except AttributeError:  # declared, never assigned
                continue
    fields.update(getattr(obj, "__dict__", {}))
    return fields
