"""Declarative run counters: every field states how it merges, once.

A counters class is a dataclass deriving from :class:`Counters`.  A plain
field is an event counter and sums; :func:`merged_by` declares any other
rule; a field holding another counters object merges recursively.
:meth:`~Counters.as_dict` is the wire form (keys in declaration order) and
:meth:`~Counters.minus` the work done since an earlier snapshot.  A new
subsystem adds fields, not merge code.
"""

from __future__ import annotations

import dataclasses
import functools

__all__ = ["Counters", "either", "maximum", "merged_by", "storage"]


def _sum(mine, theirs, shared):
    return mine + theirs


def maximum(mine, theirs, shared):
    """The larger side (a gauge such as the oldest entry's age)."""
    return max(mine, theirs)


def either(mine, theirs, shared):
    """Either side's flag."""
    return bool(mine or theirs)


def storage(mine, theirs, shared):
    """A storage footprint: every process mounting shared storage reports
    the same one (max), while distinct caches each own theirs (sum)."""
    return max(mine, theirs) if shared else mine + theirs


def merged_by(rule, default=0):
    """A field merging by ``rule(mine, theirs, shared)`` instead of summing;
    ``shared`` is whether either side's ``shared_gauges`` flag is set."""
    return dataclasses.field(default=default, metadata={"merge": rule})


@functools.cache
def _schema(cls) -> tuple[tuple[str, object, bool], ...]:
    """``(name, merge rule, nested)`` per field of ``cls``, in wire order."""
    schema = []
    for item in dataclasses.fields(cls):
        factory = item.default_factory
        nested = isinstance(factory, type) and issubclass(factory, Counters)
        schema.append((item.name, item.metadata.get("merge", _sum), nested))
    return tuple(schema)


class Counters:
    """Merge, wire form and per-job delta of a counters dataclass."""

    def merge(self, other: "Counters | dict") -> None:
        """Fold ``other`` (a snapshot or its wire dict) into this one; keys
        missing from a dict leave their field unchanged."""
        if isinstance(other, Counters):
            other = other.as_dict()
        shared = getattr(self, "shared_gauges", False) or other.get("shared_gauges", False)
        for name, rule, nested in _schema(type(self)):
            if name not in other:
                continue
            if nested:
                getattr(self, name).merge(other[name])
            else:
                setattr(self, name, rule(getattr(self, name), other[name], shared))

    def as_dict(self) -> dict:
        """The wire form: one key per field, nested counters as dicts."""
        return {
            name: getattr(self, name).as_dict() if nested else getattr(self, name)
            for name, _, nested in _schema(type(self))
        }

    def minus(self, start: "Counters") -> "Counters":
        """The counts gained since the earlier snapshot ``start``: summed
        fields subtract, gauges keep this snapshot's value."""
        delta = type(self)()
        for name, rule, nested in _schema(type(self)):
            value = getattr(self, name)
            if nested:
                value = value.minus(getattr(start, name))
            elif rule is _sum:
                value -= getattr(start, name)
            setattr(delta, name, value)
        return delta
