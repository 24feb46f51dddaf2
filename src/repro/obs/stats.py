"""One statistics protocol instead of ten hand-rolled variants.

Every ``*Statistics`` dataclass in the repo (solver, context, query
cache, summary cache, store, verification, fleet, scheduler, driver,
monolithic)
mixes this in and gets, generically over its dataclass fields:

* ``to_dict()`` / ``from_dict()`` — plain-JSON round-trip with exactly
  the dataclass's field names as keys (the key sets the verdict store
  already persists are unchanged, because the old hand-rolled dicts
  enumerated exactly the fields too); ``from_dict`` builds the instance
  in one constructor call, because the verdict store decodes one record
  per pipeline;
* ``merge(other)`` — numeric fields sum, bools OR, dict fields key-sum,
  except fields named in the ``MERGE_MAX`` class var which take the max
  (high-water marks like a driver's ``max_instructions``).

All three read each class's field layout (:func:`dataclasses.fields`)
once per process, not on every call.

Each counter has one owner: a report copies or takes a delta of the
statistics object that counted the work (solver work, for example, is
always read off a :class:`repro.smt.qcache.QueryCacheStatistics`), never
a second running total.

Field-type dispatch checks ``bool`` before ``int``/``float`` because
``bool`` subclasses ``int`` — merging two ``budget_exceeded`` flags must
OR, not sum.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar, Dict, Tuple, TypeVar

__all__ = ["StatisticsMixin"]

S = TypeVar("S", bound="StatisticsMixin")

#: Per class: (field names, names of the fields whose default is a dict).
_LAYOUTS: Dict[type, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}


def _layout(cls: type) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    layout = _LAYOUTS.get(cls)
    if layout is None:
        defaults = cls()
        names = tuple(spec.name for spec in dataclasses.fields(cls))  # type: ignore[arg-type]
        layout = _LAYOUTS[cls] = (
            names,
            tuple(name for name in names if isinstance(getattr(defaults, name), dict)),
        )
    return layout


class StatisticsMixin:
    """Shared ``to_dict``/``from_dict``/``merge`` for stats dataclasses."""

    #: Field names merged by ``max`` instead of ``+`` (high-water marks).
    MERGE_MAX: ClassVar[Tuple[str, ...]] = ()

    def to_dict(self) -> dict:
        payload = {}
        for name in _layout(type(self))[0]:
            value = getattr(self, name)
            if isinstance(value, dict):
                value = dict(value)
            elif isinstance(value, (list, tuple)):
                value = list(value)
            payload[name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict):
        names, dict_fields = _layout(cls)
        # Keyed by the field names themselves, not the payload's equal
        # strings: keyword matching in the constructor is then by identity.
        values = {name: payload[name] for name in names if name in payload}
        for name in dict_fields:
            if values.get(name) is not None:
                values[name] = dict(values[name])  # never alias the payload's dict
        return cls(**values)

    def merge(self: S, other: S) -> S:
        """Fold ``other`` into ``self`` (sum/OR/key-sum; ``MERGE_MAX`` maxes)."""
        for name in _layout(type(self))[0]:
            mine = getattr(self, name)
            theirs = getattr(other, name)
            if isinstance(mine, bool) or isinstance(theirs, bool):
                setattr(self, name, bool(mine) or bool(theirs))
            elif name in self.MERGE_MAX:
                setattr(self, name, max(mine, theirs))
            elif isinstance(mine, (int, float)):
                setattr(self, name, mine + theirs)
            elif isinstance(mine, dict):
                for key, value in theirs.items():
                    if isinstance(value, bool):
                        mine[key] = bool(mine.get(key, False)) or value
                    elif isinstance(value, (int, float)):
                        mine[key] = mine.get(key, 0) + value
                    else:  # pragma: no cover - non-numeric dict values don't merge
                        mine[key] = value
            # Non-numeric scalars (strings, None) keep self's value.
        return self
