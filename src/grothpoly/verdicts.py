"""Check outcomes that carry their counterexample, and their report entries.

A verdict builds its report entry once, on first read (`Verdict.entry`).
An outcome without a witness is a module-level constant, so a passing check
returns it and constructs nothing, and the process has one entry of it.
Its info is a `Frozen` dict, so no reader can change what every check of
the run shares.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict


class Frozen(dict):
    """A read-only dict: the info of a constant verdict, or an entry of a
    report, a check table or a dict inside an entry.  Its mutators raise
    TypeError, and it pickles and copies as a plain dict rebuilt, so the
    JSON encoder, equality with a dict, pickle and copy all take it as a
    dict."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a constant's info and a report's entries and check tables are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return self.__class__, (dict(self),)


def _jsonable(obj):
    if isinstance(obj, (tuple, list, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_jsonable(x) for x in items]
    if isinstance(obj, dict):
        return Frozen((str(k), _jsonable(v)) for k, v in obj.items())
    return obj


@dataclass(frozen=True)
class Verdict:
    """Result of a conjecture/theorem check.

    A failing verdict carries a witness (the violating vector or pair) so a
    falsified statement yields a publishable counterexample rather than a
    bare boolean.
    """

    ok: bool
    witness: Any = None
    detail: str = ""
    info: Dict[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok

    @cached_property
    def entry(self) -> Frozen:
        """The read-only report entry, built on first read and kept in the
        instance's __dict__, which the frozen dataclass does not guard."""
        out = {"status": "pass" if self.ok else "fail"}
        if self.witness is not None:
            out["witness"] = _jsonable(self.witness)
        if self.detail:
            out["detail"] = self.detail
        if self.info:
            out["info"] = _jsonable(self.info)
        return Frozen(out)


# The info of every constant verdict without any.
_NO_INFO = Frozen()


class NotApplicable(Verdict):
    """The statement does not cover the input: a vacuous pass, which the
    report lists as `skip` with this reason.  Checkers return it rather than
    raise it, so a wrapper that records each checker call (the perfbench
    tracer) sees every call return."""

    def __init__(self, reason: str):
        super().__init__(True, detail=reason, info=_NO_INFO)

    @cached_property
    def entry(self) -> Frozen:
        return Frozen(status="skip", reason=self.detail)


def error_entry(exc: Exception) -> Frozen:
    """The report entry of a checker that raised exc: an internal error,
    not a verdict on the conjecture."""
    return Frozen(status="error", witness=f"{type(exc).__name__}: {exc}")


PASS = Verdict(True, info=_NO_INFO)
