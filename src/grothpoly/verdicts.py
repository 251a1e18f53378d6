"""Check outcomes that carry their counterexample.

An outcome without a witness is a module-level constant, made once by
`shared` and listed in `SHARED`: a passing check returns it and constructs
nothing, and the report maps it to its one entry.  Its info is a `Frozen`
dict, so no reader can change what every check of the run shares.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


class Frozen(dict):
    """A read-only dict: the info of a shared verdict, or an entry of a
    report, a check table or a dict inside an entry.  Its mutators raise
    TypeError, and it pickles and copies as a plain dict rebuilt, so the
    JSON encoder, equality with a dict, pickle and copy all take it as a
    dict."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("shared verdicts and a report's entries and check tables are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return self.__class__, (dict(self),)


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


# The info of every shared verdict without any.
_NO_INFO = Frozen()


class NotApplicable(Verdict):
    """The statement does not cover the input: a vacuous pass, which the
    report lists as `skip` with this reason.  Checkers return it rather than
    raise it, so a wrapper that records each checker call (the perfbench
    tracer) sees every call return."""

    def __init__(self, reason: str):
        super().__init__(True, detail=reason, info=_NO_INFO)


# Every shared verdict, in the order made.
SHARED: list = []


def shared(verdict: Verdict) -> Verdict:
    """verdict, listed in SHARED: a constant for an outcome without a
    witness, whose info is a Frozen dict."""
    assert verdict.witness is None and isinstance(verdict.info, Frozen), verdict
    SHARED.append(verdict)
    return verdict


PASS = shared(Verdict(True, info=_NO_INFO))
