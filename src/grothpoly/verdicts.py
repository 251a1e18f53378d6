"""Check outcomes that carry their counterexample."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


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


class NotApplicable(Verdict):
    """The statement does not cover the input: a vacuous pass, which the
    report lists as `skip` with this reason.  Checkers return it rather than
    raise it, so a wrapper that records each checker call (the perfbench
    tracer) sees every call return."""

    def __init__(self, reason: str):
        super().__init__(True, detail=reason)
