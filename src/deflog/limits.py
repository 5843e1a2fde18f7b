"""Resource caps guarding the exponential enumerations.

All semantic operations that enumerate completions, candidate models or
second order value spaces take a `Limits` and raise `CapExceeded` rather
than silently truncating.  Checks that run in polynomial time, such as
prudence by one least fixpoint, take no cap.
"""

from dataclasses import dataclass, replace

from .errors import CapExceeded

# the command line flag that raises each cap: flag, Limits field, help
CAP_FLAGS = (
    ("--max-atoms", "max_defined_atoms",
     "Cap on defined atoms the well-founded model leaves unknown in model enumerations."),
    ("--max-completions", "max_unknowns",
     "Cap n on unknown atoms completed at once (2^n completions)."),
    ("--max-carrier", "max_carrier", "Cap on tuples in one predicate carrier and domain elements."),
)
_FLAG = {field: flag for flag, field, _ in CAP_FLAGS}


@dataclass(frozen=True)
class Limits:
    # max number of unknown atoms completed at once (2^n completions)
    max_unknowns: int = 20
    # max defined atoms a model search branches on: those the WFM leaves u
    max_defined_atoms: int = 12
    # max |D|^n for a first order predicate used as a second order
    # argument value (2^(|D|^n) exact relations get enumerated)
    max_so_arg_base: int = 9
    # max tuples in a predicate carrier or domain (27x the largest tests and benchmarks build)
    max_carrier: int = 100_000

    def with_(self, **kw) -> "Limits":
        return replace(self, **kw)

    def check(self, field: str, n: int, message: str, **fmt) -> None:
        """Raise CapExceeded when n exceeds the cap `field`.  The message is
        `message` formatted with n, cap and fmt, then the cap's flag."""
        cap = getattr(self, field)
        if n > cap:
            flag = _FLAG.get(field)
            raise CapExceeded(message.format(n=n, cap=cap, **fmt) + (f" ({flag})" if flag else ""))


DEFAULT_LIMITS = Limits()
