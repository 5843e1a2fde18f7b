"""Resource caps guarding the exponential enumerations.

All semantic operations that enumerate completions, candidate models or
second order value spaces take a `Limits` and raise `CapExceeded` rather
than silently truncating.  Checks that run in polynomial time, such as
prudence by one least fixpoint, take no cap.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Limits:
    # max number of unknown atoms completed at once (2^n completions)
    max_unknowns: int = 20
    # max defined domain atoms for 3^n partial-stable enumeration
    max_defined_atoms: int = 12
    # max |D|^n for a first order predicate used as a second order
    # argument value (2^(|D|^n) exact relations get enumerated)
    max_so_arg_base: int = 9
    # max tuples in a predicate carrier or domain (27x the largest tests and benchmarks build)
    max_carrier: int = 100_000

    def with_(self, **kw) -> "Limits":
        return replace(self, **kw)


DEFAULT_LIMITS = Limits()
