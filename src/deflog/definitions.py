"""Rule sets under well-founded and stable semantics.

A rule set (definition) over a finite domain is judged against a
partial interpretation by three conditions:

* supportedness: every defined domain atom carries the Max (truth
  order) of its matching rule-body values, with Max over no applicable
  rules being f;
* prudence: no non-empty t-set T and u-set U of defined atoms exist
  such that demoting T to u and promoting U to t leaves the
  interpretation closed under the rules;
* braveness: the only unfounded set is the empty one.

Interpretations passing all three are partial stable; the well-founded
model is the precision-least partial stable model for a context, and
stable models are the exact partial stable ones.  The normative
well-founded computation enumerates 3^n candidates; `well_founded_model`
runs the equivalent (test-checked) alternating fixpoint of
true-derivation and greatest-unfounded-set steps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

from .errors import CapExceeded, EvaluationError
from .evaluator import EvalContext, _compiled, _probe_safe, _relation_cached
from .interpretation import PartialInterpretation
from .limits import DEFAULT_LIMITS, Limits
from .syntax import RuleSet
from .truthvalues import F, T, TV, U, PartialSet, canon_order, glb_prec, max_truth, neg
from .vocab import DomainAtom, Symbol, predicate_carrier


def _atom_key(a: DomainAtom):
    return (a.predicate.name, canon_order(a.args))


def _defined_atoms(d: RuleSet, i: PartialInterpretation) -> list[DomainAtom]:
    """All defined domain atoms, over the carriers i assigns."""
    out = []
    for h in sorted(d.defined_symbols, key=lambda s: s.name):
        for key in i.value(h).carrier:
            out.append(DomainAtom(h, key))
    return out


def _body_values(
    d: RuleSet, atom: DomainAtom, i: PartialInterpretation, ctx: EvalContext
) -> list[TV]:
    """atom's rule bodies, valued with its arguments bound to the head variables."""
    out = []
    for r in d.rules:
        if r.head == atom.predicate:
            env = {var: _relation_cached(val, var.type.arity, i.domain)
                   if isinstance(val, frozenset) else val
                   for var, val in zip(r.head_vars, atom.args)}
            out.append(_compiled(r.body)(i, env, ctx))
    return out


def _supported_value(
    d: RuleSet, atom: DomainAtom, i: PartialInterpretation, ctx: EvalContext
) -> TV:
    # Max over no applicable rules is f
    return max_truth(_body_values(d, atom, i, ctx), empty=F)


def expand_context(
    d: RuleSet,
    o: PartialInterpretation,
    limits: Limits = DEFAULT_LIMITS,
    carriers: Optional[Mapping[Symbol, Iterable[tuple]]] = None,
) -> PartialInterpretation:
    """Expand a context with all-unknown values for the defined symbols.

    `carriers` optionally restricts a defined symbol's carrier to the
    listed argument tuples (useful when the full second order argument
    space is out of reach).
    """
    for h in d.defined_symbols:
        if o.interprets(h):
            raise EvaluationError(f"context already interprets defined {h.name}")
    if carriers is None:
        return o.expand_unknown(sorted(d.defined_symbols, key=lambda s: s.name), limits)
    i = o
    for h in sorted(d.defined_symbols, key=lambda s: s.name):
        c = carriers[h] if h in carriers else predicate_carrier(h.type, o.domain, limits)
        i = i.expand(h, PartialSet.constant(c, U))
    return i


# ---------------------------------------------------------------------------
# The three conditions


def is_closed(
    d: RuleSet,
    i: PartialInterpretation,
    limits: Limits = DEFAULT_LIMITS,
    _ctx: EvalContext | None = None,
) -> bool:
    """True bodies force true heads, for every rule instance."""
    ctx = _ctx or EvalContext(limits=limits)
    for atom in _defined_atoms(d, i):
        head_value = i.atom_value(atom)
        for v in _body_values(d, atom, i, ctx):
            if v is T and head_value is not T:
                return False
    return True


def is_unfounded(
    d: RuleSet,
    i: PartialInterpretation,
    u_set: Iterable[DomainAtom],
    limits: Limits = DEFAULT_LIMITS,
    _ctx: EvalContext | None = None,
) -> bool:
    """u_set is a u-set whose bodies are all f once the set is assumed f."""
    ctx = _ctx or EvalContext(limits=limits)
    atoms = sorted(set(u_set), key=_atom_key)
    defined = d.defined_symbols
    for a in atoms:
        if a.predicate not in defined:
            raise EvaluationError(f"{a.predicate.name} is not defined by the rule set")
        if i.atom_value(a) is not U:
            return False
    j = i.revise(atoms, F)
    return all(
        all(v is F for v in _body_values(d, a, j, ctx)) for a in atoms
    )


def greatest_unfounded_set(
    d: RuleSet,
    i: PartialInterpretation,
    limits: Limits = DEFAULT_LIMITS,
    _ctx: EvalContext | None = None,
) -> frozenset:
    """Largest unfounded set, by downward iteration from all u-atoms.

    Unfounded sets are closed under union (falsity is preserved under
    precision refinement), so the greatest one exists and braveness
    reduces to its emptiness.
    """
    ctx = _ctx or EvalContext(limits=limits)
    candidates = [a for a in _defined_atoms(d, i) if i.atom_value(a) is U]
    while candidates:
        j = i.revise(candidates, F)
        kept = [
            a
            for a in candidates
            if all(v is F for v in _body_values(d, a, j, ctx))
        ]
        if len(kept) == len(candidates):
            break
        candidates = kept
    return frozenset(candidates)


@dataclass
class StableReport:
    """Outcome of the three-condition partial stable test, with witnesses."""

    interpretation: PartialInterpretation
    defined_symbols: tuple
    supported: bool
    prudent: bool
    brave: bool
    unsupported_atoms: tuple = ()
    demotion_witness: tuple | None = None  # (t_set, u_set) defeating prudence
    unfounded_witness: frozenset | None = None
    is_wfm: bool | None = None  # filled in by well_founded_model when known

    @property
    def is_partial_stable(self) -> bool:
        return self.supported and self.prudent and self.brave

    @property
    def is_stable_exact(self) -> bool:
        return self.is_partial_stable and all(
            self.interpretation.value(h).is_exact for h in self.defined_symbols
        )


def _subsets(atoms: list) -> Iterator[tuple]:
    for r in range(len(atoms) + 1):
        yield from itertools.combinations(atoms, r)


def is_partial_stable(
    d: RuleSet,
    i: PartialInterpretation,
    limits: Limits = DEFAULT_LIMITS,
    _ctx: EvalContext | None = None,
) -> StableReport:
    ctx = _ctx or EvalContext(limits=limits)
    atoms = _defined_atoms(d, i)

    unsupported = tuple(
        a for a in atoms if i.atom_value(a) is not _supported_value(d, a, i, ctx)
    )
    supported = not unsupported

    t_atoms = [a for a in atoms if i.atom_value(a) is T]
    u_atoms = [a for a in atoms if i.atom_value(a) is U]

    prudent, demotion = True, None
    if t_atoms:
        if len(t_atoms) + len(u_atoms) > limits.max_subset_atoms:
            raise CapExceeded(
                f"prudence check over {len(t_atoms)} + {len(u_atoms)} atoms "
                f"exceeds cap {limits.max_subset_atoms}"
            )
        for t_sub in _subsets(t_atoms):
            if not t_sub:
                continue
            demoted = i.revise(t_sub, U)
            for u_sub in _subsets(u_atoms):
                j = demoted.revise(u_sub, T) if u_sub else demoted
                if is_closed(d, j, limits, _ctx=ctx):
                    prudent, demotion = False, (frozenset(t_sub), frozenset(u_sub))
                    break
            if not prudent:
                break

    gus = greatest_unfounded_set(d, i, limits, _ctx=ctx)
    brave = not gus

    return StableReport(
        interpretation=i,
        defined_symbols=tuple(sorted(d.defined_symbols, key=lambda s: s.name)),
        supported=supported,
        prudent=prudent,
        brave=brave,
        unsupported_atoms=unsupported,
        demotion_witness=demotion,
        unfounded_witness=gus or None,
    )


# ---------------------------------------------------------------------------
# Model enumeration


def partial_stable_models(
    d: RuleSet,
    o: PartialInterpretation,
    limits: Limits = DEFAULT_LIMITS,
    carriers: Optional[Mapping[Symbol, Iterable[tuple]]] = None,
    _ctx: EvalContext | None = None,
) -> list[PartialInterpretation]:
    """All partial stable interpretations expanding context o, by 3^n search."""
    i0 = expand_context(d, o, limits, carriers)
    atoms = _defined_atoms(d, i0)
    if len(atoms) > limits.max_defined_atoms:
        raise CapExceeded(
            f"{len(atoms)} defined atoms exceed cap {limits.max_defined_atoms}"
        )
    out = []
    for cand in i0.refinements(atoms, (T, U, F)):
        if is_partial_stable(d, cand, limits, _ctx=_ctx).is_partial_stable:
            out.append(cand)
    return out


def stable_models(
    d: RuleSet,
    o: PartialInterpretation,
    limits: Limits = DEFAULT_LIMITS,
    carriers: Optional[Mapping[Symbol, Iterable[tuple]]] = None,
    _ctx: EvalContext | None = None,
) -> list[PartialInterpretation]:
    """Exact partial stable interpretations, via the simplified exact test.

    For exact candidates braveness is vacuous and prudence reduces to:
    no non-empty t-set T with the T-demoted interpretation closed.
    """
    ctx = _ctx or EvalContext(limits=limits)
    i0 = expand_context(d, o, limits, carriers)
    atoms = _defined_atoms(d, i0)
    if len(atoms) > limits.max_defined_atoms:
        raise CapExceeded(
            f"{len(atoms)} defined atoms exceed cap {limits.max_defined_atoms}"
        )

    def unsupported(j: PartialInterpretation) -> bool:
        # an assigned atom whose Kleene supported value is already exact
        # and different stays unsupported in every candidate below j
        probe = EvalContext(limits=limits)
        try:
            return any(
                j.atom_value(a) is not U
                and _supported_value(d, a, j, probe) is neg(j.atom_value(a))
                for a in atoms
            )
        except EvaluationError:
            return False  # the candidates report it, in atom order

    safe = all(_probe_safe(r.body) for r in d.rules)
    out = []
    for cand in i0.refinements(atoms, cut=unsupported if safe else None):
        if any(
            cand.atom_value(a) is not _supported_value(d, a, cand, ctx)
            for a in atoms
        ):
            continue
        t_atoms = [a for a in atoms if cand.atom_value(a) is T]
        if len(t_atoms) > limits.max_subset_atoms:
            raise CapExceeded(
                f"stability check over {len(t_atoms)} true atoms exceeds cap "
                f"{limits.max_subset_atoms}"
            )
        stable = True
        for t_sub in _subsets(t_atoms):
            if t_sub and is_closed(d, cand.revise(t_sub, U), limits, _ctx=ctx):
                stable = False
                break
        if stable:
            out.append(cand)
    return out


# ---------------------------------------------------------------------------
# Well-founded model


def _wfm_fixpoint(
    d: RuleSet,
    i0: PartialInterpretation,
    atoms: list[DomainAtom],
    limits: Limits,
    ctx: EvalContext,
) -> PartialInterpretation:
    """Alternating fixpoint: derive true atoms, then drop the greatest
    unfounded set to false, until neither step moves."""
    i = i0
    while True:
        derived = [
            a
            for a in atoms
            if i.atom_value(a) is U and _supported_value(d, a, i, ctx) is T
        ]
        if derived:
            i = i.revise(derived, T)
            continue
        gus = greatest_unfounded_set(d, i, limits, _ctx=ctx)
        if gus:
            i = i.revise(sorted(gus, key=_atom_key), F)
            continue
        return i


# memo for the (pure, deterministic) fixpoint path, keyed by the rule set, the
# context's domain and assignments (callers pass `parameter_context`), the carrier
# restriction and the limits; at most _WFM_CACHE_MAX entries, oldest evicted first
_WFM_CACHE: dict = {}
_WFM_CACHE_MAX = 10_000


def parameter_context(d: RuleSet, i: PartialInterpretation) -> PartialInterpretation:
    """i restricted to the parameters of d it interprets: by locality all
    that d's well-founded model depends on, so all that its memo key holds."""
    return i.restrict([p for p in d.parameters if i.interprets(p)])


def well_founded_model(
    d: RuleSet,
    o: PartialInterpretation,
    limits: Limits = DEFAULT_LIMITS,
    carriers: Optional[Mapping[Symbol, Iterable[tuple]]] = None,
    _ctx: EvalContext | None = None,
) -> PartialInterpretation:
    """The precision-least partial stable model expanding context o,
    by the alternating fixpoint.  The tests check it against the least
    of the enumerated partial stable models."""
    ctx = _ctx or EvalContext(limits=limits)
    carrier_key = (
        None
        if carriers is None
        else tuple(
            sorted(((s, tuple(c)) for s, c in carriers.items()),
                   key=lambda kv: kv[0].name)
        )
    )
    key = (d, o.domain, o.assignments, carrier_key, limits)
    cached = _WFM_CACHE.get(key)
    if cached is not None:
        return cached
    i0 = expand_context(d, o, limits, carriers)
    atoms = _defined_atoms(d, i0)
    out = _wfm_fixpoint(d, i0, atoms, limits, ctx)
    if len(_WFM_CACHE) >= _WFM_CACHE_MAX:
        del _WFM_CACHE[next(iter(_WFM_CACHE))]
    _WFM_CACHE[key] = out
    return out


def is_total(
    d: RuleSet,
    o: PartialInterpretation,
    limits: Limits = DEFAULT_LIMITS,
    carriers: Optional[Mapping[Symbol, Iterable[tuple]]] = None,
) -> bool:
    """Paradox-freeness: the well-founded model is exact."""
    wfm = well_founded_model(d, o, limits, carriers)
    return all(wfm.value(h).is_exact for h in d.defined_symbols)


# ---------------------------------------------------------------------------
# Rule sets as formulas


def _relevant_u_atoms(
    d: RuleSet, i: PartialInterpretation, limits: Limits
) -> list[DomainAtom]:
    """Unknown atoms the membership test can depend on.

    All unknown defined atoms matter.  For parameters we take the atoms
    consulted while evaluating every rule body at the state where all
    defined atoms are unknown: evaluation never short-circuits, and
    consulted sets only shrink as interpretations get more precise, so
    this is a sound over-approximation for every completion.
    """
    defined = sorted(d.defined_symbols, key=lambda s: s.name)
    atoms = _defined_atoms(d, i)
    scan_ctx = EvalContext(limits=limits)
    scan = i.revise(atoms, U)
    for a in atoms:
        _body_values(d, a, scan, scan_ctx)
    defined_set = set(defined)
    # recording only fires on u-valued lookups, and parameters keep their
    # values from i in the scan state
    consulted = {a for a in scan_ctx.record if a.predicate not in defined_set}
    consulted.update(a for a in atoms if i.atom_value(a) is U)
    return sorted(consulted, key=_atom_key)


def _exact_check(
    d: RuleSet, i: PartialInterpretation, sem: str, limits: Limits, ctx: EvalContext
) -> TV:
    """Two-valued membership test on an interpretation exact over d's
    free predicate symbols."""
    defined = sorted(d.defined_symbols, key=lambda s: s.name)
    carriers = {h: i.value(h).carrier for h in defined}
    if sem == "w":
        wfm = well_founded_model(d, parameter_context(d, i), limits, carriers, _ctx=ctx)
        return TV.of(
            all(wfm.value(h).is_exact for h in defined)
            and all(wfm.value(h) == i.value(h) for h in defined)
        )
    if sem == "st":
        rep = is_partial_stable(d, i, limits, _ctx=ctx)
        return TV.of(rep.is_partial_stable)
    raise EvaluationError(f"unknown rule-set semantics {sem!r}")


def eval_definition(
    d: RuleSet,
    i: PartialInterpretation,
    sem: str = "w",
    limits: Limits = DEFAULT_LIMITS,
    _ctx: EvalContext | None = None,
) -> TV:
    """Truth value of a rule set used as a formula.

    On interpretations exact over the rule set's free predicate
    symbols: t iff i is an exact well-founded ("w") respectively stable
    ("st") interpretation of d.  Otherwise the ultimate approximation:
    glb over all exact completions of the unknown atoms.
    """
    ctx = _ctx or EvalContext(limits=limits)
    preds = sorted((s for s in d.free if s.type.is_predicate), key=lambda s: s.name)
    if not i.u_atoms(preds):
        return _exact_check(d, i, sem, limits, ctx)
    unknown = _relevant_u_atoms(d, i, limits)
    if not unknown:
        return _exact_check(d, i, sem, limits, ctx)
    ctx.record.update(unknown)
    if len(unknown) > limits.max_unknowns:
        raise CapExceeded(
            f"{len(unknown)} unknown atoms exceed cap {limits.max_unknowns}"
        )
    results = []
    for j in i.refinements(unknown):
        results.append(_exact_check(d, j, sem, limits, ctx))
        if results[-1] is not results[0]:
            return U
    return glb_prec(results)
