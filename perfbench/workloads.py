"""Seeded job generators and independent oracles for the four workloads.

A workload round is a fixed list of jobs.  Each job carries its input
files, a deflog CLI argument list (or, where no verb expresses the job,
a library call returning text) and a check.  Checks compare the job's
output with answers computed here, from the generator's own view of
the input, never with another deflog result.

Every job draws fresh symbol names, element names and graphs from the
round's random generator, so no two jobs of a run share inputs.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Outcome:
    """What a job produced: exit code, standard output, and the type
    name of an uncaught exception (None when the job ended normally)."""

    code: int
    out: str
    error: str | None = None


@dataclass
class Job:
    label: str  # job class, e.g. "chain16"; the same for every round
    check: Callable[[Outcome], str | None]  # None when right, else why not
    argv: list[str] | None = None  # deflog verb and arguments
    api: Callable[[], str] | None = None  # library call, when no verb fits
    files: dict[str, str] = field(default_factory=dict)
    # the exception type the job is known to fail with today (a defect the
    # workload keeps visible); a failure of any other kind is unexpected
    known_defect: str | None = None


class Names:
    """Fresh identifiers, unique within one job and drawn from the rng."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.taken: set[str] = set()

    def __call__(self, prefix: str) -> str:
        while True:
            name = f"{prefix}{self.rng.randrange(10**5)}"
            if name not in self.taken:
                self.taken.add(name)
                return name


# ---------------------------------------------------------------------------
# Shared oracle helpers


def warshall(nodes, edges) -> set:
    reach = set(edges)
    for k in nodes:
        for i in nodes:
            if (i, k) in reach:
                for j in nodes:
                    if (k, j) in reach:
                        reach.add((i, j))
    return reach


def retrograde(nodes, moves) -> dict:
    """Game value of each position: 't' won, 'f' lost, 'u' drawn.

    A position without moves is lost; one with a move to a lost position
    is won; one whose moves all reach won positions is lost.
    """
    succ = {n: [b for a, b in moves if a == n] for n in nodes}
    value: dict = {}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            if n in value:
                continue
            if any(value.get(s) == "f" for s in succ[n]):
                value[n] = "t"
            elif all(value.get(s) == "t" for s in succ[n]):
                value[n] = "f"
            else:
                continue
            changed = True
    return {n: value.get(n, "u") for n in nodes}


def backward_induction(nodes, moves, won) -> tuple[dict, dict]:
    """Win and lose of each position of an acyclic game with won set `won`."""
    win: dict = {}
    lose: dict = {}
    for n in reversed(nodes):  # DAG edges only go from lower to higher index
        succ = [b for a, b in moves if a == n]
        win[n] = n in won or any(lose[s] for s in succ)
        lose[n] = n not in won and all(win[s] for s in succ)
    return win, lose


def is_equivalence(rel, dom) -> bool:
    return (
        all((a, a) in rel for a in dom)
        and all((b, a) in rel for a, b in rel)
        and all((a, c) in rel for a, b in rel for b2, c in rel if b == b2)
    )


_PAIR = re.compile(r"\((\w+), (\w+)\)")


def relation_args(key: str) -> list[set]:
    """Binary relations in a second order key such as '({(a, b)}, {(a, a)})'."""
    return [set(_PAIR.findall(group)) for group in re.findall(r"\{([^}]*)\}", key)]


def expect(cond: bool, why: str) -> str | None:
    return None if cond else why


def exit_ok(o: Outcome) -> str | None:
    if o.error is not None:
        return f"raised {o.error}"
    if o.code != 0:
        return f"exit code {o.code}"
    return None


def json_check(fn):
    """Check a --json verb: exit 0, then `fn` on the parsed payload."""

    def check(o: Outcome) -> str | None:
        why = exit_ok(o)
        if why:
            return why
        try:
            payload = json.loads(o.out)
        except ValueError:
            return "output is not JSON"
        return fn(payload)

    return check


def text_check(expected: str):
    def check(o: Outcome) -> str | None:
        return exit_ok(o) or expect(o.out == expected, "unexpected output text")

    return check


# ---------------------------------------------------------------------------
# Formula trees: the generator prints them in deflog's canonical form
# (fully parenthesised binaries, `~` applied directly to atoms and
# negations) and evaluates them itself.

def prop_tree(rng: random.Random, leaves: list[str]):
    """A random binary tree over the given leaf atoms, in order."""
    if len(leaves) == 1:
        return ("atom", leaves[0])
    cut = rng.randint(1, len(leaves) - 1)
    op = rng.choice(("&", "|", "=>", "<=>"))
    return (op, prop_tree(rng, leaves[:cut]), prop_tree(rng, leaves[cut:]))


def negate_leaves(t, chosen: set, counter: list):
    """Negate the leaves whose in-order index is in `chosen`."""
    if t[0] == "atom":
        counter[0] += 1
        return ("not", t) if counter[0] - 1 in chosen else t
    return (t[0], negate_leaves(t[1], chosen, counter), negate_leaves(t[2], chosen, counter))


def print_prop(t) -> str:
    if t[0] == "atom":
        return t[1]
    if t[0] == "not":
        body = print_prop(t[1])
        return f"~{body}" if t[1][0] in ("atom", "not") else f"~({body})"
    return f"({print_prop(t[1])} {t[0]} {print_prop(t[2])})"


def truth_table(t, bits: dict, mask: int) -> int:
    """Bit i of the result is t's value under the i-th assignment."""
    kind = t[0]
    if kind == "atom":
        return bits[t[1]]
    if kind == "not":
        return mask & ~truth_table(t[1], bits, mask)
    a, b = truth_table(t[1], bits, mask), truth_table(t[2], bits, mask)
    if kind == "=>":
        return (mask & ~a) | b
    if kind == "<=>":
        return mask & ~(a ^ b)
    return a & b if kind == "&" else a | b


def atom_bits(atoms: list[str]) -> tuple[dict, int]:
    n = len(atoms)
    size = 1 << n
    mask = (1 << size) - 1
    bits = {}
    for i, a in enumerate(atoms):
        block = 1 << i  # runs of 2^i zeros then 2^i ones
        pattern = ((1 << block) - 1) << block
        period = 2 * block
        word = 0
        for start in range(0, size, period):
            word |= pattern << start
        bits[a] = word & mask
    return bits, mask


# ---------------------------------------------------------------------------
# wfm-chain: alternating fixpoint on reachability and game definitions


def reach_job(rng, label: str, n: int, chain: bool) -> Job:
    nm = Names(rng)
    e, r = nm("E"), nm("R")
    nodes = [nm("n") for _ in range(n)]
    if chain:
        order = nodes[:]
        rng.shuffle(order)
        edges = {(order[i], order[i + 1]) for i in range(n - 1)}
    else:
        edges = set()
        while len(edges) < n + n // 3:
            a, b = rng.sample(nodes, 2)
            edges.add((a, b))
    listed = sorted(edges)
    rng.shuffle(listed)
    shown = nodes[:]
    rng.shuffle(shown)
    theory = (
        f"vocab {{ {e}: pred/2; {r}: pred/2; }}\n"
        f"definition reach {{ {r}(x, y) <- {e}(x, y) | (?z: {r}(x, z) & {e}(z, y)). }}\n"
    )
    struct = (
        f"domain = {{{', '.join(shown)}}}\n"
        f"{e} = {{{', '.join(f'({a}, {b}): t' for a, b in listed)}, *: f}}\n"
    )
    closure = warshall(nodes, edges)

    def on_payload(p):
        got = p["symbols"][r]
        want = {
            f"({a}, {b})": "t" if (a, b) in closure else "f"
            for a in nodes for b in nodes
        }
        return expect(got == want, "reachability differs from Warshall closure")

    return Job(label, json_check(on_payload), ["wfm", "--json", "-d", "reach", "t.theory", "s.struct"],
               files={"t.theory": theory, "s.struct": struct})


def game_job(rng, label: str) -> Job:
    """`win` on a random cyclic move graph of 20 positions with at least
    one drawn position."""
    nm = Names(rng)
    m, win = nm("M"), nm("W")
    nodes = [nm("n") for _ in range(20)]
    moves = set()
    a, b = rng.sample(nodes, 2)
    moves |= {(a, b), (b, a)}  # a two-cycle without exits: both drawn
    others = [x for x in nodes if x not in (a, b)]
    # a fixed out-degree sequence (three dead ends): 31 moves in every job
    degrees = [0, 0, 0] + [1] * 5 + [2] * 6 + [3] * 4
    rng.shuffle(degrees)
    for x, deg in zip(others, degrees):
        for y in rng.sample([y for y in nodes if y != x], deg):
            moves.add((x, y))
    listed = sorted(moves)
    rng.shuffle(listed)
    theory = (
        f"vocab {{ {m}: pred/2; {win}: pred/1; }}\n"
        f"definition game {{ {win}(x) <- ?y: {m}(x, y) & ~{win}(y). }}\n"
    )
    struct = (
        f"domain = {{{', '.join(nodes)}}}\n"
        f"{m} = {{{', '.join(f'({x}, {y}): t' for x, y in listed)}, *: f}}\n"
    )
    value = retrograde(nodes, moves)

    def on_payload(p):
        got = p["symbols"][win]
        want = {f"({x})": v for x, v in value.items()}
        return expect(got == want, "game values differ from retrograde analysis")

    return Job(label, json_check(on_payload), ["wfm", "--json", "t.theory", "s.struct"],
               files={"t.theory": theory, "s.struct": struct})


# Class counts per round are chosen so that the median and the 75th
# percentile of job times (job_p50_s, job_tail_s) fall inside a class of
# similar jobs, not on the boundary between a fast and a slow class.


def wfm_chain_round(rng) -> list[Job]:
    jobs = [reach_job(rng, "chain16", 16, True)]
    jobs += [reach_job(rng, "chain12", 12, True) for _ in range(2)]
    jobs += [reach_job(rng, "chain8", 8, True) for _ in range(5)]
    jobs += [reach_job(rng, "digraph11", 11, False) for _ in range(6)]
    jobs += [game_job(rng, "game20") for _ in range(9)]
    return jobs


# ---------------------------------------------------------------------------
# search: completion enumeration and the prudence subset loops


def mx_job(rng, label: str, k: int) -> Job:
    """Model expansion of "exactly one of k" over k free propositions."""
    nm = Names(rng)
    ps = [nm("p") for _ in range(k)]
    some = list(ps)
    rng.shuffle(some)
    pairs = [
        f"~({a} & {b})" if rng.random() < 0.5 else f"(~{a} | ~{b})"
        for a, b in itertools.combinations(ps, 2)
    ]
    rng.shuffle(pairs)
    theory = (
        "vocab { " + " ".join(f"{p}: pred/0;" for p in ps) + " }\n"
        f"formula some {{ {' | '.join(some)} }}\n"
        f"formula atmost {{ {' & '.join(pairs)} }}\n"
    )

    def on_payload(p):
        if p["count"] != k:
            return f"{p['count']} models, expected {k}"
        hot = []
        for model in p["models"]:
            true = [q for q in ps if model["symbols"][q]["()"] == "t"]
            if len(true) != 1:
                return "a model is not one-hot"
            hot.append(true[0])
        return expect(sorted(hot) == sorted(ps), "one-hot models repeat")

    return Job(label, json_check(on_payload), ["mx", "--json", "t.theory", "s.struct"],
               files={"t.theory": theory, "s.struct": f"domain = {{{nm('a')}}}\n"})


def stable_job(rng, label: str, k: int) -> Job:
    """k independent choice pairs p <- ~q. q <- ~p: 2^k stable models."""
    nm = Names(rng)
    pairs = [(nm("p"), nm("q")) for _ in range(k)]
    rules = [r for p, q in pairs for r in (f"{p} <- ~{q}.", f"{q} <- ~{p}.")]
    rng.shuffle(rules)
    theory = (
        "vocab { " + " ".join(f"{s}: pred/0;" for pq in pairs for s in pq) + " }\n"
        f"definition choice {{ {' '.join(rules)} }}\n"
    )

    def on_payload(p):
        if p["count"] != 2**k:
            return f"{p['count']} stable models, expected {2**k}"
        seen = set()
        for model in p["models"]:
            vals = model["symbols"]
            picks = []
            for a, b in pairs:
                va, vb = vals[a]["()"], vals[b]["()"]
                if {va, vb} != {"t", "f"}:
                    return "a stable model does not pick one of each pair"
                picks.append(va)
            seen.add(tuple(picks))
        return expect(len(seen) == 2**k, "stable models repeat")

    return Job(label, json_check(on_payload), ["stable", "--json", "t.theory", "s.struct"],
               files={"t.theory": theory, "s.struct": f"domain = {{{nm('a')}}}\n"})


def super_job(rng, label: str, k: int) -> Job:
    """Supervaluation of a formula over k unknown atoms whose value is
    exact, so every one of the 2^k completions is visited."""
    nm = Names(rng)
    ps = [nm("p") for _ in range(k)]
    bits, mask = atom_bits(ps)
    # every atom twice, in random order, k of the 2k leaves negated: the
    # same node count, so the same cost per completion, in every job
    leaves = ps + ps
    rng.shuffle(leaves)
    phi = negate_leaves(prop_tree(rng, leaves), set(rng.sample(range(2 * k), k)), [0])
    # phi | ~phi is valid and ~phi & phi contradictory: exact values
    tree = ("|", phi, ("not", phi)) if rng.random() < 0.5 else ("&", ("not", phi), phi)
    table = truth_table(tree, bits, mask)
    want = "t" if table == mask else "f" if table == 0 else "u"
    theory = (
        "vocab { " + " ".join(f"{p}: pred/0;" for p in ps) + " }\n"
        f"formula f {{ {print_prop(tree)} }}\n"
    )
    struct = f"domain = {{{nm('a')}}}\n" + "".join(f"{p} = {{(): u}}\n" for p in ps)
    return Job(label, json_check(lambda p: expect(p == {"f": want}, "supervaluation differs from truth table")),
               ["eval", "-m", "super", "--json", "t.theory", "s.struct"],
               files={"t.theory": theory, "s.struct": struct})


def search_round(rng) -> list[Job]:
    jobs = [mx_job(rng, f"mx{k}", k) for k in (8, 8, 8, 9, 10, 11)]
    jobs += [stable_job(rng, f"stable{k}", k) for k in (4, 4, 4, 4, 5, 5, 6)]
    jobs += [super_job(rng, f"super{k}", k) for k in (10,) * 7 + (11,) * 7 + (12, 14)]
    return jobs


# ---------------------------------------------------------------------------
# templates: many small memoised fixpoints over second order value spaces

EQ_THEORY = """vocab {{ {eq}: template so-pred(pred/2); {p}: pred/2; {q}: pred/2; }}
template {t} {{
  {eq}(F) <-
    (!a: F(a, a))
    & (!a: !b: F(a, b) <=> F(b, a))
    & (!a: !b: !c: (F(a, b) & F(b, c)) => F(a, c)).
}}
formula both {{ {eq}({p}) & {eq}({q}) }}
"""

TC_THEORY = """vocab {{ {tc}: template so-pred(pred/2, pred/2); {e}: pred/2; {p}: pred/2; }}
template {t} {{
  {tc}(P, Q) <- {{Q(x, y) <- P(x, y) | (?z: Q(x, z) & Q(z, y)).}}.
}}
formula closed {{ {tc}({e}, {p}) }}
"""

RANGE_THEORY = """vocab {{ {rng}: template so-pred(pred/1, domain, domain); }}
template {t} {{
  {rng}(P, a, b) <- {{
    P(a).
    P(x) <- a < b & (?Q[pred/1]: {rng}(Q, a + 1, b) & Q(x)).
  }}.
}}
"""

GAME_THEORY = """vocab {{
  {win}: template so-pred(domain, pred/2, pred/1);
  {lose}: template so-pred(domain, pred/2, pred/1);
}}
template {t} {{
  {win}(cur, Move, IsWon) <-
    IsWon(cur) | (?nxt: Move(cur, nxt) & {lose}(nxt, Move, IsWon)).
  {lose}(cur, Move, IsWon) <-
    ~IsWon(cur) & (!nxt: Move(cur, nxt) => {win}(nxt, Move, IsWon)).
}}
"""


def random_relation(rng, dom) -> list[tuple]:
    return [(a, b) for a in dom for b in dom if rng.random() < 0.4]


def rel_text(sym: str, rel) -> str:
    return f"{sym} = {{{''.join(f'({a}, {b}): t, ' for a, b in rel)}*: f}}\n"


def eq_job(rng, label: str, size: int) -> Job:
    nm = Names(rng)
    eq, p, q = nm("isEq"), nm("P"), nm("Q")
    dom = [nm("d") for _ in range(size)]
    theory = EQ_THEORY.format(eq=eq, p=p, q=q, t=nm("eq"))
    struct = f"domain = {{{', '.join(dom)}}}\n" + rel_text(p, random_relation(rng, dom)) \
        + rel_text(q, random_relation(rng, dom))

    def on_payload(pl):
        got = pl["symbols"][eq]
        if len(got) != 2 ** (size * size):
            return f"{len(got)} relations listed, expected {2 ** (size * size)}"
        for key, v in got.items():
            (rel,) = relation_args(key)
            if (v == "t") != is_equivalence(rel, dom):
                return f"equivalence test wrong on {key}"
        return None

    return Job(label, json_check(on_payload), ["apply-lib", "--json", "t.theory", "s.struct"],
               files={"t.theory": theory, "s.struct": struct})


def tc_job(rng, label: str) -> Job:
    nm = Names(rng)
    tc, e, p = nm("tc"), nm("E"), nm("P")
    dom = [nm("d") for _ in range(2)]
    theory = TC_THEORY.format(tc=tc, e=e, p=p, t=nm("closure"))
    struct = f"domain = {{{', '.join(dom)}}}\n" + rel_text(e, random_relation(rng, dom)) \
        + rel_text(p, random_relation(rng, dom))

    def on_payload(pl):
        got = pl["symbols"][tc]
        if len(got) != 256:
            return f"{len(got)} pairs listed, expected 256"
        for key, v in got.items():
            rp, rq = relation_args(key)
            if (v == "t") != (warshall(dom, rp) == rq):
                return f"closure test wrong on {key}"
        return None

    return Job(label, json_check(on_payload), ["apply-lib", "--json", "t.theory", "s.struct"],
               files={"t.theory": theory, "s.struct": struct})


def range_job(rng, label: str) -> Job:
    nm = Names(rng)
    sym = nm("range")
    theory = RANGE_THEORY.format(rng=sym, t=nm("rng"))

    def on_payload(pl):
        got = pl["symbols"][sym]
        if len(got) != 8 * 9:
            return f"{len(got)} instances listed, expected 72"
        for key, v in got.items():
            m = re.fullmatch(r"\(\{(.*)\}, (\d+), (\d+)\)", key)
            members = {int(x) for x in re.findall(r"\d+", m.group(1))}
            a, b = int(m.group(2)), int(m.group(3))
            want = set(range(a, b + 1)) or {a}
            if (v == "t") != (members == want):
                return f"range test wrong on {key}"
        return None

    return Job(label, json_check(on_payload), ["apply-lib", "--json", "t.theory", "s.struct"],
               files={"t.theory": theory, "s.struct": "domain = {1..3}\n"})


def validate_job(rng, label: str, kind: str) -> Job:
    nm = Names(rng)
    t = nm(kind)
    if kind == "eq":
        theory = EQ_THEORY.format(eq=nm("isEq"), p=nm("P"), q=nm("Q"), t=t)
    elif kind == "tc":
        theory = TC_THEORY.format(tc=nm("tc"), e=nm("E"), p=nm("P"), t=t)
    elif kind == "game":
        theory = GAME_THEORY.format(win=nm("win"), lose=nm("lose"), t=t)
    else:
        theory = RANGE_THEORY.format(rng=nm("range"), t=t)
    return Job(label, text_check(f"order: {t}\nok\n"), ["validate-lib", "t.theory"],
               files={"t.theory": theory})


def expand_job(rng, label: str) -> Job:
    nm = Names(rng)
    eq = nm("isEq")
    theory = EQ_THEORY.format(eq=eq, p=nm("P"), q=nm("Q"), t=nm("eq"))

    def check(o: Outcome):
        why = exit_ok(o)
        if why:
            return why
        lines = o.out.splitlines()
        if lines[-1:] != ["equiv: pass"]:
            return "expansion not reported equivalent"
        return expect(eq not in o.out, "template atom left after expansion")

    return Job(label, check, ["expand", "--check-equiv", "t.theory"], files={"t.theory": theory})


def eliminate_job(rng, label: str) -> Job:
    nm = Names(rng)
    s, p, r = nm("S"), nm("P"), nm("R")
    body, _ = fo_tree(rng, {s: 1, p: 2, r: 1}, ["v9"], 4)
    # the second order quantifier outside or inside a first order one
    phi = f"?? {s}[pred/1]: ?v9: {body}" if rng.random() < 0.5 else f"!v9: ?? {s}[pred/1]: {body}"
    theory = f"vocab {{ {p}: pred/2; {r}: pred/1; }}\nformula f {{ {phi} }}\n"

    def check(o: Outcome):
        return exit_ok(o) or expect(o.out.splitlines()[-1:] == ["equiv: pass"],
                                    "rewrite not reported equivalent")

    return Job(label, check, ["eliminate-so", "--check-equiv", "t.theory"], files={"t.theory": theory})


def random_dag(rng, nodes) -> frozenset:
    return frozenset(
        (a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:] if rng.random() < 0.5
    )


def game_so_job(rng, label: str, count: int) -> Job:
    """The game template applied through so_instances to `count` distinct
    4-node DAGs (no verb takes argument-tuple restrictions)."""
    nm = Names(rng)
    win, lose = nm("win"), nm("lose")
    theory_text = GAME_THEORY.format(win=win, lose=lose, t=nm("game"))
    nodes = (1, 2, 3, 4)
    games, seen = [], set()
    while len(games) < count:
        moves = random_dag(rng, nodes)
        won = frozenset(n for n in nodes if rng.random() < 0.3)
        if (moves, won) not in seen:
            seen.add((moves, won))
            games.append((moves, won))

    def call() -> str:
        from deflog import PartialInterpretation, Template, TemplateLibrary, apply_library, parse_theory

        th = parse_theory(theory_text)
        lib = TemplateLibrary(tuple(Template(n, rs) for n, rs in th.templates.items()))
        win_s, lose_s = th.vocabulary.get(win), th.vocabulary.get(lose)
        rows = []
        for moves, won in games:
            won_rel = frozenset((n,) for n in won)
            carriers = {s: [(n, moves, won_rel) for n in nodes] for s in (win_s, lose_s)}
            out = apply_library(PartialInterpretation.empty(nodes), lib, so_instances=carriers)
            rows.append(" ".join(
                f"{out.value(win_s).value((n, moves, won_rel)).value}"
                f"{out.value(lose_s).value((n, moves, won_rel)).value}"
                for n in nodes
            ))
        return "\n".join(rows) + "\n"

    want = []
    for moves, won in games:
        w, l = backward_induction(nodes, moves, won)
        want.append(" ".join(f"{'t' if w[n] else 'f'}{'t' if l[n] else 'f'}" for n in nodes))
    return Job(label, text_check("\n".join(want) + "\n"), api=call)


def templates_round(rng) -> list[Job]:
    jobs = [eq_job(rng, "eq3", 3), range_job(rng, "range3"), expand_job(rng, "expand-eq")]
    jobs += [eq_job(rng, "eq2", 2) for _ in range(3)]
    jobs += [tc_job(rng, "tc2") for _ in range(6)]
    jobs += [validate_job(rng, f"validate-{k}", k) for k in ("eq", "tc", "game", "range")]
    jobs += [eliminate_job(rng, "eliminate") for _ in range(4)]
    jobs += [game_so_job(rng, "game-dags", 25) for _ in range(10)]
    return jobs


# ---------------------------------------------------------------------------
# frontend: parser, syntax walkers and the structure reader

FO, ESO, ASO, SO = "FO(ID*)", "ESO(ID*)", "ASO(ID*)", "SO(ID*)-only"


def fo_tree(rng, preds: dict[str, int], bound: list[str], size: int) -> tuple[str, str]:
    """Canonical text of a random first order formula over `preds`, with
    its top node kind; every variable used is in `bound` (non-empty)."""
    if size <= 1:
        if rng.random() < 0.1 and len(bound) > 1:
            return f"{bound[0]} = {bound[-1]}", "cmp"
        name = rng.choice(sorted(preds))
        args = [rng.choice(bound) for _ in range(preds[name])]
        return (f"{name}({', '.join(args)})" if args else name), "atom"
    r = rng.random()
    if r < 0.2:
        v = f"x{len(bound)}"
        body, _ = fo_tree(rng, preds, bound + [v], size - 1)
        return f"{rng.choice('!?')}{v}: {body}", "quant"
    if r < 0.35:
        body, kind = fo_tree(rng, preds, bound, size - 1)
        return (f"~{body}" if kind in ("atom", "not") else f"~({body})"), "not"
    left = rng.randint(1, size - 1)
    lhs, kind = fo_tree(rng, preds, bound, left)
    if kind == "quant":  # a quantifier scope as left operand is closed off
        lhs = f"({lhs})"
    rhs, _ = fo_tree(rng, preds, bound, size - left)
    return f"({lhs} {rng.choice(('&', '|', '=>', '<=>'))} {rhs})", "bin"


def so_formula(rng, preds: dict[str, int], size: int) -> tuple[str, str]:
    """A closed formula of a chosen fragment, with that fragment's name."""
    shape = rng.choice(("fo", "fo", "eso", "eso-neg", "aso", "aso-neg", "so"))
    x = ["x0"]
    var1, var2 = "X1", "Y1"
    with_x = dict(preds, **{var1: 1})
    with_y = dict(preds, **{var2: 1})
    if shape == "fo":
        return f"!x0: {fo_tree(rng, preds, x, size)[0]}", FO
    body = f"!x0: {fo_tree(rng, with_x, x, size)[0]}"
    if shape == "eso":
        return f"?? {var1}[pred/1]: {body}", ESO
    if shape == "eso-neg":
        return f"~(!! {var1}[pred/1]: {body})", ESO
    if shape == "aso":
        return f"!! {var1}[pred/1]: {body}", ASO
    if shape == "aso-neg":
        return f"~(?? {var1}[pred/1]: {body})", ASO
    b2 = f"!x0: {fo_tree(rng, with_y, x, size // 2)[0]}"
    return f"((?? {var1}[pred/1]: {body}) & !! {var2}[pred/1]: {b2})", SO


def big_theory(rng, n_formulas: int, size: int) -> tuple[str, dict, dict]:
    """A theory of n_formulas formulas and a few first order definitions.

    Returns the text, each item's fragment (as `classify` names it) and
    each formula's canonical text."""
    nm = Names(rng)
    preds = {nm("P"): rng.choice((0, 1, 1, 2, 2, 3)) for _ in range(12)}
    heads = {nm("H"): 1 for _ in range(4)}
    lines = ["vocab {"]
    lines += [f"  {p}: pred/{a};" for p, a in {**preds, **heads}.items()]
    lines.append("}")
    fragments: dict = {}
    texts: dict = {}
    for _ in range(n_formulas):
        name = nm("f")
        text, frag = so_formula(rng, preds, size)
        lines.append(f"formula {name} {{ {text} }}")
        fragments[f"formula {name}"] = frag
        texts[name] = text
    for h in heads:
        name = nm("d")
        body, _ = fo_tree(rng, dict(preds, **{h: 1}), ["x0"], size // 3)
        lines.append(f"definition {name} {{ {h}(x0) <- {body}. }}")
        fragments[f"definition {name}"] = FO
    return "\n".join(lines) + "\n", fragments, texts


def classify_job(rng, label: str) -> Job:
    theory, fragments, _ = big_theory(rng, 100, 20)
    # the verb lists formulas, then definitions, each sorted by name
    rows = sorted(fragments.items(), key=lambda kv: (not kv[0].startswith("formula"), kv[0]))
    want = "".join(f"{k}: {v}\n" for k, v in rows)
    return Job(label, text_check(want), ["classify", "t.theory"], files={"t.theory": theory})


def typecheck_job(rng, label: str) -> Job:
    theory, _, _ = big_theory(rng, 100, 20)
    return Job(label, text_check("ok\n"), ["typecheck", "t.theory"], files={"t.theory": theory})


def roundtrip_job(rng, label: str) -> Job:
    """parse_theory, typecheck, classify and unparse through the library:
    no verb prints the canonical form of every formula."""
    theory, fragments, texts = big_theory(rng, 300, 20)

    def call() -> str:
        from deflog import classify, parse_theory, typecheck, unparse

        th = parse_theory(theory)
        rows = []
        for name, phi in sorted(th.formulas.items()):
            diags = typecheck(phi, th.vocabulary)
            rows.append(f"{name}\t{classify(phi)}\t{len(diags)}\t{unparse(phi)}")
        return "\n".join(rows) + "\n"

    want = "".join(
        f"{name}\t{fragments['formula ' + name]}\t0\t{texts[name]}\n" for name in sorted(texts)
    )
    return Job(label, text_check(want), api=call)


def structure_job(rng, label: str) -> Job:
    """Read and write a structure of 3,600 tuples.  `apply-lib` with a
    template-free theory reads the structure and writes it back."""
    nm = Names(rng)
    dom = [nm("e") for _ in range(60)]
    p, q = nm("P"), nm("Q")
    theory = f"vocab {{ {p}: pred/2; {q}: pred/1; }}\n"
    values = {(a, b): rng.choice("tttuuf") for a in dom for b in dom}
    qvals = {a: rng.choice("tf") for a in dom}
    entries = [f"({a}, {b}): {v}" for (a, b), v in values.items() if v != "t"]
    rng.shuffle(entries)
    struct = (
        f"domain = {{{', '.join(dom)}}}\n"
        f"{p} = {{{', '.join(entries)}, *: t}}\n"
        f"{q} = {{{', '.join(f'({a}): {v}' for a, v in qvals.items())}}}\n"
    )

    def check(o: Outcome):
        why = exit_ok(o)
        if why:
            return why
        got = read_struct_text(o.out)
        if got is None:
            return "structure output does not parse"
        dom_out, rels = got
        if sorted(dom_out) != sorted(dom) or set(rels) != {p, q}:
            return "domain or symbols differ"
        want_p = {f"({a}, {b})": v for (a, b), v in values.items()}
        want_q = {f"({a})": v for a, v in qvals.items()}
        if expand_default(rels[p], want_p) != want_p or expand_default(rels[q], want_q) != want_q:
            return "structure values differ"
        return None

    return Job(label, check, ["apply-lib", "t.theory", "s.struct"],
               files={"t.theory": theory, "s.struct": struct})


def read_struct_text(text: str):
    """The benchmark's own reader for first order structure text."""
    dom, rels = None, {}
    for line in text.splitlines():
        m = re.fullmatch(r"(\w+) = \{(.*)\}", line)
        if not m:
            return None
        name, body = m.groups()
        if name == "domain":
            dom = [x.strip() for x in body.split(",")]
        else:
            rels[name] = dict(re.findall(r"(\([^)]*\)|\*): ([tuf])", body))
    return None if dom is None else (dom, rels)


def expand_default(listed: dict, carrier: dict) -> dict:
    default = listed.get("*")
    return {k: listed.get(k, default) for k in carrier}


DEEP = 3000


def deep_job(rng, label: str, kind: str) -> Job:
    """`eval` of a 3000-term conjunction or 3000 nested negations: the
    depth at which the known RecursionError defect shows."""
    nm = Names(rng)
    p = nm("p")
    truth = rng.choice("tf")
    # p & p & ... & p, or an even number of negations of p: both are p
    phi = " & ".join([p] * DEEP) if kind == "and" else "~" * DEEP + p
    theory = f"vocab {{ {p}: pred/0; }}\nformula deep {{ {phi} }}\n"
    struct = f"domain = {{{nm('a')}}}\n{p} = {{(): {truth}}}\n"
    return Job(label, text_check(f"deep: {truth}\n"), ["eval", "t.theory", "s.struct"],
               files={"t.theory": theory, "s.struct": struct},
               known_defect="RecursionError")


def frontend_round(rng) -> list[Job]:
    jobs = [classify_job(rng, "classify") for _ in range(5)]
    jobs += [typecheck_job(rng, "typecheck") for _ in range(5)]
    jobs += [roundtrip_job(rng, "roundtrip") for _ in range(2)]
    jobs += [structure_job(rng, "structure") for _ in range(6)]
    jobs += [deep_job(rng, "deep-and", "and"), deep_job(rng, "deep-not", "not")]
    return jobs


ROUNDS = {
    "wfm-chain": wfm_chain_round,
    "search": search_round,
    "templates": templates_round,
    "frontend": frontend_round,
}


def round_jobs(workload: str, seed: int, round_no: int) -> list[Job]:
    return ROUNDS[workload](random.Random(f"{workload}:{seed}:{round_no}"))
