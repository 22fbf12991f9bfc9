"""Independent reference checker: a small token game over net text.

Nothing here imports ``repro``.  The checker reads the textual net form
(``net`` / ``place`` / ``trans`` / ``arc`` lines) itself, plays the
1-safe token game on integer bitmasks, and answers the questions the
benchmark asks the program: the reachable-marking count, the dead
markings, whether the net stays 1-safe, the truth of a property, and
whether a witness trace replays.  The benchmark trusts an answer from
the program only when it agrees with this module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = [
    "RefNet",
    "Space",
    "SpaceTooLarge",
    "parse_text",
    "explore",
    "parse_query",
    "query_holds",
    "eval_pred",
    "replay",
]


class SpaceTooLarge(RuntimeError):
    """The reachable set exceeds the checker's state bound."""


@dataclass
class RefNet:
    """A safe net as bitmasks: place ``i`` is bit ``1 << i``."""

    name: str
    places: list[str]
    transitions: list[str]
    pre: list[int]
    post: list[int]
    initial: int
    place_index: dict[str, int] = field(default_factory=dict)
    trans_index: dict[str, int] = field(default_factory=dict)

    def mask(self, names) -> int:
        out = 0
        for name in names:
            out |= 1 << self.place_index[name]
        return out

    def names(self, marking: int) -> frozenset[str]:
        return frozenset(
            p for i, p in enumerate(self.places) if marking >> i & 1
        )

    def is_dead(self, marking: int) -> bool:
        return not any(marking & pre == pre for pre in self.pre)

    def fire(self, marking: int, t: int) -> int:
        """Fire ``t`` (must be enabled); raises on a second token."""
        rest = marking & ~self.pre[t]
        if rest & self.post[t]:
            raise ValueError(f"{self.transitions[t]} puts a second token")
        return rest | self.post[t]


def parse_text(text: str) -> RefNet:
    """Read the native text form (the subset ``to_text`` writes, plus
    ``arc`` lines)."""
    name = "net"
    places: list[str] = []
    marked: list[str] = []
    trans: dict[str, tuple[list[str], list[str]]] = {}
    arcs: list[tuple[str, str]] = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "net":
            name = tokens[1]
        elif head == "place":
            places.append(tokens[1])
            if tokens[2:] == ["marked"]:
                marked.append(tokens[1])
        elif head == "trans":
            body = tokens[2:]
            if "@" in body:
                body = body[: body.index("@")]
            if body:
                if body[0] != ":" or "->" not in body:
                    raise ValueError(f"bad trans line: {raw!r}")
                split = body.index("->")
                trans[tokens[1]] = (body[1:split], body[split + 1 :])
            else:
                trans[tokens[1]] = ([], [])
        elif head == "arc":
            arcs.append((tokens[1], tokens[3]))
        else:
            raise ValueError(f"unknown line: {raw!r}")
    for src, dst in arcs:
        if src in trans:
            trans[src][1].append(dst)
        else:
            trans[dst][0].append(src)
    index = {p: i for i, p in enumerate(places)}
    net = RefNet(
        name=name,
        places=places,
        transitions=list(trans),
        pre=[],
        post=[],
        initial=0,
        place_index=index,
        trans_index={t: i for i, t in enumerate(trans)},
    )
    net.pre = [net.mask(ins) for ins, _ in trans.values()]
    net.post = [net.mask(outs) for _, outs in trans.values()]
    net.initial = net.mask(marked)
    return net


@dataclass
class Space:
    """The full reachable set of a net, or the proof it is not 1-safe."""

    net: RefNet
    markings: set[int]
    dead: list[int]
    safe: bool

    @property
    def count(self) -> int:
        return len(self.markings)


def explore(net: RefNet, *, max_states: int = 50_000) -> Space:
    """Breadth-first token game over every reachable marking.

    Stops at the first firing that would put a second token on a place
    (``safe=False``): the program's analyzers reject such nets too.
    """
    pres = list(zip(net.pre, net.post))
    seen = {net.initial}
    frontier = [net.initial]
    dead: list[int] = []
    while frontier:
        nxt = []
        for m in frontier:
            live = False
            for pre, post in pres:
                if m & pre == pre:
                    live = True
                    rest = m & ~pre
                    if rest & post:
                        return Space(net, seen, dead, safe=False)
                    m2 = rest | post
                    if m2 not in seen:
                        seen.add(m2)
                        nxt.append(m2)
            if not live:
                dead.append(m)
        if len(seen) > max_states:
            raise SpaceTooLarge(f"{net.name}: more than {max_states} states")
        frontier = nxt
    return Space(net, seen, dead, safe=True)


# -- a minimal reader for the benchmark's query texts ---------------------

_TOKEN = re.compile(r"\s*([()!&|]|[A-Za-z_][A-Za-z0-9_']*)")


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.strip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"cannot read {text[pos:]!r}")
        out.append(match.group(1))
        pos = match.end()
    return out


def _parse_expr(tokens: list[str], pos: int):
    """or-expr := and-expr ('|' and-expr)*; returns (ast, pos)."""
    left, pos = _parse_and(tokens, pos)
    parts = [left]
    while pos < len(tokens) and tokens[pos] == "|":
        right, pos = _parse_and(tokens, pos + 1)
        parts.append(right)
    return (parts[0] if len(parts) == 1 else ("or", parts)), pos


def _parse_and(tokens: list[str], pos: int):
    left, pos = _parse_unary(tokens, pos)
    parts = [left]
    while pos < len(tokens) and tokens[pos] == "&":
        right, pos = _parse_unary(tokens, pos + 1)
        parts.append(right)
    return (parts[0] if len(parts) == 1 else ("and", parts)), pos


def _parse_unary(tokens: list[str], pos: int):
    tok = tokens[pos]
    if tok == "!":
        inner, pos = _parse_unary(tokens, pos + 1)
        return ("not", inner), pos
    if tok == "(":
        inner, pos = _parse_expr(tokens, pos + 1)
        if tokens[pos] != ")":
            raise ValueError("missing ')'")
        return inner, pos + 1
    if tok in ("reachable", "invariant"):
        if tokens[pos + 1] != "(":
            raise ValueError(f"{tok} needs '('")
        inner, pos = _parse_expr(tokens, pos + 2)
        if tokens[pos] != ")":
            raise ValueError("missing ')'")
        return (tok, inner), pos + 1
    if tok in ("deadlock", "safe"):
        return (tok,), pos + 1
    return ("place", tok), pos + 1


def parse_query(text: str):
    """Parse ``deadlock``, ``reachable(p)``, ``invariant(p)`` and their
    boolean combinations into nested tuples."""
    tokens = _tokens(text)
    ast, pos = _parse_expr(tokens, 0)
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return ast


def eval_pred(net: RefNet, pred, marking: int) -> bool:
    """Truth of a place predicate at one marking."""
    kind = pred[0]
    if kind == "place":
        return bool(marking >> net.place_index[pred[1]] & 1)
    if kind == "not":
        return not eval_pred(net, pred[1], marking)
    if kind == "and":
        return all(eval_pred(net, p, marking) for p in pred[1])
    if kind == "or":
        return any(eval_pred(net, p, marking) for p in pred[1])
    raise ValueError(f"not a place predicate: {pred!r}")


def query_holds(space: Space, ast) -> bool:
    """Truth of a property over a fully explored reachable set."""
    kind = ast[0]
    if kind == "deadlock":
        return bool(space.dead)
    if kind == "not":
        return not query_holds(space, ast[1])
    if kind == "and":
        return all(query_holds(space, p) for p in ast[1])
    if kind == "or":
        return any(query_holds(space, p) for p in ast[1])
    if kind == "reachable":
        return any(eval_pred(space.net, ast[1], m) for m in space.markings)
    if kind == "invariant":
        if ast[1] == ("safe",):
            return space.safe
        return all(eval_pred(space.net, ast[1], m) for m in space.markings)
    raise ValueError(f"not a property: {ast!r}")


def replay(net: RefNet, trace) -> int:
    """Fire a sequence of transition names from the initial marking.

    Raises ``ValueError`` when a step is unknown or not enabled.
    """
    m = net.initial
    for name in trace:
        t = net.trans_index.get(name)
        if t is None:
            raise ValueError(f"unknown transition {name!r}")
        if m & net.pre[t] != net.pre[t]:
            raise ValueError(f"{name} is not enabled")
        m = net.fire(m, t)
    return m
