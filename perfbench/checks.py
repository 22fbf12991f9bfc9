"""Checking the program's answers against the reference checker.

An answer is the serialized result a user receives (``result_to_dict``
as JSON, in-process or over HTTP), read back by :func:`answer_of`.
:func:`check_answer` compares it with :mod:`refcheck`: the verdict and,
where the method preserves it, the reachable-marking count against the
full reachable set; every witness marking against the question it
answers (dead, goal or violation), and its reachability by replaying
its trace on the original net or by finding it in the reachable set.
:func:`compare_served` holds a served answer to the in-process one.
"""

from __future__ import annotations

from dataclasses import dataclass

import refcheck

#: Largest reachable set the reference explores (NSDP(8) has 117485).
REF_MAX_STATES = 150_000

#: Methods whose ``states`` on the deadlock question is the full count.
COUNTING = ("full", "parallel", "symbolic")
#: Analyzers that return a witness with every deadlock they report (the
#: sharded BFS keeps no edges, so it reports none by design).
WITNESSING = ("full", "stubborn", "gpo", "symbolic")


@dataclass
class Reference:
    net: refcheck.RefNet
    space: refcheck.Space


def reference(text: str) -> Reference:
    """The reference's view of one instance.  Raises
    :class:`refcheck.SpaceTooLarge` beyond :data:`REF_MAX_STATES`: an
    instance that large needs a cross-check between analyzers of
    different kinds (the ``full`` count against the symbolic one), which
    no workload needs today."""
    net = refcheck.parse_text(text)
    return Reference(net, refcheck.explore(net, max_states=REF_MAX_STATES))


@dataclass(frozen=True)
class Answer:
    holds: bool | None
    states: int
    aborted: bool
    witness_marking: tuple[str, ...] | None
    witness_trace: tuple[str, ...]

    @property
    def conclusive(self) -> bool:
        return self.holds is not None and not self.aborted


def answer_of(result: dict) -> Answer:
    """Read the verdict out of one serialized ``AnalysisResult``."""
    extras = result.get("extras") or {}
    if "property" in extras:
        holds = extras.get("property_holds")
    elif result["deadlock"]:
        holds = True
    else:
        holds = False if result["exhaustive"] else None
    witness = result.get("witness")
    return Answer(
        holds=None if holds is None else bool(holds),
        states=int(result["states"]),
        aborted="aborted" in extras,
        witness_marking=(
            None if witness is None else tuple(sorted(witness["marking"]))
        ),
        witness_trace=() if witness is None else tuple(witness["trace"]),
    )


def _witness_goal(ast, holds: bool):
    """What the witness marking of a ``holds`` answer must satisfy:
    ``("dead",)``, ``("pred", p, value)`` or ``None`` (nothing)."""
    kind = ast[0]
    if kind == "not":
        return _witness_goal(ast[1], not holds)
    if kind == "deadlock" and holds:
        return ("dead",)
    if kind == "reachable" and holds:
        return ("pred", ast[1], True)
    if kind == "invariant" and not holds and ast[1] != ("safe",):
        return ("pred", ast[1], False)
    return None


def _check_witness(ref: Reference, goal, answer: Answer) -> str | None:
    net = ref.net
    try:
        marking = net.mask(answer.witness_marking)
    except KeyError as exc:
        return f"witness names unknown place {exc}"
    if goal == ("dead",) and not net.is_dead(marking):
        return "witness marking is not dead"
    if goal is not None and goal[0] == "pred":
        if refcheck.eval_pred(net, goal[1], marking) != goal[2]:
            return "witness marking does not show the property"
    trace = answer.witness_trace
    if trace and all(t in net.trans_index for t in trace):
        try:
            end = refcheck.replay(net, trace)
        except ValueError as exc:
            return f"witness trace does not replay: {exc}"
        if end != marking:
            return "witness trace ends elsewhere than its marking"
        return None
    # A GPO scenario-step trace or a symbolic witness: the marking must
    # be reachable.
    if marking not in ref.space.markings:
        return "witness marking is unreachable"
    return None


def check_answer(question, answer: Answer, ref: Reference) -> str | None:
    """``None`` when ``answer`` is right, else what is wrong with it.

    Only conclusive answers are checked; the caller counts the others
    as failed operations.
    """
    ast = refcheck.parse_query(question.query)
    space = ref.space
    expected = refcheck.query_holds(space, ast)
    if answer.holds != expected:
        return f"verdict {answer.holds}, reference {expected}"
    if question.query == "deadlock":
        if question.method in COUNTING and answer.states != space.count:
            return f"{answer.states} states, reference {space.count}"
        if question.method == "stubborn" and not (
            1 <= answer.states <= space.count
        ):
            return f"{answer.states} reduced states > {space.count}"
    goal = _witness_goal(ast, answer.holds)
    if answer.witness_marking is None:
        if goal == ("dead",) and question.method in WITNESSING:
            return "deadlock answer without a witness"
        return None
    return _check_witness(ref, goal, answer)


def compare_served(served: Answer, local: Answer) -> str | None:
    """``None`` when a served answer equals the in-process answer to the
    same question under the same budget (verdict and state count)."""
    if (served.holds, served.states) != (local.holds, local.states):
        return (
            f"served {served.holds} with {served.states} states, "
            f"in-process {local.holds} with {local.states}"
        )
    return None
