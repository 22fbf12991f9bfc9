"""Tests of the reference checker and of the answer checks built on it.

    python3 -m pytest perfbench -q

The nets are the paper's figure nets and tiny hand-counted ones, written
out in the text form, so the counts below are checked by hand, not
against the program.  The last tests inject wrong answers, first into
the checks directly and then into a real analyzer call, and require the
benchmark to catch every one.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refcheck  # noqa: E402
from checks import Answer, check_answer, compare_served, reference  # noqa: E402
from workloads import Question  # noqa: E402

CHOICE = """net choice
place p0 marked
place p1
place p2
trans a : p0 -> p1
trans b : p0 -> p2
"""

# Figure 1: three independent transitions, 2^3 interleaving states.
FIGURE1 = """net figure1_concurrent_3
place in0 marked
place out0
place in1 marked
place out1
place in2 marked
place out2
trans t0 : in0 -> out0
trans t1 : in1 -> out1
trans t2 : in2 -> out2
"""

# Figure 2: three independent conflict pairs, 3^3 states, 2^3 dead.
FIGURE2 = "net figure2_conflict_pairs_3\n" + "".join(
    f"place c{i} marked\nplace a_out{i}\nplace b_out{i}\n"
    f"trans A{i} : c{i} -> a_out{i}\ntrans B{i} : c{i} -> b_out{i}\n"
    for i in range(3)
)

FIGURE3 = """net figure3
place p1 marked
place p2
place p3
place p4
place p5
place p6
trans A : p1 -> p2 p3
trans B : p1 -> p4
trans C : p2 p3 -> p5
trans D : p3 p4 -> p6
"""

# Figure 5 written with arc lines instead of the trans shorthand.
FIGURE5 = """net figure5
place p0 marked
place p1 marked
place p2 marked
place p3
place p4
trans A
trans B
arc p0 -> A
arc p1 -> A
arc A -> p3
arc p1 -> B
arc p2 -> B
arc B -> p4
"""

FIGURE7 = """net figure7
place p0 marked
place p3 marked
place p1
place p2
place p5
trans A : p0 -> p1
trans B : p0 -> p2
trans C : p3 p1 -> p5
trans D : p3 p2 -> p5
"""

# A two-place ring: never dead, always one token.
RING = """net ring
place x marked
place y
trans go : x -> y
trans back : y -> x
"""

# Puts a second token on q: not 1-safe.
UNSAFE = """net unsafe
place p marked
place q marked
trans t : p -> q
"""


def _space(text):
    return refcheck.explore(refcheck.parse_text(text))


@pytest.mark.parametrize(
    "text,states,dead",
    [
        (CHOICE, 3, 2),
        (FIGURE1, 8, 1),
        (FIGURE2, 27, 8),
        (FIGURE3, 4, 2),
        (FIGURE5, 3, 2),
        (FIGURE7, 4, 1),
        (RING, 2, 0),
    ],
)
def test_counts_and_dead_markings(text, states, dead):
    space = _space(text)
    assert space.safe
    assert space.count == states
    assert len(space.dead) == dead


def test_dead_markings_are_the_hand_counted_ones():
    space = _space(FIGURE3)
    names = {space.net.names(m) for m in space.dead}
    # A then C, or B alone (D needs p3, which only A produces).
    assert names == {frozenset({"p5"}), frozenset({"p4"})}


def test_unsafe_net_is_reported():
    assert not _space(UNSAFE).safe


def test_state_bound():
    with pytest.raises(refcheck.SpaceTooLarge):
        refcheck.explore(refcheck.parse_text(FIGURE2), max_states=10)


@pytest.mark.parametrize(
    "text,query,holds",
    [
        (CHOICE, "deadlock", True),
        (CHOICE, "!deadlock", False),
        (CHOICE, "reachable(p1 & p2)", False),
        (CHOICE, "invariant(!(p1 & p2))", True),
        (CHOICE, "reachable(p1 | p2)", True),
        (RING, "deadlock", False),
        (RING, "invariant(x | y)", True),
        (RING, "invariant(safe)", True),
        (UNSAFE, "invariant(safe)", False),
        (FIGURE7, "reachable(p5) & !reachable(p1 & p2)", True),
    ],
)
def test_query_truth(text, query, holds):
    assert refcheck.query_holds(_space(text), refcheck.parse_query(query)) is holds


def test_replay():
    net = refcheck.parse_text(FIGURE3)
    assert net.names(refcheck.replay(net, ["A", "C"])) == {"p5"}
    with pytest.raises(ValueError):
        refcheck.replay(net, ["A", "D"])
    with pytest.raises(ValueError):
        refcheck.replay(net, ["nope"])


def test_reference_refuses_instances_beyond_its_bound(monkeypatch):
    import checks

    monkeypatch.setattr(checks, "REF_MAX_STATES", 3)
    with pytest.raises(refcheck.SpaceTooLarge):
        reference(FIGURE3)


# -- injected wrong answers ---------------------------------------------------

def _answer(holds, states, marking=None, trace=()):
    return Answer(
        holds=holds,
        states=states,
        aborted=False,
        witness_marking=None if marking is None else tuple(sorted(marking)),
        witness_trace=tuple(trace),
    )


FULL = Question("FIG", 3, "full")


def test_right_answers_pass():
    ref = reference(FIGURE3)
    assert check_answer(FULL, _answer(True, 4, {"p5"}, ["A", "C"]), ref) is None
    gpo = Question("FIG", 3, "gpo")
    assert check_answer(gpo, _answer(True, 2, {"p4"}, ["{B}"]), ref) is None
    goal = Question("FIG", 3, "planner", "reachable(p6)")
    assert check_answer(goal, _answer(False, 0), ref) is None


@pytest.mark.parametrize(
    "question,answer",
    [
        # wrong verdict
        (FULL, _answer(False, 4)),
        # wrong reachable count
        (FULL, _answer(True, 5, {"p5"}, ["A", "C"])),
        # witness marking that is not dead
        (FULL, _answer(True, 4, {"p2", "p3"}, ["A"])),
        # witness trace that does not replay
        (FULL, _answer(True, 4, {"p5"}, ["B", "C"])),
        # trace ending elsewhere than the witness marking
        (FULL, _answer(True, 4, {"p5"}, ["B"])),
        # deadlock without a witness
        (FULL, _answer(True, 4)),
        # unreachable marking from a method without a firing sequence
        (Question("FIG", 3, "symbolic"), _answer(True, 4, {"p6"})),
        # wrong property verdict
        (Question("FIG", 3, "planner", "reachable(p6)"), _answer(True, 0)),
        # goal witness that does not show the goal
        (
            Question("FIG", 3, "planner", "reachable(p5)"),
            _answer(True, 0, {"p4"}, ["B"]),
        ),
    ],
)
def test_wrong_answers_are_caught(question, answer):
    assert check_answer(question, answer, reference(FIGURE3)) is not None


def test_served_answers_must_equal_in_process_ones():
    local = _answer(True, 4, {"p5"}, ["A", "C"])
    assert compare_served(_answer(True, 4, {"p5"}, ["A", "C"]), local) is None
    assert compare_served(_answer(False, 4), local) is not None
    assert compare_served(_answer(True, 3, {"p5"}, ["A", "C"]), local) is not None


def test_wrong_analyzer_verdict_fails_the_run(monkeypatch):
    """Flip one analyzer's verdict inside the program: the benchmark's
    own pass and checks must report the run as incorrect."""
    import run as bench
    from workloads import render, use_source_tree

    use_source_tree()
    import repro.engine.jobs as jobs

    real = jobs.ANALYZERS["full"]

    def lying(net, **kwargs):
        result = real(net, **kwargs)
        result.deadlock = not result.deadlock
        result.witness = None
        return result

    monkeypatch.setitem(jobs.ANALYZERS, "full", lying)
    run = bench.Run("deadlock-explicit", seed=1, seconds=0, trace=False)
    run.questions = [Question("NSDP", 2, "full"), Question("RW", 6, "full")]
    run.scratch.mkdir(parents=True, exist_ok=True)
    texts = render("deadlock-explicit")
    try:
        bench.inprocess_pass(run, texts, 0, False)
        bench.check_run(run, texts)
    finally:
        import shutil

        shutil.rmtree(run.scratch, ignore_errors=True)
    assert run.attempted == 4
    assert not run.failures
    assert any("NSDP(2)/full" in w for w in run.wrong)
    assert any("RW(6)/full" in w for w in run.wrong)


def test_planner_repeat_that_misses_the_cache_fails(monkeypatch):
    """A planner question whose cold ask stored its result must read it
    back on the warm ask; one the planner decides before the cache is
    recorded as a recomputation, not as a warm ask."""
    import run as bench
    from workloads import render, use_source_tree

    use_source_tree()
    from repro.engine.cache import ResultCache

    questions = [
        Question("RW", 9, "planner", "reachable(writing0)"),
        Question("RW", 9, "planner", "invariant(safe)"),
    ]
    texts = render("query-planner")

    def one_pass():
        run = bench.Run("query-planner", seed=1, seconds=0, trace=False)
        run.questions = questions
        run.scratch.mkdir(parents=True, exist_ok=True)
        try:
            bench.inprocess_pass(run, texts, 0, False)
        finally:
            import shutil

            shutil.rmtree(run.scratch, ignore_errors=True)
        return run

    run = one_pass()
    assert not run.failures
    assert sorted(run.answers) == [
        ("cold", questions[1].key), ("cold", questions[0].key),
        ("repeat", questions[1].key), ("warm", questions[0].key),
    ]
    monkeypatch.setattr(ResultCache, "get", lambda self, job: None)
    run = one_pass()
    assert len(run.failures) == 1
    assert questions[0].key in run.failures[0]
