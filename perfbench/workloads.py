"""The benchmark's question sets: Table 1 instances and questions.

A question is one (instance, method, property) triple a user could ask
through the public API.  ``method`` names an analyzer of
``repro.engine.jobs.ANALYZERS``, or ``planner`` for ``repro.query``.
Every question here ends conclusively on the tree this benchmark was
written against; the sizes keep one pass of a workload near two
seconds of work, so a run's medians rest on about ten passes (see
README.md).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Shards the ``parallel`` analyzer runs with.
SHARDS = 2


@dataclass(frozen=True)
class Question:
    family: str
    size: int
    method: str
    query: str = "deadlock"

    @property
    def instance(self) -> tuple[str, int]:
        return (self.family, self.size)

    @property
    def key(self) -> str:
        return f"{self.family}({self.size})/{self.method}/{self.query}"


def _explicit() -> list[Question]:
    out = []
    for method in ("full", "stubborn", "gpo"):
        sizes = {
            "NSDP": (2, 3, 4, 5, 6),
            "ASAT": (2, 4),
            "OVER": (2, 3, 4, 5),
            "RW": (6, 7, 8, 9, 10, 11, 12),
        }
        if method == "gpo":
            sizes["NSDP"] += (7, 8)
            sizes["RW"] += (15,)
        for family, ns in sizes.items():
            out += [Question(family, n, method) for n in ns]
    out += [Question("NSDP", 6, "parallel"), Question("RW", 12, "parallel")]
    return out


def _symbolic() -> list[Question]:
    # No instance under ~0.1 s: the time of such a small question drifts
    # more from run to run than the machine does, and the median question
    # is one of a handful here.
    sizes = {"NSDP": (4,), "ASAT": (4,), "OVER": (3,), "RW": (7, 8, 9)}
    return [
        Question(family, n, "symbolic")
        for family, ns in sizes.items()
        for n in ns
    ]


#: Per-family properties: the mutual-exclusion invariants and the
#: ``reachable`` goals ``gpo loadtest --property-mix`` draws from.
PROPERTIES = {
    "NSDP": ("reachable(eat0)", "invariant(!(eat0 & eat1))", "!deadlock"),
    "ASAT": ("reachable(use0)", "invariant(!(use0 & use1))"),
    "OVER": ("reachable(passing0)", "reachable(passing0 & passing1)"),
    "RW": ("reachable(writing0)", "invariant(!(writing0 & reading0))"),
}


def _planner() -> list[Question]:
    spec = {
        ("ASAT", 2): ("invariant(safe)",) + PROPERTIES["ASAT"],
        ("ASAT", 4): ("invariant(safe)",) + PROPERTIES["ASAT"],
        ("NSDP", 4): ("invariant(safe)",) + PROPERTIES["NSDP"],
        # Not reachable(eat0) on NSDP(6): its 3 s symbolic fixpoint would
        # leave room for too few passes (see README.md).
        ("NSDP", 6): ("invariant(safe)", "invariant(!(eat0 & eat1))", "!deadlock"),
        ("OVER", 3): ("invariant(safe)",) + PROPERTIES["OVER"],
        ("OVER", 5): ("invariant(safe)", "reachable(passing0 & passing1)"),
        ("RW", 9): ("invariant(safe)",) + PROPERTIES["RW"],
        ("RW", 12): ("invariant(safe)",) + PROPERTIES["RW"],
        ("RW", 15): ("invariant(safe)",) + PROPERTIES["RW"],
    }
    return [
        Question(family, n, "planner", q)
        for (family, n), queries in spec.items()
        for q in queries
    ]


def _served() -> list[Question]:
    # Small and medium questions, each well under 0.3 s of compute, so
    # HTTP, admission, the pool's fork and poll and the result cache
    # weigh as much as the search.  ``stubborn`` and ``parallel`` answer
    # the deadlock question only, and GPO's screen leaves some
    # ``reachable`` goals open, so properties go to ``full`` and
    # ``symbolic``.
    out = []
    deadlock = {
        "NSDP": (2, 3, 4), "ASAT": (2, 4), "OVER": (2, 3, 4), "RW": (6, 7, 8),
    }
    for method in ("full", "stubborn", "gpo"):
        out += [
            Question(family, n, method)
            for family, ns in deadlock.items()
            for n in ns
        ]
    small = {"NSDP": 3, "ASAT": 2, "OVER": 2, "RW": 6}
    out += [Question(family, n, "symbolic") for family, n in small.items()]
    # Fails every time: the daemon's workers are daemonic processes,
    # which may not fork the sharded search's workers (README.md).  Kept
    # so that the fault shows in ``failed`` until it is mended.
    out.append(Question("NSDP", 4, "parallel"))
    medium = {"NSDP": 4, "ASAT": 4, "OVER": 3, "RW": 7}
    for family, query in (
        (family, query) for family in PROPERTIES for query in PROPERTIES[family]
    ):
        out.append(Question(family, small[family], "full", query))
        out.append(Question(family, small[family], "symbolic", query))
        out.append(Question(family, medium[family], "full", query))
    return out


WORKLOADS: dict[str, list[Question]] = {
    "deadlock-explicit": _explicit(),
    "deadlock-symbolic": _symbolic(),
    "query-planner": _planner(),
    "serve-cold-warm": _served(),
}


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src/``; exit 2 without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def render(workload: str) -> dict[tuple[str, int], str]:
    """Import the program and render every instance of a workload to the
    text form users submit.  This is the in-process part of set-up."""
    use_source_tree()
    import repro.engine.cache  # noqa: F401
    import repro.engine.jobs  # noqa: F401
    import repro.props.decide  # noqa: F401
    from repro.harness.table1 import PROBLEMS
    from repro.net import to_text

    texts = {}
    for q in WORKLOADS[workload]:
        if q.instance not in texts:
            texts[q.instance] = to_text(PROBLEMS[q.family](q.size))
    return texts
