"""Time-to-verdict benchmark: one command, four workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload deadlock-explicit --seed 1 \
        --seconds 25 --trace 0

A run sets up (several times, for ``setup_s``), then answers the
workload's questions in whole passes, in an order drawn from ``--seed``,
until ``--seconds`` would be exceeded by one more pass (at least one
pass).  Each pass asks every question cold (fresh ``PetriNet`` from
text, fresh result cache) and once more warm (answered from the cache
the cold ask filled).  In-process, each warm ask follows the next cold
one; served, a fresh ``gpo serve`` daemon per pass answers a cold phase
and then a warm phase, to two closed-loop clients.  Every answer is
then checked against the independent reference checker, and served
answers also against in-process ones.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``).  A wrong answer
makes the exit code 1 (so does a crash, with no result printed); a
missing program source makes it 2.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import served  # noqa: E402
import tracing  # noqa: E402
from checks import answer_of, check_answer, compare_served, reference  # noqa: E402
from workloads import ROOT, SHARDS, WORKLOADS, render, use_source_tree  # noqa: E402

#: Fewest set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Served workload: concurrent closed-loop clients.
CLIENTS = 2
#: Served workload: ``/healthz`` round trips timed per pass.
HEALTHZ_SAMPLES = 20
#: Where runs leave traces and scratch caches (listed in .gitignore).
OUT = ROOT / ".perfbench-out"
SERVED = "serve-cold-warm"


def _median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """Bookkeeping of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.questions = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.traced = trace
        self.scratch = OUT / f"run-{os.getpid()}"
        self.tracer = tracing.Tracer(spill_dir=self.scratch)
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []
        #: Served asks the daemon dropped to its pool race, re-asked.
        self.pool_races: list[str] = []
        #: (phase, question key) -> list of (seconds, Answer)
        self.answers: dict[tuple[str, str], list] = {}
        self.passes: list[dict] = []
        #: Wall seconds of each set-up sample (see :func:`setup_sample`).
        self.setup: list[float] = []
        self._lock = threading.Lock()

    # -- bookkeeping ------------------------------------------------------
    def record(self, phase: str, question, seconds: float, payload) -> None:
        """Count one ask; ``payload`` is its serialized result or the
        exception that ended it."""
        with self._lock:
            self.attempted += 1
            if isinstance(payload, Exception):
                self.failures.append(f"{phase} {question.key}: {payload!r}")
                return
            answer = answer_of(payload)
            if not answer.conclusive:
                self.failures.append(f"{phase} {question.key}: inconclusive")
                return
            self.answers.setdefault((phase, question.key), []).append(
                (seconds, answer)
            )

    def order(self):
        order = list(self.questions)
        self.rng.shuffle(order)
        return order

    def cache_dir(self, index: int) -> Path:
        return self.scratch / f"cache-{index}"


# -- set-up ----------------------------------------------------------------

def setup_sample(workload: str) -> float:
    """Wall time of a fresh interpreter doing the run's in-process
    set-up: start, import the program, render the workload's nets."""
    probe = Path(__file__).resolve().parent / "probe.py"
    t0 = time.perf_counter()
    # No timeout: Popen.wait(timeout) polls in steps of up to 50 ms,
    # which would quantise the sample.
    subprocess.run([sys.executable, str(probe), workload], cwd=ROOT, check=True)
    return time.perf_counter() - t0


# -- in-process passes -------------------------------------------------------

def counting_cache(root: Path):
    """A ``ResultCache`` that also counts its writes, so a planner ask
    can tell whether its answer was stored, or read, through the cache."""
    from repro.engine.cache import ResultCache

    class CountingCache(ResultCache):
        puts = 0

        def put(self, job, result) -> None:
            self.puts += 1
            super().put(job, result)

    return CountingCache(root)


def answer(q, text: str, cache, span, warm: bool) -> tuple[str, str]:
    """Ask one question through the public API, from net text to the
    serialized result a user receives.  Returns that text and how the
    cache served it: ``"hit"``, ``"stored"`` or ``"bypassed"`` (the
    planner decided without the cache, structurally or by its safety
    walk)."""
    import repro
    from repro.engine.cache import result_to_dict
    from repro.engine.jobs import Budget, VerificationJob, execute_job
    from repro.net import parse_net

    with span("question", key=q.key, warm=warm):
        with span("net.parse"):
            net = parse_net(text)
        if q.method == "planner":
            hits, puts = cache.hits, cache.puts
            with span("props.decide") as attrs:
                result = repro.query(net, q.query, reduce="auto", cache=cache).result
                attrs["static"] = result.analyzer == "static"
            if cache.puts > puts:
                source = "stored"
            elif cache.hits > hits:
                source = "hit"
            else:
                source = "bypassed"
        else:
            extra = {"shards": SHARDS} if q.method == "parallel" else {}
            job = VerificationJob(
                net=net, method=q.method, budget=Budget(extra=extra), query=q.query
            )
            if warm:
                with span("engine.cache_get"):
                    result = cache.get(job)
                if result is None:
                    raise LookupError("warm question missed the cache")
                source = "hit"
            else:
                result = execute_job(job)
                with span("engine.cache_put"):
                    cache.put(job, result)
                source = "stored"
        with span("engine.serialize"):
            text = json.dumps(result_to_dict(result), sort_keys=True, default=str)
        return text, source


def warm_up(run: Run, texts) -> None:
    """Ask each kind of question once, untimed, on its smallest instance,
    so lazy imports and first-call caches are not charged to pass 1."""
    smallest = {}
    for q in run.questions:
        kind = (q.method, q.query)
        if kind not in smallest or q.size < smallest[kind].size:
            smallest[kind] = q
    cache = counting_cache(run.scratch / "warm-up")
    for q in smallest.values():
        for warm in (False, True):
            try:
                answer(q, texts[q.instance], cache, run.tracer.span, warm)
            except Exception:  # the timed passes count and report it
                pass


def inprocess_pass(run: Run, texts, index: int, traced: bool) -> dict:
    tracer = run.tracer
    cache = counting_cache(run.cache_dir(index))
    cold_seconds = []
    stored: dict[str, bool] = {}

    def timed(phase, q):
        t0 = time.perf_counter()
        try:
            text, source = answer(
                q, texts[q.instance], cache, tracer.span, phase == "warm"
            )
            if phase == "cold":
                stored[q.key] = source == "stored"
            elif source == "bypassed" and not stored[q.key]:
                # The planner answers some questions before it looks at
                # the cache; their repeat is a recomputation, not a hit.
                phase = "repeat"
            elif source != "hit":
                raise LookupError("warm question missed the cache")
        except Exception as exc:  # counted as a failed operation
            run.record(phase, q, 0.0, exc)
            return
        seconds = time.perf_counter() - t0
        if phase == "cold":
            cold_seconds.append(seconds)
        run.record(phase, q, seconds, json.loads(text))

    # Each question is asked cold, and the one before it is then asked
    # again warm, so warm samples spread over the whole pass instead of
    # bunching into a fraction of a second that one noisy moment skews.
    order = run.order()
    context = tracing.patched(tracer) if traced else contextlib.nullcontext()
    with context:
        for prev, q in zip([None] + order, order + [None]):
            if q is not None:
                # Free the previous question's cyclic garbage (BDD
                # managers) outside the timed region, so the peak RSS is
                # the largest single question's, whatever the order.
                gc.collect()
                timed("cold", q)
            if prev is not None:
                timed("warm", prev)
    spans = tracer.take()
    out = {"traced": traced, "wall_s": sum(cold_seconds)}
    if traced:
        out["layers"] = tracing.layer_metrics(spans)
        out["spans"] = spans
    return out


# -- served passes -----------------------------------------------------------

def served_pass(run: Run, texts, index: int, traced: bool) -> dict:
    """A fresh daemon and cache; every question cold, then every
    question warm, each phase drained by :data:`CLIENTS` closed-loop
    clients."""
    tracer = run.tracer
    tracer.enabled = traced
    cache_dir = run.cache_dir(index)
    cache_dir.mkdir(parents=True, exist_ok=True)
    daemon = served.Daemon(cache_dir, run.scratch / "daemon.log")
    out = {"traced": traced, "worker_rss_kb": 0}
    try:
        daemon.start()
        out["daemon_start_s"] = daemon.start_s
        for phase in ("cold", "warm"):
            pending = run.order()
            rows = []

            def ask(q):
                with tracer.span("question", key=q.key, warm=phase == "warm"):
                    try:
                        return served.ask(
                            daemon.port, q, texts[q.instance], tracer.span
                        )
                    except served.PoolRace as exc:
                        # Known fault of the daemon's pool (README.md):
                        # reported on every run it hits, then re-asked,
                        # so the question still gets its verdict.
                        with run._lock:
                            run.pool_races.append(f"{phase} {q.key}: {exc}")
                        return served.ask(
                            daemon.port, q, texts[q.instance], tracer.span
                        )

            def client():
                while True:
                    with run._lock:
                        if not pending:
                            return
                        q = pending.pop()
                    try:
                        t0 = time.perf_counter()
                        body, rss = ask(q)
                        latency = time.perf_counter() - t0
                        if phase == "warm" and not body["cached"]:
                            raise LookupError("warm question missed the cache")
                    except Exception as exc:  # counted as a failed operation
                        run.record(phase, q, 0.0, exc)
                        continue
                    with run._lock:
                        out["worker_rss_kb"] = max(out["worker_rss_kb"], rss)
                        rows.append({
                            "cached": body["cached"],
                            "latency": latency,
                            "queue_wait": body.get("queue_wait_seconds") or 0.0,
                            "compute": body["result"]["time_seconds"],
                        })
                    run.record(phase, q, latency, body["result"])

            t0 = time.perf_counter()
            threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            out[f"{phase}_wall_s"] = time.perf_counter() - t0
            out[f"{phase}_rows"] = rows
        health = []
        for _ in range(HEALTHZ_SAMPLES):
            t0 = time.perf_counter()
            with tracer.span("serve.healthz"):
                served.request(daemon.port, "GET", "/healthz")
            health.append(time.perf_counter() - t0)
        out["healthz"] = health
        out["daemon_rss_mb"] = daemon.peak_rss_mb()
    finally:
        daemon.stop()
        tracer.enabled = False
    out["wall_s"] = out["cold_wall_s"]
    out["spans"] = tracer.take()
    return out


def run_passes(run: Run, texts, one_pass) -> None:
    """Run whole passes until one more would overrun ``--seconds`` (at
    least one; traced runs alternate untraced and traced passes and stop
    only after whole pairs)."""
    step = 2 if run.traced else 1
    start = time.perf_counter()
    longest = 0.0
    while True:
        for _ in range(step):
            # Set-up samples before the first passes spread them over the
            # run, so a slow moment of the machine cannot take them all.
            if len(run.setup) < SETUP_SAMPLES:
                run.setup.append(setup_sample(run.workload))
            t0 = time.perf_counter()
            traced = run.traced and len(run.passes) % 2 == 1
            run.passes.append(one_pass(run, texts, len(run.passes), traced))
            longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + step * longest > run.seconds:
            return


def peak_rss_mb(run: Run) -> float:
    """Peak RSS of the processes doing the verification, in MB.

    In-process, that is the benchmark process and the workers the
    program forks from it (the planner's race, sharded search), whose
    peaks ``RUSAGE_CHILDREN`` reports; the set-up probes are children
    too, but stay below the benchmark process, which does all they do
    and more.  Served, it is the daemon and its forked workers (each
    worker's peak arrives in its job's terminal event), per pass.
    """
    if run.workload == SERVED:
        return _median([
            max(p["daemon_rss_mb"], p["worker_rss_kb"] / 1024.0)
            for p in run.passes
            if not p["traced"]
        ])
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- checking ---------------------------------------------------------------

def check_run(run: Run, texts) -> None:
    """Check every distinct answer against the reference checker, and
    every repeat of a question against its first answer."""
    refs = {}
    by_key = {q.key: q for q in run.questions}
    first: dict[str, object] = {}
    for (phase, key), rows in sorted(run.answers.items()):
        q = by_key[key]
        for _, got in rows:
            if got.holds != first.setdefault(key, got).holds:
                run.wrong.append(f"{phase} {key}: verdict changed between asks")
        if q.instance not in refs:
            refs[q.instance] = reference(texts[q.instance])
        for got in {got for _, got in rows}:
            problem = check_answer(q, got, refs[q.instance])
            if problem is not None:
                run.wrong.append(f"{phase} {key}: {problem}")


def check_served(run: Run, texts) -> None:
    """Served answers must equal in-process ones under the daemon's
    budget: the same verdict and the same state count."""
    from repro.engine.cache import result_to_dict
    from repro.engine.jobs import Budget, VerificationJob, execute_job
    from repro.net import parse_net

    for q in run.questions:
        rows = run.answers.get(("cold", q.key))
        if not rows:
            continue
        extra = {"shards": SHARDS} if q.method == "parallel" else {}
        job = VerificationJob(
            net=parse_net(texts[q.instance]), method=q.method, query=q.query,
            budget=Budget(
                max_states=served.MAX_STATES, max_seconds=served.MAX_SECONDS,
                extra=extra,
            ),
        )
        local = answer_of(json.loads(json.dumps(
            result_to_dict(execute_job(job)), default=str
        )))
        for _, remote in rows:
            problem = compare_served(remote, local)
            if problem is not None:
                run.wrong.append(f"served {q.key}: {problem}")
                break


# -- reporting --------------------------------------------------------------

def _question_p50(run: Run, phase: str) -> float:
    """The median question's latency: each question's median over the
    run's passes, then the median over the questions.  Pooling the raw
    samples instead would put the median in the gap between two
    question sizes, where one noisy sample moves it far."""
    return _median([
        _median([seconds for seconds, _ in rows])
        for (ph, _), rows in run.answers.items()
        if ph == phase
    ])


def end_to_end(run: Run, rss_mb: float) -> dict[str, tuple[float, str]]:
    walls = [p["wall_s"] for p in run.passes if not p["traced"]]
    setup_s = _median(run.setup)
    if run.workload == SERVED:
        setup_s += _median([p["daemon_start_s"] for p in run.passes])
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (_median(walls), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "latency_p50_s": (_question_p50(run, "cold"), "s"),
        "hit_latency_p50_s": (_question_p50(run, "warm"), "s"),
    }


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def _quantile(values, q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def served_layers(run: Run, passes) -> dict[str, float]:
    cold = [r for p in passes for r in p["cold_rows"]]
    warm = [r for p in passes for r in p["warm_rows"]]
    return {
        "serve.queue_wait_s": _median([r["queue_wait"] for r in cold]),
        "serve.overhead_s": _median(
            [r["latency"] - r["queue_wait"] - r["compute"] for r in cold]
        ),
        "serve.latency_p90_s": _quantile([r["latency"] for r in cold], 0.9),
        "serve.healthz_s": _median([h for p in passes for h in p["healthz"]]),
        "serve.hit_ratio": (
            sum(r["cached"] for r in warm) / len(warm) if warm else 0.0
        ),
        "serve.worker_died": len(run.pool_races),
    }


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    traced = [p for p in run.passes if p["traced"]]
    plain = [p for p in run.passes if not p["traced"]]
    layers = dict.fromkeys(tracing.layer_metrics([]), 0.0)
    layers.update(dict.fromkeys(served_layers(run, []), 0.0))
    if run.workload == SERVED:
        layers.update(served_layers(run, traced))
    else:
        for name in layers:
            if name in traced[0]["layers"]:
                layers[name] = _median([p["layers"][name] for p in traced])
    layers["trace.overhead_s"] = _median([p["wall_s"] for p in traced]) - _median(
        [p["wall_s"] for p in plain]
    )
    return {name: (value, _unit(name)) for name, value in layers.items()}


def write_trace(run: Run, seed: int) -> Path:
    """Spans of the traced passes, one JSON document per run."""
    path = OUT / f"trace-{run.workload}-seed{seed}-{os.getpid()}.json"
    passes = [
        {"pass": i, "self_s": tracing.self_times(p["spans"]), "spans": p["spans"]}
        for i, p in enumerate(run.passes)
        if p["traced"]
    ]
    path.write_text(json.dumps({"workload": run.workload, "passes": passes}))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_source_tree()

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.scratch.mkdir(parents=True, exist_ok=True)
    try:
        texts = render(run.workload)
        if run.workload == SERVED:
            run_passes(run, texts, served_pass)
        else:
            warm_up(run, texts)
            run_passes(run, texts, inprocess_pass)
        rss_mb = peak_rss_mb(run)
        while len(run.setup) < SETUP_SAMPLES:
            run.setup.append(setup_sample(args.workload))
        metrics = end_to_end(run, rss_mb)
        check_run(run, texts)
        if run.workload == SERVED:
            check_served(run, texts)
        if args.trace:
            metrics = per_layer(run)
            print(f"trace written to {write_trace(run, args.seed)}", file=sys.stderr)
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)

    for line in run.pool_races:
        print(f"perfbench: re-asked after the pool race: {line}", file=sys.stderr)
    for line in run.failures + run.wrong:
        print(f"perfbench: {line}", file=sys.stderr)
    report = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(report))
    return 0 if not run.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
