"""Traced run: per-layer timings of deplen's public functions, in-process.

Spans (name, start, end, parent, operation id) are recorded in memory by
this file, around the calls it makes into each deplen module; the program
itself is not instrumented.  A layer's self time is its span's duration
minus the time covered by its child spans.  Rounds alternate between a
pass with spans off and one with spans on, and the difference between
their wall times is the tracing overhead.  Spans go around one call each,
except ``tree.token``, which covers the tokens of one sentence (a span per
token would cost as much as the token), and ``costs.g.chars_log``, which
covers one replay of every call cost_D makes to the log cost.  Every
metric is the median over the traced rounds.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import fields

import check
import gen
import workloads
from proc import OUT, SRC, BenchError, is_incorrect, run_cli, run_op, setup_sample

sys.path.insert(0, str(SRC))

import deplen  # noqa: E402
from deplen import (  # noqa: E402
    IDENTITY,
    CostFunction,
    Token,
    Unit,
    brute_force_mla,
    build_tree,
    cost_D,
    enumerate_projective,
    length_histogram,
    make_cost_function,
    parse_conllu,
    projective_mla,
    run_default_suite,
)

N8_TREES = 3
PROJECTIVE_ORDERS_N12 = 27648  # orders of the n = 12 tree that is enumerated
CLI_REPEATS = 5
CPU_BUDGET_S = 150
LOG = make_cost_function("log")
POWER2 = make_cost_function("power", exponent=2)
UNITS = {"words": Unit.WORDS, "chars": Unit.CHARACTERS}
COST_CONFIGS = (("words", "identity"), ("chars", "log"), ("chars", "power:2"))


def metric_key(unit: str, g: str) -> str:
    return "%s_%s" % (unit, g.replace(":", ""))


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent index, op id]."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._open = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter_ns(), 0, self._open[-1] if self._open else None, self.op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Seconds of self time per span name, over spans[first:]."""
        child = {}
        for _, start, end, parent, _ in self.spans[first:]:
            if parent is not None:
                child[parent] = child.get(parent, 0) + end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans[first:], start=first):
            out[name] = out.get(name, 0.0) + (end - start - child.get(i, 0)) / 1e9
        return out


class Untraced:
    """Same interface as Tracer, recording nothing."""

    op = None

    def span(self, name: str):
        return nullcontext()


class CountingCost(CostFunction):
    """A CostFunction that records the argument of each call."""

    def __call__(self, d):
        self.__dict__["args"].append(d)
        return super().__call__(d)


def counting(g: CostFunction) -> CountingCost:
    c = CountingCost(**{f.name: getattr(g, f.name) for f in fields(g)})
    c.__dict__.update(args=[])
    return c


def projective_count(heads) -> int:
    """Number of projective orders: the product of (children + 1)!."""
    kids = [0] * (len(heads) + 1)
    for h in heads:
        kids[h] += 1
    return math.prod(math.factorial(k + 1) for k in kids[1:])


def to_tree(s: gen.Sentence):
    tokens = [Token(i, f) for i, f in enumerate(s.forms, start=1)]
    return build_tree(tokens, dict(enumerate(s.heads, start=1)))


class Inputs:
    """The layer inputs of one seed; the same for every workload."""

    def __init__(self, seed: int):
        self.shards = gen.analyze_shards(seed)
        self.texts = [gen.to_conllu(shard) for shard in self.shards]
        self.tokens = sum(s.n for shard in self.shards for s in shard)
        rng = random.Random("deplen-bench/layers/%d" % seed)
        n8 = [gen.make_sentence("n8-%d" % k, 8, rng) for k in range(N8_TREES)]
        n9 = [gen.make_sentence("n9", 9, rng)]
        c8 = [gen.make_sentence("c8", 8, rng)]
        self.searches = (  # metric name, sentences, unit, g
            ("optimize.brute_force.words_identity.n8", n8, "words", "identity"),
            ("optimize.brute_force.words_identity.n9", n9, "words", "identity"),
            ("optimize.brute_force.chars_power2.n8", c8, "chars", "power:2"),
        )
        self.n9 = n9[0]
        while True:
            self.n12 = gen.make_sentence("n12", 12, rng)
            if projective_count(self.n12.heads) == PROJECTIVE_ORDERS_N12:
                break
        self.large = [gen.make_sentence("p%d" % n, n, rng) for n in range(10, 41)]
        self.log_args = []  # the arguments cost_D passes to g = log; see traced_run


def layer_round(tr, inp: Inputs, gs: dict, verify: bool) -> dict:
    """One pass over every layer; returns counts, and checks results if asked."""
    counts = {"searched": 0, "optima": 0}
    for k, (shard, text) in enumerate(zip(inp.shards, inp.texts)):
        tr.op = "analyze-shard-%d" % k
        with tr.span("conllu.parse"):
            trees = parse_conllu(text)
        for s in shard:
            with tr.span("tree.token"):
                tokens = [Token(i, f) for i, f in enumerate(s.forms, start=1)]
            with tr.span("tree.build"):
                build_tree(tokens, dict(enumerate(s.heads, start=1)))
        for unit, g in COST_CONFIGS:
            name = "metrics.cost_D." + metric_key(unit, g)
            for s, t in zip(shard, trees):
                with tr.span(name):
                    report = cost_D(t, t.identity_linearization(), gs[g], UNITS[unit])
                if verify and report.D != check.cost(s, check.identity(s), unit, g):
                    raise ValueError("%s: wrong D for %s" % (name, s.sent_id))
        with tr.span("metrics.histogram"):
            length_histogram([(t, t.identity_linearization()) for t in trees])
    tr.op = "g-replay"
    with tr.span("costs.g.chars_log"):
        for d in inp.log_args:
            LOG(d)

    tr.op = "search"
    for name, sentences, unit, g in inp.searches:
        for s in sentences:
            t = to_tree(s)
            with tr.span(name):
                result = brute_force_mla(t, unit=UNITS[unit], g=gs[g])
            counts["searched"] += result.searched
            counts["optima"] += len(result.optimal_orders)
            if verify:
                best = check.cost(s, result.representative.seq, unit, g)
                expected = check.exhaustive_minimum(s, unit, g)
                if (best, len(result.optimal_orders)) != expected or best != result.min_cost:
                    raise ValueError("%s: wrong minimum or optima for %s" % (name, s.sent_id))
    t = to_tree(inp.n12)
    with tr.span("optimize.enumerate_projective.n12"):
        counts["orders"] = sum(1 for _ in enumerate_projective(t))
    if verify and counts["orders"] != PROJECTIVE_ORDERS_N12:
        raise ValueError("enumerate_projective yielded %d orders" % counts["orders"])
    for s in inp.large:
        t = to_tree(s)
        with tr.span("optimize.projective_mla"):
            projective_mla(t)

    tr.op = "predict-suite"
    with tr.span("predictions.suite"):
        reports = run_default_suite()
    counts["predictions.optima"] = sum(len(r.witness.optimal_orders) for r in reports)
    if verify and (len(reports) != check.PREDICT_SCENARIOS or not all(r.holds for r in reports)):
        raise ValueError("run_default_suite: a scenario does not hold")
    return counts


def round_metrics(inp: Inputs, times: dict, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round."""
    out = {
        "conllu.parse_s": times["conllu.parse"],
        "conllu.tokens_per_s": inp.tokens / times["conllu.parse"],
        "tree.token_s": times["tree.token"],
        "tree.build_s": times["tree.build"],
        "costs.g_calls.words_identity": counts["g_calls.words_identity"],
        "costs.g_calls.chars_log": counts["g_calls.chars_log"],
        "costs.g_s.chars_log": times["costs.g.chars_log"],
    }
    for unit, g in COST_CONFIGS:
        name = "metrics.cost_D." + metric_key(unit, g)
        out[name + "_s"] = times[name]
    out["metrics.histogram_s"] = times["metrics.histogram"]
    for name, sentences, _, _ in inp.searches:
        out[name + "_s"] = times[name] / len(sentences)
    out["optimize.enumerate_projective.n12_s"] = times["optimize.enumerate_projective.n12"]
    out["optimize.projective_mla_s"] = times["optimize.projective_mla"] / len(inp.large)
    out["optimize.brute_force.searched"] = counts["searched"]
    out["optimize.brute_force.optima"] = counts["optima"]
    out["optimize.enumerate_projective.orders"] = counts["orders"]
    out["predictions.suite_s"] = times["predictions.suite"]
    out["predictions.optima"] = counts["predictions.optima"]
    return out


def peak_alloc_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def cli_mirror(workload: str, tr, shard) -> None:
    """In-process spans for the work the CLI does on the workload's first input."""
    tr.op = "cli"
    if workload == "predict":
        with tr.span("predictions.suite"):
            run_default_suite()
        return
    with tr.span("conllu.parse"):
        trees = parse_conllu(gen.to_conllu(shard))
    for t in trees:
        with tr.span("metrics.cost_D"):
            cost_D(t, t.identity_linearization())
    if workload == "analyze":
        with tr.span("metrics.histogram"):
            length_histogram([(t, t.identity_linearization()) for t in trees])
        return
    for t in trees:
        if t.n <= gen.OPTIMIZE_MAX_N:
            with tr.span("optimize.brute_force"):
                brute_force_mla(t)
        else:
            with tr.span("optimize.projective_mla"):
                projective_mla(t)


def cli_self(workload: str, seed: int, workdir, tr: Tracer):
    """cli.self_s: operation wall time - setup_s - the layer spans on the same input."""
    rounds, shards, _ = workloads.BUILD[workload](seed, workdir)
    op = rounds[0][0]
    gc.collect()
    gc.freeze()
    setup_sample(workdir)  # warm-up
    setup, walls, spans, outcomes = [], [], [], []
    for _ in range(CLI_REPEATS):
        setup.append(setup_sample(workdir))
        outcome = run_op(op, workdir, set())
        outcomes.append(outcome)
        walls.append(outcome.wall)
        first = len(tr.spans)
        cli_mirror(workload, tr, shards[0] if shards else None)
        spans.append(sum(tr.self_times(first).values()))
    self_s = statistics.median(walls) - statistics.median(setup) - statistics.median(spans)
    report = {
        "cli.op": " ".join(op.args[:1] + op.args[2:]),
        "cli.op_s": statistics.median(walls),
        "cli.setup_s": statistics.median(setup),
        "cli.spans_s": statistics.median(spans),
    }
    if workload == "analyze":
        report["cli.jobs2_s"] = jobs2(op.args, workdir)
    return self_s, outcomes, report


def jobs2(args, workdir):
    """Wall time of ``args`` with --jobs 2; None without the flag or two CPUs."""
    _, code, _, _, out, _ = run_cli([args[0], "--help"], workdir)
    if code != 0 or "--jobs" not in out or len(os.sched_getaffinity(0)) < 2:
        return None
    wall, code, *_ = run_cli([*args, "--jobs", "2"], workdir)
    return wall if code == 0 else None


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.startswith("costs.g_s."):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def _over_budget(signum, frame):
    raise BenchError("the traced run used more than %d s of CPU" % CPU_BUDGET_S)


def traced_run(workload: str, seed: int, seconds: int, workdir):
    if not deplen.__file__.startswith(str(SRC)):
        raise BenchError("imported deplen from %s, not from %s" % (deplen.__file__, SRC))
    # In-process calls have no per-operation cap; a layer that stops
    # terminating must still end the run, without a result.
    signal.signal(signal.SIGXCPU, _over_budget)
    hard = resource.getrlimit(resource.RLIMIT_CPU)[1]
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_BUDGET_S, hard))
    start = time.perf_counter()
    inp = Inputs(seed)
    tr = Tracer()
    plain = {"identity": IDENTITY, "log": LOG, "power:2": POWER2}
    # One untimed pass checks the results and counts the calls of g, so
    # that the timed rounds run the plain cost functions.  Each round
    # then times g on its own by replaying the recorded log arguments.
    gs = dict(plain, identity=counting(IDENTITY), log=counting(LOG))
    try:
        counts = layer_round(Untraced(), inp, gs, verify=True)
        layers_ok = True
    except ValueError as e:
        print("layer check failed: %s" % e, file=sys.stderr)
        gs = dict(plain, identity=counting(IDENTITY), log=counting(LOG))
        counts, layers_ok = layer_round(Untraced(), inp, gs, verify=False), False
    counts["g_calls.words_identity"] = len(gs["identity"].args)
    counts["g_calls.chars_log"] = len(gs["log"].args)
    inp.log_args = gs["log"].args
    per_round, traced_walls, untraced_walls = [], [], []
    while not per_round or time.perf_counter() - start < seconds:
        # Objects alive so far (inputs, spans) leave the collector's view, so
        # collections cost what they would in a fresh CLI process.
        gc.collect()
        gc.freeze()
        t0 = time.perf_counter()
        layer_round(Untraced(), inp, plain, verify=False)
        untraced_walls.append(time.perf_counter() - t0)

        first = len(tr.spans)
        t0 = time.perf_counter()
        layer_round(tr, inp, plain, verify=False)
        traced_walls.append(time.perf_counter() - t0)
        per_round.append(round_metrics(inp, tr.self_times(first), counts))

    values = {  # counts repeat exactly, so any round's will do
        name: per_round[0][name] if unit_of(name) == "count" else statistics.median(r[name] for r in per_round)
        for name in per_round[0]
    }
    values["optimize.brute_force.peak_alloc_mb"] = peak_alloc_mb(
        lambda: brute_force_mla(to_tree(inp.n9))
    )
    values["optimize.enumerate_projective.peak_alloc_mb"] = peak_alloc_mb(
        lambda: sum(1 for _ in enumerate_projective(to_tree(inp.n12)))
    )
    values["cli.self_s"], cli_outcomes, report = cli_self(workload, seed, workdir, tr)
    values["trace.traced_s"] = statistics.median(traced_walls)
    values["trace.untraced_s"] = statistics.median(untraced_walls)

    trace_path = OUT / ("trace-%s-%d.json" % (workload, seed))
    trace_path.write_text(
        json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": tr.spans})
    )
    report.update(
        {
            "rounds": len(per_round),
            "trace_file": str(trace_path.relative_to(OUT.parent)),
            "trace.overhead_s": values["trace.traced_s"] - values["trace.untraced_s"],
        }
    )
    metrics = {name: (v, unit_of(name)) for name, v in values.items()}
    failed = sum(o.status != "ok" for o in cli_outcomes) + (not layers_ok)
    correct = layers_ok and not any(is_incorrect(o.status) for o in cli_outcomes)
    return correct, len(cli_outcomes) + 1, failed, metrics, report
