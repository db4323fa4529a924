"""In-memory span tracer for the benchmark's traced runs.

``install`` wraps public ``qit`` callables at every module attribute that
holds them, which are the names callers look up at call time, and class
``__init__`` methods on their class.  Each call records one span
``[name, tag, start, end, parent]``.  Spans stay in memory until the
campaign ends; ``layer_metrics`` then folds them into the metrics of
``PER_LAYER``.  A layer's self time is its spans' duration minus the time
covered by their child spans.  Nothing inside ``qit`` is edited: a name the
code no longer has is listed in ``Tracer.missing`` and its metrics read 0.
"""

import collections
import functools
import inspect
import sys
import time
import tracemalloc

LAWS = (
    "joint-chain",
    "indep-superadd",
    "cond-chain",
    "block-chain",
    "qln-sum",
    "dq-nonneg",
    "max-bound",
    "dpi",
    "info-chain-rule",
    "rel-chain-rule",
)

#: (name, unit, better) of every per-layer metric.  The comment on each
#: group names the workload and end-to-end metric it should move.
PER_LAYER = (
    # fuzz -> fuzz wall_s
    *((f"laws.fuzz.{law}.total_s", "s", "lower") for law in LAWS),
    ("laws.fuzz.self_s", "s", "lower"),
    ("prob.sample.calls", "count", "lower"),
    ("prob.sample.self_s", "s", "lower"),
    ("prob.container.calls", "count", "lower"),
    ("prob.container.self_s", "s", "lower"),
    ("measures.call.calls", "count", "lower"),
    ("measures.call.self_s", "s", "lower"),
    ("qcore.ln_q.calls", "count", "lower"),
    ("qcore.ln_q.self_s", "s", "lower"),
    ("prob.make_rng.calls", "count", "lower"),
    ("cli.run.self_s", "s", "lower"),
    # second-law -> second-law wall_s
    ("markov.random_doubly_stochastic.calls", "count", "lower"),
    ("markov.random_doubly_stochastic.self_s", "s", "lower"),
    ("markov.second_law_report.calls", "count", "lower"),
    ("markov.second_law_report.self_s", "s", "lower"),
    ("markov.second_law_step_us", "us", "lower"),
    ("markov.MarkovChain.init.calls", "count", "lower"),
    ("markov.MarkovChain.init.self_s", "s", "lower"),
    # smb-long -> smb-long peak_rss_mb and wall_s
    ("smb.smb_probe.self_s", "s", "lower"),
    ("smb.smb_probe.peak_traced_mb", "MB", "lower"),
    ("markov.stationary.calls", "count", "lower"),
    ("markov.stationary.self_s", "s", "lower"),
    ("smb.h_q_k.self_s", "s", "lower"),
    ("smb.h_q_inf.self_s", "s", "lower"),
    # maxent-sweep -> maxent-sweep wall_s and ok_ratio
    ("maxent.solve.calls", "count", "lower"),
    ("maxent.solve.self_s", "s", "lower"),
    ("maxent.solve.iterations", "count", "lower"),
    ("maxent.solve.levels_dropped", "count", "lower"),
    ("maxent.verify_optimality.calls", "count", "lower"),
    ("maxent.verify_optimality.self_s", "s", "lower"),
    ("maxent.verify_optimality.ok_ratio", "ratio", "higher"),
    # every workload: traced wall_s minus the untraced median
    ("trace.overhead_s", "s", "lower"),
)


class Tracer:
    """Spans and counters of one traced campaign."""

    def __init__(self):
        self.spans = []  # [name, tag, start, end, parent index or -1]
        self.counts = collections.Counter()
        self.missing = []
        self._stack = []

    def wrap(self, name, fn, tag=None, after=None):
        """``fn`` recording a span per call; ``after`` updates counters."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, None if tag is None else tag(args, kwargs), 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[3] = clock()
                stack.pop()
                if after is not None:
                    after(counts, args, kwargs, result)

        return traced


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_steps(counts, args, kwargs, result):
    counts["second_law_steps"] += int(_arg(args, kwargs, 1, "steps"))


def _count_solve(counts, args, kwargs, result):
    if result is not None:
        counts["solve_iterations"] += result.iterations
        counts["solve_levels_dropped"] += result.problem.m - len(result.support)


def _count_verify(counts, args, kwargs, result):
    counts["verify_ok"] += result is not None


def _targets():
    """(span name, module, attribute, modules to patch or None for all, tag, after)."""
    import qit.measures

    measures = sorted(
        name
        for name, fn in vars(qit.measures).items()
        if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == "qit.measures"
    )
    return [
        ("cli.run", "qit.cli", "run", None, None, None),
        ("laws.fuzz", "qit.laws", "fuzz", None, lambda a, k: str(_arg(a, k, 0, "law")), None),
        *(("prob.sample", "qit.prob", f, ("qit.laws",), None, None)
          for f in ("random_joint", "random_dist", "random_markov_triple")),
        ("prob.container", "qit.prob", "ProbVec.__init__", None, None, None),
        ("prob.container", "qit.prob", "JointTable.__init__", None, None, None),
        *(("measures.call", "qit.measures", f, None, None, None) for f in measures),
        ("qcore.ln_q", "qit.qcore", "ln_q", None, None, None),
        ("prob.make_rng", "qit.prob", "make_rng", None, None, None),
        ("markov.random_doubly_stochastic", "qit.markov", "random_doubly_stochastic", None, None, None),
        ("markov.second_law_report", "qit.markov", "second_law_report", None, None, _count_steps),
        ("markov.MarkovChain.init", "qit.markov", "MarkovChain.__init__", None, None, None),
        ("markov.stationary", "qit.markov", "stationary", None, None, None),
        ("smb.smb_probe", "qit.smb", "smb_probe", None, None, None),
        ("smb.h_q_k", "qit.smb", "h_q_k", None, None, None),
        ("smb.h_q_inf", "qit.smb", "h_q_inf", None, None, None),
        ("maxent.solve", "qit.maxent", "solve", None, None, _count_solve),
        ("maxent.verify_optimality", "qit.maxent", "verify_optimality", None, None, _count_verify),
    ]


def _memory_wrap(counts, fn):
    """``fn`` recording the tracemalloc peak of each call, in bytes."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            counts["smb_probe_peak_bytes"] = max(
                counts["smb_probe_peak_bytes"], tracemalloc.get_traced_memory()[1]
            )

    return traced


def install(tracer, memory=False):
    """Wrap every target; with ``memory``, wrap only ``smb_probe`` with a
    tracemalloc peak recorder and start tracemalloc."""
    qit_modules = [m for n, m in list(sys.modules.items()) if n == "qit" or n.startswith("qit.")]
    for span, modname, attr, only, tag, after in _targets():
        if memory and span != "smb.smb_probe":
            continue
        owner = sys.modules.get(modname)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None)
        if fn is None:
            tracer.missing.append(f"{modname}.{attr}")
            continue
        wrapped = _memory_wrap(tracer.counts, fn) if memory else tracer.wrap(span, fn, tag, after)
        if path:
            setattr(owner, leaf, wrapped)
            continue
        where = qit_modules if only is None else [sys.modules[n] for n in only if n in sys.modules]
        for module in where:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)
    if memory:
        tracemalloc.start()


def _fold(spans):
    """Per span name: [calls, self_s, total_s]; per (name, tag): total_s.

    total_s counts only spans with no ancestor of the same name, so a
    layer that calls itself is not counted twice.
    """
    child = [0.0] * len(spans)
    for name, tag, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = collections.defaultdict(lambda: [0, 0.0, 0.0])
    by_tag = collections.defaultdict(float)
    for i, (name, tag, start, end, parent) in enumerate(spans):
        st = stats[name]
        st[0] += 1
        st[1] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][4]
        if p < 0:
            st[2] += end - start
            if tag is not None:
                by_tag[(name, tag)] += end - start
    return stats, by_tag


def layer_metrics(tracer):
    """Values of every ``PER_LAYER`` metric except ``trace.overhead_s``."""
    stats, by_tag = _fold(tracer.spans)
    c = tracer.counts
    out = {f"laws.fuzz.{law}.total_s": by_tag[("laws.fuzz", law)] for law in LAWS}
    for layer in (
        "prob.sample",
        "prob.container",
        "measures.call",
        "qcore.ln_q",
        "markov.random_doubly_stochastic",
        "markov.second_law_report",
        "markov.MarkovChain.init",
        "markov.stationary",
        "maxent.solve",
        "maxent.verify_optimality",
    ):
        out[f"{layer}.calls"] = stats[layer][0]
        out[f"{layer}.self_s"] = stats[layer][1]
    for layer in ("laws.fuzz", "cli.run", "smb.smb_probe", "smb.h_q_k", "smb.h_q_inf"):
        out[f"{layer}.self_s"] = stats[layer][1]
    out["prob.make_rng.calls"] = stats["prob.make_rng"][0]
    steps = c["second_law_steps"]
    out["markov.second_law_step_us"] = stats["markov.second_law_report"][2] / steps * 1e6 if steps else 0.0
    out["maxent.solve.iterations"] = c["solve_iterations"]
    out["maxent.solve.levels_dropped"] = c["solve_levels_dropped"]
    verifies = stats["maxent.verify_optimality"][0]
    out["maxent.verify_optimality.ok_ratio"] = c["verify_ok"] / verifies if verifies else 0.0
    out["smb.smb_probe.peak_traced_mb"] = c["smb_probe_peak_bytes"] / 2**20
    return out
