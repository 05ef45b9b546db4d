"""Spans and counts recorded around calls into gradleak's layers, from outside.

The tracer replaces module attributes (the `_kernels` functions,
`ExprGraph.evaluator`, `grad`/`meta_grad` as `attack` and `flsim` import them,
and the `flsim`, `models` and `attack` functions as `cli` imports them) with
wrappers that record one span per call: name, start, end, parent span and op
id. Nothing inside the package is edited; `restore()` puts every original
back. Spans stay in memory, in flat typed arrays, until `write_spans`.

A span's self time is its duration minus the durations of its direct
children, so a layer's self time is the time it spent outside the layers it
calls into.
"""

from __future__ import annotations

import functools
import math
import statistics
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

import gradleak.attack
import gradleak.cli
import gradleak.flsim
import gradleak.graph
import gradleak.models
import gradleak._kernels

# the kernels the per-layer table reports; the others are wrapped too so their
# time is never charged to the evaluator's own (non-kernel) time
KERNELS = ("corr2d", "kgrad_corr", "pad2d", "crop2d", "rotswap", "avg_pool", "avg_unpool")
_ALL_KERNELS = KERNELS + ("sslice2d", "dilate2d")

# plans as the attack and flsim compile them, told apart by caller and output count
PLANS = ("resid", "gd_step_dlg", "gd_step_improved", "victim")
_ATTACK_SPANS = ("attack.dlg_attack", "attack.improved_dlg")

# spans whose duration is graph construction: node building, grad, plan compile
_BUILD_SPANS = (
    "graph.compile", "graph.grad", "graph.meta_grad", "graph.build.build_logits",
    "graph.build.forward_loss", "graph.build.gradient_distance",
    "graph.build.mean_anchor_penalty",
)

# names cli imports from each layer below it
_CLI_IMPORTS = {
    "attack": ("dlg_attack", "improved_dlg", "fc_analytic_reconstruct",
               "infer_label_from_bundle", "label_from_gradient_sign"),
    "flsim": ("victim_gradient", "write_bundle", "read_bundle"),
    "models": ("build_model", "default_attack_spec", "one_hot", "parse_model_text"),
}

# the same functions at home, for workloads that call the API directly
_HOME_FUNCTIONS = (
    (gradleak.attack, "attack", ("dlg_attack", "improved_dlg", "fc_analytic_reconstruct",
                                 "label_from_gradient_sign")),
    (gradleak.flsim, "flsim", ("victim_gradient", "serialize_bundle",
                               "deserialize_bundle", "aggregate")),
    (gradleak.models, "models", ("build_model",)),
)


def _ancestor_count(graph, outputs) -> int:
    seen = set()
    stack = list(outputs)
    while stack:
        nid = stack.pop()
        if nid not in seen:
            seen.add(nid)
            stack.extend(graph.node(nid).inputs)
    return len(seen)


class Tracer:
    """Records spans while installed; `op` is the id spans are filed under:
    an op index, or -1 during set-up. Install it only around traced work,
    so untraced ops and output checks run the program's own functions."""

    def __init__(self):
        self.op: int | None = None
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[int] = []
        self.counts: dict[int, Counter] = {}
        self.plans: dict[str, tuple[int, int]] = {}  # plan -> (plan nodes, graph nodes)
        self._op_graphs: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts.setdefault(self.op, Counter())[name] += value

    def begin_op(self, op: int) -> None:
        self.op = op
        self.install()

    def end_op(self) -> None:
        self.restore()
        if self._op_graphs:
            self.count("graph.nodes", sum(len(g) for g in self._op_graphs.values()))
        self._op_graphs.clear()
        self.op = None

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span of the given name (used for the op itself)."""
        idx = self._open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # -------------------------------------------------------------- patching

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every traced entry point; `restore` undoes it."""
        k = gradleak._kernels
        for name in _ALL_KERNELS:
            self._wrap(k, name, f"kernels.{name}",
                       after=self._conv_cost(name) if name in ("corr2d", "kgrad_corr") else None)

        self._wrap_evaluator()
        self._wrap(gradleak.attack, "grad", "graph.grad")
        self._wrap(gradleak.attack, "meta_grad", "graph.meta_grad")
        self._wrap(gradleak.flsim, "grad", "graph.grad")
        self._wrap(gradleak.flsim, "forward_loss", "graph.build.forward_loss")
        self._wrap(gradleak.attack, "build_logits", "graph.build.build_logits")
        self._wrap(gradleak.attack, "gradient_distance", "graph.build.gradient_distance")
        self._wrap(gradleak.attack, "mean_anchor_penalty", "graph.build.mean_anchor_penalty")

        for layer, names in _CLI_IMPORTS.items():
            for name in names:
                self._wrap(gradleak.cli, name, f"{layer}.{name}", after=self._after(name))
        self._wrap(gradleak.cli, "cli_main", "cli.cli_main")
        for module, layer, names in _HOME_FUNCTIONS:
            for name in names:
                self._wrap(module, name, f"{layer}.{name}", after=self._after(name))

        # each GN trial step solves the damped normal equations once
        solve = np.linalg.solve
        tracer = self

        @functools.wraps(solve)
        def counted_solve(*args, **kwargs):
            tracer.count("attack.gn.trial_steps")
            return solve(*args, **kwargs)

        np.linalg.solve = counted_solve
        self._patches.append((np.linalg, "solve", solve))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _after(self, name: str):
        if name == "build_model":
            # one uniform draw per parameter
            return lambda args, params: self.count("tensor.rng_draws", params.param_count())
        if name in ("dlg_attack", "improved_dlg"):
            # the seeded starting point: one normal (two uniforms) per pixel and logit
            def init_draws(args, result):
                spec = args[0]
                self.count("tensor.rng_draws", 2 * (math.prod(spec.input_shape) + spec.classes))
            return init_draws
        if name == "serialize_bundle":
            return lambda args, blob: self.count("flsim.bundle_bytes", len(blob))
        return None

    def _conv_cost(self, name: str):
        """Flops and bytes moved, computed from operand and result shapes."""
        def cost(args, out):
            x, other = args[0], args[1]
            if name == "corr2d":  # other is the kernel kh x kw x C x D
                flop = 2 * out.size * other.shape[0] * other.shape[1] * other.shape[2]
            else:                 # other is dy oh x ow x D
                flop = 2 * out.size * other.shape[0] * other.shape[1]
            self.count(f"kernels.{name}.flop", flop)
            self.count(f"kernels.{name}.bytes", 8 * (x.size + other.size + out.size))
        return cost

    def _wrap_evaluator(self) -> None:
        cls = gradleak.graph.ExprGraph
        original = cls.evaluator
        compile_id = self._name_id("graph.compile")
        tracer = self

        @functools.wraps(original)
        def evaluator(graph, outputs):
            idx = tracer._open(compile_id)
            try:
                run = original(graph, outputs)
            finally:
                tracer._close(idx)
            plan = tracer._plan_kind(len(outputs))
            if plan is None:
                return run
            tracer._op_graphs[id(graph)] = graph
            if plan not in tracer.plans:
                tracer.plans[plan] = (_ancestor_count(graph, outputs), len(graph))
            eval_id = tracer._name_id(f"graph.eval.{plan}")

            @functools.wraps(run)
            def traced_run(bindings):
                i = tracer._open(eval_id)
                try:
                    return run(bindings)
                finally:
                    tracer._close(i)

            return traced_run

        cls.evaluator = evaluator
        self._patches.append((cls, "evaluator", original))

    def _plan_kind(self, n_outputs: int) -> str | None:
        """Name a plan by the layer function compiling it and its output count."""
        for idx in reversed(self._stack):
            caller = self.names[self.span_name[idx]]
            if caller == "flsim.victim_gradient":
                return "victim"
            if caller in _ATTACK_SPANS:
                if n_outputs == 1:
                    return "dist"  # the distance-only plan used at checkpoints
                if n_outputs == 3:  # distance and its two meta-gradients
                    return "gd_step_dlg" if caller == "attack.dlg_attack" else "gd_step_improved"
                return "resid"  # one output per gradient tensor
        return None

    # ----------------------------------------------------------- reduction

    def _arrays(self):
        n = len(self.span_name)
        name = np.frombuffer(self.span_name, dtype=np.int32, count=n)
        op = np.frombuffer(self.span_op, dtype=np.int32, count=n)
        parent = np.frombuffer(self.span_parent, dtype=np.int32, count=n)
        dur = (np.frombuffer(self.span_end, count=n) - np.frombuffer(self.span_start, count=n))
        covered = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return name, op, parent, dur, dur - covered

    def layer_metrics(self, ops: list[int], cycle: list[int], facts: dict[int, dict]) -> dict:
        """Per-layer metrics over the traced ops.

        Times are medians over `ops` of each op's total. Counts are the mean
        over `cycle`, the first ops of the run, so two runs on one seed give
        the same count whatever number of ops each completed.
        """
        name, op, parent, dur, self_time = self._arrays()
        size = max(ops) + 1
        in_op = op >= 0
        is_build = np.isin(name, [self._name_id(n) for n in _BUILD_SPANS])
        top_build = is_build & ~np.isin(parent, np.nonzero(is_build)[0])

        def select(pred):
            return np.isin(name, [i for i, n in enumerate(self.names) if pred(n)]) & in_op

        def named(*wanted):
            return select(lambda n: n in wanted)

        def per_op(mask, values):
            totals = np.bincount(op[mask], weights=values[mask], minlength=size)
            return float(np.median(totals[ops]))

        def cycle_spans(mask):
            return float(np.isin(op[mask], cycle).sum()) / len(cycle)

        def cycle_count(key):
            return sum(self.counts.get(o, Counter())[key] for o in cycle) / len(cycle)

        def call_ms(*plans):
            d = dur[named(*(f"graph.eval.{p}" for p in plans))]
            return 1000.0 * float(np.median(d)) if d.size else 0.0

        eval_mask = select(lambda n: n.startswith("graph.eval."))
        m: dict[str, float] = {}
        m["attack.gn.resid_evals"] = cycle_spans(named("graph.eval.resid"))
        trials = cycle_count("attack.gn.trial_steps")
        m["attack.gn.trial_steps"] = trials
        events = sum(facts.get(o, {}).get("step_events", 0) for o in cycle) / len(cycle)
        m["attack.gn.accept_ratio"] = (trials - events) / trials if trials else 0.0
        m["attack.self_s"] = per_op(select(lambda n: n.startswith("attack.")), self_time)
        mses = [f["final_mse_255"] for f in facts.values() if "final_mse_255" in f]
        m["attack.final_mse_255.p50"] = statistics.median(mses) if mses else 0.0

        m["graph.eval_calls"] = cycle_spans(eval_mask)
        m["graph.eval_ms.resid"] = call_ms("resid")
        m["graph.eval_ms.gd_step"] = call_ms("gd_step_dlg", "gd_step_improved")
        m["graph.eval_ms.victim"] = call_ms("victim")
        for plan in PLANS:
            plan_nodes, graph_nodes = self.plans.get(plan, (0, 0))
            m[f"graph.plan_nodes.{plan}"] = plan_nodes
            m[f"graph.plan_graph_nodes.{plan}"] = graph_nodes
        m["graph.nodes"] = cycle_count("graph.nodes")
        m["graph.eval_nonkernel_s"] = per_op(eval_mask, self_time)
        m["graph.build_s"] = per_op(top_build & in_op, dur)

        for kname in KERNELS:
            mask = named(f"kernels.{kname}")
            m[f"kernels.{kname}.calls"] = cycle_spans(mask)
            m[f"kernels.{kname}.s"] = per_op(mask, dur)
        for kname in ("corr2d", "kgrad_corr"):
            m[f"kernels.{kname}.flop"] = cycle_count(f"kernels.{kname}.flop")
            m[f"kernels.{kname}.bytes"] = cycle_count(f"kernels.{kname}.bytes")

        # per call, set-up included: gd-label-12 builds its models only in set-up
        builds = dur[name == self._name_id("models.build_model")]
        m["models.build_model_s"] = float(np.median(builds)) if builds.size else 0.0
        m["tensor.rng_draws"] = cycle_count("tensor.rng_draws")

        for metric, span in (("victim_gradient", "victim_gradient"),
                             ("serialize", "serialize_bundle"),
                             ("deserialize", "deserialize_bundle"),
                             ("aggregate", "aggregate")):
            m[f"flsim.{metric}_s"] = per_op(named(f"flsim.{span}"), dur)
        m["flsim.bundle_bytes"] = cycle_count("flsim.bundle_bytes")
        m["cli.self_s"] = per_op(named("cli.cli_main"), self_time)
        return m

    def write_spans(self, path) -> None:
        """One line per span: op, parent index, name, start and end in seconds."""
        n = len(self.span_name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\top\tparent\tname\tstart_s\tend_s\n")
            for i in range(n):
                fh.write(f"{i}\t{self.span_op[i]}\t{self.span_parent[i]}\t"
                         f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\n")
