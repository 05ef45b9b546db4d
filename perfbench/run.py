"""Run one gradleak benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gn-demo-16 --seed 1 --seconds 40 --trace 0

The workload runs in this process as a closed loop: one caller runs ops back
to back for `--seconds` of wall time, starting an op only if a typical op
still ends in time, and every op's output is checked between ops, off the
clock. The program is imported from `src/` of the checkout this file sits
in; the harness starts no threads or processes.

With `--trace 0` the last line of output is a JSON object holding the
end-to-end metrics; a timer signal also times a fixed reference computation
every 0.5 s, and `op_ref.p50` is op time in units of it. With `--trace 1`
the ops run in pairs, one untraced and one traced, alternating which goes
first; the traced halves give the per-layer metrics and the gap between the
halves is the tracing overhead.
The lines before the JSON object give every metric with its unit and sample
count, the environment, and each failed op by id.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 9  # setup_s reports the median set-up


# One caller, one thread. By default NumPy's BLAS runs a thread per core, and
# on two cores that thread competes with whatever else the host runs: one
# demo took 8 s alone and 13 to 15 s beside one other busy process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # first: NumPy's own start-up is not the program's set-up


def _import_program() -> set[str]:
    """Import gradleak and its cli from the checkout's sources.

    Returns the modules the import added, the standard-library ones that
    `gradleak.cli` pulls in (argparse, concurrent.futures, ...) included.
    """
    package = ROOT / "src" / "gradleak"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gradleak sources at {package}")
    before = set(sys.modules)
    sys.path.insert(0, str(package.parent))
    import gradleak
    import gradleak.cli  # noqa: F401

    if Path(gradleak.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported gradleak from {gradleak.__file__}, "
                         f"not from {package}")
    return set(sys.modules) - before


PROGRAM_MODULES = _import_program()
FIRST_IMPORT_S = perf_counter() - PROCESS_START

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402


def fresh_import() -> float:
    """Import gradleak and its cli anew, as a process with NumPy loaded would.

    Returns seconds. The modules the first import added are set aside and
    put back afterwards, so the harness keeps using the ones it already holds.
    """
    saved = {name: sys.modules.pop(name) for name in PROGRAM_MODULES}
    try:
        start = perf_counter()
        importlib.import_module("gradleak.cli")
        return perf_counter() - start
    finally:
        sys.modules.update(saved)


from numpy.lib.stride_tricks import sliding_window_view  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# printed with the gated metrics, but too host-dependent to gate (see README)
UNGATED = {"setup_raw_s": "s", "op_s.p50": "s", "ops_per_s": "1/s"}

# The host's speed for identical work drifts by tens of percent over seconds
# to minutes. Samples of a fixed reference computation, taken on a timer
# evenly through the run, drift with it; op_ref.p50 counts op time in units
# of one sample. Editing the reference changes that unit, so it is part of
# the benchmark.
REF_INTERVAL_S = 0.5
# setup_s is set-up time in reference samples, times this: the median sample
# on the 2-core host the benchmark was built on, so that setup_s reads as
# seconds there
REF_NOMINAL_S = 0.016
_REF_RNG = np.random.default_rng(0)
_REF_IMAGE = _REF_RNG.random((12, 12, 6))
_REF_KERNEL = _REF_RNG.random((5, 5, 6, 12))


def reference_sample() -> float:
    """Seconds for a fixed mix of small NumPy kernels and interpreter work."""
    start = perf_counter()
    total = 0.0
    for _ in range(100):
        padded = np.pad(_REF_IMAGE, ((2, 2), (2, 2), (0, 0)))
        windows = sliding_window_view(padded, (5, 5), axis=(0, 1))
        z = np.tensordot(windows, _REF_KERNEL, axes=([2, 3, 4], [2, 0, 1]))
        total += float((1.0 / (1.0 + np.exp(-z))).sum())
        total += sum({i: i * i for i in range(20)}.values())
    return perf_counter() - start


class ReferenceSampler:
    """Takes a reference sample on every tick of a wall-clock timer signal.

    The handler runs between bytecodes of whatever is executing, inside long
    ops too, so the samples follow the host through the whole run without a
    thread. `seconds` is the time spent sampling, which ops do not count.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.seconds = 0.0

    def _on_tick(self, signum, frame) -> None:
        sample = reference_sample()
        self.samples.append(sample)
        self.seconds += sample

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a run shorter than one tick
            self.samples.append(reference_sample())


def timed_setups(workload, seed: int, tracer: Tracer | None) -> tuple[list[float], list[float]]:
    """Set up SETUP_REPEATS times; returns the seconds and reference units of each.

    One set-up is a fresh import of gradleak and its cli plus the workload's
    input generation and warm-up. A reference sample is taken before the
    first set-up and after each, and a set-up's reference units are its
    seconds over the mean of the samples on either side. With a tracer, the
    last set-up is traced as op -1.
    """
    reference_sample()  # the first call pays NumPy's own first-use costs
    refs = [reference_sample()]
    seconds = []
    for rep in range(SETUP_REPEATS):
        traced = tracer is not None and rep == SETUP_REPEATS - 1
        if traced:
            tracer.begin_op(-1)
        import_s = fresh_import()
        start = perf_counter()
        workload.setup(seed)
        seconds.append(import_s + perf_counter() - start)
        if traced:
            tracer.end_op()
        refs.append(reference_sample())
    units = [s / ((a + b) / 2) for s, a, b in zip(seconds, refs, refs[1:])]
    return seconds, units


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment() -> dict:
    """Facts that make results from different machines incomparable."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{deps['blas'].get('name')} {deps['blas'].get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "os": f"{os.uname().sysname} {os.uname().release}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _one_op(workload, i: int, tracer: Tracer | None, sampler: ReferenceSampler | None):
    """Run op i, traced if a tracer is given; returns (ok, seconds, facts, reason).

    The seconds exclude reference samples the sampler took during the op.
    """
    args = workload.prepare(i)
    error = None
    if tracer is not None:
        tracer.begin_op(i)
    sampled = sampler.seconds if sampler is not None else 0.0
    start = perf_counter()
    try:
        if tracer is not None:
            result = tracer.span("op", workload.run, args)
        else:
            result = workload.run(args)
    except Exception as e:  # an op that raises is a failed op, not a crash
        error = f"raised {type(e).__name__}: {e}"
    seconds = perf_counter() - start
    if sampler is not None:
        seconds -= sampler.seconds - sampled
    if tracer is not None:
        tracer.end_op()
    if error is not None:
        return False, seconds, {}, error
    try:
        ok, facts, reason = workload.check(args, result)
    except Exception as e:  # a check that cannot read the output fails the op
        return False, seconds, {}, f"check raised {type(e).__name__}: {e}"
    return ok, seconds, facts, reason


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run the timed loop, and return every metric of this mode."""
    work_dir = OUT / f"work-{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    try:
        workload = WORKLOADS[name](work_dir)
        setup_seconds, setup_refs = timed_setups(workload, seed, tracer)

        times = {False: [], True: []}  # traced? -> op seconds
        facts: dict[int, dict] = {}
        failures = []
        attempted = 0
        sampler = None if trace else ReferenceSampler()
        loop_start = perf_counter()
        deadline = loop_start + seconds
        rounds = []  # wall seconds of each pass of the loop, checks included
        i = 0
        with sampler or contextlib.nullcontext():
            # start another pass only if a typical one still ends before the deadline
            while i < workload.cycle or (
                    perf_counter() + statistics.median(rounds) <= deadline):
                round_start = perf_counter()
                order = ((False, True) if i % 2 == 0 else (True, False)) if trace else (False,)
                for traced in order:
                    ok, op_s, op_facts, reason = _one_op(
                        workload, i, tracer if traced else None, sampler)
                    attempted += 1
                    times[traced].append(op_s)
                    if traced or not trace:
                        facts[i] = op_facts
                    if not ok:
                        failures.append((i, traced, reason))
                rounds.append(perf_counter() - round_start)
                i += 1
            # the timed phase's wall time, checks included, reference samples not
            loop_s = perf_counter() - loop_start - (sampler.seconds if sampler else 0.0)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(), "attempted": attempted, "failed": len(failures),
        "failures": [{"op": op, "traced": traced, "reason": reason}
                     for op, traced, reason in failures],
    }
    plain = times[False]
    if trace:
        ops = list(range(i))
        metrics = tracer.layer_metrics(ops, ops[:workload.cycle], facts)
        metrics["trace.overhead"] = statistics.median(times[True]) / statistics.median(plain) - 1
        result["samples"] = len(times[True])
        result["untraced_samples"] = len(plain)
        result["untraced_op_s.p50"] = statistics.median(plain)
        tracer.write_spans(OUT / f"{name}.spans.tsv")
    else:
        completed = attempted - len(failures)
        reference = statistics.median(sampler.samples)
        metrics = {
            "setup_s": statistics.median(setup_refs) * REF_NOMINAL_S,
            "setup_raw_s": statistics.median(setup_seconds),
            "op_s.p50": statistics.median(plain),
            "ops_per_s": completed / loop_s,
            "op_ref.p50": statistics.median(plain) / reference,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["samples"] = len(plain)
        result["setup_seconds"] = setup_seconds
        result["setup_refs"] = setup_refs
        result["op_seconds"] = plain
        result["reference_samples"] = len(sampler.samples)
        result["reference_s.p50"] = reference
        if len(plain) >= 100:  # at least ten samples lie beyond the 90th percentile
            result["op_s.p90"] = statistics.quantiles(plain, n=10)[8]
    result["metrics"] = metrics
    return result


def report(result: dict, units: dict[str, str]) -> list[str]:
    """Human-readable lines: every metric by name with unit and sample count."""
    n = result["samples"]
    lines = [f"perfbench {result['workload']} seed={result['seed']} "
             f"seconds={result['seconds']} trace={result['trace']}",
             "env " + json.dumps(result["env"], sort_keys=True)]
    metrics = result["metrics"]
    if result["trace"]:
        for name, unit in units.items():
            lines.append(f"metric {name} {metrics[name]:.6g} {unit} (traced ops={n})")
        lines.append(f"metric untraced op_s.p50 {result['untraced_op_s.p50']:.6g} s "
                     f"(untraced ops={result['untraced_samples']})")
    else:
        refs = f"{result['reference_samples']} reference samples, median " \
               f"{result['reference_s.p50']:.4g} s"
        samples = {"setup_s": f"median of {SETUP_REPEATS} imports and set-ups, in "
                              f"reference samples times {REF_NOMINAL_S} s",
                   "setup_raw_s": f"median of {SETUP_REPEATS}; first import of gradleak and "
                                  f"its cli {FIRST_IMPORT_S:.4g} s from process start",
                   "op_ref.p50": f"n={n}; {refs}",
                   "peak_rss_mb": "whole process"}
        for name, unit in {**UNGATED, **units}.items():
            lines.append(f"metric {name} {metrics[name]:.6g} {unit} "
                         f"({samples.get(name, f'n={n}')})")
        if "op_s.p90" in result:
            lines.append(f"metric op_s.p90 {result['op_s.p90']:.6g} s (n={n})")
        else:
            lines.append(f"metric op_s.p90 not reported: n={n} < 100")
    lines.append(f"metric failed_share {result['failed'] / result['attempted']:.6g} ratio "
                 f"({result['failed']} of {result['attempted']} ops)")
    for f in result["failures"]:
        lines.append(f"failed op {f['op']}{' (traced)' if f['traced'] else ''}: {f['reason']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one gradleak benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = declared_metrics(bool(args.trace))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for line in report(result, units):
        print(line)
    metrics = result["metrics"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
