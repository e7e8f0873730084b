"""negdimcd benchmark runner: one client, closed loop, one worker thread.

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` makes an untraced and a traced pass over the same cycles and
reports the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give every metric by name and unit, the error rate, the sample counts and
the machine.  ``--smoke`` runs one cycle at tiny sizes (see test_smoke.py).
"""

from __future__ import annotations

import os

# one thread per BLAS/OpenMP pool, for this process and every child, before
# numpy is imported: the box is shared and has two cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
WARMUP_S = 1.5
# the untraced share of a --trace 1 run; the traced pass repeats its cycles
UNTRACED_SHARE = 1.0 / 3.0
THIRD_PARTY = ("numpy", "scipy")
# The shared 2-vCPU host changes speed by up to 2x within seconds as its
# neighbours come and go: a fixed 25 ms loop takes 20-30 ms, and runs a few
# minutes apart differ by 40% in every timing.  So a fixed reference kernel is
# timed between tasks, at least every REFERENCE_INTERVAL_S, and every time
# metric is the wall time scaled by REFERENCE_S over the kernel's time around
# it: seconds at the host speed where the kernel takes REFERENCE_S.  The
# kernel's median time ranges from 1.0 to 2.0 ms on that host.
REFERENCE_S = 1.5e-3
REFERENCE_INTERVAL_S = 0.1
_REFERENCE_ARRAY = np.linspace(0.0, 1.0, 1 << 16)


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def use_checkout_sources() -> None:
    """Import negdimcd from this checkout, here and in every child."""
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else []))


# ---------------------------------------------------------------------------
# host speed


def reference_kernel() -> float:
    """Best of two runs of a fixed kernel (~1.4 ms): a Python loop over
    numpy scalars, like a checker's loop over points, then one array
    expression, like a transport check.  The first run of the pair refills
    the caches the last task evicted."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        values = []
        for i in range(300):
            x = np.float64(i * 0.01)
            values.append(float(np.exp(-x / 2.0) * np.cosh(x)))
        min(values)
        float(np.exp(np.sin(_REFERENCE_ARRAY)).sum())
        best = min(best, time.perf_counter() - start)
    return best


class HostSpeed:
    """Reference-kernel times, taken between tasks, and the scale factor
    they give for a task that started at a given moment."""

    def __init__(self):
        self.times: list[float] = []     # when each sample finished
        self.samples: list[float] = []

    def sample(self, force: bool = False) -> None:
        if force or not self.times or (
                time.perf_counter() - self.times[-1] >= REFERENCE_INTERVAL_S):
            self.samples.append(reference_kernel())
            self.times.append(time.perf_counter())

    def scale(self, start: float) -> float:
        """REFERENCE_S over the geometric mean of the samples on either side
        of ``start``."""
        i = bisect.bisect_right(self.times, start)
        before = self.samples[max(i - 1, 0)]
        after = self.samples[min(i, len(self.samples) - 1)]
        return REFERENCE_S / math.sqrt(before * after)


# ---------------------------------------------------------------------------
# set-up and import probes (fresh interpreters)


def setup_samples(workload: str, seed: int, smoke: bool) -> tuple[list, list]:
    """Wall times of fresh interpreters that import negdimcd and build the
    workload's shared inputs, raw and scaled to the reference host speed.
    The first, unrecorded, probe compiles the bytecode and warms the file
    cache."""
    args = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    if smoke:
        args.append("--smoke")
    host = HostSpeed()
    runs = []
    for i in range(1 + (1 if smoke else SETUP_SAMPLES)):
        host.sample(force=True)
        start = time.perf_counter()
        proc = subprocess.run(args, cwd=ROOT, capture_output=True)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr.decode())
        if i > 0:
            runs.append((start, elapsed))
    host.sample(force=True)
    return ([elapsed for _, elapsed in runs],
            [elapsed * host.scale(start) for start, elapsed in runs])


def parse_importtime(text: str) -> dict:
    """Split ``-X importtime`` output into negdimcd's import and its parts.

    ``numpy``/``scipy`` are the cumulative times of each package's entries
    imported from outside both packages (where the first import paid);
    ``scipy.integrate`` and
    ``scipy.linalg`` are those modules' own entries; ``own`` is the rest of
    negdimcd's import, its own modules and the standard library they pull in.
    """
    entries = []      # [name, cumulative seconds, parent index]
    pending = []      # (depth, index) waiting for their parent line
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cumulative = int(parts[1]) * 1e-6
        except (IndexError, ValueError):
            continue  # the header line
        raw = parts[2].rstrip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        index = len(entries)
        entries.append([raw.strip(), cumulative, None])
        # children are printed before their parent, one level deeper
        while pending and pending[-1][0] == depth + 1:
            entries[pending.pop()[1]][2] = index
        pending.append((depth, index))

    def package(name):
        return name.split(".")[0]

    def first_import(pkg):
        # entries of ``pkg`` not imported from inside numpy or scipy, so
        # numpy modules that scipy pulls in count as scipy's
        total = 0.0
        for name, cumulative, parent in entries:
            if package(name) != pkg:
                continue
            up = parent
            while up is not None and package(entries[up][0]) not in THIRD_PARTY:
                up = entries[up][2]
            if up is None:
                total += cumulative
        return total

    def entry(target):
        return sum(c for name, c, _ in entries if name == target)

    total = sum(c for name, c, parent in entries
                if parent is None and package(name) == "negdimcd")
    numpy_s, scipy_s = first_import("numpy"), first_import("scipy")
    return {"cli.import_s": total, "cli.import_numpy_s": numpy_s,
            "cli.import_scipy_s": scipy_s,
            "cli.import_scipy_integrate_s": entry("scipy.integrate"),
            "cli.import_scipy_linalg_s": entry("scipy.linalg"),
            "cli.import_own_s": total - numpy_s - scipy_s}


def import_breakdown(samples: int) -> dict:
    runs = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import negdimcd.cli"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError("import probe failed:\n" + proc.stderr)
        runs.append(parse_importtime(proc.stderr))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Runs cycles of tasks one after another and keeps the tallies."""

    def __init__(self, workload):
        self.workload = workload
        self.tracer = None   # set for the traced pass
        self.host = HostSpeed()
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.kinds: list[str] = []
        self.checks = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.peak_child_kb = 0

    def run_task(self, task, task_id: int) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.task_id = task_id
        self.host.sample()
        start = time.perf_counter()
        try:
            result = task.run()
        except Exception:  # a task that raises is a failed task, not a crash
            self._record(task, start)
            self._fail(task, traceback.format_exc(limit=3))
            return
        self._record(task, start)
        self.peak_child_kb = max(self.peak_child_kb, task.peak_rss_kb)
        try:
            self.checks += task.check(result)
        except Exception as exc:
            self._fail(task, f"{type(exc).__name__}: {exc}")

    def _record(self, task, start: float) -> None:
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)
        self.kinds.append(task.kind)

    def reset_timings(self) -> None:
        """Forget durations and checks (after warm-up); failures still count."""
        self.starts.clear()
        self.durations.clear()
        self.kinds.clear()
        self.checks = 0

    def scaled(self) -> list[float]:
        """Task durations at the reference host speed."""
        return [d * self.host.scale(s) for s, d in zip(self.starts, self.durations)]

    def _fail(self, task, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"{task.kind}: {message.strip()}")

    def run_cycles(self, count: int | None = None, budget: float | None = None) -> int:
        """Run cycles from index 0: ``count`` of them, or as many as fit in
        ``budget`` seconds when each is as long as the mean so far."""
        start = time.perf_counter()
        done = 0
        while True:
            for task in self.workload.cycle(done):
                self.run_task(task, len(self.durations))
            done += 1
            elapsed = time.perf_counter() - start
            if (done >= count) if count is not None else (
                    elapsed + elapsed / done > budget):
                self.host.sample(force=True)
                return done

    def warm_up(self, seconds: float) -> None:
        """One call of each task kind, from a cycle no timed pass uses."""
        seen = set()
        start = time.perf_counter()
        for task in self.workload.cycle(10 ** 6):
            if task.kind in seen:
                continue
            seen.add(task.kind)
            self.run_task(task, -1)
            if time.perf_counter() - start > seconds:
                break


def by_kind(kinds: list[str], durations: list[float]) -> dict:
    """Sample count and median seconds of each task kind."""
    groups: dict = {}
    for kind, seconds in zip(kinds, durations):
        groups.setdefault(kind, []).append(seconds)
    return {kind: [len(v), statistics.median(v)] for kind, v in sorted(groups.items())}


def quantile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[q // 10 - 1]


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), "unknown")
    except OSError:
        info["cpu"] = "unknown"
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info[f"l{level}_cache_per_cpu"] = (index / "size").read_text().strip()
        except OSError:
            continue
    import numpy
    import scipy
    import negdimcd
    info.update(numpy=numpy.__version__, scipy=scipy.__version__,
                negdimcd=negdimcd.__version__)
    try:
        info["commit"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                        capture_output=True, text=True,
                                        check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        info["commit"] = "unknown (not a git checkout)"
    return info


# ---------------------------------------------------------------------------
# metrics


def end_to_end(loop: Loop, setup: list[float]) -> dict:
    """The end-to-end metrics; every time is at the reference host speed."""
    if loop.peak_child_kb:
        peak_kb = loop.peak_child_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = loop.scaled()
    return {
        "setup_s": statistics.median(setup),
        "checks_per_s": loop.checks / sum(scaled),
        "task_s_p50": quantile(scaled, 50),
        "task_s_p90": quantile(scaled, 90),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(tracer, cycles: int, traced_s: float, untraced_s: float,
              imports: dict, certify_calls: float, main_s: float) -> dict:
    c, calls, self_s, incl = tracer.counts, tracer.calls, tracer.self_s, tracer.inclusive_s

    def ratio(a, b):
        return a / b if b else 0.0

    m = dict(imports)
    m["cli.main_s"] = main_s
    m["cli.certify_check_calls"] = certify_calls
    for layer in ("convexity", "geometry"):
        m[f"{layer}.calls"] = calls[layer] / cycles
        m[f"{layer}.self_s"] = self_s[layer] / cycles
        m[f"{layer}.margins"] = c[f"{layer}.margins"] / cycles
        m[f"{layer}.margins_per_s"] = ratio(c[f"{layer}.margins"], incl[layer])
    m["gradflow.integrate_flow_s"] = c["gradflow.integrate_flow_s"] / cycles
    m["gradflow.rk4_steps"] = c["gradflow.rk4_steps"] / cycles
    m["gradflow.steps_per_s"] = ratio(c["gradflow.rk4_steps"],
                                      c["gradflow.integrate_flow_s"])
    m["gradflow.self_s"] = self_s["gradflow"] / cycles
    m["functions.calls"] = calls["functions"] / cycles
    m["functions.elements_per_call"] = ratio(c["functions.elements"], calls["functions"])
    m["functions.fd_share"] = ratio(c["functions.fd_calls"], c["functions.deriv_calls"])
    m["functions.self_s"] = self_s["functions"] / cycles
    m["expr.compile_calls"] = c["expr.compile_calls"] / cycles
    m["expr.eval_calls"] = c["expr.eval_calls"] / cycles
    m["expr.elements_per_eval"] = ratio(c["expr.elements"], c["expr.eval_calls"])
    m["expr.eval_s"] = c["expr.eval_s"] / cycles
    m["comparison.calls"] = calls["comparison"] / cycles
    m["comparison.elements_per_call"] = ratio(c["comparison.elements"],
                                              calls["comparison"])
    m["comparison.self_s"] = self_s["comparison"] / cycles
    integrate_calls = c["quadrature.calls"]
    m["quadrature.calls"] = integrate_calls / cycles
    m["quadrature.evals"] = c["quadrature.evals"] / cycles
    m["quadrature.doublings_per_call"] = ratio(c["quadrature.doublings"], integrate_calls)
    m["quadrature.failures"] = c["quadrature.failures"] / cycles
    m["quadrature.self_s"] = self_s["quadrature"] / cycles
    m["transport.density_builds"] = c["transport.density_builds"] / cycles
    m["transport.table_nodes"] = ratio(c["transport.table_nodes"],
                                       c["transport.density_builds"])
    m["transport.density_build_s"] = c["transport.density_build_s"] / cycles
    m["transport.w2_calls"] = c["transport.w2_calls"] / cycles
    m["transport.w2_s"] = c["transport.w2_s"] / cycles
    m["transport.margins_per_s"] = ratio(c["transport.margins"], incl["transport"])
    m["transport.self_s"] = self_s["transport"] / cycles
    m["report.reductions"] = calls["report"] / cycles
    m["report.margins_reduced"] = c["report.margins"] / cycles
    m["report.self_s"] = self_s["report"] / cycles
    m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return m


def layer_split(tracer, traced_s: float) -> str:
    """Share of the traced task time spent in each layer's own code."""
    parts = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
    return ", ".join(f"{layer} {100 * s / traced_s:.1f}%" for layer, s in parts)


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one cycle at tiny sizes, for the benchmark's own test")
    args = parser.parse_args()

    if not (ROOT / "src" / "negdimcd" / "__init__.py").is_file():
        return fail(f"no negdimcd sources under {ROOT / 'src'}; run from a checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found at the checkout root")
    spec = json.loads(spec_path.read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    use_checkout_sources()
    import negdimcd
    if Path(negdimcd.__file__).resolve().parent != ROOT / "src" / "negdimcd":
        return fail(f"negdimcd imported from {negdimcd.__file__}, not this checkout")
    import workloads
    from tracer import Tracer

    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cli = args.workload == "cli-configs"
    try:
        if args.trace == 0:
            setup_raw, setup = setup_samples(args.workload, args.seed, args.smoke)
        workload = workloads.build(args.workload, args.seed, args.smoke)
    except (RuntimeError, OSError, ValueError) as exc:
        return fail(str(exc))

    info: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    loop = Loop(workload)
    try:
        if args.trace == 0:
            if not cli and not args.smoke:
                loop.warm_up(WARMUP_S)
                loop.reset_timings()
            cycles = (loop.run_cycles(count=1) if args.smoke else
                      loop.run_cycles(budget=args.seconds))
            metrics = end_to_end(loop, setup)
            info.update(setup_samples=len(setup), cycles=cycles,
                        task_samples=len(loop.durations),
                        tasks=by_kind(loop.kinds, loop.scaled()),
                        raw={"setup_s": statistics.median(setup_raw),
                             "task_s_p50": quantile(loop.durations, 50),
                             "task_s_p90": quantile(loop.durations, 90)},
                        reference_kernel_s=statistics.median(loop.host.samples))
        else:
            tracer = Tracer()
            if cli:
                workload.in_process = True
            if not args.smoke:
                loop.warm_up(WARMUP_S)
                loop.reset_timings()
            cycles = (loop.run_cycles(count=1) if args.smoke else
                      loop.run_cycles(budget=args.seconds * UNTRACED_SHARE))
            untraced_s = sum(loop.durations)
            loop.tracer = tracer
            traced_from = len(loop.durations)
            tracer.install()
            try:
                certify_calls = []
                for index in range(cycles):
                    for task in workload.cycle(index):
                        before = tracer.counts["convexity.check_pointwise_calls"]
                        loop.run_task(task, len(loop.durations))
                        if task.kind.startswith("cli-certify"):
                            certify_calls.append(
                                tracer.counts["convexity.check_pointwise_calls"] - before)
            finally:
                tracer.uninstall()
            traced_s = sum(loop.durations[traced_from:])
            imports = import_breakdown(1 if args.smoke else IMPORT_SAMPLES)
            # in cli-configs every untraced task is one in-process cli.main call
            main_s = statistics.median(loop.durations[:traced_from]) if cli else 0.0
            metrics = per_layer(tracer, cycles, traced_s, untraced_s, imports,
                                statistics.mean(certify_calls) if certify_calls else 0.0,
                                main_s)
            tracer.write_spans(out / f"spans-{tag}.jsonl")
            info.update(cycles=cycles, traced_s=traced_s, untraced_s=untraced_s,
                        spans=len(tracer.spans),
                        layer_split=layer_split(tracer, traced_s))
        if cli:
            workload.in_process = False
            for task in workload.default_seed_tasks():
                loop.run_task(task, -1)
    finally:
        if cli:
            workload.cleanup()

    missing = set(declared) - set(metrics)
    extra = set(metrics) - set(declared)
    if missing or extra:
        return fail(f"metrics out of step with BENCHMARK.json: missing {sorted(missing)}, "
                    f"undeclared {sorted(extra)}")

    info.update(attempted=loop.attempted, failed=loop.failed,
                error_rate=loop.failed / loop.attempted, failures=loop.failures,
                machine=machine())
    result = {"correct": loop.failed == 0, "attempted": loop.attempted,
              "failed": loop.failed,
              "metrics": {name: {"value": metrics[name], "unit": declared[name]}
                          for name in declared}}
    (out / f"result-{tag}.json").write_text(json.dumps({**result, "info": info}, indent=1))

    for name in declared:
        print(f"{args.workload}  {name} = {metrics[name]:.6g} {declared[name]}")
    print(f"{args.workload}  error_rate = {info['error_rate']:.6g} "
          f"({loop.failed} failed of {loop.attempted} tasks)")
    for failure in loop.failures:
        print(f"  FAILED {failure}", file=sys.stderr)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
