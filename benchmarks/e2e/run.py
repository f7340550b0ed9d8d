"""End-to-end benchmark of the reproduction: four workloads, fresh processes.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload city_hybrid --seed 1 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --runs 5 --out results.json        # every workload
    python3 benchmarks/e2e/run.py --trace --out traced.json          # per-layer split
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py compare benchmarks/e2e/baseline.json#seed1_a B.json

Every run uses fresh serial subprocesses (``child.py``): one process
computes at a time, single-threaded (``jobs=1``, no worker pool, BLAS
pools pinned to one thread), on one CPU that it shares with the
host-speed calibrator (``calibrator.py``).  Times are calibrator ticks
converted to reference seconds (README: "Host speed").  The measuring
child is told to run a warm-up pass and then steady passes until the
next would end past ``--seconds``; the run's ``wall_s`` is its median
steady pass.  Between passes, while the measuring child idles,
set-up-only children are spawned at evenly spaced points of the
window; ``setup_s`` is the median spawn-to-ready cost of
:data:`SETUP_SAMPLES` children.  With ``--runs N`` the runs of all
selected workloads are interleaved round-robin and summarised by
median, quartiles and n.

The last line of stdout is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics untraced, the per-layer
metrics with ``--trace``.  The exit code is 1 when a cell failed, an
output check failed, or runs, passes or the traced pass disagree on
the output digest; 2 when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import queue
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK_DIR = ROOT / ".e2e-bench"

sys.path.insert(0, str(HERE))
import calibrator  # noqa: E402
from workloads import FIDELITY_LIMIT, WORKLOADS  # noqa: E402

DEFAULT_SECONDS = 20
#: Spawn-to-ready samples per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 9
READY_TIMEOUT = 120.0
#: Fewest steady untraced passes per run, whatever the window; a traced
#: run needs this many of each kind.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: Bump when the measuring method changes, so a new method is never
#: mistaken for a code change.
METHOD_VERSION = 2

#: End-to-end metric -> unit (directions and bounds live in BENCHMARK.json).
E2E_UNITS = {
    "wall_s": "s",
    "pkts_per_s": "packet-hops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit.
LAYER_UNITS = {
    "runner.cells": "count",
    "runner.cell_p50_s": "s",
    "runner.cell_p90_s": "s",
    "runner.cache_s": "s",
    "runner.code_version_s": "s",
    "runner.self_s": "s",
    "traffic.compile_s": "s",
    "traffic.arrivals": "count",
    "traffic.ns_per_arrival": "ns",
    "traffic.self_s": "s",
    "sim.run_s": "s",
    "sim.departures": "count",
    "sim.events": "count",
    "sim.events_per_departure": "ratio",
    "sim.ns_per_departure": "ns",
    "sim.packets_per_departure": "ratio",
    "sim.self_s": "s",
    "monitor.finalize_s": "s",
    "monitor.self_s": "s",
    "core.feasibility_s": "s",
    "core.lindley_s": "s",
    "core.rd_s": "s",
    "core.self_s": "s",
    "network.build_s": "s",
    "network.compare_s": "s",
    "network.self_s": "s",
    "schedulers.draingen_s": "s",
    "schedulers.draingen_calls": "count",
    "schedulers.self_s": "s",
    "scenarios.build_s": "s",
    "scenarios.self_s": "s",
    "hybrid.packet_s": "s",
    "hybrid.fluid_s": "s",
    "hybrid.plan_s": "s",
    "hybrid.lindley_s": "s",
    "hybrid.envelope_s": "s",
    "hybrid.handoff_s": "s",
    "hybrid.fluid_fraction": "ratio",
    "hybrid.packet_share": "ratio",
    "hybrid.segments": "count",
    "hybrid.demotions": "count",
    "hybrid.fidelity_err": "ratio",
    "hybrid.self_s": "s",
    "unattributed_s": "s",
    "traced_wall_s": "s",
    "trace_overhead": "ratio",
    "first_pass_excess_s": "s",
}


class ChildError(RuntimeError):
    pass


class Child:
    """One ``child.py`` process and the JSON lines it prints."""

    def __init__(self, workload: str, seed: int, smoke: bool, trace: bool,
                 counter: calibrator.Counter) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
        )
        # The simulator never calls BLAS; an idle thread pool per child
        # would only add scheduler noise to a single-threaded program.
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = "1"
        self.started = time.perf_counter()
        self.started_ticks = counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), workload, str(seed),
             str(int(smoke)), str(int(trace)), str(WORK_DIR), str(counter.path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT, env=env,
        )
        self._lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def read(self, timeout: float) -> dict:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise ChildError(f"no answer within {timeout:.0f} s") from None
        if line is None:
            raise ChildError(f"exited with code {self.proc.wait()}")
        return json.loads(line)

    def send(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        """Wait for the child to end; kill it if it does not."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


@contextlib.contextmanager
def calibrated():
    """Pin this process, and so every child, to one CPU; run the
    calibrator on it for the duration; yield its counter."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    path = WORK_DIR / f"ticks-{os.getpid()}"
    calibrator.create(path)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "calibrator.py"), str(path)],
        stdin=subprocess.DEVNULL, cwd=ROOT,
    )
    try:
        counter = calibrator.Counter(path)
        deadline = time.monotonic() + READY_TIMEOUT
        while counter() == 0:
            if proc.poll() is not None or time.monotonic() > deadline:
                raise ChildError("the calibrator did not start")
            time.sleep(0.01)
        yield counter
    finally:
        proc.kill()
        proc.wait()
        path.unlink(missing_ok=True)


def _spawn_ready(workload: str, seed: int, smoke: bool, trace: bool,
                 counter: calibrator.Counter):
    """``(child, (spawn-to-ready seconds, ticks))``."""
    child = Child(workload, seed, smoke, trace, counter)
    try:
        ready = child.read(READY_TIMEOUT)
    except BaseException:
        child.proc.kill()
        child.close()
        raise
    seconds = time.perf_counter() - child.started
    return child, (seconds, ready["ticks"] - child.started_ticks)


def _setup_sample(workload: str, seed: int, smoke: bool,
                  counter: calibrator.Counter) -> tuple:
    child, sample = _spawn_ready(workload, seed, smoke, False, counter)
    child.send("quit")
    child.close()
    return sample


def one_run(workload: str, seed: int, smoke: bool, trace: bool, seconds: float,
            counter: calibrator.Counter) -> dict:
    """One run: a measuring child driven pass by pass, with set-up-only
    samples spread over the window; the run's record."""
    child, sample = _spawn_ready(workload, seed, smoke, trace, counter)
    setups = [sample]
    extras = 0 if trace else SETUP_SAMPLES - 1
    passes: list[dict] = []
    walls = {False: [], True: []}
    measured = 0.0  # time spent in passes, set-up samples excluded
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            started = time.perf_counter()
            child.send(f"pass {int(traced)}")
            record = child.read(READY_TIMEOUT)["pass"]
            if record["ticks"] <= 0:
                raise ChildError("the calibrator stopped counting")
            measured += time.perf_counter() - started
            passes.append(record)
            if not record["warmup"]:
                walls[traced].append(record["wall"])
            while len(setups) <= extras and measured >= (
                (len(setups) - 1) * seconds / extras
            ):
                setups.append(_setup_sample(workload, seed, smoke, counter))
            if trace:
                enough = min(map(len, walls.values())) >= MIN_TRACED_PASSES
            else:
                enough = len(walls[False]) >= MIN_PASSES
            upcoming = walls[trace and len(passes) % 2 == 1] or [record["wall"]]
            if enough and measured + statistics.median(upcoming) > seconds:
                break
        while len(setups) <= extras:
            setups.append(_setup_sample(workload, seed, smoke, counter))
        child.send("done")
        result = child.read(READY_TIMEOUT)["result"]
    finally:
        child.close()
    return summarise_run(workload, passes, result, setups)


def summarise_run(workload: str, passes: list[dict], result: dict,
                  setups: list[tuple[float, int]]) -> dict:
    """The run's record from its passes and its ``(seconds, ticks)``
    set-up samples.  Metrics are in reference seconds; ``raw`` keeps
    the medians in seconds and the calibrator's ticks per second."""
    untraced = [p for p in passes if not p["traced"]]
    steady = [p for p in untraced if not p["warmup"]]
    wall = statistics.median(p["ticks"] for p in steady) * calibrator.TICK_S
    raw = {
        "wall_s": statistics.median(p["wall"] for p in steady),
        "setup_s": statistics.median(seconds for seconds, _ in setups),
        "ticks_per_s": sum(p["ticks"] for p in steady) / sum(p["wall"] for p in steady),
    }
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p["problems"]]
    digests = {p["digest"] for p in passes}
    if len(digests) > 1:
        traced = {p["digest"] for p in passes if p["traced"]}
        plain = {p["digest"] for p in untraced}
        problems.append(
            "traced digest differs from untraced" if traced and plain.isdisjoint(traced)
            else f"passes disagree on the output digest ({len(digests)} digests)"
        )
    hops = {p["packet_hops"] for p in passes}
    if len(hops) > 1:
        problems.append(f"passes disagree on packet-hops: {sorted(hops)}")
    if workload == "city_hybrid":
        fidelity = result.get("fidelity_err")
        if fidelity is None or fidelity > FIDELITY_LIMIT:
            problems.append(f"hybrid fidelity error {fidelity} > {FIDELITY_LIMIT}")
    record = {
        "digest": passes[0]["digest"],
        "attempted": sum(p["cells"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "passes": len(passes),
        "problems": problems,
        "metrics": {
            "wall_s": wall,
            "pkts_per_s": passes[0]["packet_hops"] / wall,
            "setup_s": statistics.median(n for _, n in setups) * calibrator.TICK_S,
            "peak_rss_mb": result["peak_rss_mb"],
        },
        "raw": raw,
        "first_pass_excess_s": result["first_pass_excess_s"],
        "pass_walls": [p["wall"] for p in steady],
        "pass_ticks": [p["ticks"] for p in steady],
        "setup_samples": setups,
    }
    if "fidelity_err" in result:
        record["fidelity_err"] = result["fidelity_err"]
    if "layers" in result:
        record["layers"] = result["layers"]
    return record


def describe(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles``, n=4) and count."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summarise_workload(runs: list[dict], trace: bool) -> dict:
    problems = [msg for run in runs for msg in run["problems"]]
    digests = sorted({run["digest"] for run in runs})
    if len(digests) > 1:
        problems.append(f"runs disagree on the output digest ({len(digests)} digests)")
    summary = {
        "digest": digests[0],
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "problems": problems,
        "runs": runs,
        "metrics": {
            name: {"unit": unit, **describe([run["metrics"][name] for run in runs])}
            for name, unit in E2E_UNITS.items()
        },
    }
    if trace:
        summary["layers"] = {
            name: {"unit": unit, **describe([run["layers"][name] for run in runs])}
            for name, unit in LAYER_UNITS.items()
        }
    return summary


def host() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def print_table(summaries: dict, trace: bool) -> None:
    key = "layers" if trace else "metrics"
    print(f"{'workload':<16} {'metric':<26} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'n':>3}  unit")
    for workload, summary in summaries.items():
        for name, m in summary[key].items():
            print(f"{workload:<16} {name:<26} {m['median']:>12.6g} "
                  f"{m['q1']:>12.6g} {m['q3']:>12.6g} {m['n']:>3}  {m['unit']}")
        print(f"{workload:<16} digest {summary['digest'][:16]}  cells "
              f"{summary['attempted']} attempted, {summary['failed']} failed")
        for problem in summary["problems"]:
            print(f"{workload:<16} PROBLEM {problem}")


def measure_main(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown or args.seed < 0 or args.runs < 1 or args.seconds <= 0:
        print(f"bad arguments (unknown workloads: {unknown})", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    WORK_DIR.mkdir(exist_ok=True)
    runs: dict[str, list] = {name: [] for name in names}
    try:
        with calibrated() as counter:
            for _ in range(args.runs):
                for name in names:
                    runs[name].append(
                        one_run(name, args.seed, args.smoke, trace, args.seconds, counter)
                    )
    except ChildError as exc:
        print(f"benchmark child failed: {exc}", file=sys.stderr)
        return 1
    summaries = {name: summarise_workload(runs[name], trace) for name in names}
    print_table(summaries, trace)
    if args.out:
        Path(args.out).write_text(json.dumps({
            "method_version": METHOD_VERSION, "seed": args.seed,
            "seconds": args.seconds, "smoke": args.smoke, "trace": trace,
            "host": host(), "workloads": summaries,
        }, indent=1))

    key = "layers" if trace else "metrics"
    prefix = len(names) > 1
    metrics = {
        (f"{workload}.{name}" if prefix else name): {"value": m["median"], "unit": m["unit"]}
        for workload, summary in summaries.items()
        for name, m in summary[key].items()
    }
    correct = all(not s["problems"] and not s["failed"] for s in summaries.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def verdict(base: dict, new: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worsening)`` of ``new`` against ``base`` for one metric.

    ``worsening`` is the relative change of the median in the bad
    direction.  The verdict is ``unresolved`` when either side's
    quartile spread (as a share of its median) is wider than the bound.
    """
    change = (new["median"] - base["median"]) / base["median"]
    worsening = change if better == "lower" else -change
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (base, new))
    if spread > bound:
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "no worse", worsening


def load_results(source: str) -> dict:
    """Per-workload summaries of an ``--out`` file, or of one block of a
    file that holds several (``FILE#KEY``, as in ``baseline.json``)."""
    path, _, key = source.partition("#")
    data = json.loads(Path(path).read_text())
    return (data[key] if key else data)["workloads"]


def compare_main(paths: list[str]) -> int:
    if len(paths) != 2:
        print("usage: run.py compare A.json[#KEY] B.json[#KEY]", file=sys.stderr)
        return 2
    base, new = (load_results(p) for p in paths)
    spec = {m["name"]: m for m in json.loads(SPEC.read_text())["end_to_end"]}
    ok = True
    print(f"{'workload':<16} {'metric':<12} {'A median [q1, q3] n':>34} "
          f"{'B median [q1, q3] n':>34} {'worse by':>9} {'bound':>6}  verdict")
    for workload in [w for w in base if w in new]:
        for name, m in spec.items():
            a, b = base[workload]["metrics"][name], new[workload]["metrics"][name]
            outcome, worsening = verdict(a, b, m["better"], m["bound"])
            ok &= outcome in ("better", "no worse")
            cells = [
                f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] {s['n']}"
                for s in (a, b)
            ]
            print(f"{workload:<16} {name:<12} {cells[0]:>34} {cells[1]:>34} "
                  f"{worsening:>+9.1%} {m['bound']:>6.0%}  {outcome}")
        same = base[workload]["digest"] == new[workload]["digest"]
        ok &= same
        print(f"{workload:<16} digest {'identical' if same else 'DIFFERENT'}")
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--workloads", default="all",
                        help=f"comma-separated subset of {', '.join(WORKLOADS)} (default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="shifts every config seed by SEED-1 (default 1: the CLI's defaults)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed window of each run (default %(default)s)")
    parser.add_argument("--runs", type=int, default=1,
                        help="fresh-process runs per workload, interleaved "
                             "(default 1; use 5 for a recorded comparison)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics from traced passes")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for the harness self-test")
    parser.add_argument("--out", help="write medians, quartiles, digests and runs as JSON")
    return measure_main(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
