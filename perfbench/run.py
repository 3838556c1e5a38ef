"""
Benchmark of the matchdescents CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/matchdescents`` must exist).
Each pass of a workload runs in a fresh child interpreter, one at a time,
so its peak memory is its own.  Passes repeat while another one is
predicted to end within ``--seconds`` (at least MIN_PASSES untraced
passes, or one untraced and one traced pass with ``--trace 1``).

--trace 0 prints the end-to-end metrics of BENCHMARK.json:
  setup_s        median time from a fresh interpreter to import + parser,
                 calibrated by the probe speed of the next pass
  wall_s         median time of one pass of the workload's commands,
                 calibrated to a fixed host speed by probe.py
  objects_per_s  closed-form objects per pass / wall_s
  peak_rss_mb    median peak resident memory of a pass's child process
--trace 1 prints the per-layer metrics of BENCHMARK.json, taken from
traced passes, and writes the spans to .perfbench_out/trace-NAME.json.

Lines starting with '#' record the environment and the raw samples,
uncalibrated wall times among them; the last line is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "matchdescents")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS, objects_per_pass  # noqa: E402

SETUP_SAMPLES_PER_PASS = 2
MIN_PASSES = 3
DEADLINE_S = 170.0


class ChildFailed(Exception):
    pass


def run_child(args: list[str], deadline: float) -> dict:
    """Run child.py to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child {args[:2]} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child {args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Run:
    """The samples of one benchmark run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.setup = []  # raw set-up samples
        self.setup_calibrated = []
        self.plain = []  # untraced pass results
        self.traced = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def one_pass(self, deadline: float, trace: bool) -> dict | None:
        """Run a pass in a fresh child, record its result and return it."""
        args = ["pass", self.workload, str(self.seed), WORK] + (["--trace"] if trace else [])
        n_commands = len(WORKLOADS[self.workload])
        self.attempted += n_commands
        try:
            result = run_child(args, deadline)
        except ChildFailed as exc:
            self.failed += n_commands
            self.failures.append(str(exc))
            return None
        for cmd in result["commands"]:
            if not cmd["ok"]:
                self.failed += 1
                self.failures.append(f"{cmd['command']}: {cmd['reason']}")
        self.setup.append(result["setup_s"])
        (self.traced if trace else self.plain).append(result)
        return result


def measure(workload: str, seed: int, seconds: int, trace: bool) -> Run:
    """Repeat passes while the next one is predicted to end within
    ``seconds``.  Untraced passes are preceded by set-up samples, so that
    set-up is sampled across the whole run.  Each set-up sample is
    calibrated by the probe speed of the pass that follows it: the probe
    does not track the import's phase-to-phase noise, but it does track
    the slow drift of the host that moves the median."""
    run = Run(workload, seed)
    deadline = time.monotonic() + DEADLINE_S
    run_child(["setup"], deadline)  # warm-up: writes the bytecode caches
    start = time.monotonic()
    costs = []
    while True:
        began = time.monotonic()
        if trace:
            run.one_pass(deadline, trace=False)
            run.one_pass(deadline, trace=True)
        else:
            samples = [run_child(["setup"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES_PER_PASS)]
            run.setup += samples
            result = run.one_pass(deadline, trace=False)
            if result is not None:
                speed = result["calibrated_ns"] / result["work_ns"]
                run.setup_calibrated += [s * speed for s in samples + [result["setup_s"]]]
        costs.append(time.monotonic() - began)
        enough = trace or len(costs) >= MIN_PASSES
        if enough and time.monotonic() - start + statistics.median(costs) > seconds:
            return run


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(run: Run) -> dict[str, float]:
    wall = statistics.median(r["calibrated_ns"] / 1e9 for r in run.plain)
    return {
        "setup_s": statistics.median(run.setup_calibrated),
        "wall_s": wall,
        "objects_per_s": objects_per_pass(run.workload) / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in run.plain),
    }


def src_lines(module: str) -> int:
    if module == "total":
        names = [n for n in os.listdir(PACKAGE) if n.endswith(".py")]
    else:
        names = [f"{module}.py"] if os.path.isfile(os.path.join(PACKAGE, f"{module}.py")) else []
    total = 0
    for name in names:
        with open(os.path.join(PACKAGE, name)) as fh:
            total += sum(1 for _ in fh)
    return total


def pass_layer_metrics(run: Run, result: dict, plain_wall_s: float, names: list[str]) -> tuple[dict, list[str]]:
    """Every per-layer metric named in ``names`` for one traced pass, and
    the layers and callables that no longer exist."""
    trace = result["trace"]
    records = trace["records"]
    wall_ns = result["wall_ns"]
    objects = objects_per_pass(run.workload)
    absent = set(trace["missing_layers"])
    out = {}
    for name in names:
        parts = name.split(".")
        if name == "other.self_s":
            value = (wall_ns - trace["covered_ns"]) / 1e9
        elif name == "trace.wall_s":
            value = wall_ns / 1e9
        elif name == "trace.overhead_frac":
            value = wall_ns / 1e9 / plain_wall_s - 1
        elif name == "fail_frac":
            value = run.failed / run.attempted
        elif name == "report.counts_sum":
            value = sum(
                v for cmd in result["commands"] for v in cmd["reported"].values() if isinstance(v, (int, float))
            )
        elif name == "cli.rows_emitted":
            value = sum(cmd["rows"] for cmd in result["commands"])
        elif name == "cli.bytes_written":
            value = sum(cmd["bytes_written"] for cmd in result["commands"])
        elif parts[0] == "src" and len(parts) == 3 and parts[2] == "lines":
            value = src_lines(parts[1])
        elif len(parts) == 2 and parts[0] in LAYERS and parts[1] in ("self_s", "calls"):
            layer = trace["layers"][parts[0]]
            value = layer["self_ns"] / 1e9 if parts[1] == "self_s" else layer["calls"]
        elif len(parts) == 3 and parts[0] in LAYERS:
            rec = records.get(f"{parts[0]}.{parts[1]}")
            if rec is None:
                absent.add(f"{parts[0]}.{parts[1]}")
                rec = [0, 0, 0, 0]
            calls, yielded, incl_ns, _self_ns = rec
            if parts[2] == "us_per_call":
                value = incl_ns / calls / 1e3 if calls else 0.0
            elif parts[2] == "us_per_object":
                value = incl_ns / yielded / 1e3 if yielded else 0.0
            elif parts[2] in ("per_object", "built_per_object"):
                value = calls / objects
            else:
                raise ValueError(f"unknown per-layer metric {name!r}")
        else:
            raise ValueError(f"unknown per-layer metric {name!r}")
        out[name] = value
    return out, sorted(absent)


def attribution_error(result: dict) -> str | None:
    """Layer self times plus uncovered time must add up to the pass's wall time."""
    trace = result["trace"]
    layer_self = sum(v["self_ns"] for v in trace["layers"].values())
    other = result["wall_ns"] - trace["covered_ns"]
    if other < 0 or layer_self + other != result["wall_ns"]:
        return f"attribution: layers {layer_self} ns + other {other} ns != wall {result['wall_ns']} ns"
    return None


def median_traced(run: Run) -> dict:
    """The traced pass of median wall time (the lower one of an even count)."""
    ordered = sorted(run.traced, key=lambda r: r["wall_ns"])
    return ordered[(len(ordered) - 1) // 2]


def write_trace(run: Run, chosen: dict, env: dict) -> str:
    """Write the spans and aggregates of one traced pass."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{run.workload}.json")
    with open(path, "w") as fh:
        json.dump({"env": env, "commands": chosen["commands"], "wall_ns": chosen["wall_ns"], **chosen["trace"]}, fh)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no package source at {PACKAGE}; run from a matchdescents checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
    }
    print("# env " + json.dumps(env))
    # a SystemExit raised inside subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(WORK, exist_ok=True)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if not run.plain or (args.trace and not run.traced):
        print("error: no pass completed\n" + "\n".join(run.failures), file=sys.stderr)
        return 1

    if args.trace:
        errors = [e for e in map(attribution_error, run.traced) if e]
        if errors:
            print("error: " + "\n".join(errors), file=sys.stderr)
            return 1
        # one pass supplies every per-layer metric, so that they add up
        chosen = median_traced(run)
        # the traced pass runs without the probe: compare it with the
        # untraced passes' time outside their probes
        plain_wall = statistics.median(r["work_ns"] / 1e9 for r in run.plain)
        values, absent = pass_layer_metrics(run, chosen, plain_wall, [m["name"] for m in group])
        print("# absent " + json.dumps(absent))
        print("# trace " + write_trace(run, chosen, env))
    else:
        values = end_to_end(run)
    print("# setup_s " + json.dumps(run.setup_calibrated))
    print("# raw_setup_s " + json.dumps(run.setup))
    print("# wall_s " + json.dumps([r["calibrated_ns"] / 1e9 for r in run.plain]))
    print("# raw_wall_s " + json.dumps([r["wall_ns"] / 1e9 for r in run.plain]))
    print("# probes " + json.dumps([r["probes"] for r in run.plain]))
    if run.traced:
        print("# traced_wall_s " + json.dumps([r["wall_ns"] / 1e9 for r in run.traced]))
    reported = {cmd["command"]: cmd["reported"] for r in run.plain[:1] for cmd in r["commands"] if cmd["reported"]}
    print("# reported_counts " + json.dumps(reported))
    for failure in run.failures:
        print("# failure " + failure)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
