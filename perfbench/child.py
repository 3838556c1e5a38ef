"""
One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py setup
    python3 perfbench/child.py pass WORKLOAD SEED OUT_DIR [--trace]

Both forms first time the set-up a user pays on every invocation: from
the start of this script to ``import matchdescents`` plus
``cli.build_parser()``.  ``pass`` then runs the workload's commands once,
in the order the seed gives, through ``cli.main(argv)``, checks each
outcome, and prints one JSON object with the timings, the checks and
the peak resident memory of this process.

Untraced passes run under the host-speed probe of ``probe.py``, so that
their time can be reported at a fixed reference speed as well as raw.
"""
import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from matchdescents import cli  # noqa: E402  (runs the package's __init__ first)

cli.build_parser()
SETUP_S = time.perf_counter() - _T0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, HERE)
from probe import Probe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402


def run_pass(workload: str, seed: int, out_dir: str, trace: bool) -> dict:
    commands = list(WORKLOADS[workload])
    random.Random(seed).shuffle(commands)
    tracer = Tracer() if trace else None
    probe = None
    if tracer is not None:
        tracer.install()
    else:
        probe = Probe()
        probe.sample()  # warm-up
        probe.durations.clear()
        probe.sample()
        probe.start()
    clock = time.perf_counter_ns
    finished = []
    wall_ns = 0
    work_ns = 0  # wall time minus the probes run inside the commands
    for index, cmd in enumerate(commands):
        out_path = os.path.join(out_dir, f"{workload}-{index}.csv")
        if tracer is not None:
            tracer.command = index
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            probed_before = probe.probe_ns if probe is not None else 0
            start = clock()
            try:
                code = cli.main(cmd.resolve(out_path))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed command, not a failed benchmark
                code = "crash"
                err.write(traceback.format_exc())
            elapsed = clock() - start
            probed = probe.probe_ns - probed_before if probe is not None else 0
        wall_ns += elapsed
        work_ns += elapsed - probed
        finished.append((cmd, code, out.getvalue(), err.getvalue(), out_path, start, elapsed))
    if probe is not None:
        probe.stop()
        probe.sample()
    # read before checking, so that the checks' memory is not counted
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    results = []
    for cmd, code, stdout, stderr, out_path, start, elapsed in finished:
        outcome = check(cmd, code, stdout, out_path)
        if os.path.exists(out_path):
            os.remove(out_path)
        results.append(
            {
                "command": cmd.label,
                "start_ns": start,
                "end_ns": start + elapsed,
                "ok": outcome.ok,
                "reason": outcome.reason or stderr.strip()[-500:],
                "reported": outcome.reported,
                "rows": outcome.rows,
                "bytes_written": outcome.bytes_written,
            }
        )
    return {
        "setup_s": SETUP_S,
        "wall_ns": wall_ns,
        "work_ns": work_ns,
        "calibrated_ns": work_ns * probe.speed() if probe is not None else None,
        "probes": len(probe.durations) if probe is not None else 0,
        "peak_rss_kb": peak_rss_kb,
        "commands": results,
        "trace": tracer.snapshot() if tracer is not None else None,
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    if len(argv) in (4, 5) and argv[0] == "pass" and argv[1] in WORKLOADS and argv[4:] in ([], ["--trace"]):
        print(json.dumps(run_pass(argv[1], int(argv[2]), argv[3], trace=argv[4:] == ["--trace"])))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
