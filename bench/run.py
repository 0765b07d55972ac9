"""atlab benchmark: one workload, timed end to end or traced layer by layer.

    python3 bench/run.py --workload {suite,exact,reach,verify} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source tree: atlab is imported from `src/` there
and nowhere else, so a tree without `src/atlab` fails with exit code 1.

Passes over the workload's ops repeat until `--seconds` have gone by (at
least one pass); `wall_s` is their median time. Set-up (interpreter start,
`import atlab`, input generation) is timed in SETUP_REPEATS child processes,
spaced between the passes, and reported as the median. These and the op
latencies are in reference seconds (`bench/speed.py`): a fixed loop timed
between ops takes drift in machine speed out of them.

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics; with `--trace 1` passes alternate untraced and under the
span recorder, and the JSON holds the per-layer metrics. Either way every
answer goes through the workload's correctness gate, and a wrong answer (an
op that raised anything but a declared cap or budget error included) makes
`correct` false and the exit code 1. Lines before the JSON give the
environment and every metric by name with its unit; `bench/out/` keeps the
full result and, for a traced run, the spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from speed import REF_S, SpeedRef

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 10

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_ms.p50": "ms", "peak_rss_mb": "MB"}
# Printed on every run, but in the JSON only of a traced run: the untraced
# JSON holds bounded metrics, which may be 0 on no workload, and these are 0
# on most. op_ms.tail, which needs 100 ops in a run, is only printed.
RUN_UNITS = {"fail_frac": "ratio", "budget_overrun_s": "s"}


def load_atlab():
    """Import atlab from this tree's src/ only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import atlab
    except ImportError as exc:
        sys.exit(f"bench: cannot import atlab from {src}: {exc}")
    if not Path(atlab.__file__).resolve().is_relative_to(src):
        sys.exit(f"bench: atlab was imported from {atlab.__file__}, not from {src}")


def layer_unit(name: str) -> str:
    key = name.rsplit(".", 1)[1]
    if key.endswith("_s"):
        return "s"
    if key.endswith("_frac"):
        return "ratio"
    if key == "bytes":
        return "bytes"
    return "count"


def environment() -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "processes": "one; set-up children run one at a time between passes",
        "threads": 1,
        "machine": "neither tuned nor pinned",
    }


class SetupTimer:
    """Wall time from spawning a child to its 'ready' line, with a
    machine-speed sample before and after each."""

    def __init__(self, args, speed):
        self.cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
                    "--workload", args.workload, "--seed", str(args.seed)]
        self.speed = speed
        self.samples: list[tuple[float, float, float]] = []  # (seconds, start, end)

    def sample(self) -> None:
        self.speed.sample()
        t0 = perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            t1 = perf_counter()
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            sys.exit(f"bench: set-up child exited with {child.returncode}")
        self.speed.sample()
        self.samples.append((t1 - t0, t0, t1))

    def catch_up(self, done: float) -> None:
        """Take the samples due once a share `done` of the run has gone by."""
        while len(self.samples) < min(SETUP_REPEATS, 1 + int(done * SETUP_REPEATS)):
            self.sample()


@dataclass
class Pass:
    wall: float  # measured, without the speed samples taken during the pass
    start: float
    end: float
    ops: list
    layers: dict | None = None  # per-layer counts when the pass was traced


def run_passes(workload, inputs, seconds, setup: SetupTimer, speed, recorder=None
               ) -> tuple[list[Pass], list[str]]:
    """Passes until `seconds` have gone by, with set-up samples between them,
    and the wrong answers found. With a recorder, passes alternate untraced
    and traced, so drift in machine speed falls on both alike, and there is at
    least one of each. Each pass is judged as soon as it ends and its answers
    are then dropped, so memory does not grow with the number of passes."""
    from workloads import OpLog

    passes: list[Pass] = []
    wrong: list[str] = []
    start = perf_counter()
    while not passes or perf_counter() < start + seconds or (recorder and len(passes) < 2):
        setup.catch_up((perf_counter() - start) / seconds)
        traced = recorder is not None and len(passes) % 2 == 1
        gc.collect()
        speed.maybe_sample()
        log = OpLog(speed, recorder if traced else None)
        if traced:
            recorder.recording = True
        t0 = perf_counter()
        try:
            workload.run_pass(inputs, log)
        except Exception as exc:  # a pass that breaks off, WrongAnswer included
            traceback.print_exc(file=sys.stderr)
            wrong.append(f"pass raised {type(exc).__name__}: {exc}")
        t1 = perf_counter()
        layers = None
        if traced:
            recorder.recording = False
            layers = recorder.take_counts()
        wrong += judge(workload, inputs, log.ops)
        for op in log.ops:
            op.result = op.item = None
        passes.append(Pass(t1 - t0 - log.paused, t0, t1, log.ops, layers))
    setup.catch_up(1.0)
    speed.sample()  # so that the last pass has a sample after it
    return passes, wrong


def judge(workload, inputs, ops) -> list[str]:
    """Set the `decided` flag of each op of a pass; return the wrong answers.
    An op that raised is undecided when the raise is one the workloads
    declare (UNDECIDED_RAISES), and wrong otherwise."""
    from workloads import WrongAnswer

    wrong = []
    for op in ops:
        if op.raised:
            if not op.undecided_raise:
                wrong.append(f"{op.name}: raised {op.error}")
            continue
        try:
            op.decided = workload.judge(inputs, op)
        except WrongAnswer as exc:
            wrong.append(str(exc))
    try:
        workload.judge_pass(inputs, ops)
    except WrongAnswer as exc:
        wrong.append(str(exc))
    return wrong


def pass_walls(passes, speed) -> list[float]:
    """Pass times in reference seconds."""
    return [speed.ref_seconds(p.wall, p.start, p.end) for p in passes]


def run_metrics(passes, speed) -> dict:
    """End-to-end metrics of untraced passes, op_ms.tail when there are
    enough ops. Times are in reference seconds, with the measured ones
    beside them (`*_measured`); budget_overrun_s is measured, as the budget
    is wall-clock time."""
    import latency

    ops = [op for p in passes for op in p.ops]
    charged = [
        latency.charged_ms(speed.ref_seconds(op.seconds, op.start, op.start + op.seconds),
                           op.decided)
        for op in ops
    ]
    measured = [latency.charged_ms(op.seconds, op.decided) for op in ops]
    overruns = [max(0.0, op.seconds - op.budget) for op in ops if op.budget is not None]
    out = {
        "wall_s": statistics.median(pass_walls(passes, speed)),
        "wall_s_measured": statistics.median(p.wall for p in passes),
        "op_ms.p50": latency.p50(charged),
        "op_ms.p50_measured": latency.p50(measured),
        "fail_frac": sum(not op.decided for op in ops) / len(ops),
        "budget_overrun_s": max(overruns, default=0.0),
        "ops": len(ops),
        "passes": len(passes),
    }
    tail = latency.tail(charged)
    if tail is not None:
        out["op_ms.tail"] = tail[1]
        out["op_ms.tail_percentile"] = tail[0]
    return out


def layer_medians(passes) -> dict:
    from spans import layer_metrics

    per_pass = [layer_metrics(p.layers) for p in passes]
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["suite", "exact", "reach", "verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_atlab()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    speed = SpeedRef()
    setup = SetupTimer(args, speed)
    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
        recorder.install()
    try:
        passes, wrong = run_passes(workload, inputs, args.seconds, setup, speed, recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wrong = list(dict.fromkeys(wrong))  # one line per distinct wrong answer
    traced = [p for p in passes if p.layers is not None]
    run = run_metrics([p for p in passes if p.layers is None], speed)
    run["setup_s"] = statistics.median(speed.ref_seconds(*s) for s in setup.samples)
    run["setup_s_measured"] = statistics.median(s[0] for s in setup.samples)
    run["ref_loop_s"] = statistics.median(speed.seconds)
    run["peak_rss_mb"] = peak_rss_mb
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(op.raised for p in passes for op in p.ops)

    if args.trace:
        metrics = layer_medians(traced)
        metrics["trace.overhead_s"] = statistics.median(pass_walls(traced, speed)) - run["wall_s"]
        metrics.update({k: run[k] for k in RUN_UNITS})
        units = {k: RUN_UNITS.get(k) or layer_unit(k) for k in metrics}
    else:
        metrics = {k: run[k] for k in E2E_UNITS}
        units = E2E_UNITS

    env = environment()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}_trace{args.trace}"
    if args.trace:
        recorder.write_spans(OUT / f"spans_{args.workload}.jsonl")
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "environment": env, "run": run, "setup_samples": setup.samples,
            "ref_samples": list(zip(speed.starts, speed.seconds)),
            "pass_walls_s": [(p.start, p.wall) for p in passes if p.layers is None],
            "metrics": metrics, "wrong": wrong}
    (OUT / f"result_{tag}.json").write_text(json.dumps(full, indent=1) + "\n")

    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    tail = (f"op_ms.tail {run['op_ms.tail']:.3f} ms "
            f"(p{run['op_ms.tail_percentile']:.2f} of {run['ops']} ops)"
            if "op_ms.tail" in run else f"op_ms.tail omitted ({run['ops']} ops)")
    print(f"{args.workload}: setup_s {run['setup_s']:.4f} s | wall_s {run['wall_s']:.4f} s "
          f"({run['passes']} passes) | op_ms.p50 {run['op_ms.p50']:.4f} ms | {tail} | "
          f"fail_frac {run['fail_frac']:.4f} ratio | budget_overrun_s "
          f"{run['budget_overrun_s']:.4f} s | peak_rss_mb {run['peak_rss_mb']:.1f} MB")
    print(f"  (reference seconds; measured: setup_s {run['setup_s_measured']:.4f} s, "
          f"wall_s {run['wall_s_measured']:.4f} s, op_ms.p50 {run['op_ms.p50_measured']:.4f} ms; "
          f"reference loop {run['ref_loop_s'] * 1000:.2f} ms, nominal {REF_S * 1000:.2f} ms)")
    if args.trace:
        for key, value in metrics.items():
            print(f"  {key} {value:.6g} {units[key]}")
    for msg in wrong[:20]:
        print(f"WRONG: {msg}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
