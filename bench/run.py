#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the holotwist CLI.

    python3 bench/run.py --workload surface|roundtrip|line|all \
        [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a source checkout (the package is imported from
./src, nothing is installed).  Each workload repeats its list of CLI
commands in whole rounds, one command at a time in this one process,
until --seconds have passed (and at least the workload's minimum number
of rounds).  Commands run in-process through `holotwist.cli.main`, so
argument and config parsing and report serialization are timed too.
Every answer is checked (checks.py); the last line of standard output
is one JSON object {correct, attempted, failed, metrics}.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
run alternates untraced and traced rounds and reports per-layer metrics
from the traced rounds (per round), plus the tracing overhead; the
spans go to bench/out/trace-<workload>-seed<N>.jsonl.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import numpy, scipy.linalg
import holotwist.cli
from holotwist.families import make_bundle
make_bundle("monopole", {"n": 1})
print(time.perf_counter() - t0)
"""

END_TO_END = (("setup_s", "s"), ("peak_rss_mib", "MiB"),
              ("ops_per_s", "ops/s"), ("main_ms", "ms"), ("aux_ms", "ms"))


def _layer_names():
    names = []
    for base, parts in (
            ("formsexpr.integrate_2form",
             ("calls", "s", "self_s", "points", "us_per_point")),
            ("formsexpr.form", ("evals",)),
            ("geometry.cylinder", ("evals",)),
            ("holonomy.epsilon", ("calls", "s", "self_s")),
            ("holonomy.face", ("cells", "split_cells", "useful_ratio",
                               "unconverged_cells")),
            ("formsexpr.integrate_1form", ("calls", "s", "points")),
            ("liecore.path_ordered_exp",
             ("calls", "s", "self_s", "steps", "us_per_step")),
            ("geometry.loop", ("evals",)),
            ("holonomy.hol0", ("calls", "s", "self_s")),
            ("holonomy.hol1", ("calls", "s", "self_s")),
            ("holonomy.holonomy_functor", ("calls", "s", "self_s")),
            ("geometry.assign_charts_interval", ("calls", "s")),
            ("geometry.assign_charts_rect", ("calls", "s", "faces")),
            ("bundle.validate", ("calls", "s", "samples")),
            ("bundle.gauge_transform", ("s",)),
            ("bundle.random_gauge", ("s",)),
            ("formsexpr.expr_form", ("s",)),
            ("reconstruct.oracle", ("calls", "s", "repeat_ratio")),
            ("reconstruct.reconstruct_transitions", ("s",)),
            ("reconstruct.reconstruct_cocycle", ("s",)),
            ("reconstruct.holonomy_from_samples", ("s",)),
            ("cli", ("self_s",))):
        names += [f"{base}.{p}" for p in parts]
    return names + ["tracing_overhead"]


PER_LAYER = tuple(_layer_names())


def layer_unit(name):
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s"):
        return "s"
    if last.startswith("us_per"):
        return "us"
    if last.endswith("ratio") or name == "tracing_overhead":
        return "ratio"
    return "count"


# --------------------------------------------------------------------------
# Set-up time: fresh interpreters, so imports are paid every time
# --------------------------------------------------------------------------

def measure_setup():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


# --------------------------------------------------------------------------
# One command
# --------------------------------------------------------------------------

class Outcome(NamedTuple):
    code: int                 # the command's exit code
    body: dict | None         # report body, when a report was written
    wall: float               # seconds
    output: str               # what the command printed


def run_command(cli, op, cfg_path, out_path):
    out_path.unlink(missing_ok=True)
    argv = [op.command, "--config", str(cfg_path), "--out", str(out_path),
            *op.argv]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    body = None
    if out_path.exists():
        body = json.loads(out_path.read_text())["body"]
    return Outcome(code, body, wall, sink.getvalue())


def judge(op, out):
    """(failed, problems) of one outcome."""
    if out.code == 0 and out.body is not None:
        return False, op.check(out.body)
    if out.code == 1:
        if op.known_fault is None:
            return True, [f"unexpected failure: {out.output.strip()[-300:]}"]
        if out.body is not None and op.fault_check is not None:
            return True, op.fault_check(out.body)
        return True, []
    return True, [f"exit {out.code}: {out.output.strip()[-300:]}"]


# --------------------------------------------------------------------------
# One workload
# --------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.passed = 0
        self.per_label = {}      # passing commands: label -> (class, walls)
        self.all_walls = {}      # every command: label -> walls

    def add_round(self, wl, outcomes):
        for op, out in zip(wl.ops, outcomes):
            self.attempted += 1
            self.all_walls.setdefault(op.label, []).append(out.wall)
            failed, problems = judge(op, out)
            self.problems += [f"{op.label}: {p}" for p in problems]
            if failed:
                self.failed += 1
                continue
            self.passed += 1
            self.per_label.setdefault(op.label, (op.klass, []))[1].append(
                out.wall)
        bodies = {op.label: out.body for op, out in zip(wl.ops, outcomes)
                  if out.code == 0}
        for l0, l1, ext in wl.pairs:
            if l0 in bodies and l1 in bodies:
                self.problems += [f"{l0} / {l1}: {p}" for p in
                                  checks.check_hol_pair(bodies[l0],
                                                        bodies[l1], ext)]

    def ops_per_s(self):
        """Passing commands per second of a round timed by the median
        latency of each of its commands, failing ones included."""
        round_s = sum(statistics.median(w) for w in self.all_walls.values())
        return self.passed / (self.attempted / len(self.all_walls)) / round_s

    def class_ms(self, klass):
        """Mean over the class's commands of each command's median
        latency: every command weighs the same whatever its seed-drawn
        parameters, and a median per command resists slow spells of the
        machine."""
        return 1e3 * statistics.fmean(
            statistics.median(walls)
            for k, walls in self.per_label.values() if k == klass)


def run_workload(name, seed, seconds, trace):
    setup_s = None if trace else measure_setup()
    import holotwist.cli as cli

    wl = WORKLOADS[name](seed)
    work = OUT / f"tmp-{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    try:
        paths = []
        for i, op in enumerate(wl.ops):
            cfg = work / f"op{i}.json"
            cfg.write_text(json.dumps(op.config))
            paths.append((cfg, work / f"op{i}.out.json"))
        # Warm-up (not counted): first-call costs of numpy and scipy.
        warm = work / "warm.json"
        warm.write_text(json.dumps({"bundle": {"family": "trivial"}}))
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["validate", "--config", str(warm)])

        tally = Tally()
        walls = {False: 0.0, True: 0.0}
        rounds = traced_rounds = 0
        start = time.perf_counter()
        while True:
            traced = trace and rounds % 2 == 1
            outcomes = []
            for op, (cfg, out) in zip(wl.ops, paths):
                if traced:
                    tracer.new_operation()
                    with tracer.installed(), tracer.span("bench.op"):
                        outcomes.append(run_command(cli, op, cfg, out))
                else:
                    outcomes.append(run_command(cli, op, cfg, out))
            walls[traced] += sum(o.wall for o in outcomes)
            tally.add_round(wl, outcomes)
            rounds += 1
            traced_rounds += traced
            elapsed = time.perf_counter() - start
            if trace:
                if traced and elapsed >= seconds:
                    break
            elif elapsed >= seconds and rounds >= wl.min_rounds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl")
        metrics = layer_metrics(tracer, traced_rounds,
                                walls[True] / walls[False])
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ops_per_s": tally.ops_per_s(),
            "main_ms": tally.class_ms("main"),
            "aux_ms": tally.class_ms("aux"),
        }
    units = dict(END_TO_END) if not trace else \
        {n: layer_unit(n) for n in PER_LAYER}
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    return result, tally, rounds


def layer_metrics(tracer, rounds, overhead):
    agg = tracer.aggregate()
    c = tracer.counts
    out = {}

    def ratio(a, b):
        return a / b if b else 0.0

    for name in PER_LAYER:
        if name == "tracing_overhead":
            out[name] = overhead
            continue
        base, last = name.rsplit(".", 1)
        calls, incl_ns, self_ns = agg.get(base, (0, 0, 0))
        if last == "calls":
            val = calls
        elif last == "s":
            val = incl_ns * 1e-9
        elif last == "self_s":
            if base == "cli":
                val = sum(agg.get(f"cli.{f}", (0, 0, 0))[2]
                          for f in ("main", "run")) * 1e-9
            else:
                val = self_ns * 1e-9
        elif last == "us_per_point":
            val = ratio(incl_ns * 1e-3, c[base + ".points"])
        elif last == "us_per_step":
            val = ratio(incl_ns * 1e-3, c[base + ".steps"])
        elif last == "useful_ratio":
            val = ratio(c["holonomy.face.useful_points"],
                        c["holonomy.face.points"])
        elif last == "repeat_ratio":
            val = ratio(c["reconstruct.oracle.repeats"], calls)
        else:
            val = c[name]
        if last not in ("us_per_point", "us_per_step", "useful_ratio",
                        "repeat_ratio"):
            val = val / rounds
        out[name] = val
    return out


def summary(name, result, tally, rounds):
    print(f"workload {name}: {rounds} rounds, attempted {result['attempted']}"
          f", failed {result['failed']}, correct {result['correct']}")
    for key, m in result["metrics"].items():
        print(f"  {key:44s} {m['value']:14.6g} {m['unit']}")
    for label, (klass, walls) in sorted(tally.per_label.items()):
        print(f"  {klass:4s} {label:40s} median "
              f"{1e3 * statistics.median(walls):10.2f} ms over {len(walls)}")
    for p in tally.problems[:20]:
        print(f"  PROBLEM {p}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "holotwist" / "cli.py").is_file():
        print(f"error: no holotwist sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result, tally, rounds = run_workload(name, args.seed, args.seconds,
                                             bool(args.trace))
        summary(name, result, tally, rounds)
        line = json.dumps(result)
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(line + "\n")
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
