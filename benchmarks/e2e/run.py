"""The SOFOS end-to-end benchmark: one command, four workloads.

    python3 benchmarks/e2e/run.py --workload views-hot --seed 1 \
        --seconds 20 --trace 0          # one run, result JSON on the last line
    python3 benchmarks/e2e/run.py --runs 10          # all workloads, a table
    python3 benchmarks/e2e/run.py --runs 5 --trace   # ... plus the layer view
    python3 benchmarks/e2e/run.py --aa --runs 5      # A/A self-check
    python3 benchmarks/e2e/run.py --smoke            # seconds, for tests

Each run is a fresh child process (``loop.py``) with a fixed environment;
children run strictly one after another.  See README.md for the protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, HERE)

from stats import end_to_end, fastest, raw_loop_s, same_inputs  # noqa: E402
from workloads import PASSES, RUN_SECONDS, WORKLOADS, \
    workload_named  # noqa: E402

#: Set in every child; hash randomisation alone moved loop_s by 20%, and
#: without bytecode files every child compiles the library the same way.
FIXED_ENV = {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1",
             "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}
#: The contract's limit for one invocation, which may hold two children.
RUN_CAP_S = 180.0
#: 4 + 22 x workloads runs must fit 3420 s: the mean budget of one run.
MEAN_RUN_BUDGET_S = 3420.0 / (4 + 22 * len(WORKLOADS))


class Launcher:
    """Starts children one at a time with the scrubbed environment."""

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke
        self._busy = False

    def environment(self, store: str | None) -> dict[str, str]:
        env = dict(os.environ)
        env.pop("REPRO_STORE", None)
        env.update(FIXED_ENV)
        if store is not None:
            env["REPRO_STORE"] = store
        return env

    def run(self, name: str, seed: int, seconds: float, check: bool = True,
            trace_out: str | None = None, untraced_loop_s: float = 0.0,
            deadline: float | None = None) -> dict:
        """One child to completion; its result plus ``wall_s``.

        ``deadline`` (monotonic clock) defaults to the cap from now.
        """
        if self._busy:
            raise RuntimeError("a benchmark child is already running")
        command = [sys.executable, os.path.join(HERE, "loop.py"),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds)]
        if self.smoke:
            command.append("--smoke")
        if check:
            command.append("--check")
        if trace_out is not None:
            command += ["--trace-out", trace_out,
                        "--untraced-loop-s", repr(untraced_loop_s)]
        self._busy = True
        started = time.monotonic()
        if deadline is None:
            deadline = started + RUN_CAP_S
        try:
            # run() kills the child and reaps it when the timeout expires
            done = subprocess.run(
                command, env=self.environment(workload_named(name).store),
                stdout=subprocess.PIPE, text=True, cwd=ROOT,
                timeout=max(1.0, deadline - started))
        finally:
            self._busy = False
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            raise RuntimeError(
                f"child {name!r} exited {done.returncode} without a result")
        result = json.loads(lines[-1])
        result["wall_s"] = time.monotonic() - started
        return result


def trace_path(out_dir: str, name: str) -> str:
    return os.path.join(out_dir, f"trace-{name}.json")


def measure(launcher: Launcher, name: str, seed: int, seconds: float,
            deadline: float | None = None) -> dict:
    """One run: ``PASSES`` identical children folded into one result."""
    started = time.monotonic()
    passes = 1 if launcher.smoke else PASSES
    children = [launcher.run(name, seed, seconds, check=i == passes - 1,
                             deadline=deadline) for i in range(passes)]
    samples = [child["samples"] for child in children]
    attempted = sum(child["attempted"] for child in children) + 1
    failed = sum(child["failed"] for child in children)
    if not same_inputs(samples):
        failed += 1
        print(f"FAILED {name} seed {seed}: the children of one run did not "
              "see the same operations", file=sys.stderr)
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": end_to_end(fastest(samples)),
        "raw_loop_s": statistics.median(raw_loop_s(s) for s in samples),
        "info": children[-1]["info"],
        "wall_s": time.monotonic() - started,
    }


def driver_run(args) -> int:
    """One workload, one seed: the result object on the last line."""
    launcher = Launcher(args.smoke)
    deadline = time.monotonic() + RUN_CAP_S - 5.0   # every child, and us
    if args.trace:
        # the per-layer view: one plain child for the overhead ratio, then
        # one traced child
        plain = launcher.run(args.workload, args.seed, args.seconds,
                             check=False, deadline=deadline)
        result = launcher.run(
            args.workload, args.seed, args.seconds, deadline=deadline,
            trace_out=trace_path(args.trace_out, args.workload),
            untraced_loop_s=raw_loop_s(plain["samples"]))
        result["metrics"] = result["layers"]
    else:
        result = measure(launcher, args.workload, args.seed, args.seconds,
                         deadline)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(runs: list[dict], key: str = "metrics") -> dict:
    """metric -> {median, q1, q3, n, unit} over the runs of one workload."""
    out = {}
    for name, first in runs[0][key].items():
        values = [run[key][name]["value"] for run in runs]
        q1, median, q3 = quartiles(values)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "n": len(values), "unit": first["unit"]}
    return out


def load_bounds() -> dict[str, float]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}


def run_passes(launcher: Launcher, names: list[str], seeds: list[int],
               seconds: float, sets: int = 1) -> list[dict[str, list[dict]]]:
    """``sets`` interleaved sets of passes; each pass runs every workload."""
    results = [{name: [] for name in names} for _ in range(sets)]
    for seed in seeds:
        for by_name in results:
            started = time.monotonic()
            for name in names:
                run = measure(launcher, name, seed, seconds)
                by_name[name].append(run)
                print(f"  {name} seed {seed}: {run['wall_s']:.1f} s wall, "
                      f"store {run['info']['store_kind']}, "
                      f"{run['failed']} failed", file=sys.stderr)
            wall = time.monotonic() - started
            if wall > MEAN_RUN_BUDGET_S * len(names):
                raise RuntimeError(
                    f"a pass took {wall:.0f} s; the time cap allows "
                    f"{MEAN_RUN_BUDGET_S * len(names):.0f} s")
    return results


def spread(row: dict) -> float:
    """Interquartile distance as a share of the median."""
    return (row["q3"] - row["q1"]) / row["median"] if row["median"] else 0.0


def print_table(title: str, summary: dict, bounds: dict[str, float]) -> None:
    print(f"\n{title}")
    print(f"  {'metric':<44}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'unit':>7}{'n':>4}{'spread':>8}")
    for name, row in summary.items():
        # the aim is every spread under a third of the metric's bound
        flag = " !" if name in bounds and name != "setup_s" \
            and spread(row) > bounds[name] / 3 else ""
        print(f"  {name:<44}{row['median']:>14.4f}{row['q1']:>14.4f}"
              f"{row['q3']:>14.4f}{row['unit']:>7}{row['n']:>4}"
              f"{spread(row):>8.3f}{flag}")


def print_aa(first: dict, second: dict, bounds: dict[str, float]) -> bool:
    """Both sets' medians and spreads per metric; True when all agree."""
    print(f"  A/A {'metric':<28}{'A':>13}{'B':>13}{'diff':>7}{'bound':>7}"
          f"{'spread A':>10}{'spread B':>10}")
    agree = True
    for metric, row in first.items():
        a, b = row["median"], second[metric]["median"]
        diff = abs(a - b) / a if a else 0.0
        exceeds = diff > bounds[metric] or (
            metric != "setup_s" and max(spread(row), spread(second[metric]))
            > bounds[metric])
        agree = agree and not exceeds
        print(f"  A/A {metric:<28}{a:>13.4f}{b:>13.4f}{diff:>7.3f}"
              f"{bounds[metric]:>7.2f}{spread(row):>10.3f}"
              f"{spread(second[metric]):>10.3f}"
              f"{'  EXCEEDS' if exceeds else ''}")
    return agree


def table_run(args) -> int:
    """Every workload, ``--runs`` seeds each; tables, then one JSON line."""
    launcher = Launcher(args.smoke)
    names = [w.name for w in WORKLOADS]
    seeds = [args.seed + i for i in range(args.runs)]
    bounds = load_bounds()
    environment = {
        **FIXED_ENV, "REPRO_STORE": "unset unless the workload pins it",
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "seeds": seeds, "seconds": args.seconds, "passes": PASSES}
    print(f"environment: {json.dumps(environment)}")
    sets = run_passes(launcher, names, seeds, args.seconds,
                      sets=2 if args.aa else 1)
    payload = {"environment": environment, "workloads": {}}
    correct = agree = True
    for name in names:
        runs = sets[0][name]
        correct = correct and all(run["correct"] for s in sets
                                  for run in s[name])
        summary = summarize(runs)
        info = runs[0]["info"]
        print_table(
            f"{name}  (store {info['store_kind']}, views {info['views']}, "
            f"|G| {info['triples_start']} -> {info['triples_end']}, "
            f"{info['queries']} answers, median wall "
            f"{statistics.median(r['wall_s'] for r in runs):.1f} s)",
            summary, bounds)
        payload["workloads"][name] = {"end_to_end": summary, "info": info}
        if args.aa:
            agree = print_aa(summary, summarize(sets[1][name]), bounds) \
                and agree
        if args.trace:
            traced = launcher.run(
                name, args.seed, args.seconds,
                trace_out=trace_path(args.trace_out, name),
                untraced_loop_s=runs[0]["raw_loop_s"])
            correct = correct and traced["correct"]
            print_table(f"{name}  per-layer (one traced run, seed "
                        f"{args.seed})", summarize([traced], "layers"), {})
            for phase, shares in traced["shares"].items():
                top = ", ".join(f"{layer} {share:.1%}" for layer, share
                                in list(shares.items())[:8])
                print(f"  share of {phase} self time: {top}")
            if traced["info"]["unwrapped"]:
                print(f"  not wrapped (absent): {traced['info']['unwrapped']}")
            payload["workloads"][name]["per_layer"] = traced["layers"]
            payload["workloads"][name]["shares"] = traced["shares"]
    payload["correct"] = correct
    print(json.dumps(payload))
    if not agree:
        print("A/A: a difference or a spread exceeds its bound",
              file=sys.stderr)
        return 1
    return 0 if correct else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="run only this workload, once, and print the "
                             "result object (what the driver calls)")
    parser.add_argument("--seed", type=int, default=1,
                        help="load seed: order of the query stream, check sample, "
                             "Sofos(seed=)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="scales the timed work (rounds, offline reps)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="also run traced and report per-layer metrics")
    parser.add_argument("--trace-out", default=os.path.join(HERE, "out"),
                        help="directory for trace-<workload>.json")
    parser.add_argument("--runs", type=int, default=5,
                        help="table mode: seeds per workload")
    parser.add_argument("--aa", action="store_true",
                        help="table mode: two interleaved sets of --runs, compared "
                             "against the bounds in BENCHMARK.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets, two rounds: a functional check")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("benchmarks/e2e: no src/repro beside this checkout's "
              "benchmarks/ -- nothing to measure", file=sys.stderr)
        return 2
    if args.workload is not None:
        return driver_run(args)
    return table_run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
