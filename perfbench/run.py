"""Run one nielsen-forge benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload alternating-a7 --seed 1 --seconds 15 --trace 0

Run from the repository root; the program is imported from ``src/``.
Whole rounds repeat until ``--seconds`` have passed.  Every round rebuilds all inputs, and every
item's output is checked.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A run record (platform, commit, rounds, groups, errors, and
the spans of a traced run) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def load_program() -> None:
    """Put ``src/`` first on the path; refuse to run without it."""
    package = SRC / "nielsen_forge"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import nielsen_forge

    if Path(nielsen_forge.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported nielsen_forge from {nielsen_forge.__file__}")


def read_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_round(workload, recorder) -> dict:
    """One pass over the workload's items; failures are recorded, not raised."""
    import spans

    gc.collect()
    out = {"setup_s": 0.0, "solve_s": 0.0, "items": 0, "errors": [], "failed": 0,
           "wrong": 0, "deferred": [], "groups": []}
    for item in workload.items:
        out["items"] += 1
        try:
            if recorder is None:
                outcome = item.run(True)
            else:
                with spans.instrument(recorder):
                    outcome = item.run(False)
        except Exception as exc:  # a failed item must not stop the run
            out["failed"] += 1
            out["errors"].append(
                f"{item.name}: {type(exc).__name__}: {exc}\n{traceback.format_exc()}"
            )
            continue
        errors = item.check(outcome.summary)
        if errors:
            out["failed"] += 1
            out["wrong"] += 1
            out["errors"] += errors
            continue
        out["setup_s"] += outcome.setup_s
        out["solve_s"] += outcome.solve_s
        out["groups"] += outcome.groups
        if item.deferred is not None:
            out["deferred"].append((item.name, item.deferred(outcome.summary)))
    if recorder is not None:
        out["self_s"] = recorder.self_times()
        out["counts"] = recorder.counts
        out["spans"] = recorder.spans
    return out


def layer_metrics(names, traced: list[dict], untraced: list[dict]) -> tuple[dict, bool]:
    """Per-layer medians over the traced rounds; True if every count repeated."""
    values: dict[str, float] = {}
    repeat = True
    for name in names:
        if name == "trace.overhead_s":
            per_round = [
                statistics.median(r["solve_s"] for r in traced)
                - statistics.median(r["solve_s"] for r in untraced)
            ]
        elif name == "nielsen.gen_yield":
            per_round = [
                r["counts"]["nielsen.inner_classes"] / r["counts"]["nielsen.generation_tests"]
                if r["counts"]["nielsen.generation_tests"]
                else 0.0
                for r in traced
            ]
        elif name.endswith("_s"):
            per_round = [r["self_s"][name] for r in traced]
        else:
            per_round = [r["counts"][name] for r in traced]
            repeat = repeat and len(set(per_round)) == 1
            values[name] = statistics.median_low(per_round)
            continue
        values[name] = statistics.median(per_round)
    return values, repeat


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.make(args.workload, args.seed)
    t_run = perf_counter()
    with workload.run_context():
        rounds = []
        start = perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rnd = run_round(workload, spans.Recorder() if traced else None)
            rnd["traced"] = traced
            rounds.append(rnd)
            if perf_counter() - start >= args.seconds and (not args.trace or len(rounds) >= 2):
                break
        measured_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    oracle_s = 0.0
    if workload.oracle is not None:
        t0 = perf_counter()
        expect = workload.oracle()
        oracle_s = perf_counter() - t0
        for rnd in rounds:
            for name, got in rnd["deferred"]:
                if got != expect:
                    rnd["failed"] += 1
                    rnd["wrong"] += 1
                    rnd["errors"].append(f"{name}: {got} != independent count {expect}")

    attempted = sum(r["items"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = not any(r["wrong"] for r in rounds)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values, counts_repeat = layer_metrics(
            units, [r for r in rounds if r["traced"]], [r for r in rounds if not r["traced"]]
        )
    else:
        # Solve time and throughput are totals over the whole window: the
        # host's speed shifts between levels that last seconds to minutes,
        # and a median over rounds snaps to one level where a total averages.
        busy = sum(r["setup_s"] + r["solve_s"] for r in rounds)
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
            "solve_s": sum(r["solve_s"] for r in rounds) / len(rounds),
            "reports_per_s": sum(r["items"] - r["failed"] for r in rounds) / (busy or 1.0),
            "peak_rss_mb": peak_rss_mb,
        }
        counts_repeat = None
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": read_commit(),
        "groups": sorted(set(tuple(g) for g in rounds[-1]["groups"])),
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "errors": [e for r in rounds for e in r["errors"]],
        "measured_s": measured_s,
        "oracle_s": oracle_s,
        "wall_s": perf_counter() - t_run,
        "counts_repeat": counts_repeat,
        "rounds": [
            {k: r[k] for k in ("traced", "items", "failed", "setup_s", "solve_s")}
            | ({"counts": dict(r["counts"]), "self_s": dict(r["self_s"])} if r["traced"] else {})
            for r in rounds
        ],
        "spans": [
            [[name, s - t_run, e - t_run, parent] for name, s, e, parent in r["spans"]]
            for r in rounds
            if r["traced"]
        ],
        "metrics": metrics,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for e in record["errors"]:
        print(e, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
