#!/usr/bin/env python3
"""graphstress benchmark: `stress run` end to end on generated workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a graphstress source tree; graphstress is imported from
its `src/`. Inputs are generated from --seed (see workloads.py) and cached
under .perfbench/ before anything is timed. Every `stress run` is a child
process (child.py), and every run's report is checked by gate.py against the
reference committed in references.json for the workload's input seed.

--trace 0 times at least two whole runs and at least --seconds of them,
and reports the end-to-end metrics of BENCHMARK.json: medians over the runs
of the run wall time, the throughput in cell-seeds per second and the
child's peak RSS, and the set-up time (a fresh child importing
graphstress.cli and loading every dataset of the workload, median of at
least three such children). --trace 1 makes one untraced and
one traced run and reports the per-layer metrics of BENCHMARK.json.

The last line of standard output is one JSON object: correct, attempted and
failed (jobs; a job is one dataset x method x axis x seed), and metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_TIMED_RUNS = 2
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3.0  # short set-ups repeat more, so their median settles


class Bench:
    def __init__(self, root: Path, workload, seed: int, work: Path | None = None):
        import gate
        import workloads

        self.root, self.wl = root, workload
        self.work = work if work is not None else root / ".perfbench"
        self.runs = self.work / "runs" / workload.name
        shutil.rmtree(self.runs, ignore_errors=True)
        self.runs.mkdir(parents=True)
        self.seed = workloads.input_seed(seed)
        inputs = generate(self.work / "inputs", workload.name, self.seed)
        self.config = workloads.stress_config(workload.name, inputs)
        self.config_path = self.runs / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n")
        self.with_ops = bool(self.config.get("write_operator_outputs"))
        self.jobs = [(Path(d["manifest"]).parent.name, m.get("name", m["kind"]), axis, s)
                     for d in self.config["datasets"] for m in self.config["methods"]
                     for axis in self.config["axes"] for s in range(self.config["seeds"])]
        self.ref = gate.load_reference(workload.name, self.seed)
        if self.ref is None:
            print(f"no reference for {workload.name} input seed {self.seed} in "
                  f"{gate.REFERENCES.name}: every run fails the gate", file=sys.stderr)
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def child(self, args: list[str], log: Path) -> tuple[float, int, float]:
        """(wall s, exit code, peak RSS MiB) of one child process, start to exit."""
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                    cwd=self.root, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def setup_probe(self, i: int) -> float:
        import workloads
        wall, code, _ = self.child(["setup", *workloads.manifests(self.config)],
                                   self.runs / f"setup{i}.log")
        if code != 0:
            raise RuntimeError(f"set-up child exited {code}; see {self.runs}")
        return wall

    def stress(self, tag: str, workers: int, spans: Path | None = None,
               record: bool = False) -> dict:
        """One `stress run`, checked against the reference.

        With ``record`` the run is its own reference, so only the exit code,
        errors.log and the range checks can fail it.
        """
        import gate
        out = self.runs / tag
        traced = ["--spans", str(spans)] if spans else []
        wall, code, rss = self.child(
            ["run", *traced, "--", "run", "--config", str(self.config_path),
             "--out", str(out), "--workers", str(workers)], self.runs / f"{tag}.log")
        got = gate.fingerprint(out, self.with_ops)
        failed = gate.failed_jobs(self.jobs, code, out, got, got if record else self.ref)
        if failed:
            print(f"{tag}: {len(failed)} of {len(self.jobs)} jobs failed (exit {code}); "
                  f"see {self.runs / (tag + '.log')}", file=sys.stderr)
        self.attempted += len(self.jobs)
        self.failed += len(failed)
        result = {"wall": wall, "rss": rss, "cell_seeds": cell_seeds(out),
                  "ops_bytes": tree_bytes(out / "ops"), "fingerprint": got}
        shutil.rmtree(out, ignore_errors=True)
        return result


def generate(cache: Path, workload: str, seed: int) -> Path:
    """workloads.input_dir, generating in a forked process.

    A child's ru_maxrss starts at the peak RSS of the process that started
    it, so this process must never hold the inputs itself.
    """
    import workloads
    proc = multiprocessing.get_context("fork").Process(
        target=workloads.input_dir, args=(cache, workload, seed))
    proc.start()
    proc.join()
    if proc.exitcode != 0:
        raise RuntimeError(f"generating the {workload} inputs failed (exit {proc.exitcode})")
    return workloads.input_dir(cache, workload, seed)


def cell_seeds(out: Path) -> int:
    report = out / "report.csv"
    if not report.is_file():
        return 0
    with open(report, newline="") as f:
        return sum(int(r["seed_count"]) for r in csv.DictReader(f) if r["note"] != "inapplicable")


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file()) if root.is_dir() else 0


def end_to_end(bench: Bench, seconds: float) -> dict[str, float]:
    setup: list[float] = []
    runs: list[dict] = []

    def timed_done():
        return len(runs) >= MIN_TIMED_RUNS and sum(r["wall"] for r in runs) >= seconds

    def setup_done():
        return len(setup) >= SETUP_MIN_REPEATS and sum(setup) >= SETUP_MIN_SECONDS

    # timed runs alternate with set-up probes, so a slow spell of the shared
    # machine lands on few samples of each kind rather than on a block of them
    while not (timed_done() and setup_done()):
        if not timed_done():
            runs.append(bench.stress(f"timed{len(runs)}", bench.wl.workers))
        if not setup_done():
            setup.append(bench.setup_probe(len(setup)))
    return {
        "run_wall_s": statistics.median(r["wall"] for r in runs),
        "cell_seeds_per_s": statistics.median(r["cell_seeds"] / r["wall"] for r in runs),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": statistics.median(r["rss"] for r in runs),
        "walls": [r["wall"] for r in runs],
        "setup_repeats": len(setup),
    }


def per_layer(bench: Bench) -> dict[str, float]:
    import spans
    untraced = bench.stress("untraced", bench.wl.workers)
    spans_path = bench.runs / "spans.json"
    traced = bench.stress("traced", bench.wl.workers, spans=spans_path)
    metrics = spans.layer_metrics(json.loads(spans_path.read_text()), bench.wl.workers)
    metrics["graph_store.write.bytes"] = traced["ops_bytes"]
    metrics["trace.overhead_share"] = traced["wall"] / untraced["wall"] - 1.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "graphstress" / "cli.py").is_file():
        print(f"no graphstress source tree under {root}/src", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; valid: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    bench = Bench(root, workloads.WORKLOADS[args.workload], args.seed)
    if args.trace:
        measured, wanted = per_layer(bench), spec["per_layer"]
    else:
        measured, wanted = end_to_end(bench, args.seconds), spec["end_to_end"]
        print(f"timed runs: {len(measured['walls'])} "
              f"({' '.join(f'{w:.3f}' for w in measured['walls'])} s); "
              f"set-up repeats: {measured['setup_repeats']}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name:<46} {m['value']:>14.6g} {m['unit']}")
    share = bench.failed / bench.attempted
    print(f"{'failed_job_share':<46} {share:>14.6g} ratio ({bench.failed}/{bench.attempted})")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
