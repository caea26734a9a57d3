"""Sweep benchmark: runs one workload of critmet sweeps and prints its metrics.

    python3 sweepbench/run.py --workload quench-sweep --seed 1 --seconds 35 --trace 0

Run from the root of a checkout: critmet is imported from ./src.  The
workload's configs are generated from the seed (see workloads.py), parsed
with critmet.harness.parse_config and executed with critmet.harness.run.

--trace 0 repeats whole rounds (one harness.run per config) while the next
round is expected to end within --seconds, and prints the end-to-end
metrics.  --trace 1 runs one untraced and one traced round, both in this
process (workers = 1), and prints the per-layer metrics.  Either way the
rows of the first round are checked against checks.py, later rounds must
reproduce its CSV bytes, and the last line of stdout is one JSON object.
Exit codes: 0 success, 1 a check failed, 2 the program could not be run.
"""

import resource
import time

_T0 = time.perf_counter()
_usage = resource.getrusage(resource.RUSAGE_SELF)
# CPU time spent before this line: interpreter start-up, which is CPU-bound,
# so it stands in for the wall time from process start to _T0.
_STARTUP_S = _usage.ru_utime + _usage.ru_stime

import argparse  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, make_configs  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

END_TO_END = (("sweep_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped pool workers."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        u = resource.getrusage(who)
        total += u.ru_utime + u.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or of any reaped child (Linux: KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def run_round(harness, configs, out_dir: Path) -> tuple[float, float, list]:
    """One harness.run per config; returns (wall s, CPU s, per-config
    (results.csv bytes, manifest))."""
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for cfg in configs:
        harness.run(cfg, out_dir / cfg.name)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    outputs = []
    for cfg in configs:
        outputs.append(((out_dir / cfg.name / "results.csv").read_bytes(),
                        json.loads((out_dir / cfg.name / "manifest.json").read_text())))
    return wall, cpu, outputs


def verify(raw_configs, rounds) -> tuple[list, int, int]:
    """Check the first round against the references and every later round
    against the first.  Returns (findings that fail the run, rows per round,
    failed rows per round)."""
    from checks import Finding, check_config

    fatal, failed_rows, n_rows = [], set(), 0
    first = rounds[0]
    for k, later in enumerate(rounds[1:], start=2):
        for raw, (csv_a, _), (csv_b, _) in zip(raw_configs, first, later):
            if csv_a != csv_b:
                fatal.append(Finding(raw["name"], None, "determinism",
                                     f"round {k} wrote other results.csv bytes"))
    for raw, (csv_bytes, manifest) in zip(raw_configs, first):
        rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
        n_rows += len(rows)
        if manifest.get("rows") != len(rows):
            fatal.append(Finding(raw["name"], None, "manifest",
                                 f"manifest rows {manifest.get('rows')} != {len(rows)}"))
        for f in check_config(raw, rows):
            # the known Krylov fault (README.md) fails its row, not the run
            if f.known:
                failed_rows.add((raw["name"], f.row))
                print(f"known fault {f.check} [{f.config} row {f.row}]: {f.message}",
                      file=sys.stderr)
            else:
                fatal.append(f)
    for f in fatal:
        print(f"FAILED {f.check} [{f.config} row {f.row}]: {f.message}", file=sys.stderr)
    return fatal, n_rows, len(failed_rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "critmet" / "__init__.py").is_file():
        print(f"sweepbench: no critmet sources under {SRC}; run from the root "
              "of a critmet checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from critmet import harness

    import critmet
    if Path(critmet.__file__).resolve().parent != (SRC / "critmet").resolve():
        print(f"sweepbench: imported critmet from {critmet.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workers = 1 if args.trace else None
    raw_configs = make_configs(args.workload, args.seed, workers=workers)
    configs = [harness.parse_config(raw) for raw in raw_configs]
    setup_s = _STARTUP_S + time.perf_counter() - _T0

    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            from tracer import PER_LAYER, Tracer

            untraced_s, _, outputs = run_round(harness, configs, run_dir)
            rounds = [outputs]
            tracer = Tracer()
            tracer.install()
            try:
                configs = [harness.parse_config(raw) for raw in raw_configs]
                traced_s, _, outputs = run_round(harness, configs, run_dir)
            finally:
                tracer.remove()
            rounds.append(outputs)
        else:
            walls, cpus, rounds = [], [], []
            measured = 0.0
            while True:
                wall, cpu, outputs = run_round(harness, configs, run_dir)
                walls.append(wall)
                cpus.append(cpu)
                rounds.append(outputs)
                measured += wall
                if measured + statistics.median(walls) > args.seconds:
                    break
            rss = peak_rss_mb()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass

    fatal, n_rows, n_failed = verify(raw_configs, rounds)
    if args.trace:
        values = tracer.metrics(rows=n_rows, traced_sweep_s=traced_s,
                                untraced_sweep_s=untraced_s)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = {"sweep_s": statistics.median(walls),
                  "cpu_s": statistics.median(cpus),
                  "setup_s": setup_s, "peak_rss_mb": rss}
        units = dict(END_TO_END)
        print(f"{len(rounds)} round(s) of {n_rows} rows; sweep_s per round: "
              + ", ".join(f"{w:.3f}" for w in walls))
    for name, value in values.items():
        print(f"{name:36s} {value:>16.6g} {units[name]}")
    result = {"correct": not fatal, "attempted": n_rows * len(rounds),
              "failed": n_failed * len(rounds),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    print(json.dumps(result))
    return 1 if fatal else 0


if __name__ == "__main__":
    sys.exit(main())
