"""Command-line interface.

Subcommands
-----------
run            execute a sweep config (path or preset name), write CSV + manifest
fit            fit power-law exponents over a window of a results file
verify-bounds  check recorded QFI values against their bounds
presets        list bundled figure-experiment configs (optionally write them out)

Exit codes: 0 success, 1 validation error, 2 runtime failure,
3 bound violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (PRESETS, ConfigError, RunConfig, fit_results,
                      load_config, parse_config, run, verify_bounds)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_BOUND_VIOLATION = 3


def _resolve_config(spec: str, workers: int | None, tol: float | None) -> RunConfig:
    overrides = {k: v for k, v in (("workers", workers), ("tol", tol))
                 if v is not None}
    if spec in PRESETS:
        return parse_config({**PRESETS[spec], **overrides})
    if not Path(spec).exists():
        raise ConfigError(f"config {spec!r}: not a preset name and not a file")
    return load_config(spec, **overrides)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="critmet", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a sweep")
    p_run.add_argument("--config", required=True,
                       help="config file path or preset name")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--workers", type=int, default=None)
    p_run.add_argument("--tol", type=float, default=None)

    p_fit = sub.add_parser("fit", help="fit exponents from a results file")
    p_fit.add_argument("results", help="results.csv from a run")
    p_fit.add_argument("--window", required=True,
                       help="T window as LO:HI (same units as the T column)")
    p_fit.add_argument("--out", default=None, help="write the fit table here")

    p_ver = sub.add_parser("verify-bounds", help="check QFI <= bound on a results file")
    p_ver.add_argument("results")

    p_pre = sub.add_parser("presets", help="list bundled configs")
    p_pre.add_argument("--write", default=None, metavar="DIR",
                       help="also write each preset as JSON into DIR")

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def _dispatch(args) -> int:
    if args.command == "run":
        cfg = _resolve_config(args.config, args.workers, args.tol)
        path = run(cfg, args.out)
        print(f"wrote {path}")
        return EXIT_OK
    if args.command == "fit":
        try:
            lo, hi = (float(v) for v in args.window.split(":"))
        except ValueError as exc:
            raise ConfigError(f"--window: expected LO:HI, got {args.window!r}") from exc
        if not 0 < lo <= hi:
            raise ConfigError("--window: need 0 < LO <= HI")
        fits = fit_results(args.results, (lo, hi), out_path=args.out)
        if not fits:
            raise ConfigError("no fittable rows in window")
        for f in fits:
            if f["error"]:
                print(f"{f['protocol']}/{f['estimand']}/eta={f['eta']}: {f['error']}")
            else:
                print(f"{f['protocol']}/{f['estimand']}/eta={f['eta']}: "
                      f"beta = {f['beta']:.4f} +/- {f['stderr']:.4f}")
        return EXIT_OK
    if args.command == "verify-bounds":
        violations = verify_bounds(args.results)
        if violations:
            for v in violations:
                print(f"row {v['row']}: T={v['T']} eta={v['eta']} "
                      f"I_x={v['I_x']:.6g} > bound={v['bound_I']:.6g} "
                      f"(margin {v['margin']:.2e})")
            return EXIT_BOUND_VIOLATION
        print("no violations")
        return EXIT_OK
    if args.command == "presets":
        for name, raw in PRESETS.items():
            grid = raw["t_grid"]
            print(f"{name}: {raw['protocol']['kind']} estimand={raw['estimand']} "
                  f"eta={raw['eta']} T in [{grid['min']}, {grid['max']}]")
        if args.write:
            out = Path(args.write)
            out.mkdir(parents=True, exist_ok=True)
            for name, raw in PRESETS.items():
                with open(out / f"{name}.json", "w", encoding="utf-8") as fh:
                    json.dump(raw, fh, indent=2)
                    fh.write("\n")
            print(f"wrote {len(PRESETS)} preset files to {out}")
        return EXIT_OK
    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
