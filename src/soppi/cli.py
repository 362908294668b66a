"""Command-line entry point.

Subcommands:
  run       -- execute a trial battery from a JSON config (or a manifest)
  summarize -- recompute the summary tables from a results directory
  plotdata  -- dump per-signal time series files for plotting
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import harness
from .controller import _STEPPERS


def _cmd_run(args):
    raw = harness.load_raw_config(args.config)
    exp = raw.get("experiment") if isinstance(raw, dict) else None
    if isinstance(exp, dict):   # otherwise parse_config names the fault
        if args.algo:
            exp["algos"] = [args.algo]
        if args.trials is not None:
            exp["n_trials"] = args.trials
        if args.seed is not None:
            exp["base_seed"] = args.seed
    config = harness.parse_config(raw)
    out = args.out or config.out_dir
    manifest = harness.run_experiment(config, out)
    print(f"wrote {len(manifest.record_files)} record files to {out}")
    return 0


def _load_records(in_dir):
    in_dir = Path(in_dir)
    manifest_path = in_dir / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no manifest.json in {in_dir}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    files = isinstance(manifest, dict) and manifest.get("record_files")
    if not isinstance(files, dict):
        raise ValueError(f"{manifest_path} has no record_files mapping")
    records: dict[str, list] = {}
    # The manifest lists the files in (algo, trial) order.
    for fname, algo in files.items():
        records.setdefault(algo, []).append(
            harness.read_record_csv(in_dir / fname))
    return manifest, records


def _cmd_summarize(args):
    manifest, records = _load_records(args.in_dir)
    if "config" not in manifest:
        raise ValueError(f"{Path(args.in_dir, 'manifest.json')} has no config")
    config = harness.parse_config(manifest["config"])
    for algo in config.algos:
        if algo not in records:
            raise ValueError(f"no {algo} trial in {args.in_dir}; the battery "
                             "did not complete")
    harness.write_summary(config, records, args.in_dir)
    with open(Path(args.in_dir) / "summary.csv") as fh:
        sys.stdout.write(fh.read())
    return 0


def _cmd_plotdata(args):
    _, records = _load_records(args.in_dir)
    written = harness.emit_plot_data(records, args.out)
    print(f"wrote {len(written)} plot data files to {args.out}")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="soppi",
        description="Sampling-based MPC benchmark harness (MPPI / SOPPI)")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a trial battery from a config file")
    run.add_argument("--config", required=True,
                     help="JSON config or run manifest")
    run.add_argument("--algo", choices=sorted(_STEPPERS),
                     help="restrict to one algorithm")
    run.add_argument("--trials", type=int, help="override trial count")
    run.add_argument("--seed", type=int, help="override base seed")
    run.add_argument("--out", help="output directory")
    run.set_defaults(func=_cmd_run)

    summ = sub.add_parser("summarize", help="summarize a results directory")
    summ.add_argument("--in", dest="in_dir", required=True)
    summ.set_defaults(func=_cmd_summarize)

    plot = sub.add_parser("plotdata", help="emit per-signal time series")
    plot.add_argument("--in", dest="in_dir", required=True)
    plot.add_argument("--out", required=True)
    plot.set_defaults(func=_cmd_plotdata)
    return p


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
