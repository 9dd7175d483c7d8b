"""Command line front end: run one configuration, sweep a grid, or validate a config file."""

import argparse
import os
import sys
import tempfile

from .config import ScenarioConfig, load_config
from .engine import run_simulation
from .errors import ConfigError
from .results import emit_results, summary, write_csv


# The configuration fields that `run` and `sweep` flags set: each flag's dest is its field.
_FLAG_FIELDS = ("scenario", "p_tr", "n_drops", "n_rounds", "seed", "out_dir", "out_format")


def _base_config(args):
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    return cfg.replace(**{f: getattr(args, f) for f in _FLAG_FIELDS if getattr(args, f, None) is not None})


def _fmt(value, spec, scale=1.0):
    """A summary statistic as printed; n/a where it has no samples (None)."""
    return "n/a" if value is None else format(value / scale, spec)


def _print_summary(cfg, summary):
    print(f"scenario {cfg.scenario}  p_tr={cfg.p_tr}  drops={cfg.n_drops}  rounds={cfg.n_rounds}  seed={cfg.seed}")
    for ap, success in enumerate(summary["ap_access_success"]):
        print(f"  AP{ap} access success: {_fmt(success, '.3f')}")
    print(f"  median DL sum user throughput: {_fmt(summary['median_dl_sum_throughput_bps'], '.2f', 1e6)} Mb/s")
    print(f"  DL user SINR p5/p50: {_fmt(summary['dl_sinr_p5_db'], '.2f')} / {_fmt(summary['dl_sinr_p50_db'], '.2f')} dB")


def _writable_dir(path):
    """Create `path` and write a scratch file there: a bad `--out` fails before any simulation."""
    try:
        os.makedirs(path, exist_ok=True)
        tempfile.TemporaryFile(dir=path).close()
    except OSError as exc:
        raise ConfigError(f"cannot write to output directory {path!r}: {exc.strerror or exc}") from None


def cmd_run(args):
    cfg = _base_config(args).validate()
    _writable_dir(cfg.out_dir)
    results = run_simulation(cfg)
    paths = emit_results(results)
    _print_summary(cfg, summary(results))
    for p in paths:
        print(f"  wrote {p}")
    return 0


def cmd_sweep(args):
    base = _base_config(args)
    scenarios = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    if not scenarios:
        raise ConfigError(f"--scenarios: expected comma-separated scenario names, got {args.scenarios!r}")
    try:
        ptrs = [float(p) for p in args.ptrs.split(",")]
    except ValueError:
        raise ConfigError(f"--ptrs: expected comma-separated numbers, got {args.ptrs!r}") from None
    grid, seen = [], {}  # every cell is validated before the first one runs
    for scenario in scenarios:
        for p_tr in ptrs:
            name = f"{scenario}_ptr{p_tr:g}"
            cfg = base.replace(scenario=scenario, p_tr=p_tr, out_dir=os.path.join(base.out_dir, name)).validate()
            cell = f"({scenario}, {p_tr!r})"
            for key in (name, (cfg.scenario, cfg.p_tr)):
                if key in seen:
                    raise ConfigError(f"sweep cells {seen[key]} and {cell} share a run or the directory {name}")
                seen[key] = cell
            grid.append(cfg)
    _writable_dir(base.out_dir)
    rows = []
    for cfg in grid:
        results = run_simulation(cfg)
        emit_results(results)
        numbers = summary(results)
        _print_summary(cfg, numbers)
        rows.append(
            [numbers["scenario"], numbers["p_tr"], *numbers["ap_access_success"]]
            + [numbers["median_dl_sum_throughput_bps"], numbers["dl_sinr_p5_db"]]
        )
    header = ["scenario", "p_tr", "access_ap0", "access_ap1", "access_ap2", "median_sum_throughput_bps", "sinr_p5_db"]
    print(f"  wrote {write_csv(os.path.join(base.out_dir, 'sweep_summary.csv'), header, rows)}")
    return 0


def cmd_validate_config(args):
    try:
        cfg = load_config(args.config)
        cfg.validate()
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    print(f"{args.config}: ok (scenario {cfg.scenario})")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and emit results")
    run_p.add_argument("--config", help="JSON configuration file")
    run_p.add_argument("--scenario", choices=["A", "B", "C"])
    run_p.add_argument("--ptr", dest="p_tr", type=float, help="traffic probability per STA")
    run_p.add_argument("--drops", dest="n_drops", type=int, help="number of Monte-Carlo drops")
    run_p.add_argument("--rounds", dest="n_rounds", type=int, help="rounds per drop")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--out", dest="out_dir", help="output directory")
    run_p.add_argument("--format", dest="out_format", choices=["csv", "json"])
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a scenario x traffic grid")
    sweep_p.add_argument("--config", help="JSON configuration file")
    sweep_p.add_argument("--scenarios", default="A,B,C")
    sweep_p.add_argument("--ptrs", default="0.1,1.0")
    sweep_p.add_argument("--drops", dest="n_drops", type=int)
    sweep_p.add_argument("--rounds", dest="n_rounds", type=int)
    sweep_p.add_argument("--seed", type=int)
    sweep_p.add_argument("--out", dest="out_dir", help="root output directory")
    sweep_p.set_defaults(func=cmd_sweep)

    val_p = sub.add_parser("validate-config", help="check a configuration file")
    val_p.add_argument("--config", required=True)
    val_p.set_defaults(func=cmd_validate_config)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
