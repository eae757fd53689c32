"""Command-line interface.

Commands
--------
wl        closed-form Wigner grid of a zero-angular-momentum level
vacuum    ground-state wavefunction samples (log-radius or r basis)
coherent  displaced-vacuum wavefunction samples
fock      full pipeline from a Fock-basis density matrix JSON file
marginals marginal densities of a stored Wigner grid
check     run the numerical invariant suite

Exit codes: 0 success, 1 numerical failure, 2 input error.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import io as rio
from .checks import available_invariants, run_invariants
from .errors import (DomainError, GridAlignmentError, RadwigError,
                     SchemaError, TruncationError, ValidationError)
from .fock import end_to_end, load_fock_density
from .grids import Grid1D
from .states import default_vbar_grid, dilaton_coherent, dilaton_vacuum
from .wigner import (GAMMA_GUARD, WignerGrid, marginal_momentum,
                     marginal_position, wigner_l0_grid)

__all__ = ["main", "RunConfig", "parse_axis"]

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INPUT = 2


class CliInputError(Exception):
    pass


@dataclass
class AxisSpec:
    min: float
    max: float
    steps: int

    def grid(self) -> Grid1D:
        return Grid1D(self.min, self.max, self.steps)


@dataclass
class RunConfig:
    """Validated parameters of one CLI invocation."""
    command: str
    gamma: AxisSpec | None = None
    delta: AxisSpec | None = None
    grid: AxisSpec | None = None
    l: int = 0
    alpha: complex = 0j
    basis: str = "vbar"
    input_path: str | None = None
    out_path: str | None = None
    out_format: str = "csv"
    allow_wide_gamma: bool = False
    plot_script: bool = True
    only: list = field(default_factory=list)
    json_report: str | None = None
    tolerance_scale: float = 1.0


def parse_axis(spec: str) -> AxisSpec:
    """Parse a ``min:max:steps`` axis specification."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise CliInputError(f"axis spec {spec!r} is not of the form min:max:steps")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CliInputError(f"cannot parse axis spec {spec!r}: {exc}") from None
    axis = AxisSpec(lo, hi, steps)
    try:
        axis.grid()
    except ValidationError as exc:
        raise CliInputError(f"axis spec {spec!r}: {exc}") from None
    return axis


def _check_gamma_window(axis: AxisSpec, allow_wide: bool):
    if allow_wide:
        return
    lo, hi = GAMMA_GUARD
    if axis.min < lo or axis.max > hi:
        raise CliInputError(
            f"gamma range [{axis.min}, {axis.max}] outside the default guard "
            f"[{lo}, {hi}]; pass --allow-wide-gamma to override")


def _emit_wigner(cfg: RunConfig, grid: WignerGrid, title):
    out = cfg.out_path
    if cfg.out_format == "json":
        rio.write_wigner_json(out, grid)
        plot_data = _with_suffix(out, ".plot.csv")
        rio.write_wigner_csv(plot_data, grid)
    else:
        rio.write_wigner_csv(out, grid)
        plot_data = out
    if cfg.plot_script:
        rio.write_gnuplot_script(_with_suffix(out, ".gp"), plot_data, title)


def _with_suffix(path: str, suffix: str) -> str:
    stem = path.rsplit(".", 1)[0] if "." in path.split("/")[-1] else path
    return stem + suffix


def cmd_wl(cfg: RunConfig) -> int:
    _check_gamma_window(cfg.gamma, cfg.allow_wide_gamma)
    w = wigner_l0_grid(cfg.l, cfg.gamma.grid(), cfg.delta.grid(),
                       allow_deep_tail=cfg.allow_wide_gamma)
    # the file metadata is the CLI's format contract, not the library's
    grid = WignerGrid(w.gamma_grid, w.delta_grid, w.values,
                      meta={"l": cfg.l, "route": "closed-form"})
    _emit_wigner(cfg, grid, f"W_{cfg.l}")
    return EXIT_OK


def cmd_vacuum(cfg: RunConfig) -> int:
    pts = cfg.grid.grid().points
    if cfg.basis == "r" and pts[0] <= 0:
        raise CliInputError("r-basis grid must be strictly positive")
    samples = dilaton_vacuum(cfg.basis, pts)
    _write_state(cfg, pts, samples, {"state": "vacuum", "basis": cfg.basis})
    return EXIT_OK


def cmd_coherent(cfg: RunConfig) -> int:
    grid = cfg.grid.grid()
    psi = dilaton_coherent(cfg.alpha, grid)
    _write_state(cfg, grid.points, psi.samples,
                 {"state": "coherent", "basis": "vbar",
                  "alpha_re": cfg.alpha.real, "alpha_im": cfg.alpha.imag})
    return EXIT_OK


def _write_state(cfg: RunConfig, pts, samples, meta):
    if cfg.out_format == "json":
        rio.write_wavefunction_json(cfg.out_path, pts, samples, meta=meta)
    else:
        rio.write_wavefunction_csv(cfg.out_path, pts, samples)


def cmd_fock(cfg: RunConfig) -> int:
    rho = load_fock_density(cfg.input_path)
    grid = end_to_end(rho, cfg.gamma.grid(), cfg.delta.grid(),
                      vbar_grid=default_vbar_grid())
    _emit_wigner(cfg, grid, "W (Fock pipeline)")
    # marginals need windows wide enough to hold the tails; a grid meant
    # only for the 2D map should not fail the whole command
    _write_marginals(cfg.out_path, grid, skip_narrow=True)
    return EXIT_OK


def _write_marginals(out_path: str, grid: WignerGrid, skip_narrow=False):
    jobs = [
        ("_marginal_gamma.csv", "gamma", grid.gamma_grid.points,
         marginal_position),
        ("_marginal_delta.csv", "delta", grid.delta_grid.points,
         marginal_momentum),
    ]
    for suffix, axis, coords, fn in jobs:
        try:
            density = fn(grid)
        except TruncationError as exc:
            if not skip_narrow:
                raise
            print(f"warning: skipping {axis} marginal: {exc}", file=sys.stderr)
            continue
        rio.write_marginal_csv(_with_suffix(out_path, suffix), axis,
                               coords, density)


def cmd_marginals(cfg: RunConfig) -> int:
    path = cfg.input_path
    if path.endswith(".json"):
        grid = rio.read_wigner_json(path)
    else:
        grid = rio.read_wigner_csv(path)
    _write_marginals(cfg.out_path, grid)
    return EXIT_OK


def cmd_check(cfg: RunConfig) -> int:
    names = cfg.only or None
    try:
        results = run_invariants(names, tolerance_scale=cfg.tolerance_scale)
    except KeyError as exc:
        raise CliInputError(str(exc)) from None
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: measured={res.measured:.6e} "
              f"tolerance={res.tolerance:.6e}")
    report = {"results": [r.as_dict() for r in results],
              "all_pass": all(r.passed for r in results)}
    if cfg.json_report:
        with open(cfg.json_report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return EXIT_OK if report["all_pass"] else EXIT_NUMERICAL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radwig",
        description="Wigner quasi-probability functions for the radial "
                    "sector of 2D quantum systems (log-radius coordinates)")
    sub = parser.add_subparsers(dest="command", required=True)

    wl = sub.add_parser("wl", help="closed-form Wigner grid for level l")
    wl.add_argument("--l", type=int, default=0)
    wl.add_argument("--gamma", default="-3:2:251", help="axis spec min:max:steps")
    wl.add_argument("--delta", default="-4:4:321", help="axis spec min:max:steps")
    wl.add_argument("--out", required=True)
    wl.add_argument("--format", choices=("csv", "json"), default="csv")
    wl.add_argument("--allow-wide-gamma", action="store_true")
    wl.add_argument("--no-plot-script", action="store_true")

    vac = sub.add_parser("vacuum", help="ground-state wavefunction samples")
    vac.add_argument("--basis", choices=("vbar", "r"), default="vbar")
    vac.add_argument("--grid", default="-8:8:1601", help="axis spec min:max:steps")
    vac.add_argument("--out", required=True)
    vac.add_argument("--format", choices=("csv", "json"), default="csv")

    coh = sub.add_parser("coherent", help="displaced-vacuum samples (vbar basis)")
    coh.add_argument("--alpha", default="0j",
                     help="complex amplitude, e.g. 0.5+0.3j")
    coh.add_argument("--grid", default="-10:10:2001")
    coh.add_argument("--out", required=True)
    coh.add_argument("--format", choices=("csv", "json"), default="csv")

    fock = sub.add_parser("fock", help="Wigner grid from a Fock density JSON")
    fock.add_argument("--input", required=True)
    fock.add_argument("--gamma", default="-3:2:251")
    fock.add_argument("--delta", default="-4:4:321")
    fock.add_argument("--out", required=True)
    fock.add_argument("--format", choices=("csv", "json"), default="csv")
    fock.add_argument("--no-plot-script", action="store_true")

    marg = sub.add_parser("marginals", help="marginals of a stored Wigner grid")
    marg.add_argument("--input", required=True)
    marg.add_argument("--out-stem", required=True)

    chk = sub.add_parser("check", help="run the numerical invariant suite")
    chk.add_argument("--only", nargs="+", metavar="NAME",
                     help=f"subset of: {', '.join(available_invariants())}")
    chk.add_argument("--json", dest="json_report")
    chk.add_argument("--tolerance-scale", type=float, default=1.0)

    return parser


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if args.command == "wl":
        if not 0 <= args.l <= 64:
            raise CliInputError(f"l must be in [0, 64], got {args.l}")
        cfg.l = args.l
        cfg.gamma = parse_axis(args.gamma)
        cfg.delta = parse_axis(args.delta)
        cfg.out_path = args.out
        cfg.out_format = args.format
        cfg.allow_wide_gamma = args.allow_wide_gamma
        cfg.plot_script = not args.no_plot_script
    elif args.command == "vacuum":
        cfg.basis = args.basis
        cfg.grid = parse_axis(args.grid)
        cfg.out_path = args.out
        cfg.out_format = args.format
    elif args.command == "coherent":
        try:
            cfg.alpha = complex(args.alpha)
        except ValueError:
            raise CliInputError(
                f"cannot parse --alpha {args.alpha!r} as a complex number") from None
        cfg.grid = parse_axis(args.grid)
        cfg.out_path = args.out
        cfg.out_format = args.format
    elif args.command == "fock":
        cfg.input_path = args.input
        cfg.gamma = parse_axis(args.gamma)
        cfg.delta = parse_axis(args.delta)
        cfg.out_path = args.out
        cfg.out_format = args.format
        cfg.plot_script = not args.no_plot_script
    elif args.command == "marginals":
        cfg.input_path = args.input
        cfg.out_path = args.out_stem
    elif args.command == "check":
        cfg.only = args.only or []
        cfg.json_report = args.json_report
        cfg.tolerance_scale = args.tolerance_scale
    return cfg


_HANDLERS = {
    "wl": cmd_wl,
    "vacuum": cmd_vacuum,
    "coherent": cmd_coherent,
    "fock": cmd_fock,
    "marginals": cmd_marginals,
    "check": cmd_check,
}

_INPUT_ERRORS = (CliInputError, SchemaError, ValidationError, DomainError,
                 GridAlignmentError, FileNotFoundError, json.JSONDecodeError)


# options whose values may start with "-" (axis specs, complex numbers);
# folded into --flag=value form so argparse does not read them as flags
_DASH_VALUE_FLAGS = {"--gamma", "--delta", "--grid", "--alpha"}


def _fold_dash_values(argv):
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in _DASH_VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_fold_dash_values(list(argv)))
    try:
        cfg = _config_from_args(args)
        return _HANDLERS[args.command](cfg)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RadwigError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
