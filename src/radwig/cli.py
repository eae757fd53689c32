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
import warnings

from . import io as rio
from .checks import available_invariants, run_invariants
from .errors import (DomainError, GridAlignmentError, RadwigError,
                     SchemaError, TruncationError, ValidationError)
from .fock import end_to_end, load_fock_density
from .grids import Grid1D
from .states import dilaton_coherent, dilaton_vacuum
from .wigner import (WignerGrid, marginal_momentum, marginal_position,
                     wigner_l0_grid)

__all__ = ["main", "parse_axis"]

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_INPUT = 2


class CliInputError(Exception):
    pass


def parse_axis(spec: str) -> Grid1D:
    """Parse a ``min:max:steps`` axis specification."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise CliInputError(f"axis spec {spec!r} is not of the form min:max:steps")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CliInputError(f"cannot parse axis spec {spec!r}: {exc}") from None
    try:
        return Grid1D(lo, hi, steps)
    except ValidationError as exc:
        raise CliInputError(f"axis spec {spec!r}: {exc}") from None


def _script_path(args):
    """The gnuplot script's path, or None under ``--no-plot-script``."""
    if args.no_plot_script:
        return None
    script = _with_suffix(args.out, ".gp")
    if script == args.out:
        raise CliInputError(
            f"--out {args.out!r} is the path of its own gnuplot script; "
            "choose another name or pass --no-plot-script")
    return script


def _emit_wigner(args, grid: WignerGrid, title, script):
    out = args.out
    if args.format == "json":
        plot_data = _with_suffix(out, ".plot.csv")
        rio.write_wigner_json(out, grid, plot_csv=plot_data)
    else:
        rio.write_wigner_csv(out, grid)
        plot_data = out
    if script is not None:
        rio.write_gnuplot_script(script, plot_data, title)


def _with_suffix(path: str, suffix: str) -> str:
    stem = path.rsplit(".", 1)[0] if "." in path.split("/")[-1] else path
    return stem + suffix


def cmd_wl(args) -> int:
    script = _script_path(args)
    gamma, delta = parse_axis(args.gamma), parse_axis(args.delta)
    w = wigner_l0_grid(args.l, gamma, delta,
                       allow_deep_tail=args.allow_wide_gamma)
    _emit_wigner(args, w, f"W_{args.l}", script)
    return EXIT_OK


def cmd_vacuum(args) -> int:
    pts = parse_axis(args.grid).points
    samples = dilaton_vacuum(args.basis, pts)
    _write_state(args, pts, samples, {"state": "vacuum", "basis": args.basis})
    return EXIT_OK


def cmd_coherent(args) -> int:
    try:
        alpha = complex(args.alpha)
    except ValueError:
        raise CliInputError(
            f"cannot parse --alpha {args.alpha!r} as a complex number") from None
    grid = parse_axis(args.grid)
    psi = dilaton_coherent(alpha, grid)
    _write_state(args, grid.points, psi.samples,
                 {"state": "coherent", "basis": "vbar",
                  "alpha_re": alpha.real, "alpha_im": alpha.imag})
    return EXIT_OK


def _write_state(args, pts, samples, meta):
    if args.format == "json":
        rio.write_wavefunction_json(args.out, pts, samples, meta=meta)
    else:
        rio.write_wavefunction_csv(args.out, pts, samples)


def cmd_fock(args) -> int:
    script = _script_path(args)
    gamma, delta = parse_axis(args.gamma), parse_axis(args.delta)
    rho = load_fock_density(args.input)
    grid = end_to_end(rho, gamma, delta)
    _emit_wigner(args, grid, "W (Fock pipeline)", script)
    # marginals need windows wide enough to hold the tails; a grid meant
    # only for the 2D map should not fail the whole command
    _write_marginals(args.out, grid, skip_narrow=True)
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


def cmd_marginals(args) -> int:
    path = args.input
    if path.endswith(".json"):
        grid = rio.read_wigner_json(path)
    else:
        grid = rio.read_wigner_csv(path)
    _write_marginals(args.out_stem, grid)
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        results = run_invariants(args.only)
    except KeyError as exc:
        raise CliInputError(str(exc)) from None
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: measured={res.measured:.6e} "
              f"tolerance={res.tolerance:.6e}")
    report = {"results": [r.as_dict() for r in results],
              "all_pass": all(r.passed for r in results)}
    if args.json_report:
        with open(args.json_report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, allow_nan=False)
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
    wl.set_defaults(handler=cmd_wl)

    vac = sub.add_parser("vacuum", help="ground-state wavefunction samples")
    vac.add_argument("--basis", choices=("vbar", "r"), default="vbar")
    vac.add_argument("--grid", default="-8:8:1601", help="axis spec min:max:steps")
    vac.add_argument("--out", required=True)
    vac.add_argument("--format", choices=("csv", "json"), default="csv")
    vac.set_defaults(handler=cmd_vacuum)

    coh = sub.add_parser("coherent", help="displaced-vacuum samples (vbar basis)")
    coh.add_argument("--alpha", default="0j",
                     help="complex amplitude, e.g. 0.5+0.3j")
    coh.add_argument("--grid", default="-10:10:2001")
    coh.add_argument("--out", required=True)
    coh.add_argument("--format", choices=("csv", "json"), default="csv")
    coh.set_defaults(handler=cmd_coherent)

    fock = sub.add_parser("fock", help="Wigner grid from a Fock density JSON")
    fock.add_argument("--input", required=True)
    fock.add_argument("--gamma", default="-3:2:251")
    fock.add_argument("--delta", default="-4:4:321")
    fock.add_argument("--out", required=True)
    fock.add_argument("--format", choices=("csv", "json"), default="csv")
    fock.add_argument("--no-plot-script", action="store_true")
    fock.set_defaults(handler=cmd_fock)

    marg = sub.add_parser("marginals", help="marginals of a stored Wigner grid")
    marg.add_argument("--input", required=True)
    marg.add_argument("--out-stem", required=True)
    marg.set_defaults(handler=cmd_marginals)

    chk = sub.add_parser("check", help="run the numerical invariant suite")
    chk.add_argument("--only", nargs="+", metavar="NAME",
                     help=f"subset of: {', '.join(available_invariants())}")
    chk.add_argument("--json", dest="json_report")
    chk.set_defaults(handler=cmd_check)

    return parser


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


def _format_warning(message, category, filename, lineno, line=None):
    return f"warning: {message}\n"


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_fold_dash_values(list(argv)))
    # library warnings print as the CLI's own one-line "warning:" form;
    # recorders and filters still see every warning unchanged
    saved_format = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        return args.handler(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RadwigError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        warnings.formatwarning = saved_format


if __name__ == "__main__":
    sys.exit(main())
