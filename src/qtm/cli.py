"""Command line front end.

Subcommands cover every computation path: simulate (full state vector,
closed-form recursion, or primitive superposition), primitives (a single
sign-pattern trajectory), classify (periodicity of sign patterns), decompose
(tape weights over the sign patterns), spectrum, and invariants (circle
fit). Angle flags accept the expression grammar of qtm.exprs, so
--alpha "pi/sqrt(3)" means exactly that.

Exit codes: 0 success, 2 usage or configuration error, 3 failed numeric
validation (norm drift, circle fit above tolerance).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, analysis, engine, io, primitives, recursion
from .errors import CircleFitError, ConfigurationError, NumericalValidationError
from .exprs import parse_angle
from .gates import VARIANT_X, VARIANTS
from .state import normalize_tape_spec


def _angle(src):
    try:
        return parse_angle(src)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


_INITIAL_HELP = ("tape spec: zeros, ones, or a string over 0 1 + -; spell "
                 "leading-minus specs as --initial=-+01")


def _add_out_flags(sub, formats=("csv", "json", "svg")):
    sub.add_argument("--out", default="-",
                     help="output path, - for stdout (default)")
    sub.add_argument("--format", choices=formats, default=formats[0])


def _add_machine_flags(sub, tape_size_required=True, steps=None):
    """The flags of a MachineConfig: --steps is required when it has no
    default."""
    sub.add_argument("--tape-size", type=int, required=tape_size_required)
    sub.add_argument("--alpha", type=_angle, required=True,
                     help='rotation angle, e.g. "pi/sqrt(3)"')
    sub.add_argument("--phi0", type=_angle, default=0.0,
                     help="initial head angle (default 0)")
    sub.add_argument("--steps", type=int, required=steps is None,
                     default=steps)
    sub.add_argument("--initial", default="zeros", help=_INITIAL_HELP)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qtm",
        description="spin-chain Turing machine simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run the machine and export the "
                          "head trajectory")
    _add_machine_flags(sim)
    sim.add_argument("--variant", choices=VARIANTS, default=VARIANT_X)
    sim.add_argument("--engine",
                     choices=("statevector", "recursion", "primitives"),
                     default="statevector")
    _add_out_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    prim = subs.add_parser("primitives", help="trajectory of one +/- pattern")
    prim.add_argument("--pattern", required=True,
                      help='sign pattern; spell leading-minus patterns as '
                      '--pattern="-+" or --pattern=-+')
    prim.add_argument("--alpha", type=_angle, required=True)
    prim.add_argument("--phi0", type=_angle, default=0.0)
    prim.add_argument("--steps", type=int, required=True)
    _add_out_flags(prim)
    prim.set_defaults(func=cmd_primitives)

    cla = subs.add_parser("classify", help="periodicity of sign patterns")
    group = cla.add_mutually_exclusive_group(required=True)
    group.add_argument("--pattern",
                       help="single sign pattern (use --pattern=-... for "
                       "leading-minus patterns)")
    group.add_argument("--all", action="store_true",
                       help="sweep all 2**M patterns")
    cla.add_argument("--tape-size", type=int)
    cla.add_argument("--alpha", type=_angle, default=parse_angle("pi/sqrt(3)"))
    cla.add_argument("--phi0", type=_angle, default=0.3,
                     help="probe head angle for numeric detection "
                     "(generic value, default 0.3)")
    cla.add_argument("--max-cycles", type=int, default=1000)
    _add_out_flags(cla, formats=("csv",))
    cla.set_defaults(func=cmd_classify)

    dec = subs.add_parser("decompose", help="tape weights over sign patterns")
    dec.add_argument("--initial", required=True, help=_INITIAL_HELP)
    dec.add_argument("--tape-size", type=int, required=True)
    _add_out_flags(dec, formats=("csv",))
    dec.set_defaults(func=cmd_decompose)

    spec = subs.add_parser("spectrum", help="magnitude spectrum of a "
                           "trajectory")
    _add_machine_flags(spec, tape_size_required=False)
    spec.add_argument("--variant", choices=VARIANTS, default=VARIANT_X)
    spec.add_argument("--pattern",
                      help="use this +/- primitive instead of the full state")
    _add_out_flags(spec, formats=("csv",))
    spec.set_defaults(func=cmd_spectrum)

    inv = subs.add_parser("invariants", help="fit the invariant circle "
                          "family of a trajectory")
    _add_machine_flags(inv, steps=3000)
    inv.add_argument("--max-circles", type=int, default=None,
                     help="default 2**(M+1)")
    inv.add_argument("--out", default="-")
    inv.set_defaults(func=cmd_invariants)

    return parser


def _manifest(args, extra=None):
    cfg = {
        k: v for k, v in sorted(vars(args).items())
        if k not in ("func", "command") and not k.startswith("_")
    }
    manifest = {
        "command": " ".join(["qtm"] + (args._argv or [])),
        "config": cfg,
        "outputs": [] if args.out == "-" else [args.out],
        "tool_version": __version__,
    }
    if extra:
        manifest["config"].update(extra)
    return manifest


def _write_trajectory(args, traj):
    manifest = _manifest(args)
    if args.format == "csv":
        io.write_trajectory_csv(traj, args.out)
    elif args.format == "json":
        io.write_trajectory_json(traj, manifest, args.out)
        return
    else:
        io.write_trajectory_svg(traj, args.out)
    if args.out != "-":
        io.write_manifest(manifest, args.out)


def _machine_config(args, variant=VARIANT_X):
    return engine.MachineConfig.uniform(
        args.tape_size, args.alpha, phi0=args.phi0, variant=variant,
        initial=args.initial, steps=args.steps,
    )


def cmd_simulate(args):
    # the table holds modules, so run is looked up at call time and a
    # wrapper installed on engine.run or recursion.run sees the call
    path = {"statevector": engine, "recursion": recursion,
            "primitives": primitives}[args.engine]
    _write_trajectory(args, path.run(_machine_config(args, args.variant)))
    return 0


def cmd_primitives(args):
    traj = primitives.run_primitive(args.pattern, args.phi0, args.alpha,
                                    args.steps)
    _write_trajectory(args, traj)
    return 0


def _manifest_beside(args):
    """Exit code 0, after a manifest is written beside a file --out names."""
    if args.out != "-":
        io.write_manifest(_manifest(args), args.out)
    return 0


def _pattern(args):
    """--pattern normalized, refused if --tape-size gives another length."""
    pat = primitives.normalize_pattern(args.pattern)
    if args.tape_size is not None and len(pat) != args.tape_size:
        raise ConfigurationError("--pattern length disagrees with --tape-size")
    return pat


def cmd_classify(args):
    if args.pattern is not None:
        pat = _pattern(args)
        periods = {pat: primitives.detect_period_numeric(
            pat, args.phi0, args.alpha, args.max_cycles)}
    else:
        if args.tape_size is None:
            raise ConfigurationError("--all needs --tape-size")
        periods = primitives.period_census(
            args.tape_size, args.phi0, args.alpha, args.max_cycles)
    io.write_census(args.out, periods)
    return _manifest_beside(args)


def cmd_decompose(args):
    weights = primitives.decompose(
        normalize_tape_spec(args.initial, args.tape_size)
    )
    io.write_table(args.out, "pattern,weight", [weights],
                   primitives.all_patterns(args.tape_size))
    return _manifest_beside(args)


def cmd_spectrum(args):
    if args.pattern is not None:
        pat = _pattern(args)
        if args.variant != VARIANT_X or args.initial != "zeros":
            raise ConfigurationError(
                "--pattern runs the plain flip on the pattern itself, so it "
                "takes neither --variant iy nor --initial")
        traj = primitives.run_primitive(pat, args.phi0, args.alpha, args.steps)
    else:
        if args.tape_size is None:
            raise ConfigurationError("spectrum needs --pattern or --tape-size")
        traj = engine.run(_machine_config(args, args.variant))
    spec = analysis.spectrum(traj)
    io.write_table(args.out, "frequency,magnitude_y,magnitude_z",
                   [spec.frequencies, spec.magnitude_y, spec.magnitude_z])
    return _manifest_beside(args)


def cmd_invariants(args):
    traj = engine.run(_machine_config(args))
    max_circles = args.max_circles
    if max_circles is None:
        max_circles = 2 ** (args.tape_size + 1)
    circles = analysis.fit_invariant_circles(traj, max_circles)
    payload = {
        "manifest": _manifest(args, {"max_circles": max_circles}),
        "radius": circles.radius,
        "centers": circles.centers.tolist(),
        "residual": circles.residual,
        "num_circles": len(circles),
        "residues": circles.residues,
    }
    io.write_json(payload, args.out)
    return 0


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse of Python 3.10 to 3.12 (3.13 no longer) reads the value of
    # --flag=-- as its end-of-options marker and hands over [] for it; no
    # flag takes a list
    for name, value in vars(args).items():
        if value == []:
            if name not in ("pattern", "initial", "out"):
                parser.error(f"argument --{name.replace('_', '-')}: "
                             "expected one argument")
            setattr(args, name, "--")
    args._argv = list(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"qtm: error: {exc}", file=sys.stderr)
        return 2
    except (NumericalValidationError, CircleFitError) as exc:
        print(f"qtm: numeric validation failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
