"""Command-line interface.

Angles cross this boundary as theta/pi; outputs are byte-stable for a
fixed configuration and embed the fully-resolved config (defaults
included) plus the tool version.  Errors go to stderr as one-line JSON
{"code", "message"}; exit status is 0 on success, 1 for usage problems,
2 for computational failures such as exceeding the exact-backend size.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__, families
from .codes import (InvalidCodeError, build_code, family_rotated_surface,
                    family_x_shor, family_z_shor, family_z_stacked,
                    load_coloring, random_coloring, save_coloring, validate)
from .decoder import build_matching_graph, decode_mwpm
from .exact import (MIN_WEIGHT, ML, TooLargeError, check_budget, check_qubits,
                    get_backend)
from .experiments import (AnalyticFamilySource, CodeSource, find_crossings,
                          interpolation_curve, read_csv, read_csv_config,
                          source_for_rows, sweep, table_to_json, write_csv)
from .ptm import kappa, r1

_FAMILY_ALIASES = {family.alias: family for family in families.FAMILIES.values()}

# Most points an A:B:STEP grid may hold; a larger one is refused (exit 2)
# before its list is built.  Each point is at least one channel per distance.
MAX_THETAS = 100_000
# Bytes ``code gen`` holds per cell of the grid (tracemalloc, 16.1 at
# 1001x1001 and 2001x2001 for every family): the coloring's cell tuples,
# then the lists its file is written from.
_GEN_CELL_BYTES = 17
# Bytes a built code holds per qubit besides its masks' digits, and whatever
# its size; bytes a matching-graph key holds besides its digits: an int
# object and two pointers, 44 to 48 bytes by tracemalloc.
_CODE_QUBIT_BYTES = 400
_CODE_FIXED_BYTES = 20 << 10
_GRAPH_KEY_BYTES = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_thetas(text: str) -> list[float]:
    try:
        parts = [float(x) for x in text.split(":")]
    except ValueError as exc:
        raise UsageError(f"bad --thetas {text!r}: {exc}") from exc
    if len(parts) != 3:
        raise UsageError("--thetas expects A:B:STEP in units of pi")
    a, b, step = parts
    if not all(math.isfinite(x) for x in parts):
        raise UsageError("--thetas needs finite A, B and STEP")
    if step <= 0 or b < a:
        raise UsageError("--thetas needs STEP > 0 and B >= A")
    span = (b - a) / step  # inf when b - a overflows
    count = round(span) + 1 if math.isfinite(span) else math.inf
    if count > MAX_THETAS:
        raise TooLargeError(f"--thetas {text} makes {count} points, over the limit of "
                            f"{MAX_THETAS}")
    # a span that is not a whole number of steps may round up past B, which
    # is rounded as the points are: a one-point grid keeps its point
    top = round(b, 10)
    return [t for t in (round(a + k * step, 10) for k in range(count)) if t <= top]


def _int_at_least(low: int):
    """argparse type of a count that must be at least ``low``."""
    def parse(text) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


positive_int = _int_at_least(1)


def _parse_list(text: str, flag: str, kind=positive_int) -> list:
    """The comma-separated values of ``flag``, each parsed by ``kind``; a
    value that does not parse or repeats is a usage error."""
    values = []
    for item in text.split(","):
        if item == "":
            continue
        try:
            value = kind(item)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"bad {flag} value {item!r}: {exc}") from exc
        if value in values:
            raise UsageError(f"{flag} repeats the value {item!r}")
        values.append(value)
    return values


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required here")


# The family flags and their types.  Each family command declares some on
# its parser (``_add_family_flags``); ``_family_flags`` checks them.
_FAMILY_FLAGS = {"l": int, "dx": int, "dz": int, "h": int, "q_shor": float, "seed": int}


def _add_family_flags(p, *names):
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=_FAMILY_FLAGS[name])


def _family_flags(args, taken):
    """Require each flag of ``taken``, those ``--family`` takes, and refuse
    every other family flag of the command set off its parser default, so
    that no output's config carries a flag unused."""
    _require(args, *taken)
    for name in _FAMILY_FLAGS:
        if name not in taken and getattr(args, name, None) != args.parser.get_default(name):
            raise UsageError(f"--family {args.family} takes no --{name.replace('_', '-')}")


def _config_dict(args, command: str) -> dict:
    skip = {"func", "parser", "config", "command", "subcommand"}
    return {"command": command, "version": __version__,
            **{key: value for key, value in sorted(vars(args).items()) if key not in skip}}


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _write_table(table, args, config: dict) -> None:
    if args.format == "json":
        with open(args.out, "w") as fh:
            fh.write(table_to_json(table, config) + "\n")
    else:
        write_csv(table, args.out, config)


# ---------------------------------------------------------------------------
# Subcommands

# --family of ``code gen`` -> (flags it takes, builder); a family that
# takes no --dz is square.  The builders look the family functions up as
# module globals at call time, so a wrapper set on this module sees them.
_GEN_FAMILIES = {
    "zshor": (("dx", "dz"), lambda a: family_z_shor(a.dx, a.dz)),
    "xshor": (("dx", "dz"), lambda a: family_x_shor(a.dx, a.dz)),
    "rsc": (("dx",), lambda a: family_rotated_surface(a.dx)),
    "zstacked": (("dx", "h"), lambda a: family_z_stacked(a.dx, a.h)),
    "random": (("dx", "dz", "q_shor", "seed"),
               lambda a: random_coloring(a.dx, a.dz, a.q_shor, a.seed)),
}


def _cmd_code_gen(args):
    """Write a family's coloring; its (d_x - 1)(d_z - 1) cells, at
    ``_GEN_CELL_BYTES`` each, are checked against the budget before the
    family is built."""
    _require(args, "out", "family")
    flags, build = _GEN_FAMILIES[args.family]
    _family_flags(args, flags)
    d_z = args.dz if "dz" in flags else args.dx
    cells = max(args.dx - 1, 0) * max(d_z - 1, 0)
    check_budget(cells * _GEN_CELL_BYTES, f"a {args.dx}x{d_z} grid's {cells} cells hold",
                 f" ({_GEN_CELL_BYTES} a cell)")
    save_coloring(build(args), args.out, meta=_config_dict(args, "code gen"))
    return 0


def _check_code_bytes(coloring, keys: bool) -> None:
    """Refuse a code whose build, and with ``keys`` its matching graph,
    would hold more than the budget.

    The code holds one mask of at most n bits per qubit (n - 1 stabilizers
    and two logicals), 4 bytes per 30 bits, plus ``_CODE_QUBIT_BYTES`` a
    qubit and ``_CODE_FIXED_BYTES``; the graph holds r x r keys of at most
    n + bitlen(n) bits, each its digits plus ``_GRAPH_KEY_BYTES``.  Over
    eight families, the estimate is 1.07 to 2.1 times the tracemalloc peak
    of ``code validate`` at d = 3 to 61 and 1.1 to 4.1 times that of
    ``decode`` (1.03 times at RSC 61, which peaks at 1.9 GB and is refused).
    Z-Shor 501x501 would hold 8.5 GB.
    """
    n, r = coloring.n, coloring.num_x_checks
    per_qubit = 4 * -(-n // 30) + _CODE_QUBIT_BYTES
    held = n * per_qubit + _CODE_FIXED_BYTES
    if not keys:
        check_budget(held, f"a code of n={n} qubits holds", f" ({per_qubit} a qubit)")
        return
    per_key = 4 * -(-(n + n.bit_length()) // 30) + _GRAPH_KEY_BYTES
    check_budget(held + r * r * per_key,
                 f"a code of n={n} qubits and its {r}x{r} matching keys hold",
                 f" ({per_qubit} a qubit, {per_key} a key)")


def _cmd_code_validate(args):
    """Report a code file's structural checks; the code's bytes are checked
    against the budget (``_check_code_bytes``) before it is built."""
    coloring = load_coloring(args.file)
    _check_code_bytes(coloring, keys=False)
    code = build_code(coloring)
    report = validate(code)
    _print_json({
        "config": _config_dict(args, "code validate"),
        "passed": report.passed,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in report.checks],
        "n": code.n,
        "num_stabilizers": len(code.x_stabilizers) + len(code.z_stabilizers)})
    return 0


def _cmd_decode(args):
    """Decode one syndrome; the code and its matching graph are checked
    against the budget before either is built."""
    _require(args, "code", "syndrome")
    coloring = load_coloring(args.code)
    _check_code_bytes(coloring, keys=True)
    corr = decode_mwpm(build_matching_graph(build_code(coloring)), args.syndrome)
    print(corr.to_bits())
    return 0


def _cmd_channel_exact(args):
    _require(args, "code", "theta_over_pi")
    coloring = load_coloring(args.code)
    check_qubits(coloring.n, f", r={coloring.num_x_checks}")  # before a long build
    backend = get_backend(build_code(coloring))
    theta = args.theta_over_pi * math.pi
    dist = backend.distribution(theta, args.recovery)
    ch = dist.channel()
    if args.dump_distribution:
        # json.dump(..., indent=2) bytes of the syndromes of nonzero p, one
        # entry at a time, each block's p and theta_s gathered from its
        # classes: the values are finite floats, which json writes as repr
        # does.  Character k of a syndrome is check k; a leading 1 (2**r,
        # the entry count) keeps all r bits
        top, sep = len(dist), "[\n"
        with open(args.dump_distribution, "w") as fh:
            for start in range(0, len(dist), 1 << 16):
                block = slice(start, start + (1 << 16))
                p, theta_s = (dist.gather(values, block).tolist()
                              for values in (dist.column_p, dist.column_theta_s))
                for s, p_s, t_s in zip(range(start, start + len(p)), p, theta_s):
                    if p_s == 0.0:
                        continue
                    fh.write(f'{sep}  {{\n    "syndrome": "{format(s | top, "b")[:0:-1]}",\n'
                             f'    "p": {p_s!r},\n    "theta_s": {t_s!r}\n  }}')
                    sep = ",\n"
            fh.write("\n]\n")
    _print_json({"epsilon": ch.epsilon, "delta": ch.delta, "kappa": kappa(ch),
                 "r1": r1(ch), "config": _config_dict(args, "channel exact")})
    return 0


def _analytic_family(args) -> families.Family:
    family = _FAMILY_ALIASES[args.family]
    if args.recovery == ML and not family.has_ml:
        raise UsageError(f"--family {args.family} has no ML form; "
                         "use --recovery minweight")
    return family


def _cmd_channel_analytic(args):
    _require(args, "family", "theta_over_pi")
    family = _analytic_family(args)
    flags = [name.replace("_", "") for name in family.params]
    _family_flags(args, flags)
    ch = family.channel(*(getattr(args, flag) for flag in flags),
                        args.theta_over_pi * math.pi, args.recovery)
    _print_json({"epsilon": ch.epsilon, "delta": ch.delta, "kappa": kappa(ch),
                 "r1": r1(ch), "config": _config_dict(args, "channel analytic")})
    return 0


def _cmd_sweep(args):
    _require(args, "family", "thetas", "distances", "out")
    _family_flags(args, ("h",) if args.family == "zstacked" else ())
    if args.family == "rsc":
        source = CodeSource("rsc", lambda l: build_code(family_rotated_surface(l)), args.recovery)
    else:
        source = AnalyticFamilySource(_analytic_family(args).kind, args.recovery, args.h)
    table = sweep(source, _parse_thetas(args.thetas), _parse_list(args.distances, "--distances"))
    _write_table(table, args, _config_dict(args, "sweep"))
    return 0


def _cmd_threshold(args):
    _require(args, "in_path")
    table = read_csv(args.in_path)
    recovery = read_csv_config(args.in_path).get("recovery", MIN_WEIGHT)
    estimate = find_crossings(table, args.metric,
                              source=source_for_rows(table, recovery))
    _print_json({
        "config": _config_dict(args, "threshold"),
        "metric": estimate.metric,
        "lower_over_pi": estimate.lower_over_pi,
        "upper_over_pi": estimate.upper_over_pi,
        "one_sided": estimate.one_sided,
        "crossings": [{"d_low": c.d_low, "d_high": c.d_high,
                       "lo_over_pi": c.lo_over_pi, "hi_over_pi": c.hi_over_pi}
                      for c in estimate.crossings]})
    return 0


def _cmd_interpolate(args):
    _require(args, "q_shors", "d", "out")
    table, estimates = interpolation_curve(
        _parse_list(args.d, "--d"),
        _parse_list(args.q_shors, "--q-shors", float),
        _parse_thetas(args.thetas), args.codes, args.seed,
        args.recovery, args.samples, args.jobs)
    config = _config_dict(args, "interpolate")
    _write_table(table, args, config)
    _print_json({
        "config": config,
        "estimates": {str(q): {"lower_over_pi": e.lower_over_pi,
                               "upper_over_pi": e.upper_over_pi,
                               "one_sided": e.one_sided}
                      for q, e in estimates.items()}})
    return 0


# ---------------------------------------------------------------------------
# Parser assembly

@functools.cache
def _build_parser() -> _Parser:
    """The parser tree, built on the first call and shared by every later
    one in the process; nothing changes it after the build."""
    parser = _Parser(prog="compasscoh", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.set_defaults(parser=p)
        p.add_argument("--config", help="JSON file supplying default flag values")
        p.add_argument("--jobs", type=positive_int,
                       help="worker processes for ensembles, default none: run "
                            "in-process (results are identical for any value)")

    code = sub.add_parser("code", help="generate and validate code files")
    code_sub = code.add_subparsers(dest="subcommand", required=True)
    gen = code_sub.add_parser("gen")
    common(gen)
    gen.add_argument("--family", choices=list(_GEN_FAMILIES))
    _add_family_flags(gen, "dx", "dz", "h", "q_shor", "seed")
    gen.add_argument("--out")
    gen.set_defaults(func=_cmd_code_gen, seed=0)
    val = code_sub.add_parser("validate")
    common(val)
    val.add_argument("file")
    val.set_defaults(func=_cmd_code_validate)

    dec = sub.add_parser("decode", help="minimum-weight decode one syndrome")
    common(dec)
    dec.add_argument("--code")
    dec.add_argument("--syndrome", help="bit string, X check 0 first")
    dec.set_defaults(func=_cmd_decode)

    chan = sub.add_parser("channel", help="logical channel parameters")
    chan_sub = chan.add_subparsers(dest="subcommand", required=True)
    cex = chan_sub.add_parser("exact")
    common(cex)
    cex.add_argument("--code")
    cex.add_argument("--theta-over-pi", dest="theta_over_pi", type=float)
    cex.add_argument("--recovery", choices=["minweight", "ml"], default=MIN_WEIGHT)
    cex.add_argument("--dump-distribution", dest="dump_distribution")
    cex.set_defaults(func=_cmd_channel_exact)
    can = chan_sub.add_parser("analytic")
    common(can)
    can.add_argument("--family", choices=list(_FAMILY_ALIASES))
    _add_family_flags(can, "l", "dx", "dz", "h")
    can.add_argument("--theta-over-pi", dest="theta_over_pi", type=float)
    can.add_argument("--recovery", choices=["minweight", "ml"], default=MIN_WEIGHT)
    can.set_defaults(func=_cmd_channel_analytic)

    sw = sub.add_parser("sweep", help="grid a family over (distance, theta)")
    common(sw)
    sw.add_argument("--family", choices=[*_FAMILY_ALIASES, "rsc"])
    _add_family_flags(sw, "h")
    sw.add_argument("--recovery", choices=["minweight", "ml"], default=MIN_WEIGHT)
    sw.add_argument("--thetas", help="A:B:STEP in units of pi")
    sw.add_argument("--distances", help="comma-separated distances")
    sw.add_argument("--out")
    sw.add_argument("--format", choices=["csv", "json"], default="csv")
    sw.set_defaults(func=_cmd_sweep)

    th = sub.add_parser("threshold", help="crossing bounds from a sweep file")
    common(th)
    th.add_argument("--in", dest="in_path")
    th.add_argument("--metric", choices=["r1", "diamond"], default="r1")
    th.set_defaults(func=_cmd_threshold)

    ip = sub.add_parser("interpolate",
                        help="random-code ensembles across q_shor densities")
    common(ip)
    ip.add_argument("--q-shors", dest="q_shors")
    ip.add_argument("--d", help="comma-separated distances (exact backend sizes)")
    ip.add_argument("--codes", type=positive_int, default=200)
    ip.add_argument("--samples", type=_int_at_least(2), default=200,
                    help="shots per code (a standard error needs two)")
    ip.add_argument("--seed", type=int, default=0)
    ip.add_argument("--thetas", default="0.05:0.45:0.05")
    ip.add_argument("--recovery", choices=["minweight", "ml"], default=MIN_WEIGHT)
    ip.add_argument("--out")
    ip.add_argument("--format", choices=["csv", "json"], default="csv")
    ip.set_defaults(func=_cmd_interpolate)
    return parser


def _parse_args(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``; a ``--config`` file's entries become flag tokens
    after the command words and the whole is parsed again, so each value
    gets its flag's command-line parse and every flag in ``argv`` wins.

    A key must name a flag of the command (no positional, nor ``func``);
    ``null`` adds no token, and any other value becomes ``--flag=value``.
    """
    args = parser.parse_args(argv)
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise UsageError("--config file must hold a JSON object")
        flags = {action.dest: action.option_strings[-1] for action in args.parser._actions
                 if action.option_strings and action.dest not in ("help", "config")}
        unknown = [key for key in config if key.replace("-", "_") not in flags]
        if unknown:
            raise UsageError(f"config key {unknown[0]!r} is not a flag of this command")
        # = lets a value start with -
        tokens = [f"{flags[key.replace('-', '_')]}={value}"
                  for key, value in config.items() if value is not None]
        at = 2 if "subcommand" in args else 1
        args = parser.parse_args(argv[:at] + tokens + argv[at:])
    return args


def _fail(exit_code: int, code: str, message: str) -> int:
    sys.stderr.write(json.dumps({"code": code, "message": message}) + "\n")
    return exit_code


def main(argv=None) -> int:
    """Run one command; the exit status is 0, 1 or 2 as the module says.

    The parser is built on the first call and kept for the process, so
    repeated calls skip the build; a ``--config`` file's values are parsed
    as their flags' command-line spelling, for its own call only.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(_build_parser(), argv)
        return args.func(args)
    except UsageError as exc:
        return _fail(1, "usage", str(exc))
    except FileNotFoundError as exc:
        return _fail(1, "missing-file", str(exc))
    except OSError as exc:
        return _fail(1, "os-error", str(exc))
    except (InvalidCodeError, json.JSONDecodeError) as exc:
        return _fail(1, "invalid-input", str(exc))
    except (TooLargeError, MemoryError) as exc:
        return _fail(2, "computational", str(exc))
    except ValueError as exc:
        return _fail(1, "invalid-value", str(exc))


if __name__ == "__main__":
    sys.exit(main())
