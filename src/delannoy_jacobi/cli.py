"""Command-line interface: compute sequences and polynomials, run identity
checks.

Exit codes are the machine contract: 0 success, 1 computation error
(invalid index or input, unreadable config file or report), 2 usage error
or unknown identity id, 3 verification failure.

An optional key=value config file (delannoy-jacobi.conf in the working
directory, or the path in DJ_CONFIG) supplies the index clamp and the
weight grid; command-line flags override it.
"""

import argparse
import csv
import io
import json
import os
import re
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import families
from . import identities
from . import paths as lp
from .render import TooManyDigits, format_poly, parse_integer, parse_rational, quoted

CONFIG_FILENAME = "delannoy-jacobi.conf"
CONFIG_ENV_VAR = "DJ_CONFIG"
CONFIG_KEYS = ("max_n", "weight_grid")
CONFIG_MAX_BYTES = 64 * 1024

POLY_FAMILIES = {
    "jacobi": lambda n, a, b: families.jacobi(n, a, b),
    "shifted-jacobi": lambda n, a, b: families.shifted_jacobi(n, a, b),
    "romanovski": lambda n, a, b: families.romanovski(n, a, b),
    "legendre": lambda n, a, b: families.legendre(n),
    "shifted-legendre": lambda n, a, b: families.shifted_legendre(n),
    "laguerre": lambda n, a, b: families.laguerre(n),
    "laguerre-gen": lambda n, a, b: families.laguerre_gen(n, b),
    "narayana": lambda n, a, b: families.narayana(n),
    "schroder": lambda n, a, b: families.schroder_poly(n),
}

SEQUENCES = ("central-delannoy", "schroder", "delannoy-row")
WEIGHT_FLAGS = ("--u", "--v", "--w")
NEGATIVE_LITERAL = re.compile(r"-\d")

EPILOG = """\
formats:
  text   human-readable values (default)
  json   one JSON object on stdout
  csv    header row then data rows; columns are
           delannoy:  m,n,u,v,w,value
           schroder:  n,u,v,w,value
           poly:      power,coefficient   (ascending powers)
           sequence:  index,value

integer flags take ASCII digits with an optional leading "-"; rational
flags (--u/--v/--w) take integers or p/q literals; decimals are not
accepted.

config file: key=value lines (keys: max_n as a nonnegative integer,
weight_grid as comma-separated nonzero rationals), at most 64 KiB, read
from ./delannoy-jacobi.conf or the path in DJ_CONFIG; flags override the
file.

exit codes: 0 success; 1 computation error; 2 usage error or unknown
identity; 3 verification failure.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delannoy-jacobi",
        description="Exact lattice-path polynomial computations and identity checks",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute numbers, polynomials, sequences")
    csub = compute.add_subparsers(dest="what", required=True)

    pd = csub.add_parser("delannoy", help="weighted Delannoy total at (m, n)")
    pd.add_argument("--m", type=_int_flag, required=True)
    pd.add_argument("--n", type=_int_flag, required=True)
    _add_weight_flags(pd)
    _add_format_flag(pd)

    ps = csub.add_parser("schroder", help="weighted Schroeder total at (n, n)")
    ps.add_argument("--n", type=_int_flag, required=True)
    _add_weight_flags(ps)
    _add_format_flag(ps)

    pp = csub.add_parser("poly", help="print one member of a polynomial family")
    pp.add_argument("--family", choices=sorted(POLY_FAMILIES), required=True)
    pp.add_argument("--n", type=_int_flag, required=True)
    pp.add_argument("--alpha", type=_int_flag, default=0)
    pp.add_argument("--beta", type=_int_flag, default=0)
    _add_format_flag(pp)

    pq = csub.add_parser("sequence", help="print an integer sequence table")
    pq.add_argument("--name", choices=SEQUENCES, required=True)
    pq.add_argument("--count", type=_int_flag, required=True)
    pq.add_argument("--m", type=_int_flag, help="row index (delannoy-row only)")
    _add_format_flag(pq)

    verify = sub.add_parser("verify", help="run identity checks")
    group = verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--id", help="registry id of one identity")
    group.add_argument("--all", action="store_true", help="run the whole registry")
    verify.add_argument("--max-n", type=_nonnegative_int,
                        help="cap the index grids; bneg-symmetry, bneg-table1, borth2 and "
                             "romanovski-orth keep their fixed grids")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", help="write the JSON report to this file")
    return parser


def _add_weight_flags(parser: argparse.ArgumentParser) -> None:
    for flag in WEIGHT_FLAGS:
        parser.add_argument(
            flag, type=_rational_flag, default=Fraction(1),
            help=f"{flag[2:]} step weight, integer or p/q (default 1)",
        )


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")


def _rational_flag(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_flag(text: str) -> int:
    try:
        return parse_integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _nonnegative_int(text: str) -> int:
    value = _int_flag(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {quoted(text)}")
    return value


def load_config_file() -> dict:
    """Read the optional key=value config; missing file means empty config."""
    path = os.environ.get(CONFIG_ENV_VAR) or CONFIG_FILENAME
    if not os.path.exists(path):
        return {}
    try:
        return _parse_config(path)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_config(path: str) -> dict:
    values: dict = {}
    with open(path, "rb") as handle:
        # One read past the limit tells an oversize file (or /dev/zero) from
        # one that fits, without holding more than the limit in memory.
        data = handle.read(CONFIG_MAX_BYTES + 1)
        if len(data) > CONFIG_MAX_BYTES:
            raise ValueError(f"{path}: larger than {CONFIG_MAX_BYTES} bytes")
        # Lines end at \n, \r\n or \r, as in a text-mode read.
        lines = io.StringIO(data.decode("utf-8"), newline=None)
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {quoted(raw)}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key {quoted(key)}")
            if key == "weight_grid":
                try:
                    setting = tuple(
                        parse_rational(part) for part in value.split(",") if part.strip()
                    )
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: weight_grid: {exc}") from None
            else:
                try:
                    setting = parse_integer(value)
                except TooManyDigits as exc:
                    raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: {key} must be an integer, got {quoted(value)}"
                    ) from None
            # SuiteConfig is the one check of what a setting may be.
            try:
                identities.SuiteConfig(**{key: setting})
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            values[key] = setting
    return values


def make_suite_config(args) -> identities.SuiteConfig:
    settings = load_config_file()
    if getattr(args, "max_n", None) is not None:
        settings["max_n"] = args.max_n
    return identities.SuiteConfig(**settings)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_weights(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "compute":
            return _run_compute(args)
        return _run_verify(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the config file or the --out report
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


def _attach_negative_weights(argv: list[str]) -> list[str]:
    """Join "--v -1/3" into "--v=-1/3".

    argparse takes a separate token that starts with "-" for an option
    unless it looks like a negative integer or decimal, so a negative p/q
    weight is only read in the joined form.
    """
    out: list[str] = []
    for token in argv:
        if out and out[-1] in WEIGHT_FLAGS and NEGATIVE_LITERAL.match(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _run_compute(args) -> int:
    if args.what in ("delannoy", "schroder"):
        if args.what == "delannoy":
            index = {"m": args.m, "n": args.n}
            total = lp.delannoy_sum(args.m, args.n, args.u, args.v, args.w)
        else:
            index, total = {"n": args.n}, lp.schroder_sum(args.n, args.u, args.v, args.w)
        record = {**index, "u": str(args.u), "v": str(args.v), "w": str(args.w)}
        _emit(args.format, lambda: str(total), lambda: {**record, "value": str(total)},
              (*record, "value"), lambda: [[*record.values(), str(total)]])
    elif args.what == "poly":
        poly = POLY_FAMILIES[args.family](args.n, args.alpha, args.beta)
        fields = {"family": args.family, "n": args.n, "alpha": args.alpha, "beta": args.beta}
        _emit(args.format, lambda: format_poly(poly),
              lambda: {**fields, "coefficients": list(map(str, poly.coeffs)),
                       "text": format_poly(poly)},
              ("power", "coefficient"), lambda: enumerate(map(str, poly.coeffs)))
    else:
        values = _sequence_values(args)
        _emit(args.format, lambda: ", ".join(map(str, values)),
              lambda: {"name": args.name, "values": list(map(str, values))},
              ("index", "value"), lambda: enumerate(values))
    return 0


def _sequence_values(args) -> list[int]:
    if args.count < 0:
        raise ValueError("--count must be nonnegative")
    if args.name == "central-delannoy":
        return lp.central_delannoy(args.count)
    if args.name == "schroder":
        return lp.schroder_numbers(args.count)
    if args.m is None:
        raise ValueError("sequence delannoy-row requires --m")
    return lp.delannoy_row(args.m, args.count)


def _emit(fmt: str, text, record, header: tuple, rows) -> None:
    """Print one compute result as a text line, one JSON object, or a CSV
    header and rows.

    text, record and rows are called only for their own format, so each
    format builds only what it prints (csv never renders a polynomial).
    Every number becomes text here, before anything is printed.
    """
    try:
        if fmt == "text":
            out = text() + "\n"
        elif fmt == "json":
            out = json.dumps(record()) + "\n"
        else:
            buffer = io.StringIO()
            writer = csv.writer(buffer)
            writer.writerow(header)
            writer.writerows(rows())
            out = buffer.getvalue()
    except ValueError:
        # The one ValueError of int-to-text conversion: a value past the
        # interpreter's digit limit.
        raise ValueError(
            "the value has more digits than the interpreter converts to text "
            f"(limit: {sys.get_int_max_str_digits()} digits)"
        ) from None
    sys.stdout.write(out)


def _run_verify(args) -> int:
    config = make_suite_config(args)
    if not args.all:
        try:
            identities.lookup(args.id)
        except identities.UnknownIdentity as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    # The report is opened before any entry runs, so an unwritable --out
    # path fails at once instead of after the whole run.
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext() as handle:
        if args.all:
            reports = identities.run_all(config)
        else:
            reports = [identities.run_identity(args.id, config)]
        payload = [r.to_dict() for r in reports]
        if handle is not None:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for report in reports:
            line = (
                f"{report.status.upper():4s} {report.id:26s} "
                f"cases={report.cases_run:<6d} {report.millis}ms"
            )
            print(line)
            if report.counterexample is not None:
                print(f"     counterexample: {report.counterexample}")
            if report.notes:
                print(f"     note: {report.notes}")
        failed = sum(1 for r in reports if r.status == "fail")
        print(f"{len(reports)} identities: {len(reports) - failed} passed, {failed} failed")
    return 3 if any(r.status == "fail" for r in reports) else 0


if __name__ == "__main__":
    entrypoint()
