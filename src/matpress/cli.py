"""File-driven command line for the certified bracket computations.

Input measures are JSON documents::

    {"d": 2,
     "atoms": [{"weight": 1.0, "matrix": [[0.5, 0.0], [0.0, 0.5]]},
               {"matrix": [[0.25, 0.0], [0.0, 0.5]]}]}

``weight`` defaults to 1.0.  Exponents on the command line accept plain
decimals and exact rationals written "3/2" or "1+1/2" (exact rationals
unlock the lift route for d >= 3 singular-value pressure).

Exit codes: 0 when every requested bracket is certified (or provably
minus infinity), 2 on honest budget exhaustion (a report is still
emitted; rerun with a larger budget), 1 on invalid input.

Every command prints one report of its result record (pressure's
PressureBracket) in one layout: its ends as "bracket", then its other
fields.  The scan's record is its JSR bracket, beside a "points" list of
one such record per exponent; as text, those points come first as CSV
rows.  JSON output carries full double precision; infinities are encoded
as the strings "inf"/"-inf" to stay within strict JSON.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict
from fractions import Fraction

from .errors import InvalidInputError
from .measure import FiniteMatrixMeasure, WordBudget

__all__ = ["parse_input", "emit_input", "parse_exponent", "main"]


def parse_exponent(text):
    """Parse '2', '1.5', '3/2', or '1+1/2'; Fraction when exact, else float."""
    t = str(text).strip()
    if not t:
        raise InvalidInputError("empty exponent")
    try:
        if "/" in t:
            return sum(Fraction(part.strip()) for part in t.split("+"))
        try:
            return Fraction(int(t))
        except ValueError:
            return float(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"cannot parse exponent {text!r}: {exc}") from exc


def _check_number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"{where}: expected a number, got {value!r}")
    return float(value)


def parse_input(path):
    """Load a measure from a JSON document; errors carry field context."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{path}: top level must be an object")
    if "d" not in doc:
        raise InvalidInputError(f"{path}: missing field 'd'")
    d = doc["d"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise InvalidInputError(f"{path}: 'd' must be a positive integer, got {d!r}")
    atoms_doc = doc.get("atoms")
    if not isinstance(atoms_doc, list) or not atoms_doc:
        raise InvalidInputError(f"{path}: 'atoms' must be a non-empty list")
    atoms = []
    for i, entry in enumerate(atoms_doc):
        where = f"{path}: atom {i}"
        if not isinstance(entry, dict):
            raise InvalidInputError(f"{where}: expected an object")
        weight = _check_number(entry.get("weight", 1.0), f"{where}: weight")
        if not (weight > 0.0 and math.isfinite(weight)):
            raise InvalidInputError(
                f"{where}: weight must be positive and finite, got {weight}"
            )
        rows = entry.get("matrix")
        if not isinstance(rows, list) or len(rows) != d:
            got = len(rows) if isinstance(rows, list) else type(rows).__name__
            raise InvalidInputError(f"{where}: matrix must have {d} rows, got {got}")
        matrix = []
        for j, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != d:
                got = len(row) if isinstance(row, list) else type(row).__name__
                raise InvalidInputError(
                    f"{where}: matrix row {j} must have {d} entries, got {got}"
                )
            matrix.append(
                [_check_number(x, f"{where}: matrix[{j}][{k}]") for k, x in enumerate(row)]
            )
        atoms.append((weight, matrix))
    try:
        return FiniteMatrixMeasure(atoms)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def emit_input(mu):
    """Measure back to its JSON document form; round-trips bit-exactly."""
    return json.dumps(
        {
            "d": mu.dimension,
            "atoms": [
                {"weight": float(w), "matrix": [[float(x) for x in row] for row in m]}
                for w, m in mu.atoms
            ],
        },
        indent=2,
    )


def _json_ready(value):
    if isinstance(value, float):
        if value == math.inf:
            return "inf"
        if value == -math.inf:
            return "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _fmt(x):
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return repr(float(x))


def _budget(args):
    return WordBudget(
        max_word_length=args.max_n,
        max_words=args.max_words,
        wall_clock_cap=args.time_limit,
    )


def _echo(args, mu):
    return {
        "path": args.input,
        "d": mu.dimension,
        "n_atoms": mu.n_atoms,
        "total_mass": mu.total_mass,
        "budget": {
            "max_word_length": args.max_n,
            "max_words": args.max_words,
            "wall_clock_cap": args.time_limit,
        },
        "workers": args.workers,
    }


_EXIT_OK = {"certified", "minus_infinity"}


def _fields(rec):
    # every field of a PressureBracket, its ends as one "bracket" object
    fields = asdict(rec)
    return {"bracket": {"lower": fields.pop("lower"), "upper": fields.pop("upper")}, **fields}


def _report(command, args, mu, params, rec, out, points=()):
    """Print the report of one record in ``args.format``; returns the exit
    code: 0 when every bracket is certified or minus infinity, else 2.

    The scan passes its (s, record) points as well, and its JSR bracket as
    ``rec``; its exit code follows the points alone.
    """
    report = {"command": command, "input": _echo(args, mu), "parameters": params,
              **_fields(rec), "points": [{"s": s, **_fields(p)} for s, p in points]}
    if args.format == "json":
        print(json.dumps(_json_ready(report), indent=2), file=out)
    else:
        _print_text(report, out)
    records = [p for _, p in points] or [rec]
    return 0 if all(r.status in _EXIT_OK for r in records) else 2


def _print_text(report, out):
    """The report as lines of text.  A scan prints its points first as CSV
    rows, each M bracket with its exp(x/s) image, and the rest as comment
    lines below them."""
    p = report["parameters"]
    pieces = ", ".join(f"{k} = {v}" for k, v in p.items() if v is not None)
    lo, up = report["bracket"]["lower"], report["bracket"]["upper"]
    width = up - lo if math.isfinite(up) and math.isfinite(lo) else math.inf
    lines = [
        f"command: {report['command']}",
        f"input: {report['input']['path']} "
        f"(d={report['input']['d']}, {report['input']['n_atoms']} atoms)",
        *([pieces] if pieces else []),
        f"{'jsr bracket' if report['points'] else 'bracket'}: [{_fmt(lo)}, {_fmt(up)}]"
        f"  (width {_fmt(width)})",
        f"status: {report['status']}  (n = {report['n_used']}, steps = {report['steps']}, "
        f"words = {report['words_evaluated']}, {report['wall_time']:.3f} s)",
        f"provenance: {report['provenance']}",
    ]
    if report["points"]:
        from .pressure import _exp_end

        print("s,m_lower,m_upper,radius_lower,radius_upper,status", file=out)
        for pt in report["points"]:
            s, m_lo, m_up = pt["s"], pt["bracket"]["lower"], pt["bracket"]["upper"]
            print(f"{_fmt(s)},{_fmt(m_lo)},{_fmt(m_up)},{_fmt(_exp_end(m_lo / s, False))},"
                  f"{_fmt(_exp_end(m_up / s, True))},{pt['status']}", file=out)
        lines = [f"# {line}" for line in lines]
    print("\n".join(lines), file=out)


def _cmd_pressure(args, out):
    from . import pressure

    mu, s = parse_input(args.input), parse_exponent(args.s)
    br = pressure.bracket(mu, float(s), args.eps, budget=_budget(args), workers=args.workers)
    return _report("pressure", args, mu, {"s": str(s), "eps": args.eps}, br, out)


def _cmd_pradius(args, out):
    from . import pressure

    mu, p = parse_input(args.input), parse_exponent(args.p)
    br = pressure.p_radius_bracket(
        mu, float(p), args.eps, budget=_budget(args), workers=args.workers)
    return _report("pradius", args, mu, {"p": str(p), "eps": args.eps}, br, out)


def _cmd_svpressure(args, out):
    from . import svpressure

    mu, s = parse_input(args.input), parse_exponent(args.s)
    br = svpressure.bracket(mu, s, args.eps, budget=_budget(args), workers=args.workers)
    return _report("svpressure", args, mu, {"s": str(s), "eps": args.eps}, br, out)


def _cmd_affdim(args, out):
    from . import affinity

    mu = parse_input(args.input)
    res = affinity.affinity_dimension(mu, args.eps, budget=_budget(args), workers=args.workers)
    return _report("affdim", args, mu, {"eps": args.eps}, res, out)


def _cmd_jsr(args, out):
    from . import jsr

    mu = parse_input(args.input)
    br = jsr.jsr_bracket(mu, eps=args.eps, budget=_budget(args),
                         use_spectral_floor=not args.no_spectral_floor, workers=args.workers)
    return _report("jsr", args, mu, {"eps": args.eps}, br, out)


def _cmd_scan(args, out):
    from . import jsr

    mu = parse_input(args.input)
    s_list = [float(parse_exponent(part)) for part in args.s.split(",") if part.strip()]
    points, support = jsr.zero_temperature_scan(
        mu, s_list, eps=args.eps, budget=_budget(args), workers=args.workers)
    return _report("scan", args, mu, {"s": s_list, "eps": args.eps}, support, out, points)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matpress",
        description="Certified brackets for matrix power-sum growth rates: "
        "norm pressure, p-radius, singular-value pressure, affinity "
        "dimension, and the joint spectral radius.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, eps_default=0.5):
        p.add_argument("input", help="path to a JSON measure document")
        eps_help = ("target bracket width (default: only exact coincidence certifies)"
                    if eps_default is None
                    else f"target bracket width (default {eps_default})")
        p.add_argument("--eps", type=float, default=eps_default, help=eps_help)
        p.add_argument("--max-n", type=int, default=64,
                       help="longest word length to enumerate (default 64)")
        p.add_argument("--max-words", type=int, default=10_000_000,
                       help="nominal word cap per power-sum evaluation (default 1e7)")
        p.add_argument("--time-limit", type=float, default=600.0,
                       help="wall-clock cap in seconds (default 600)")
        p.add_argument("--workers", type=int, default=None,
                       help="processes for long word lengths (default: the CPUs "
                       "this process may use; 1 runs serially)")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("pressure", help="norm pressure M(mu,s) bracket")
    common(p)
    p.add_argument("--s", required=True, help="exponent (decimal or 'k+p/q')")
    p.set_defaults(func=_cmd_pressure)

    p = sub.add_parser("pradius", help="p-radius bracket (unit weights, p >= 1)")
    common(p)
    p.add_argument("--p", required=True, help="exponent p >= 1")
    p.set_defaults(func=_cmd_pradius)

    p = sub.add_parser("svpressure", help="singular-value pressure P(mu,s) bracket")
    common(p)
    p.add_argument("--s", required=True, help="exponent (decimal or 'k+p/q')")
    p.set_defaults(func=_cmd_svpressure)

    p = sub.add_parser("affdim", help="affinity dimension interval")
    common(p)
    p.set_defaults(func=_cmd_affdim)

    p = sub.add_parser("jsr", help="joint spectral radius bracket of the support")
    common(p, eps_default=None)
    p.add_argument("--no-spectral-floor", action="store_true",
                   help="disable the spectral-radius lower-bound floor")
    p.set_defaults(func=_cmd_jsr)

    p = sub.add_parser("scan", help="exp(M(mu,s)/s) brackets along an exponent grid")
    common(p)
    p.add_argument("--s", default="1,2,4,8,16,32,64",
                   help="comma-separated exponent grid (default 1,2,...,64)")
    p.set_defaults(func=_cmd_scan)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
