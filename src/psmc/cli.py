"""Command-line interface.

Subcommands: tables, factor, encode, decode, prob, simulate.

Words travel as digit strings when q <= 10 (e.g. "0210210210") and as
comma-separated integers otherwise.  Exit codes: 0 success, 1 usage
error, 2 domain or resource error (masking impossible, decoding failure,
or an exact computation over its budget) with a machine-readable JSON
object on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import log10
from pathlib import Path

import numpy as np

from .alphabet import field_of_order, format_poly, poly_pretty
from .constructions import (
    DecodingFailure,
    MaskingImpossible,
    PsmcCyclicCode,
    masking_probability,
)
from .cyclic import all_cosets, minimal_polynomial
from .linear import BudgetExceeded
from .presets import PRESETS, get_preset
from .sim import ChannelConfig, run_campaign
from .tables import build_table, render_csv, render_json, render_text, table_footnotes


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1.
    def error(self, message):
        raise UsageError(message)


def parse_word(text: str, q: int) -> np.ndarray:
    """Parse a word's symbols; encode and decode check range and length."""
    text = text.strip()
    if "," in text or q > 10:
        symbols = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    else:
        if not text.isdigit():
            raise UsageError(f"word {text!r} is not a digit string")
        symbols = [int(ch) for ch in text]
    return np.array(symbols, dtype=np.int64)


def format_word(word, q: int) -> str:
    if q <= 10:
        return "".join(str(int(x)) for x in word)
    return ",".join(str(int(x)) for x in word)


def parse_positions(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")


def _resolve_code(args):
    if args.preset:
        try:
            return get_preset(args.preset)
        except KeyError as exc:
            raise UsageError(str(exc)) from None
    if args.n is None or args.q is None:
        raise UsageError("need --preset or both --n and --q")
    reps = parse_positions(args.factors)
    return PsmcCyclicCode(args.n, field_of_order(args.q), reps)


def _probability_digits(frac: Fraction, digits: int) -> str:
    """Decimal expansion with the given significant digits, no float rounding."""
    if digits < 1:
        raise UsageError("digits must be >= 1")
    if frac == 0:
        return "0"
    if frac == 1:
        return "1"
    num, den = frac.numerator, frac.denominator
    # frac < 1 here; count the zeros after the decimal point, starting from
    # a lower bound: den/num > 2^(b-1) for b the bit-length difference.
    scale = max(0, int((den.bit_length() - num.bit_length() - 1) * log10(2)) - 1)
    power = 10 ** (scale + 1)
    while num * power < den:
        scale += 1
        power *= 10
    quotient, rem = divmod(num * 10 ** (scale + digits), den)
    if 2 * rem >= den:
        quotient += 1
    if quotient == 10**digits:  # rounding crossed a power of ten
        quotient //= 10
        scale -= 1
        if scale < 0:
            return "1"
    return "0." + "0" * scale + str(quotient).rjust(digits, "0")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_tables(args) -> int:
    rows = build_table()
    notes = table_footnotes()
    if args.csv:
        _emit(args.csv, render_csv(rows))
    if args.json:
        _emit(args.json, render_json(rows, notes))
    if not args.csv and not args.json:
        print(render_text(rows, notes))
    return 0


def cmd_factor(args) -> int:
    field = field_of_order(args.q)
    cosets = all_cosets(args.n, field.q)
    # Every factor is built before the first line, so an error prints nothing.
    factors = [(c, minimal_polynomial(c.representative, args.n, field)) for c in cosets]
    print(f"x^{args.n} - 1 over {field!r}: cyclotomic cosets and minimal polynomials")
    for coset, mp in factors:
        members = ",".join(str(x) for x in coset.members)
        print(
            f"a={coset.representative}  M_a={{{members}}}  "
            f"M^({coset.representative})(x) = {format_poly(mp)}  [{poly_pretty(mp)}]"
        )
    return 0


def cmd_encode(args) -> int:
    code = _resolve_code(args)
    q = code.alphabet.q
    m = parse_word(args.m, q)
    stuck = parse_positions(args.stuck)
    out = code.encode(m, stuck, probabilistic=args.probabilistic)
    print(format_word(out.codeword, q))
    return 0


def cmd_decode(args) -> int:
    code = _resolve_code(args)
    q = code.alphabet.q
    y = parse_word(args.y, q)
    print(format_word(code.decode(y), q))
    return 0


def cmd_prob(args) -> int:
    frac = masking_probability(args.q, args.u)
    print(_probability_digits(frac, args.digits))
    return 0


def cmd_simulate(args) -> int:
    code = _resolve_code(args)
    cfg = ChannelConfig(
        n=code.n,
        q=code.alphabet.q,
        u=args.u,
        t_inj=args.t_inj,
        trials=args.trials,
        seed=args.seed,
    )
    report = run_campaign(code, cfg)
    if args.json:
        _emit(args.json, report.to_json(indent=2))
    if args.csv:
        target = Path(args.csv)
        header = args.csv == "-" or not target.exists() or target.stat().st_size == 0
        _emit(args.csv, report.csv_line(header=header), append=True)
    if not args.json and not args.csv:
        fmt = lambda x: "n/a" if x is None else f"{x:.6f}"
        print(f"trials={cfg.trials} masked={report.masking_successes} "
              f"mask_rate={fmt(report.masking_rate)} "
              f"ci95=[{fmt(report.ci95[0]) if report.ci95 else 'n/a'}, "
              f"{fmt(report.ci95[1]) if report.ci95 else 'n/a'}] "
              f"expected={fmt(report.expected_rate)} "
              f"decode_rate={fmt(report.decode_rate)} seed={cfg.seed}")
    return 0


def _emit(dest: str, payload: str, *, append: bool = False) -> None:
    """Write payload, newline-terminated, to stdout for "-" or else to the
    file dest; a file that cannot be written is a usage error."""
    payload = payload if payload.endswith("\n") else payload + "\n"
    if dest == "-":
        sys.stdout.write(payload)
        return
    try:
        with open(dest, "a" if append else "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise UsageError(f"cannot write {dest!r}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_code_selection(p: _Parser) -> None:
    p.add_argument("--preset", help=f"named code ({', '.join(sorted(PRESETS))})")
    p.add_argument("--n", type=int, help="code length (explicit cyclic code)")
    p.add_argument("--q", type=int, help="alphabet size (explicit cyclic code)")
    p.add_argument(
        "--factors",
        help="comma-separated cyclotomic coset representatives of g1 (empty for r=0)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="psmc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="render the length-8 ternary parameter table")
    p.add_argument("--csv", metavar="PATH", help="write CSV to PATH ('-' for stdout)")
    p.add_argument("--json", metavar="PATH", help="write JSON to PATH ('-' for stdout)")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("factor", help="cyclotomic cosets and minimal polynomials of x^n - 1")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("encode", help="mask a message against a stuck-cell profile")
    _add_code_selection(p)
    p.add_argument("--m", required=True, help="message word")
    p.add_argument("--stuck", help="comma-separated stuck positions")
    p.add_argument("--probabilistic", action="store_true",
                   help="attempt masking beyond the guaranteed stuck-cell count")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="correct errors and recover the message")
    _add_code_selection(p)
    p.add_argument("--y", required=True, help="retrieved word")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("prob", help="exact masking probability for u stuck cells")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--digits", type=int, default=12, help="significant digits (default 12)")
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("simulate", help="run a Monte Carlo channel campaign")
    _add_simulate_options(p)
    p.set_defaults(func=cmd_simulate)
    return parser


def _add_simulate_options(p: _Parser, *, required: bool = True) -> None:
    _add_code_selection(p)
    p.add_argument("--config", metavar="PATH",
                   help="key=value file with campaign defaults; explicit flags win")
    p.add_argument("--u", type=int, required=required, help="stuck cells per trial")
    p.add_argument("--t-inj", type=int, default=0, help="injected error weight per trial")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", metavar="PATH", help="write the full JSON report")
    p.add_argument("--csv", metavar="PATH", help="append a CSV summary row ('-' for stdout)")


def _expand_config(argv: list[str]) -> list[str]:
    """Splice the key=value pairs of `--config FILE` in before the user's flags.

    A first parse with simulate's own options, none required, finds the
    file, so every spelling the full parse accepts (`--config=FILE`, an
    abbreviation such as `--conf`) reads it.  Later occurrences win in
    argparse, so explicit flags override the file.
    """
    pre = _Parser(prog="psmc simulate", add_help=False)
    _add_simulate_options(pre, required=False)
    config = pre.parse_known_args(argv[1:])[0].config
    if config is None:
        return argv
    path = Path(config)
    if not path.is_file():
        raise UsageError(f"config file {config!r} does not exist")
    pairs: list[str] = []
    for ln in path.read_text(encoding="utf-8").splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        key, sep, value = ln.partition("=")
        if not sep:
            raise UsageError(f"config line {ln!r} is not key=value")
        pairs += [f"--{key.strip()}", value.strip()]
    return argv[:1] + pairs + argv[1:]


def main(argv=None) -> int:
    parser = build_parser()
    try:
        argv = list(sys.argv[1:] if argv is None else argv)
        if argv and argv[0] == "simulate":
            argv = _expand_config(argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (MaskingImpossible, DecodingFailure, BudgetExceeded) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
