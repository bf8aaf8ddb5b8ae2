"""Command-line interface.

Subcommands map one-to-one onto the library operations and emit
deterministic JSON (or a one-line report for ``check``).  Exit codes:

  0  success
  1  usage, file, or JSON format error
  2  semantically invalid input (axiom violation, non-basis set, bad ids)
  3  a size gate was exceeded (input file, matrix entries, lifted slots,
     problem universe, enumeration, brute force, exchange-axiom check,
     search depth)
  4  partition infeasible (deficiency certificate emitted)
  5  witness search exhausted without finding one
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import io
from .core import ENUMERATION_CAP, canon
from .errors import (
    FormatError,
    InternalVerificationError,
    MatrexError,
    SizeLimitError,
    ValidationError,
)
from .exchange import ExchangeInstance, cyclic_exchange
from .union import DeficiencyCertificate, matroid_partition
from .verify import (
    BRUTE_FORCE_CAP,
    DEFAULT_SEARCH_BUDGET,
    Shift2Witness,
    brute_force_cyclic_exchange,
    exhaustion_to_json,
    search_shift2_counterexample,
    witness_to_json,
)

EXIT_OK = 0
EXIT_FORMAT = 1
EXIT_INVALID = 2
EXIT_GATE = 3
EXIT_INFEASIBLE = 4
EXIT_EXHAUSTED = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route everything to 1 instead.
    def error(self, message):
        raise _UsageError(message)


#: Largest input file the CLI parses; a longer one is refused unread (exit 3).
MAX_INPUT_BYTES = 16 * 2**20


def _read_json(path: str):
    # A read allocates the size it asks for, so the size that fstat reports
    # bounds the first one.  A file that fills it may be longer than that
    # (a FIFO reports 0, and a file may grow): the second read takes the
    # rest up to one byte past the cap.
    try:
        with open(path, "rb") as f:
            want = min(os.fstat(f.fileno()).st_size, MAX_INPUT_BYTES) + 1
            data = f.read(want)
            if len(data) == want:
                data += f.read(MAX_INPUT_BYTES + 1 - want)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    if len(data) > MAX_INPUT_BYTES:
        raise SizeLimitError(f"{path} is larger than the input cap of {MAX_INPUT_BYTES} bytes")
    return io.loads(data)


def _write(args, text: str) -> None:
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise FormatError(f"cannot write {args.output}: {exc}") from None
    else:
        sys.stdout.write(text)


def _emit(args, payload: dict) -> None:
    _write(args, io.dumps(payload))


def _note(args, message: str) -> None:
    if args.verbose:
        print(message, file=sys.stderr)


def cmd_check(args) -> int:
    # Construction performs the semantic checks; for bases-type files this
    # includes the exchange axiom, whose violation ends up in the message.
    matroid = io.matroid_from_json(_read_json(args.matroid_file))
    line = f"rank {matroid.full_rank()}, {matroid.ground_size} elements"
    if matroid.ground_size <= args.cap:
        line += f", {len(matroid.enumerate_bases(cap=args.cap))} bases"
    _write(args, line + "\n")
    return EXIT_OK


def cmd_enumerate_bases(args) -> int:
    matroid = io.matroid_from_json(_read_json(args.matroid_file))
    bases = matroid.enumerate_bases(cap=args.cap)
    _emit(args, {"type": "bases", "n": matroid.ground_size, "bases": [canon(b) for b in bases]})
    return EXIT_OK


def cmd_cyclic_exchange(args) -> int:
    matroid = io.matroid_from_json(_read_json(args.matroid_file))
    bases, file_a1 = io.bases_from_json(_read_json(args.bases_file))
    if args.a1 is not None:
        a1 = io.element_array(io.loads(args.a1), "--a1")
    elif file_a1 is not None:
        a1 = file_a1
    else:
        raise _UsageError("no seed subset: pass --a1 or an 'a1' field in the bases file")

    instance = ExchangeInstance(matroid, tuple(bases), a1)
    _note(args, f"lifting {instance.k} bases, {sum(len(b) for b in bases)} slots")
    result = cyclic_exchange(instance)
    _note(args, f"slot partition: {[canon(d) for d in result.partition]}")
    payload = {
        "A": [canon(p) for p in result.parts],
        "shifted": [canon(s) for s in result.shifted],
    }
    if args.verify:
        solutions = brute_force_cyclic_exchange(instance, cap=args.cap)
        payload["oracle"] = {
            "member": result.parts[1:] in set(solutions),
            "solutions": len(solutions),
        }
    _emit(args, payload)
    return EXIT_OK


def cmd_partition(args) -> int:
    problem = io.problem_from_json(_read_json(args.problem_file))
    outcome = matroid_partition(problem)
    if isinstance(outcome, DeficiencyCertificate):
        _emit(args, {
            "witness": canon(outcome.witness),
            "rank_sum": outcome.rank_sum,
            "size": outcome.size,
            "terms": list(outcome.terms),
        })
        return EXIT_INFEASIBLE
    _emit(args, {"parts": [canon(p) for p in outcome.parts]})
    return EXIT_OK


def cmd_search_shift2(args) -> int:
    if args.k < 3:
        raise _UsageError(f"--k must be >= 3, got {args.k}")
    outcome = search_shift2_counterexample(
        args.k, budget=args.budget, time_limit=args.time_limit, seed=args.seed
    )
    replay = {
        "k": args.k,
        "seed": args.seed,
        "budget": args.budget,
        "time_limit": args.time_limit,
    }
    if isinstance(outcome, Shift2Witness):
        _note(args, f"witness found; exhausted {outcome.tuples_checked} tuples")
        _emit(args, {"found": True, "search": replay, "witness": witness_to_json(outcome)})
        return EXIT_OK
    _note(args, f"exhausted after {outcome.candidates_checked} candidates "
                f"over {outcome.matroids_examined} matroids")
    _emit(args, {"found": False, "search": replay, "report": exhaustion_to_json(outcome)})
    return EXIT_EXHAUSTED


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on first use and shared by every ``main``
    call; parsing leaves it unchanged."""
    parser = _Parser(prog="matrex", description="Matroid base-exchange toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json-errors", action="store_true",
                       help="emit errors as JSON on stdout instead of text on stderr")
        p.add_argument("--verbose", action="store_true",
                       help="print progress diagnostics to stderr")
        p.add_argument("--output", metavar="PATH", default=None,
                       help="write the result to PATH instead of stdout")

    p = sub.add_parser("check", help="validate a matroid file and report rank/size")
    p.add_argument("matroid_file")
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP,
                   help="ground-size cap for counting bases")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("enumerate-bases", help="list all bases of a matroid file")
    p.add_argument("matroid_file")
    p.add_argument("--cap", type=int, default=ENUMERATION_CAP)
    common(p)
    p.set_defaults(func=cmd_enumerate_bases)

    p = sub.add_parser("cyclic-exchange", help="compute the cyclic exchange sets")
    p.add_argument("matroid_file")
    p.add_argument("bases_file")
    p.add_argument("--a1", default=None,
                   help="seed subset as a JSON array (overrides the bases file)")
    p.add_argument("--verify", action="store_true",
                   help="also run the brute-force oracle and report membership")
    p.add_argument("--cap", type=int, default=BRUTE_FORCE_CAP,
                   help="total basis size gate for --verify")
    common(p)
    p.set_defaults(func=cmd_cyclic_exchange)

    p = sub.add_parser("partition", help="partition a universe into independent sets")
    p.add_argument("problem_file")
    common(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("search-shift2", help="search for a shift-by-two counterexample")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET,
                   help="maximum number of candidates to examine")
    p.add_argument("--time-limit", type=float, default=None,
                   help="wall-clock limit in seconds")
    p.add_argument("--seed", type=int, default=0,
                   help="seeds the random linear phase only; k = 3..7 stop at K_4 before it")
    common(p)
    p.set_defaults(func=cmd_search_shift2)

    return parser


def _fail(args, code: int, kind: str, message: str) -> int:
    if args is not None and getattr(args, "json_errors", False):
        sys.stdout.write(io.dumps({"error": {"type": kind, "message": message}}))
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        return _fail(args, EXIT_FORMAT, "usage", str(exc))
    except InternalVerificationError:
        raise  # a bug, not an input problem: abort loudly with a traceback
    except FormatError as exc:
        return _fail(args, EXIT_FORMAT, "format", str(exc))
    except SizeLimitError as exc:
        return _fail(args, EXIT_GATE, "size-limit", str(exc))
    except ValidationError as exc:
        return _fail(args, EXIT_INVALID, "validation", str(exc))
    except MatrexError as exc:
        return _fail(args, EXIT_FORMAT, "internal", str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
