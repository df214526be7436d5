"""Command-line front end.

Commands
--------
verify     build an encoding and check its blocks against the reference
sweep      success-probability / discretization-error sweep to CSV
resources  Clifford+T gate counts to CSV
export     deterministic circuit text listing

Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 I/O error,
4 internal error (an unexpected exception; a one-line message goes to
stderr).  Output files are written atomically (temp file + rename),
with the mode the umask gives, and contain no timestamps, so identical
invocations at the same BLAS thread count produce byte-identical files.
The thread count matters because norms go through threaded BLAS
reductions: the last digit of a sweep's p_success can differ between
one and two OpenBLAS threads.

Each command loads only the modules it runs.  This module needs
``encodings`` (and through it ``circuit`` and ``operators``) to parse
and build; ``verify`` and ``sweep`` import ``analysis`` when they run,
and ``resources`` imports ``resources``.  The functions that compute
on numpy arrays import numpy when they run, so ``verify``, ``resources``
and ``export`` never load it.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from . import encodings
from .circuit import export_text
from .errors import FdblockError


class UsageError(FdblockError):
    """A command-line argument is malformed or inconsistent."""


def _parse_range(flag: str, text: str) -> list[int]:
    """Parse an int or an inclusive 'a..b' range given to --n or --dim.

    No encoding is wider than MAX_BUILD_QUBITS qubits, so neither n nor
    dim can exceed it; the bounds are checked before the list is made.
    """
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise UsageError(f"bad range {text!r}") from None
        if hi < lo:
            raise UsageError(f"empty range {text!r}")
    else:
        try:
            lo = hi = int(text)
        except ValueError:
            raise UsageError(f"bad integer {text!r}") from None
    cap = encodings.MAX_BUILD_QUBITS
    if lo < 1 or hi > cap:
        raise UsageError(f"{flag} {text} is outside 1..{cap}")
    return list(range(lo, hi + 1))


def _single(flag: str, values: list[int]) -> int:
    if len(values) != 1:
        raise UsageError(f"{flag} must be a single integer here, got a range")
    return values[0]


def _single_dim(args) -> int:
    """The one --dim of a command; without --dim, the op's fixed dim or 1."""
    return _single("--dim", encodings.op_dims(args.op, None) if args.dim is None else args.dim)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdblock",
        description="Block encodings of periodic finite-difference operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--op", required=True, choices=list(encodings.OPS))
        p.add_argument("--dim", default=None, help="dimension (int or a..b)")
        p.add_argument("--n", required=True, help="qubits per axis (int or a..b)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        return p

    verify = add_common(sub.add_parser("verify", help="check encoded blocks"))
    sweep = add_common(sub.add_parser("sweep", help="success-probability sweep"))
    verify.add_argument("--tol", type=float, default=1e-12)
    # the sweep checks the family, so parsing needs no analysis import
    sweep.add_argument("--family", default="sinprod", help="probe function family")
    add_common(sub.add_parser("resources", help="Clifford+T counts"))
    add_common(sub.add_parser("export", help="circuit text listing"))
    return parser


def _write_output(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fdblock-")
    # mkstemp makes the file 0600 whatever the umask; give it the mode
    # that open(path, "w") would.  The umask can only be read by setting it.
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as handle:
            os.fchmod(handle.fileno(), 0o666 & ~umask)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_verify(args) -> int:
    from . import analysis

    enc = encodings.build_encoding(args.op, _single_dim(args), _single("--n", args.n))
    report = analysis.verify_pattern(enc, args.tol)
    _write_output(args.out, report.summary() + "\n")
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    from . import analysis

    rows = analysis.sweep_success_probability(_single_dim(args), args.n, args.family, op=args.op)
    _write_output(args.out, analysis.sweep_csv(rows))
    return 0


def cmd_resources(args) -> int:
    from . import resources

    rows = resources.resource_sweep(args.op, args.dim, args.n)
    _write_output(args.out, resources.resources_csv(rows))
    return 0


def cmd_export(args) -> int:
    enc = encodings.build_encoding(args.op, _single_dim(args), _single("--n", args.n))
    _write_output(args.out, export_text(enc.circuit))
    return 0


_COMMANDS = {
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "resources": cmd_resources,
    "export": cmd_export,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # --n and --dim become the lists that the commands read.
        args.n = _parse_range("--n", args.n)
        args.dim = _parse_range("--dim", args.dim) if args.dim else None
        return _COMMANDS[args.command](args)
    except FdblockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # One line that names the exception and the frame that raised it.
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message} (at {where})", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
