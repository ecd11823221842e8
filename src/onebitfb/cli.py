"""Command-line front end.

Subcommands: ergodic, wideband, outage, dmt, simulate, figure.  Results are
written as CSV (one ``#`` metadata line, header row, data rows) or JSON
(column arrays) to --out or stdout.  SNR is taken in dB and converted to
linear power internally; rates are accepted in bits or nats and reported in
both.  All randomness derives from --seed.

Exit codes: 0 success (or stdout closed by its reader), 2 usage error
(including an --out that cannot be written), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import channel, ergodic, mcsim, outage

_LOG2 = math.log(2.0)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_table(path, fmt, meta: dict, columns: list[str], rows: list[dict]):
    if fmt == "json":
        payload = {
            "meta": {k: _fmt(v) for k, v in meta.items()},
            "columns": {c: [_fmt(row[c]) for row in rows] for c in columns},
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = ["# " + " ".join(f"{k}={_fmt(v)}" for k, v in sorted(meta.items()))]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe raises here, inside main
    else:  # in place: an O_TRUNC would free the blocks that the write allocates again
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
            fh.write(text)
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()  # the old bytes past the text; pipes and devices are streams


# The default --alpha.  The optimizer is looked up at each call, so a wrapper
# put on ergodic.optimal_threshold after import (perfbench's tracer) sees it.
_OPTIMAL = ("optimal", lambda k, power, corr: ergodic.optimal_threshold(k, power, corr))


def _parse_alpha(text: str):
    """--alpha as (text as typed, rule): the rule is a number, or a function of
    (K, power, correlation) that gives one, for ``optimal`` and ``suboptimal:<delta>``."""
    if text == "optimal":
        return _OPTIMAL
    suboptimal = text.startswith("suboptimal:")
    try:
        value = float(text.split(":", 1)[1] if suboptimal else text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if suboptimal:
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError("suboptimal policy needs a finite delta > 0")
        return text, lambda k, power, corr: ergodic.suboptimal_threshold(k, value)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError("fixed policy needs a finite alpha >= 0")
    return text, value


def _alpha(args, k: int, power: float, corr: channel.CorrelationParams) -> float:
    """The threshold --alpha (default optimal) gives at K users, power and correlation."""
    rule = (args.alpha or _OPTIMAL)[1]
    return rule if isinstance(rule, float) else rule(k, power, corr)


def _parse_power_mode(text: str) -> outage.PowerMode:
    if text == "short-term":
        return outage.PowerMode.short_term()
    if text == "long-term":
        return outage.PowerMode.long_term()
    if text.startswith("explicit:"):
        parts = text.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError("explicit mode needs explicit:<P1>,<P0>")
        return outage.PowerMode.explicit(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"unknown power mode {text!r}")


def _parse_sweep(text: str):
    # <param>=<start>:<stop>:<points>[:log]
    try:
        name, rest = text.split("=", 1)
        parts = rest.split(":")
        log = False
        if len(parts) == 4:
            if parts[3] != "log":
                raise ValueError
            log = True
            parts = parts[:3]
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except (ValueError, IndexError):
        raise argparse.ArgumentTypeError(
            "sweep must be <param>=<start>:<stop>:<points>[:log]"
        )
    if points < 1:
        raise argparse.ArgumentTypeError("sweep needs at least one point")
    if not (math.isfinite(start) and math.isfinite(stop)) or (log and min(start, stop) <= 0):
        raise argparse.ArgumentTypeError("sweep ends must be finite, and positive with :log")
    if log:
        values = np.geomspace(start, stop, points)
    else:
        values = np.linspace(start, stop, points)
    return name.replace("-", "_"), [float(v) for v in values]


def _resolve_rho(args) -> channel.CorrelationParams:
    """rho from one source: --rho (or --sweep rho=...), Jakes' map of both flags, or neither (1)."""
    if (args.doppler_hz is None) != (args.delay_s is None):
        raise ValueError("--doppler-hz and --delay-s must be given together")
    if args.doppler_hz is None:
        return channel.CorrelationParams(1.0 if args.rho is None else args.rho)
    if args.rho is not None or (args.sweep and args.sweep[0] == "rho"):
        flag = "--rho" if args.rho is not None else "--sweep rho"
        raise ValueError(f"{flag} conflicts with --doppler-hz and --delay-s: give one source of rho")
    return channel.rho_from_jakes(args.doppler_hz, args.delay_s)


def _rate_nats(args) -> float:
    if args.rate_nats is not None and args.rate_bits is not None:
        raise ValueError("--rate-bits and --rate-nats conflict: give one")
    if args.rate_nats is not None:
        return args.rate_nats
    if args.rate_bits is not None:
        return args.rate_bits * _LOG2
    raise ValueError("outage commands require --rate-bits or --rate-nats")


def _snr_db(args) -> float:
    """--snr-db, or 20 dB; the flag defaults to None so a command can tell it was given."""
    return 20.0 if args.snr_db is None else args.snr_db


# Every flag any subcommand takes; each subcommand adds only those it reads.
_FLAGS = {
    "k": dict(type=int, default=1),
    "snr-db": dict(type=float, default=None, help="default 20"),
    "rho": dict(type=float, default=None),
    "doppler-hz": dict(type=float, default=None),
    "delay-s": dict(type=float, default=None),
    "alpha": dict(type=_parse_alpha, default=None),
    "rate-bits": dict(type=float, default=None),
    "rate-nats": dict(type=float, default=None),
    "power-mode": dict(type=_parse_power_mode, default="long-term"),
    "n-blocks": dict(type=int, default=100000),
    "seed": dict(type=int, default=12345),
    "sweep": dict(type=_parse_sweep, default=None),
    "scheme": dict(
        type=lambda s: "outdated_1bit" if s == "outdated" else s,
        choices=outage.DMT_SCHEMES,
        default="longterm_1bit",
        help='"outdated" is an alias of outdated_1bit',
    ),
    "out": dict(type=str, default=None),
    "format": dict(choices=("csv", "json"), default="csv"),
}

_CHANNEL_FLAGS = ("k", "snr-db", "rho", "doppler-hz", "delay-s", "alpha")
_OUTAGE_FLAGS = ("rate-bits", "rate-nats", "power-mode")
# Values a command echoes in its metadata line; the base values also open
# every row, and --sweep may vary any one of them.
_VALUES = {
    "k": lambda args: args.k,
    "snr_db": _snr_db,
    "rho": lambda args: _resolve_rho(args).rho,
    "rate_nats": _rate_nats,
    "alpha": lambda args: (args.alpha or _OPTIMAL)[0],
    "power_mode": lambda args: args.power_mode.kind,
    "scheme": lambda args: args.scheme,
    "seed": lambda args: args.seed,
}


def _sweep_rows(args, rows_at, base: dict, sweep) -> list[dict]:
    """The rows ``rows_at(args, point)`` gives at each sweep point, or at ``base``."""
    points = [base]
    if sweep is not None:
        name, values = sweep
        if name not in base:
            raise ValueError(f"--sweep: unknown parameter {name!r}")
        points = [{**base, name: int(round(v)) if name == "k" else v} for v in values]
    rows = []
    for point in points:
        try:
            rows.extend(rows_at(args, point))
        except ArithmeticError as exc:
            exc.point = point  # main names the point that failed
            raise
    return rows


def _channel(pt: dict, snr_db: float):
    """Correlation and linear power at a sweep point."""
    return channel.CorrelationParams(pt["rho"]), 10.0 ** (snr_db / 10.0)


def _outage_alpha(args, power: float, rate: float) -> float:
    """Outage thresholds are numeric or omitted (the zero-outage threshold)."""
    if args.alpha is None:
        return outage.default_threshold(args.power_mode, power, rate)
    rule = args.alpha[1]
    if not isinstance(rule, float):
        raise ValueError("outage thresholds must be numeric or omitted")
    return rule


def _ergodic_rows(args, pt):
    corr, power = _channel(pt, pt["snr_db"])
    alpha = _alpha(args, pt["k"], power, corr)
    cfg = ergodic.ErgodicConfig(pt["k"], power, corr, alpha)
    rate = ergodic.sum_rate(cfg)
    yield {
        **pt,
        "alpha": alpha,
        "rate_nats": rate,
        "rate_bits": rate / _LOG2,
        "upper_nats": ergodic.sum_rate_upper(cfg),
        "lower_nats": ergodic.sum_rate_lower(cfg),
        "prob_transmit": ergodic.prob_some_above(alpha, pt["k"]),
    }


def _wideband_rows(args, pt):
    if args.snr_db is not None and (args.alpha or _OPTIMAL)[0] != "optimal":
        raise ValueError("wideband reads --snr-db only with --alpha optimal")
    corr, power = _channel(pt, _snr_db(args))
    alpha = _alpha(args, pt["k"], power, corr)
    rep = ergodic.wideband_metrics(alpha, pt["k"], corr)
    yield {
        **pt,
        "alpha": alpha,
        "ebn0_min_db": rep.ebn0_min_db,
        "ebn0_min_linear": rep.ebn0_min_linear,
        "slope_s0": rep.slope_s0,
    }


def _outage_rows(args, pt):
    corr, power = _channel(pt, pt["snr_db"])
    rate = pt["rate_nats"]
    alpha = _outage_alpha(args, power, rate)
    cfg = outage.OutageConfig(pt["k"], power, corr, rate, alpha, args.power_mode)
    rep = outage.outage_outdated(cfg)
    yield {
        **pt,
        "rate_bits": rate / _LOG2,
        "alpha": alpha,
        "power_mode": cfg.mode.kind,
        "p1": rep.p1,
        "p0": rep.p0,
        "eps": rep.eps,
        "eps1": rep.eps1,
        "eps0": rep.eps0,
    }


def _dmt_rows(args, pt):
    return [{"r": r, "d": d} for r, d in outage.dmt_analytic(args.scheme, pt["k"])]


def _simulate_rows(args, pt):
    """Rate mode, or outage mode when a rate is given (numeric alpha only)."""
    corr, power = _channel(pt, pt["snr_db"])
    if args.rate_bits is None and args.rate_nats is None:
        rate = mode = None
        alpha = _alpha(args, pt["k"], power, corr)
    else:
        rate, mode = _rate_nats(args), args.power_mode
        alpha = _outage_alpha(args, power, rate)
    cfg = mcsim.SimConfig(
        pt["k"], power, corr, alpha, args.n_blocks, args.seed, rate_nats=rate, mode=mode
    )
    if rate is None:
        est = mcsim.simulate_ergodic_rate(cfg)
        stats = {
            "rate_nats_mean": est.mean,
            "rate_bits_mean": est.mean / _LOG2,
            "rate_stderr": est.stderr,
        }
    else:
        est, power = mcsim._outage_and_power(cfg)
        stats = {"eps_mean": est.mean, "eps_stderr": est.stderr, "avg_power": power.mean}
    yield {**pt, "alpha": alpha, **stats, "n_blocks": est.n, "seed": args.seed}


class _Command(NamedTuple):
    flags: tuple[str, ...]
    meta: tuple[str, ...]  # keys of _VALUES written after "command"
    base: tuple[str, ...]  # keys of _VALUES written last and opening every row
    rows: Callable  # (args, point) -> iterable of the rows at that point


_COMMANDS = {
    "ergodic": _Command(
        _CHANNEL_FLAGS + ("sweep",), ("alpha",), ("k", "snr_db", "rho"), _ergodic_rows
    ),
    "wideband": _Command(_CHANNEL_FLAGS + ("sweep",), (), ("k", "rho"), _wideband_rows),
    "outage": _Command(
        _CHANNEL_FLAGS + _OUTAGE_FLAGS + ("sweep",),
        ("power_mode",),
        ("k", "snr_db", "rho", "rate_nats"),
        _outage_rows,
    ),
    "dmt": _Command(("k", "scheme"), ("scheme",), ("k",), _dmt_rows),
    "simulate": _Command(
        _CHANNEL_FLAGS + _OUTAGE_FLAGS + ("n-blocks", "seed", "sweep"),
        ("seed",),
        ("k", "snr_db", "rho"),
        _simulate_rows,
    ),
}


def _add_flags(parser, names):
    for name in names + ("out", "format"):
        parser.add_argument(f"--{name}", **_FLAGS[name])


# Built once per process: building it costs about 2 ms, as much as a small
# command, and parse_args leaves it unchanged.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onebitfb",
        description="Performance analysis of 1-bit feedback Rayleigh broadcast channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        _add_flags(sub.add_parser(name), cmd.flags)
    figures = sub.add_parser("figure").add_subparsers(dest="figure_id", required=True)
    for name, (_, defaults, _) in _FIGURES.items():
        fig = figures.add_parser(name)
        _add_flags(fig, tuple(f.replace("_", "-") for f in defaults))
        fig.set_defaults(**defaults)
    return parser


def _command_tables(args):
    """The command's one table, its rows evaluated at every sweep point."""
    cmd = _COMMANDS[args.command]
    base = {key: _VALUES[key](args) for key in cmd.base}
    rows = _sweep_rows(args, cmd.rows, base, getattr(args, "sweep", None))
    meta = {"command": args.command, **{key: _VALUES[key](args) for key in cmd.meta}, **base}
    for key, value in meta.items():  # a swept value echoed here is read nowhere else
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} must be finite")
    yield args.out, meta, list(rows[0]), rows


def _figure_out(args, series: str) -> str | None:
    if args.out in (None, "-"):
        return None
    stem, dot, ext = args.out.rpartition(".")
    if dot and ext in ("csv", "json"):
        return f"{stem}_{series}.{ext}"
    return f"{args.out}_{series}.{args.format}"


def _check_out(args) -> None:
    """Reject an --out that cannot be written, before anything is computed."""
    if args.out in (None, "-"):
        return
    path = _figure_out(args, "series") if args.command == "figure" else args.out
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ValueError(f"--out: {path} is a directory")
    if not os.path.exists(path) and not os.path.isdir(folder):
        raise ValueError(f"--out: no directory {folder}")
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise ValueError(f"--out: cannot write {path}")


def _rate_rows(rate_at, pt):
    """A rate curve's row at ``pt``: ``rate_at`` of the point's values, in nats
    and bits.  ``rate_at`` takes the place of the parsed arguments."""
    rate = rate_at(*pt.values())
    yield {**pt, "rate_nats": rate, "rate_bits": rate / _LOG2}


def _figure1(args):
    """Ergodic sum-rate vs number of users at P = --snr-db (default 20 dB)."""
    def onebit(k, snr_db, rho):  # the 1-bit sum rate at the optimal threshold
        corr, power = _channel({"rho": rho}, snr_db)
        alpha = ergodic.optimal_threshold(k, power, corr)
        return ergodic.sum_rate(ergodic.ErgodicConfig(k, power, corr, alpha))
    power = 10.0 ** (args.snr_db / 10.0)
    ks = ("k", [2 ** i for i in range(1, 11)])
    yield "full_csi", _sweep_rows(lambda k: ergodic.full_csi_rate(k, power), _rate_rows,
                                  {"k": 1}, ks)
    for rho in (1.0, 0.9, 0.5):
        base = {"k": 1, "snr_db": args.snr_db, "rho": rho}
        yield f"onebit_rho{rho}", _sweep_rows(onebit, _rate_rows, base, ks)
    yield "no_csi", _sweep_rows(lambda k: ergodic.no_csi_rate(power), _rate_rows, {"k": 1}, ks)


def _figure2(args):
    """Low-SNR spectral efficiency vs Eb/N0 for K users (default 100)."""
    base, grid = {"ebn0_db": 0.0}, ("ebn0_db", [(-2.0 + 0.5 * i) for i in range(25)])
    for rho in (1.0, 0.9, 0.5):
        corr = channel.CorrelationParams(rho)
        alpha = ergodic.optimal_threshold(args.k, 1.0, corr)
        wb = ergodic.wideband_metrics(alpha, args.k, corr)
        yield f"exact_rho{rho}", _sweep_rows(
            lambda db: ergodic.rate_at_ebn0(db, args.k, corr, alpha)[0], _rate_rows, base, grid
        )
        yield f"affine_rho{rho}", _sweep_rows(
            lambda db: ergodic.affine_rate_approx(db, wb), _rate_rows, base, grid
        )
    # no-CSI reference: single user, rho = 0, alpha = 0
    no_fb = channel.CorrelationParams(0.0)
    yield "no_csi", _sweep_rows(
        lambda db: ergodic.rate_at_ebn0(db, 1, no_fb, 0.0)[0], _rate_rows, base, grid
    )


_FIGURE_GRID_DB = [2.0 * i for i in range(21)]


def _outage_curve(k, rho, rate, mode, alpha=None) -> list[dict]:
    """Outage vs SNR on a 0..40 dB grid, from the outage command's rows; the
    threshold is ``alpha``, or the zero-outage threshold where it is None."""
    opts = argparse.Namespace(power_mode=mode, alpha=None if alpha is None else (str(alpha), alpha))
    base = {"k": k, "snr_db": 0.0, "rho": rho, "rate_nats": rate}
    return _sweep_rows(opts, _outage_rows, base, ("snr_db", _FIGURE_GRID_DB))


def _figure3(args):
    """Instantaneous-feedback outage vs SNR, both power constraints."""
    rate = args.rate_bits * _LOG2
    modes = (("short", outage.PowerMode.short_term()), ("long", outage.PowerMode.long_term()))
    for k in (1, 8, 16):
        for mode_name, mode in modes:
            yield f"k{k}_{mode_name}", _outage_curve(k, 1.0, rate, mode)


def _figure4(args):
    """Outdated-feedback outage vs SNR for K users (default 16) under long-term power."""
    rate = args.rate_bits * _LOG2
    for rho in (0.0, 0.5, 0.9, 1.0):
        yield f"rho{rho}", _outage_curve(args.k, rho, rate, outage.PowerMode.long_term())
    # SISO no-feedback reference at full power: one user, rho = 0 and alpha = 0
    yield "no_csi", _outage_curve(1, 0.0, rate, outage.PowerMode.short_term(), alpha=0.0)


def _figure5(args):
    """DMT curves for all schemes at K users (default 16)."""
    for scheme in outage.DMT_SCHEMES:
        yield scheme, _sweep_rows(argparse.Namespace(scheme=scheme), _dmt_rows, {"k": args.k}, None)


# Each figure with the flags it reads besides --out and --format, their
# defaults for that figure, and the columns of its series.
_FIGURES = {
    "fig1": (_figure1, {"snr_db": 20.0}, ["k", "rate_nats", "rate_bits"]),
    "fig2": (_figure2, {"k": 100}, ["ebn0_db", "rate_nats", "rate_bits"]),
    "fig3": (_figure3, {"rate_bits": 3.0}, ["snr_db", "eps"]),
    "fig4": (_figure4, {"k": 16, "rate_bits": 3.0}, ["snr_db", "eps"]),
    "fig5": (_figure5, {"k": 16}, ["r", "d"]),
}


def _figure_tables(args):
    """One table per series of the figure, each computed after the one before is written."""
    figure, _, columns = _FIGURES[args.figure_id]
    for series, rows in figure(args):
        meta = {"command": "figure", "figure_id": args.figure_id, "series": series}
        yield _figure_out(args, series), meta, columns, rows


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    tables = _figure_tables if args.command == "figure" else _command_tables
    try:
        _check_out(args)
        for path, meta, columns, rows in tables(args):
            _write_table(path, args.format, meta, columns, rows)
        return 0
    except ArithmeticError as exc:  # OverflowError, or a root search that did not converge
        at = "".join(f" {k}={_fmt(v)}" for k, v in getattr(exc, "point", {}).items())
        print(f"numerical failure{' at' + at if at else ''}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (``| head``): stop quietly, and point stdout
        # at devnull so the flush at interpreter exit does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except OSError as exc:  # an output file that _check_out could not foresee
        named = "--out: " if args.out not in (None, "-") else ""
        print(f"error: {named}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
