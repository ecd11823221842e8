"""The three workloads: their fixed operations and the checks of each output.

An operation is a callable timed on its own.  Its output is checked after
the timed loop, against :mod:`oracle` and against properties the paper
proves; a check returns ``None`` (correct), ``Failed(msg)`` (a fault of the
program that the benchmark counts, not one of its own) or an error message.

The seed orders the operations of a round and seeds the Monte-Carlo
streams.  The parameter grids are fixed, so the work in a round and every
per-layer count are the same for every seed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

LOG2 = math.log(2.0)


@dataclass
class Failed:
    """A counted failure of the program, as opposed to a wrong result."""

    msg: str


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], object]
    # Turns the raw result into what is compared across rounds and checked;
    # runs outside the timed region.
    collect: Callable[[object], object] = field(default=lambda out: out)


def close(x: float, ref: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(x - ref) <= max(rel * abs(ref), abs_)


def power_of(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


class Workload:
    name = ""

    def __init__(self, pkg, seed: int, workdir: Path):
        self.pkg = pkg
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.ops = self.build()
        self.rng.shuffle(self.ops)

    def build(self) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def extra_checks(self, first_round: list) -> list[str]:
        """Checks that look at a whole round rather than one operation."""
        return []

    def output_counts(self, outputs: list) -> dict[str, int]:
        """Per-round counts read from the outputs of one round."""
        return {}


# --------------------------------------------------------------------------
# ergodic_design: threshold optimizer and Eb/N0 inversion.

# (K, rho, SNR dB) cells of optimal_threshold followed by sum_rate at alpha*.
DESIGN_CELLS = [(4, 0.9, 20.0), (64, 0.7, 10.0), (1024, 0.5, 20.0)]
# rate_at_ebn0 at K=100, rho=0.9 and a fixed alpha, at these offsets above
# Eb/N0_min.  The root-finder does not converge at the smallest one today.
INVERSION_K, INVERSION_RHO, INVERSION_ALPHA = 100, 0.9, 3.0
INVERSION_OFFSETS_DB = [10.0, 3.0, 0.05]
# The quadrature tolerance the low-SNR figure (fig2) uses.
FIG2_QUAD = {"abs_tol": 1e-12, "rel_tol": 1e-10}
# A rate agrees with its quadrature reference to this relative error; the
# inversion returns a point whose implied Eb/N0 is this close to its target.
RATE_RTOL = 1e-9
EBN0_TOL_DB = 1e-6
# alpha* must beat its neighbours at this distance (the optimizer refines
# to a bracket of 1e-4; the rate drops by ~1e-5 at this step).
LOCAL_MAX_STEP = 0.005


class ErgodicDesign(Workload):
    name = "ergodic_design"

    def build(self):
        ops = [self._design_op(*cell) for cell in DESIGN_CELLS]
        ebn0_min = oracle.ebn0_min_db(INVERSION_K, INVERSION_RHO, INVERSION_ALPHA)
        ops += [self._inversion_op(ebn0_min + off) for off in INVERSION_OFFSETS_DB]
        return ops

    def _design_op(self, k, rho, snr_db):
        erg = self.pkg.ergodic
        power = power_of(snr_db)
        corr = self.pkg.channel.CorrelationParams(rho)

        def run():
            alpha = erg.optimal_threshold(k, power, corr)
            return alpha, erg.sum_rate(erg.ErgodicConfig(k, power, corr, alpha))

        def check(out):
            alpha, rate = out
            ref = oracle.conditional_rate(k, power, rho, alpha)
            if not close(rate, ref, RATE_RTOL):
                return f"sum_rate {rate!r} vs quadrature {ref!r}"
            for a in (alpha - LOCAL_MAX_STEP, alpha + LOCAL_MAX_STEP):
                if oracle.conditional_rate(k, power, rho, a) > ref:
                    return f"alpha*={alpha} is not a local maximum (rate higher at {a})"
            lo = oracle.rate_lower(k, power, rho, alpha)
            up = oracle.rate_upper(k, power, rho, alpha)
            if not lo <= rate <= up:
                return f"sandwich {lo} <= {rate} <= {up} fails"
            return None

        return Op(f"design K={k} rho={rho} {snr_db}dB", run, check)

    def _inversion_op(self, target_db):
        erg = self.pkg.ergodic
        corr = self.pkg.channel.CorrelationParams(INVERSION_RHO)
        quad = self.pkg.specfun.QuadratureSpec(**FIG2_QUAD)

        def run():
            return erg.rate_at_ebn0(target_db, INVERSION_K, corr, INVERSION_ALPHA, quad)

        def check(out):
            rate, power = out
            if not rate > 0.0:
                return Failed(f"zero rate at {target_db:.4f} dB, above Eb/N0_min")
            implied = 10.0 * math.log10(power * LOG2 / rate)
            if abs(implied - target_db) > EBN0_TOL_DB:
                return Failed(f"implied Eb/N0 misses {target_db:.4f} dB by {implied - target_db:.2e} dB")
            ref = oracle.conditional_rate(INVERSION_K, power, INVERSION_RHO, INVERSION_ALPHA)
            if not close(rate, ref, RATE_RTOL):
                return f"rate {rate!r} at P={power!r} vs quadrature {ref!r}"
            return None

        return Op(f"invert {target_db:.4f}dB", run, check)

    def warm_up(self):
        erg = self.pkg.ergodic
        corr = self.pkg.channel.CorrelationParams(0.9)
        erg.sum_rate(erg.ErgodicConfig(4, 10.0, corr, 1.0))


# --------------------------------------------------------------------------
# mc_oracle: the Monte-Carlo simulator at fixed thresholds.

# ("rate", K, rho, SNR dB, alpha, blocks) and
# ("outage", K, rho, SNR dB, alpha or None for zero-outage, blocks, rate bits).
# A round takes about 3 s, so a run's median round rests on about ten rounds.
MC_CELLS = [
    ("rate", 4, 1.0, 10.0, 1.0, 1 << 19),
    ("rate", 4, 0.7, 10.0, 1.0, 1 << 19),
    ("rate", 64, 0.9, 20.0, 3.5, 1 << 16),
    ("outage", 4, 1.0, 10.0, None, 1 << 19, 2.0),
    ("outage", 4, 0.9, 10.0, 0.8, 1 << 19, 2.0),
    ("outage", 64, 0.5, 15.0, 3.0, 1 << 16, 2.0),
]
# An estimate lies within K_SIGMA standard errors of its reference.  At six
# the chance that a correct simulator fails one cell is 2e-9.
K_SIGMA = 6.0


class McOracle(Workload):
    name = "mc_oracle"

    def build(self):
        ops = [self._cell_op(cell, self.rng.randrange(1 << 31)) for cell in MC_CELLS]
        self.rerun_op = ops[0]
        return ops

    def _cell_op(self, cell, mc_seed):
        mcsim = self.pkg.mcsim
        kind, k, rho, snr_db, alpha, n_blocks = cell[:6]
        power = power_of(snr_db)
        corr = self.pkg.channel.CorrelationParams(rho)
        if kind == "rate":
            cfg = mcsim.SimConfig(k, power, corr, alpha, n_blocks, mc_seed)
        else:
            rate = cell[6] * LOG2
            zero_outage = alpha is None
            if zero_outage:
                alpha = oracle.default_threshold("long_term_two_level", power, rate)
            cfg = mcsim.SimConfig(k, power, corr, alpha, n_blocks, mc_seed, rate_nats=rate,
                                  mode=self.pkg.outage.PowerMode.long_term())

        def run():
            if kind == "rate":
                return self.pkg.mcsim.simulate_ergodic_rate(cfg)
            return self.pkg.mcsim.simulate_outage(cfg)

        def check(out):
            mean, stderr, n = out
            if kind == "rate":
                ref = oracle.conditional_rate(k, power, rho, alpha)
                sigma = stderr
            else:
                p1, p0 = oracle.powers("long_term_two_level", power, alpha, k)
                ref = oracle.outage(k, rate, p1, p0, alpha, rho)
                sigma = math.sqrt(ref * (1.0 - ref) / n_blocks)
                closed = oracle.outage_longterm_closed(power, k, rate) if zero_outage else ref
                if not close(ref, closed, 1e-12):
                    return f"outage {ref!r} disagrees with the long-term closed form {closed!r}"
            if n != n_blocks or not abs(mean - ref) <= K_SIGMA * sigma:
                return f"MC mean {mean!r} over {n} blocks is {abs(mean - ref) / sigma:.1f} sigma from {ref!r}"
            return None

        label = f"{kind} K={k} rho={rho} {snr_db}dB alpha={alpha:.4g} blocks={n_blocks}"
        return Op(label, run, check, collect=lambda est: (est.mean, est.stderr, est.n))

    def warm_up(self):
        mcsim = self.pkg.mcsim
        corr = self.pkg.channel.CorrelationParams(0.9)
        mcsim.simulate_ergodic_rate(mcsim.SimConfig(4, 10.0, corr, 1.0, 1000, 1))

    def extra_checks(self, first_round):
        """Run one cell again: the same seed must give the same bits."""
        i = self.ops.index(self.rerun_op)
        again = self.rerun_op.collect(self.rerun_op.run())
        if again != first_round[i]:
            return [f"{self.rerun_op.label}: rerun gave {again}, first run {first_round[i]}"]
        return []


# --------------------------------------------------------------------------
# cli_queries: in-process CLI commands, each writing to its own directory.

CLI_QUERIES = [
    "outage --k 8 --rho 0.5 --rate-bits 3 --power-mode long-term --sweep snr-db=0:30:16",
    "outage --k 4 --rho 0.9 --rate-bits 2 --power-mode short-term --sweep snr-db=0:30:16",
    "outage --k 16 --snr-db 15 --rate-bits 2 --power-mode long-term --sweep rho=0:0.99:12",
    "outage --k 2 --doppler-hz 50 --delay-s 0.001 --rate-nats 1 --power-mode explicit:10,40"
    " --sweep snr-db=0:20:6",
    "outage --k 8 --rho 1 --rate-bits 3 --power-mode long-term --sweep snr-db=0:30:16",
    "outage --k 4 --rho 0.7 --rate-bits 1 --alpha 0.5 --power-mode short-term --sweep snr-db=0:20:11",
    "wideband --k 16 --rho 0.9 --alpha 2.0 --sweep k=2:1024:10:log",
    "wideband --k 100 --alpha suboptimal:1 --sweep rho=0:1:11",
    "dmt --scheme longterm_1bit --k 16",
    "dmt --scheme outdated --k 4 --format json",
    "figure fig3",
    "figure fig4",
    "figure fig5",
    "ergodic --k 16 --rho 0 --alpha 2.0 --sweep snr-db=0:30:8",
    "ergodic --k 16 --rho 1 --alpha 2.0 --sweep snr-db=0:30:8",
    "ergodic --rho 1 --snr-db 10 --alpha suboptimal:0.5 --sweep k=2:64:6:log",
]
# Values agree with their references to ELEM_RTOL relative error (CSV keeps
# 12 significant digits) or to an absolute error: Q1_ATOL where Marcum-Q
# enters (the package's own Q1 accuracy target is 1e-9), EPS_ATOL for other
# outage probabilities.  EPS_ATOL is tighter than the 1e-12 the package's
# closed-form identity test allows.  Relative agreement on outage below
# ~1e-6 is not asked for: the package mixes Pr(N>0) eps1 + (1 - Pr(N>0)) eps0
# and forms 1 - Pr(N>0) by a subtraction (4e-7 relative at 5.7e-21).
Q1_ATOL = 1e-9
EPS_ATOL = 1e-14
ELEM_RTOL = 1e-10


def _flags(argv: list[str]) -> dict[str, str]:
    return {a[2:]: b for a, b in zip(argv, argv[1:]) if a.startswith("--")}


def _table(data: bytes) -> list[dict[str, float | str]]:
    """Rows of a CSV table written by the CLI, numbers converted."""
    lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
    return [{key: _num(val) for key, val in row.items()} for row in csv.DictReader(lines)]


def _num(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _check_eps(errors, where, got, ref, atol):
    if not 0.0 <= got <= 1.0:
        errors.append(f"{where}: epsilon {got!r} outside [0, 1]")
    elif not close(got, ref, ELEM_RTOL, atol):
        errors.append(f"{where}: epsilon {got!r} vs reference {ref!r}")


def check_outage(argv, files):
    f = _flags(argv)
    mode = {"long-term": "long_term_two_level", "short-term": "short_term"}.get(
        f["power-mode"], "explicit")
    explicit = tuple(float(x) for x in f["power-mode"].split(":")[1].split(",")) if mode == "explicit" else None
    rate = float(f["rate-nats"]) if "rate-nats" in f else float(f["rate-bits"]) * LOG2
    errors = []
    for row in _table(files["out.csv"]):
        where = f"row snr={row['snr_db']} rho={row['rho']}"
        k, rho, power = int(row["k"]), row["rho"], power_of(row["snr_db"])
        if "doppler-hz" in f:
            if not close(rho, oracle.jakes_rho(float(f["doppler-hz"]), float(f["delay-s"])), 1e-11):
                errors.append(f"{where}: rho is not J0(2 pi f_D tau)")
        if "alpha" in f:
            alpha = float(f["alpha"])
        else:
            alpha = oracle.default_threshold(mode, power, rate, explicit[0] if explicit else None)
        p1, p0 = oracle.powers(mode, power, alpha, k, explicit)
        e1, e0 = oracle.eps_conditional(rate, p1, p0, alpha, rho)
        eps = oracle.outage(k, rate, p1, p0, alpha, rho)
        if not (close(row["rate_nats"], rate, ELEM_RTOL) and close(row["alpha"], alpha, ELEM_RTOL)
                and close(row["p1"], p1, ELEM_RTOL) and close(row["p0"], p0, ELEM_RTOL)):
            errors.append(f"{where}: rate, alpha or powers differ from the inputs")
        atol = Q1_ATOL if 0.0 < rho < 1.0 else EPS_ATOL
        for col, ref in (("eps", eps), ("eps1", e1), ("eps0", e0)):
            _check_eps(errors, f"{where} {col}", row[col], ref, atol)
        if rho == 1.0 and mode == "long_term_two_level" and "alpha" not in f:
            _check_eps(errors, f"{where} closed form", row["eps"],
                       oracle.outage_longterm_closed(power, k, rate), EPS_ATOL)
    return errors


def check_wideband(argv, files):
    f = _flags(argv)
    errors = []
    for row in _table(files["out.csv"]):
        k, rho = int(row["k"]), row["rho"]
        if f["alpha"].startswith("suboptimal:"):
            alpha = math.log(k) - float(f["alpha"].split(":")[1])
        else:
            alpha = float(f["alpha"])
        ref_db = oracle.ebn0_min_db(k, rho, alpha)
        ref_s0 = oracle.wideband_slope(k, rho, alpha)
        if not (close(row["alpha"], alpha, ELEM_RTOL) and close(row["ebn0_min_db"], ref_db, ELEM_RTOL, 1e-12)
                and close(row["slope_s0"], ref_s0, ELEM_RTOL)):
            errors.append(f"row k={k} rho={rho}: {row} vs Eb/N0_min {ref_db!r}, S0 {ref_s0!r}")
    return errors


def _check_dmt(errors, where, k, scheme, r_values, d_values):
    d0 = oracle.dmt_intercept(scheme, k)
    if len(r_values) != 11 or r_values[0] != 0.0 or d_values[0] != d0:
        errors.append(f"{where}: intercept {d_values[:1]} vs {d0}")
    for r, d in zip(r_values, d_values):
        if not close(d, d0 * max(0.0, 1.0 - r), ELEM_RTOL, 1e-12):
            errors.append(f"{where}: d({r}) = {d} vs {d0 * max(0.0, 1.0 - r)}")


def check_dmt(argv, files):
    f = _flags(argv)
    scheme = "outdated_1bit" if f["scheme"] == "outdated" else f["scheme"]
    errors = []
    if "out.json" in files:
        cols = json.loads(files["out.json"])["columns"]
        r_values, d_values = [float(x) for x in cols["r"]], [float(x) for x in cols["d"]]
    else:
        rows = _table(files["out.csv"])
        r_values, d_values = [row["r"] for row in rows], [row["d"] for row in rows]
    _check_dmt(errors, scheme, int(f["k"]), scheme, r_values, d_values)
    return errors


def check_figure(argv, files):
    fig = argv[1]
    rate = 3.0 * LOG2
    errors = []
    if fig == "fig3":
        for k in (1, 8, 16):
            for name, mode in (("short", "short_term"), ("long", "long_term_two_level")):
                for row in _table(files[f"out_k{k}_{name}.csv"]):
                    power = power_of(row["snr_db"])
                    alpha = oracle.default_threshold(mode, power, rate)
                    p1, p0 = oracle.powers(mode, power, alpha, k)
                    where = f"fig3 k={k} {name} snr={row['snr_db']}"
                    _check_eps(errors, where, row["eps"], oracle.outage(k, rate, p1, p0, alpha, 1.0), EPS_ATOL)
                    if mode == "long_term_two_level":
                        _check_eps(errors, where + " closed form", row["eps"],
                                   oracle.outage_longterm_closed(power, k, rate), EPS_ATOL)
    elif fig == "fig4":
        curves = {}
        for rho in (0.0, 0.5, 0.9, 1.0):
            rows = _table(files[f"out_rho{rho}.csv"])
            curves[rho] = [row["eps"] for row in rows]
            for row in rows:
                power = power_of(row["snr_db"])
                alpha = oracle.default_threshold("long_term_two_level", power, rate)
                p1, p0 = oracle.powers("long_term_two_level", power, alpha, 16)
                _check_eps(errors, f"fig4 rho={rho} snr={row['snr_db']}", row["eps"],
                           oracle.outage(16, rate, p1, p0, alpha, rho), Q1_ATOL)
        for row in _table(files["out_no_csi.csv"]):
            _check_eps(errors, f"fig4 no_csi snr={row['snr_db']}", row["eps"],
                       -math.expm1(-math.expm1(rate) / power_of(row["snr_db"])), EPS_ATOL)
        # Fresher feedback never raises the outage probability.
        for lo, hi in ((0.0, 0.5), (0.5, 0.9), (0.9, 1.0)):
            if any(a < b - 1e-12 for a, b in zip(curves[lo], curves[hi])):
                errors.append(f"fig4 outage at rho={hi} exceeds rho={lo}")
    else:
        for scheme in oracle.DMT_INTERCEPTS:
            rows = _table(files[f"out_{scheme}.csv"])
            _check_dmt(errors, f"fig5 {scheme}", 16, scheme, [r["r"] for r in rows], [r["d"] for r in rows])
    return errors


def check_ergodic(argv, files):
    f = _flags(argv)
    errors = []
    for row in _table(files["out.csv"]):
        k, rho, power = int(row["k"]), row["rho"], power_of(row["snr_db"])
        if f["alpha"].startswith("suboptimal:"):
            alpha = math.log(k) - float(f["alpha"].split(":")[1])
        else:
            alpha = float(f["alpha"])
        ref = oracle.conditional_rate(k, power, rho, alpha)
        lo = oracle.rate_lower(k, power, rho, alpha)
        up = oracle.rate_upper(k, power, rho, alpha)
        where = f"row k={k} snr={row['snr_db']} rho={rho}"
        if not close(row["rate_nats"], ref, RATE_RTOL):
            errors.append(f"{where}: rate {row['rate_nats']!r} vs quadrature {ref!r}")
        if not (close(row["upper_nats"], up, ELEM_RTOL) and close(row["lower_nats"], lo, ELEM_RTOL, 1e-12)
                and close(row["prob_transmit"], oracle.prob_some_above(alpha, k), ELEM_RTOL)):
            errors.append(f"{where}: bounds or Pr(N>0) differ from the closed forms")
        if not row["lower_nats"] <= row["rate_nats"] <= row["upper_nats"]:
            errors.append(f"{where}: sandwich lower <= rate <= upper fails")
    return errors


_CHECKS = {"outage": check_outage, "wideband": check_wideband, "dmt": check_dmt,
           "figure": check_figure, "ergodic": check_ergodic}


class CliQueries(Workload):
    name = "cli_queries"

    def build(self):
        return [self._query_op(i, text.split()) for i, text in enumerate(CLI_QUERIES)]

    def _query_op(self, i, argv):
        outdir = self.workdir / f"q{i:02d}"
        outdir.mkdir(parents=True, exist_ok=True)
        ext = "json" if "json" in argv else "csv"
        full = argv + ["--out", str(outdir / f"out.{ext}")]

        def collect(code):
            return code, {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

        def check(out):
            code, files = out
            if code != 0:
                return Failed(f"exit code {code}")
            errors = _CHECKS[argv[0]](argv, files)
            return "; ".join(errors[:3]) if errors else None

        return Op(" ".join(argv), lambda: self.pkg.cli.main(full), check, collect)

    def warm_up(self):
        warm = self.workdir / "warm"
        warm.mkdir(parents=True, exist_ok=True)
        self.pkg.cli.main(["outage", "--k", "4", "--rho", "0.5", "--rate-bits", "1",
                           "--out", str(warm / "out.csv")])

    def output_counts(self, outputs):
        rows = nbytes = 0
        for code, files in outputs:
            for name, data in files.items():
                nbytes += len(data)
                if name.endswith(".json"):
                    rows += len(next(iter(json.loads(data)["columns"].values())))
                else:
                    rows += len(data.splitlines()) - 2  # '#' metadata line and header
        return {"cli.rows_written": rows, "cli.bytes_written": nbytes}


WORKLOADS = {w.name: w for w in (ErgodicDesign, McOracle, CliQueries)}
