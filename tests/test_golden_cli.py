"""Byte-for-byte regression gate on the CLI output.

Each command below writes with --out into its own directory; every file it
writes (one per series for figures) must equal the file of the same name
under tests/golden/<id>/.  The expected files were produced by this same
harness; regenerate them only for an intended output change, with

    PYTHONPATH=src python3 tests/test_golden_cli.py

which prints each golden file it added, removed or changed.
"""

import csv
import math
import sys
import tempfile
from pathlib import Path

import pytest

from onebitfb.channel import CorrelationParams
from onebitfb.cli import main
from onebitfb.ergodic import ErgodicConfig, prob_some_above, sum_rate
from onebitfb.outage import OutageConfig, PowerMode, outage_outdated

GOLDEN = Path(__file__).parent / "golden"

SIM = "--n-blocks 20000"

COMMANDS = {
    "ergodic_point": "ergodic --k 16 --snr-db 20 --rho 0.9 --alpha 1.5",
    "ergodic_snr_sweep": "ergodic --k 4 --rho 0.5 --alpha 1.0 --sweep snr-db=0:20:5",
    "ergodic_k_log_sweep": "ergodic --rho 0 --alpha 0.5 --sweep k=1:100:3:log",
    "ergodic_suboptimal": "ergodic --k 8 --rho 0.9 --alpha suboptimal:1",
    "ergodic_optimal_rho1": "ergodic --k 16 --rho 1 --alpha optimal",
    "ergodic_default_alpha_sweep": "ergodic --k 16 --rho 1 --sweep snr-db=0:30:4",
    "ergodic_jakes_json": "ergodic --doppler-hz 50 --delay-s 0.001 --alpha 0.5 --format json",
    "wideband_k_sweep": "wideband --k 16 --rho 0.9 --alpha 2.0 --sweep k=2:1024:10:log",
    "wideband_rho_sweep": "wideband --k 100 --alpha suboptimal:1 --sweep rho=0:1:11",
    "wideband_default_alpha": "wideband --k 8 --rho 1",
    "outage_long_term": "outage --k 8 --rho 0.5 --rate-bits 3 --power-mode long-term"
    " --sweep snr-db=0:30:16",
    "outage_short_term": "outage --k 4 --rho 0.9 --rate-bits 2 --power-mode short-term"
    " --sweep snr-db=0:30:16",
    "outage_explicit_jakes": "outage --k 2 --doppler-hz 50 --delay-s 0.001 --rate-nats 1"
    " --power-mode explicit:10,40 --sweep snr-db=0:20:6",
    "outage_fixed_alpha": "outage --k 4 --rho 0.7 --rate-bits 1 --alpha 0.5"
    " --power-mode short-term",
    "outage_rho_sweep_json": "outage --k 16 --snr-db 15 --rate-bits 2 --sweep rho=0:0.99:12"
    " --format json",
    "dmt_outdated_json": "dmt --scheme outdated --k 4 --format json",
    "dmt_default": "dmt --k 16",
    "simulate_rate": f"simulate --k 4 --snr-db 10 --rho 1 --alpha 1.0 --seed 5 {SIM}",
    "simulate_rate_rho_sweep": "simulate --k 4 --snr-db 10 --rho 0.5 --alpha suboptimal:0.5"
    f" --sweep rho=0:1:3 {SIM}",
    "simulate_outage_long_term": "simulate --k 4 --rho 0.5 --rate-bits 1 --alpha 1"
    f" --power-mode long-term {SIM}",
    "simulate_outage_explicit": "simulate --k 4 --rho 0.5 --rate-bits 1"
    f" --power-mode explicit:10,40 --sweep snr-db=0:20:3 {SIM}",
    "figure_fig1": "figure fig1",
    "figure_fig2": "figure fig2",
    "figure_fig3": "figure fig3",
    "figure_fig4": "figure fig4 --rate-bits 2",
    "figure_fig5_json": "figure fig5 --format json",
}


def _run(argv: list[str], outdir: Path) -> dict[str, bytes]:
    """Run one command with --out into ``outdir``; return the files it wrote."""
    outdir.mkdir(parents=True, exist_ok=True)
    ext = "json" if "json" in argv else "csv"
    assert main(argv + ["--out", str(outdir / f"out.{ext}")]) == 0
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_output_is_byte_identical(case, tmp_path):
    got = _run(COMMANDS[case].split(), tmp_path / case)
    want_dir = GOLDEN / case
    want = {p.name: p.read_bytes() for p in sorted(want_dir.iterdir())}
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], f"{case}: {name} differs from the golden file"


# What each simulate_* golden estimates: None for the rate, else the outage rate (nats)
# and power mode of its command, for the outage and the mean power.
SIM_FORMS = {
    "simulate_rate": None,
    "simulate_rate_rho_sweep": None,
    "simulate_outage_long_term": (math.log(2.0), PowerMode.long_term()),
    "simulate_outage_explicit": (math.log(2.0), PowerMode.explicit(10.0, 40.0)),
}
K_SIGMA = 6.0  # as perfbench's mc_oracle: a correct simulator fails a cell with chance 2e-9


def _within(mean: str, want: float, sigma: float) -> bool:
    return abs(float(mean) - want) <= K_SIGMA * sigma


@pytest.mark.parametrize("case", sorted(SIM_FORMS))
def test_simulate_golden_is_near_its_closed_form(case):
    # Each Monte-Carlo row lies within K_SIGMA standard errors of the closed form; the
    # outage and power errors are binomial, from the closed-form probabilities.
    form = SIM_FORMS[case]
    assert ("--rate-bits 1" in COMMANDS[case]) == (form is not None)
    with open(GOLDEN / case / "out.csv") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert rows
    for row in rows:
        k, n, alpha = int(row["k"]), int(row["n_blocks"]), float(row["alpha"])
        power, corr = 10.0 ** (float(row["snr_db"]) / 10.0), CorrelationParams(float(row["rho"]))
        if form is None:
            want = sum_rate(ErgodicConfig(k, power, corr, alpha))
            assert _within(row["rate_nats_mean"], want, float(row["rate_stderr"]))
            continue
        rate, mode = form
        eps = outage_outdated(OutageConfig(k, power, corr, rate, alpha, mode)).eps
        assert _within(row["eps_mean"], eps, math.sqrt(eps * (1.0 - eps) / n))
        p1, p0 = mode.resolve(power, alpha, k)
        f = prob_some_above(alpha, k)
        sigma = abs(p1 - p0) * math.sqrt(f * (1.0 - f) / n)
        assert _within(row["avg_power"], f * p1 + (1.0 - f) * p0, sigma)


def test_every_simulate_golden_is_checked():
    assert sorted(SIM_FORMS) == sorted(case for case in COMMANDS if case.startswith("simulate"))


def regenerate(golden: Path = GOLDEN) -> None:
    """Rewrite the golden files, printing each one added, removed or changed.  Each
    command writes into a temporary directory, so a failing one (an AssertionError
    from _run) leaves its case's golden files as they were."""
    for case, text in COMMANDS.items():
        with tempfile.TemporaryDirectory() as tmp:
            after = _run(text.split(), Path(tmp))
        target = golden / case
        target.mkdir(parents=True, exist_ok=True)
        before = {p.name: p.read_bytes() for p in target.glob("*")}
        for name in sorted(before.keys() | after.keys()):
            if name not in after:
                (target / name).unlink()
                print(f"{case}/{name}: removed")
            elif before.get(name) != after[name]:
                (target / name).write_bytes(after[name])
                print(f"{case}/{name}: {'changed' if name in before else 'new'}")


def test_regenerating_keeps_the_goldens_of_a_failing_command(tmp_path, monkeypatch):
    case = tmp_path / next(iter(COMMANDS))
    case.mkdir()
    (case / "out.csv").write_bytes(b"kept\n")
    monkeypatch.setattr(sys.modules[__name__], "main", lambda argv: 3)
    with pytest.raises(AssertionError):
        regenerate(tmp_path)
    assert [p.name for p in case.iterdir()] == ["out.csv"]
    assert (case / "out.csv").read_bytes() == b"kept\n"


if __name__ == "__main__":
    regenerate()
