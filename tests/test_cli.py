import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onebitfb
from onebitfb import cli
from onebitfb.cli import main
from onebitfb.outage import outage_longterm_closed


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = text.strip().splitlines()
    assert lines[0].startswith("# ")
    meta = dict(kv.split("=", 1) for kv in lines[0][2:].split())
    reader = csv.DictReader(lines[1:])
    return meta, list(reader)


class TestErgodicCommand:
    def test_single_point(self, capsys):
        code, out, _ = run(
            capsys, "ergodic", "--k", "16", "--snr-db", "20", "--rho", "0.9",
            "--alpha", "1.5",
        )
        assert code == 0
        meta, rows = parse_csv(out)
        assert meta["command"] == "ergodic"
        assert len(rows) == 1
        row = rows[0]
        assert float(row["rate_nats"]) == pytest.approx(5.16213290734, abs=1e-6)
        assert float(row["rate_bits"]) == pytest.approx(
            float(row["rate_nats"]) / math.log(2), rel=1e-9
        )
        assert float(row["lower_nats"]) <= float(row["rate_nats"]) <= float(
            row["upper_nats"]
        )

    def test_sweep_with_dash_name(self, capsys):
        code, out, _ = run(
            capsys, "ergodic", "--k", "4", "--rho", "0.5", "--alpha", "1.0",
            "--sweep", "snr-db=0:20:5",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r["snr_db"]) for r in rows] == [0, 5, 10, 15, 20]
        rates = [float(r["rate_nats"]) for r in rows]
        assert rates == sorted(rates)

    def test_log_sweep(self, capsys):
        code, out, _ = run(
            capsys, "ergodic", "--rho", "0", "--alpha", "0.5",
            "--sweep", "k=1:100:3:log",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [int(r["k"]) for r in rows] == [1, 10, 100]

    def test_alpha_policies(self, capsys):
        code, out, _ = run(
            capsys, "ergodic", "--k", "8", "--rho", "0.9", "--alpha", "suboptimal:1",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["alpha"]) == pytest.approx(math.log(8) - 1)

    def test_jakes_rho(self, capsys):
        code, out, _ = run(
            capsys, "ergodic", "--doppler-hz", "50", "--delay-s", "0.001",
            "--alpha", "0.5",
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["rho"]) == pytest.approx(0.97547777407, rel=1e-9)


class TestOtherCommands:
    def test_wideband(self, capsys):
        code, out, _ = run(capsys, "wideband", "--k", "1", "--rho", "0", "--alpha", "0")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["ebn0_min_db"]) == pytest.approx(-1.59, abs=0.005)
        assert float(rows[0]["slope_s0"]) == pytest.approx(1.0)

    def test_outage_modes(self, capsys):
        for mode in ("short-term", "long-term", "explicit:10,40"):
            code, out, _ = run(
                capsys, "outage", "--k", "8", "--snr-db", "10", "--rho", "0.5",
                "--rate-bits", "3", "--power-mode", mode,
            )
            assert code == 0
            _, rows = parse_csv(out)
            assert 0.0 <= float(rows[0]["eps"]) <= 1.0

    def test_outage_requires_rate(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(capsys, "outage", "--k", "8", "--power-mode", "short-term")
        assert e.value.code == 2

    def test_dmt_alias(self, capsys):
        code, out, _ = run(capsys, "dmt", "--scheme", "outdated", "--k", "16")
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0]["d"]) == 1.0
        assert float(rows[-1]["d"]) == 0.0

    def test_simulate_deterministic(self, capsys):
        argv = (
            "simulate", "--k", "4", "--snr-db", "10", "--rho", "1",
            "--alpha", "1.0", "--n-blocks", "20000", "--seed", "5",
        )
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestOutputHandling:
    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "ergodic", "--k", "4", "--rho", "0.5", "--alpha", "1.0",
            "--format", "json", "--sweep", "snr-db=0:10:3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["command"] == "ergodic"
        assert len(doc["columns"]["rate_nats"]) == 3

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "res.csv"
        code, out, _ = run(
            capsys, "ergodic", "--k", "2", "--rho", "0.9", "--alpha", "1.0",
            "--out", str(path),
        )
        assert code == 0
        assert out == ""
        meta, rows = parse_csv(path.read_text())
        assert len(rows) == 1

    def test_figure_series_files(self, capsys, tmp_path):
        path = tmp_path / "f5.csv"
        code, _, _ = run(capsys, "figure", "fig5", "--out", str(path))
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("f5_*.csv"))
        assert "f5_longterm_1bit.csv" in files
        assert len(files) == 6

    @pytest.mark.parametrize("argv", [["dmt", "--k", "4"], ["figure", "fig5"]])
    def test_closed_stdout_stops_quietly(self, argv):
        # The pipe's read end is closed before the command starts, as after
        # `onebitfb ... | head -2` has read its lines: no traceback, and no
        # second error when the interpreter flushes stdout at exit.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.dirname(os.path.dirname(onebitfb.__file__))
        try:
            done = subprocess.run([sys.executable, "-m", "onebitfb.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env={**os.environ, "PYTHONPATH": src}, timeout=120)
        finally:
            os.close(write_end)
        assert done.stderr == ""
        assert done.returncode == 0


class TestErrors:
    def test_bad_k(self, capsys):
        code, _, err = run(capsys, "ergodic", "--k", "0")
        assert code == 2
        assert "error" in err

    def test_bad_sweep_param(self, capsys):
        with pytest.raises(SystemExit) as e:
            run(capsys, "ergodic", "--sweep", "bogus=0:1:2")
        assert e.value.code == 2

    def test_malformed_sweep(self, capsys):
        with pytest.raises(SystemExit):
            run(capsys, "ergodic", "--sweep", "k=1:2")

    def test_bad_power_mode(self, capsys):
        with pytest.raises(SystemExit):
            run(capsys, "outage", "--rate-bits", "1", "--power-mode", "weird")


def exit_status(capsys, *argv):
    """Exit code and stderr, whether main returns or argparse exits."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


class TestRejectedInputs:
    @pytest.mark.parametrize("alpha", ["optimal", "suboptimal:1"])
    def test_outage_simulate_needs_numeric_alpha(self, capsys, alpha):
        code, err = exit_status(
            capsys, "simulate", "--k", "4", "--rho", "0.5", "--rate-bits", "1",
            "--alpha", alpha, "--n-blocks", "1000",
        )
        assert code == 2
        assert "outage thresholds must be numeric or omitted" in err

    @pytest.mark.parametrize(
        "argv,name",
        [
            (("wideband", "--k", "4", "--alpha", "nan"), "--alpha"),
            (("ergodic", "--k", "4", "--rho", "0.5", "--alpha", "nan"), "--alpha"),
            (("outage", "--k", "4", "--rho", "0.5", "--rate-bits", "1", "--alpha", "inf"),
             "--alpha"),
            (("outage", "--k", "4", "--rho", "0.5", "--rate-bits", "nan"), "rate_nats"),
            (("outage", "--k", "4", "--rho", "0.5", "--rate-bits", "1",
              "--power-mode", "explicit:nan,1"), "--power-mode"),
            (("simulate", "--k", "4", "--rate-bits", "inf", "--n-blocks", "100"), "rate_nats"),
            (("simulate", "--k", "4", "--snr-db", "nan", "--alpha", "1", "--n-blocks", "100"),
             "power"),
        ],
    )
    def test_non_finite(self, capsys, argv, name):
        code, err = exit_status(capsys, *argv)
        assert code == 2
        assert name in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("dmt", "--k", "4", "--sweep", "k=1:4:2"),
            ("ergodic", "--k", "4", "--n-blocks", "10"),
            ("ergodic", "--k", "4", "--seed", "1"),
            ("figure", "fig5", "--rho", "0.5"),
            ("figure", "fig5", "--alpha", "1"),
            ("figure", "fig5", "--rate-nats", "1"),
        ],
    )
    def test_flags_a_command_does_not_read(self, capsys, argv):
        code, err = exit_status(capsys, *argv)
        assert code == 2
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (("figure", "fig1", "--k", "4"), "--k"),
            (("figure", "fig1", "--rate-bits", "2"), "--rate-bits"),
            (("figure", "fig2", "--snr-db", "3"), "--snr-db"),
            (("figure", "fig3", "--k", "4"), "--k"),
            (("figure", "fig3", "--snr-db", "3"), "--snr-db"),
            (("figure", "fig4", "--snr-db", "3"), "--snr-db"),
            (("figure", "fig5", "--snr-db", "3"), "--snr-db"),
            (("figure", "fig5", "--rate-bits", "9"), "--rate-bits"),
            (("figure", "fig3", "--seed", "1"), "--seed"),
        ],
    )
    def test_flags_a_figure_does_not_read(self, capsys, argv, flag):
        code, err = exit_status(capsys, *argv)
        assert code == 2
        assert flag in err

    def test_figure_honours_k_one(self, capsys, tmp_path):
        out = str(tmp_path / "f.csv")
        assert exit_status(capsys, "figure", "fig5", "--k", "1", "--out", out)[0] == 0
        _, rows = parse_csv((tmp_path / "f_longterm_1bit.csv").read_text())
        assert float(rows[0]["d"]) == 2.0  # d(0) = 2K
        assert exit_status(capsys, "figure", "fig4", "--k", "1", "--out", out)[0] == 0
        _, rows = parse_csv((tmp_path / "f_rho1.0.csv").read_text())
        at_20db = next(r for r in rows if float(r["snr_db"]) == 20.0)
        want = outage_longterm_closed(100.0, 1, 3.0 * math.log(2.0))
        assert float(at_20db["eps"]) == pytest.approx(want, rel=1e-9)

    def test_figure_reads_its_own_flags(self, capsys, tmp_path):
        out = str(tmp_path / "f5.csv")
        assert exit_status(capsys, "figure", "fig5", "--k", "4", "--out", out,
                           "--format", "csv")[0] == 0

    @pytest.mark.parametrize("alpha", ["1", "suboptimal:1"])
    def test_wideband_snr_needs_optimal_alpha(self, capsys, alpha):
        code, err = exit_status(capsys, "wideband", "--k", "4", "--alpha", alpha,
                                "--snr-db", "99")
        assert code == 2
        assert "--snr-db" in err

    @pytest.mark.parametrize("rho,alpha", [("0.5", "1e6"), ("0.93", "709"), ("0.999", "4e4")],
                             ids=["1e6", "709", "rho0.999"])
    def test_large_fixed_alpha_is_a_named_failure(self, capsys, rho, alpha):
        # Past the series' term cap the rate is a quadrature, and with
        # alpha (1 - rho^2) > 60 the Marcum-Q factor of the conditional
        # density is below what chndtr resolves where the density lives.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = exit_status(capsys, "ergodic", "--k", "4", "--rho", rho,
                                    "--alpha", alpha)
        assert code == 3
        assert "alpha" in err

    def test_subnormal_power_is_zero_rate(self, capsys, tmp_path):
        # 1/P overflows to inf, where e^x E_m(x) is its limit 0 (hyperu gave NaN).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = exit_status(capsys, "figure", "fig1", "--snr-db", "-3200",
                                  "--out", str(tmp_path / "f.csv"))
        assert code == 0
        for series in ("no_csi", "onebit_rho1.0", "onebit_rho0.9", "onebit_rho0.5"):
            _, rows = parse_csv((tmp_path / f"f_{series}.csv").read_text())
            rates = [float(r["rate_nats"]) for r in rows]
            assert len(rates) == 10 and all(0.0 <= x < 1e-300 for x in rates), series

    def test_power_near_float_limit_is_named(self, capsys, tmp_path):
        # The full-CSI rate is finite where P x overflows; the 1-bit rate then
        # needs P (1 + alpha), which overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = exit_status(capsys, "figure", "fig1", "--snr-db", "3080",
                                    "--out", str(tmp_path / "f.csv"))
        assert code == 3
        assert "power" in err
        _, rows = parse_csv((tmp_path / "f_full_csi.csv").read_text())
        assert all(math.isfinite(float(r["rate_nats"])) for r in rows)

    @pytest.mark.parametrize(
        "argv,code,name",
        [
            (("ergodic", "--k", "0", "--rho", "0.5"), 2, "num_users"),
            (("outage", "--k", "4", "--rho", "0.5", "--rate-bits", "1e6"), 3, "rate_nats"),
            (("figure", "fig4", "--k", "1", "--rate-bits", "0"), 2, "rate_nats"),
            (("simulate", "--k", "4", "--seed", "-1", "--n-blocks", "10"), 2, "seed"),
            (("ergodic", "--k", "4", "--sweep", "snr-db=0:inf:3"), 2, "--sweep"),
            (("ergodic", "--alpha", "1", "--snr-db", "nan", "--sweep", "snr-db=0:10:2"), 2,
             "snr_db"),
            (("wideband", "--k", "16", "--alpha", "1e300"), 3, "alpha"),
            (("ergodic", "--alpha", "1e300", "--snr-db", "300"), 3, "threshold"),
            (("outage", "--k", "4", "--rho", "0.9999", "--rate-bits", "1020", "--snr-db", "-30"),
             3, "rate_nats"),
            (("simulate", "--k", "2", "--rho", "0.5", "--rate-bits", "1", "--power-mode",
              "explicit:1e-320,1", "--n-blocks", "10"), 3, "rate_nats"),
            # A Marcum-Q argument overflows while (e^R - 1)/P and alpha are finite.
            (("outage", "--k", "4", "--rho", "0.5", "--rate-nats", "709", "--snr-db", "300",
              "--power-mode", "short-term"), 3, "rate_nats"),
            (("outage", "--k", "4", "--rho", "0.5", "--rate-bits", "1", "--alpha", "1.7e308",
              "--power-mode", "short-term"), 3, "alpha"),
            (("figure", "fig1", "--snr-db", "nan"), 2, "power"),
            # rho has one source: one Jakes flag alone, or one with --rho or a rho sweep, is
            # rejected rather than resolved to rho = 1 or to --rho.
            (("ergodic", "--doppler-hz", "50"), 2, "--delay-s"),
            (("outage", "--delay-s", "0.001", "--rate-bits", "1"), 2, "--doppler-hz"),
            (("wideband", "--rho", "0.5", "--doppler-hz", "50", "--delay-s", "0.001"), 2, "--rho"),
            (("simulate", "--rho", "1", "--delay-s", "0.001", "--n-blocks", "10"), 2,
             "--doppler-hz"),
            (("outage", "--doppler-hz", "50", "--delay-s", "0.001", "--rate-bits", "1",
              "--sweep", "rho=0:0.9:3"), 2, "--sweep"),
        ],
    )
    def test_messages_name_the_argument(self, capsys, argv, code, name):
        got, err = exit_status(capsys, *argv)
        assert got == code
        assert name in err

    def test_huge_outage_threshold_is_finite(self, capsys):
        # v^2 >= 1e300: no outage on "1" blocks, and eps0 is the SISO outage.
        code, out, _ = run(capsys, "outage", "--k", "4", "--rho", "0.5", "--rate-bits", "1",
                           "--alpha", "1e300")
        assert code == 0
        row = parse_csv(out)[1][0]
        assert float(row["eps1"]) == 0.0
        assert float(row["eps0"]) == pytest.approx(-math.expm1(-1.0 / 50.0), rel=1e-12)

    def test_marcum_ridge_past_chndtr(self, capsys):
        # eps1 reads Q1(a, a) at a = 3.6e5, where chndtr is NaN; the ridge
        # form (1 + i0e(a^2)) / 2 is exact there.
        code, out, _ = run(capsys, "outage", "--k", "4", "--snr-db", "0", "--rate-bits", "8",
                           "--rho", "0.999999998", "--power-mode", "short-term")
        assert code == 0
        assert float(parse_csv(out)[1][0]["eps1"]) == pytest.approx(5.69803517786e-4, rel=1e-9)

    @pytest.mark.parametrize("powers,column", [("1e-320,1", "eps1"), ("1,1e-320", "eps0")])
    def test_tiny_explicit_power_is_certain_outage(self, capsys, powers, column):
        # (e^R - 1)/P overflows: the P -> 0 limit, eps = 1 for that feedback bit.
        code, out, _ = run(capsys, "outage", "--k", "4", "--rho", "0.5", "--rate-bits", "1",
                           "--alpha", "1", "--power-mode", f"explicit:{powers}")
        assert code == 0
        assert float(parse_csv(out)[1][0][column]) == 1.0

    @pytest.mark.parametrize("k", ["5000", "1000000"])
    def test_unbounded_p0_is_a_numerical_failure(self, capsys, k):
        # (1 - e^{-alpha})^K underflows: P0 is inf at K = 5000 and 1/0 at 1e6.
        code, err = exit_status(capsys, "outage", "--k", k, "--rho", "0.5", "--rate-bits", "1")
        assert code == 3
        assert "P0" in err


def test_no_optimize_or_integrate_import():
    """The package, its optimizer, inversion and CLI load neither scipy.optimize
    nor scipy.integrate, which would add about 23 MiB and 0.3 s to a run."""
    code = """
import os, sys
from onebitfb import channel, cli, ergodic
c = channel.CorrelationParams(0.9)
ergodic.optimal_threshold(4, 10.0, c)
ergodic.rate_at_ebn0(2.0, 4, c, 0.8)
assert cli.main(["wideband", "--k", "8", "--rho", "0.9", "--out", os.devnull]) == 0
print(sorted(m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules))
"""
    src = os.path.dirname(os.path.dirname(onebitfb.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env)
    assert done.stdout.strip() == "[]"


# CLI fuzz: argv built from cli._FLAGS, each flag with extremes of its valid
# range and a few invalid values.  simulate takes K from its own short list,
# since its arrays grow with K times --n-blocks; fig1, fig2 (tens of seconds
# each) and large --n-blocks are left out.
_FUZZ_VALUES = {
    "k": ["0", "1", "2", "16", "1000000", "1000000000000"],
    "snr-db": ["-300", "-60", "0", "20", "60", "300", "nan"],
    "rho": ["-1", "-0.5", "0", "0.5", "0.9", "0.999999998", "1", "1.5"],
    "doppler-hz": ["0", "50", "1e300", "-1"],
    "delay-s": ["0", "0.001", "1e300", "inf"],
    "alpha": ["optimal", "suboptimal:1", "suboptimal:1e300", "0", "1", "705", "1e300", "-1"],
    "rate-bits": ["1e-300", "1", "3", "1e6", "0"],
    "rate-nats": ["1e-300", "1", "1e6", "nan"],
    "power-mode": ["long-term", "short-term", "explicit:10,40", "explicit:0,0",
                   "explicit:1e308,1e308", "explicit:1"],
    "seed": ["0", "5", "99999999999999999999", "-1"],
    "scheme": ["longterm_1bit", "outdated", "p2p_1bit", "x"],
    "format": ["csv", "json"],
    "n-blocks": ["0", "1", "200"],
}
_SIMULATE_K = ["0", "1", "4"]
_SWEEP_ENDS = ["-1", "0", "1e-300", "1", "20", "1e300", "inf"]
_SWEEP_NAMES = ["k", "snr-db", "rho", "rate-nats", "x"]
# What an error message may name: a flag, or the field it sets.
_NAMES = [f"--{f}" for f in cli._FLAGS] + [
    "num_users", "power", "rho", "alpha", "threshold", "rate_nats", "P0", "n_blocks", "seed",
    "delta", "doppler_hz", "delay_s", "k=", "snr_db",
]


def _own_flags(command):
    if command.startswith("figure"):
        return [f.replace("_", "-") for f in cli._FIGURES[command.split()[1]][1]]
    return [f for f in cli._COMMANDS[command].flags if f != "n-blocks"]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["ergodic", "wideband", "outage", "dmt", "simulate",
                                    "figure fig3", "figure fig4", "figure fig5"]))
    simulate = command == "simulate"
    argv = command.split()
    flags = _own_flags(command) + ["format"]
    if command == "outage" and draw(st.booleans()):  # most outage runs need a rate
        flags.remove("rate-bits")
        argv += ["--rate-bits", draw(st.sampled_from(_FUZZ_VALUES["rate-bits"]))]
    if draw(st.integers(0, 9)) == 0:  # now and then a flag the command does not read
        flags.append(draw(st.sampled_from([f for f in _FUZZ_VALUES if f not in flags])))
    for flag in draw(st.lists(st.sampled_from(flags), max_size=5, unique=True)):
        if flag == "sweep":
            name = draw(st.sampled_from([n for n in _SWEEP_NAMES if not (simulate and n == "k")]))
            start, stop = draw(st.lists(st.sampled_from(_SWEEP_ENDS), min_size=2, max_size=2))
            points = draw(st.sampled_from(["3", "1", "0"]))
            value = f"{name}={start}:{stop}:{points}" + draw(st.sampled_from(["", ":log"]))
        elif simulate and flag == "k":
            value = draw(st.sampled_from(_SIMULATE_K))
        else:
            value = draw(st.sampled_from(_FUZZ_VALUES[flag]))
        argv += [f"--{flag}", value]
    if simulate:
        argv += ["--n-blocks", draw(st.sampled_from(_FUZZ_VALUES["n-blocks"]))]
    return argv


@settings(max_examples=150)
@given(_argv())
def test_cli_fuzz(argv):
    """Exit 0, 2 or 3, warnings as errors; no NaN printed; every error names its argument."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), err
    if code == 0:
        assert "nan" not in re.split(r"[^a-z0-9.+-]+", out.lower())
    else:
        assert any(name in err for name in _NAMES), err
