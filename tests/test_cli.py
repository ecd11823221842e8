import csv
import json
import math
import os
import subprocess
import sys

import pytest

import onebitfb
from onebitfb.cli import main


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
        ],
    )
    def test_flags_a_figure_does_not_read(self, capsys, argv, flag):
        code, err = exit_status(capsys, *argv)
        assert code == 2
        assert flag in err

    def test_figure_reads_its_own_flags(self, capsys, tmp_path):
        out = str(tmp_path / "f5.csv")
        assert exit_status(capsys, "figure", "fig5", "--k", "4", "--seed", "1",
                           "--out", out, "--format", "csv")[0] == 0

    @pytest.mark.parametrize("alpha", ["1", "suboptimal:1"])
    def test_wideband_snr_needs_optimal_alpha(self, capsys, alpha):
        code, err = exit_status(capsys, "wideband", "--k", "4", "--alpha", alpha,
                                "--snr-db", "99")
        assert code == 2
        assert "--snr-db" in err

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
