"""The bench harness's tracer still finds every layer function it wraps.

``perfbench/tracing.py`` replaces package functions by name; a renamed or
deleted one would otherwise fail only a traced bench run.
"""

import importlib.util
import pathlib
import types

from onebitfb import channel, cli, ergodic, mcsim, outage, specfun

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_restore_unwraps():
    tracing = _load_tracing()
    pkg = types.SimpleNamespace(channel=channel, cli=cli, ergodic=ergodic, mcsim=mcsim,
                                outage=outage, specfun=specfun)
    before = {(mod, attr): getattr(mod, attr) for mod in (ergodic, outage, mcsim, cli)
              for attr in vars(mod)}
    tracer = tracing.Tracer()
    tracing.install(tracer, pkg)
    try:
        ergodic.sum_rate(ergodic.ErgodicConfig(4, 10.0, channel.CorrelationParams(0.9), 1.0))
        ergodic.full_csi_rate(4, 10.0)
        ergodic.no_csi_rate(10.0)
    finally:
        tracer.restore()
    # One log-MGF evaluation per rate integral, each inside a traced integral.
    assert tracer.counts["specfun.integrand_evals"] == 3
    assert tracer.summary()["specfun.integrate_semi_infinite"]["calls"] == 3
    assert {key: getattr(*key) for key in before} == before


def test_optimizer_records_one_traced_integral_per_pass(monkeypatch):
    tracing = _load_tracing()
    pkg = types.SimpleNamespace(channel=channel, cli=cli, ergodic=ergodic, mcsim=mcsim,
                                outage=outage, specfun=specfun)
    passes = []
    log1p_mean = ergodic._log1p_mean

    def counting(*args, **kwargs):
        passes.append(1)
        return log1p_mean(*args, **kwargs)

    monkeypatch.setattr(ergodic, "_log1p_mean", counting)
    tracer = tracing.Tracer()
    tracing.install(tracer, pkg)
    try:
        ergodic.optimal_threshold(64, 100.0, channel.CorrelationParams(0.9))
    finally:
        tracer.restore()
    assert len(passes) > 0
    assert tracer.summary()["specfun.integrate_semi_infinite"]["calls"] == len(passes)
    assert tracer.counts["specfun.integrand_evals"] == len(passes)


def test_tracer_sees_the_cli_optimizer(tmp_path):
    # --alpha optimal and the default both call ergodic.optimal_threshold by
    # name at run time, so a wrapper installed after import counts them.
    tracing = _load_tracing()
    pkg = types.SimpleNamespace(channel=channel, cli=cli, ergodic=ergodic, mcsim=mcsim,
                                outage=outage, specfun=specfun)
    tracer = tracing.Tracer()
    tracing.install(tracer, pkg)
    try:
        out = str(tmp_path / "out.csv")
        assert cli.main(["ergodic", "--k", "4", "--rho", "0.9", "--out", out]) == 0
        assert cli.main(["ergodic", "--k", "4", "--rho", "0.9", "--alpha", "optimal",
                         "--sweep", "snr-db=0:10:2", "--out", out]) == 0
    finally:
        tracer.restore()
    assert tracer.summary()["ergodic.optimal_threshold"]["calls"] == 3


def test_outdated_outage_counts_four_marcum_elements():
    # eps1 and eps0 each read two scalar Q1 values through outage.marcum_q1.
    tracing = _load_tracing()
    pkg = types.SimpleNamespace(channel=channel, cli=cli, ergodic=ergodic, mcsim=mcsim,
                                outage=outage, specfun=specfun)
    cfg = outage.OutageConfig(4, 10.0, channel.CorrelationParams(0.5), 1.0, 0.5,
                              outage.PowerMode.long_term())
    tracer = tracing.Tracer()
    tracing.install(tracer, pkg)
    try:
        for _ in range(3):
            outage.outage_outdated(cfg)
    finally:
        tracer.restore()
    summary = tracer.summary()
    assert summary["outage.outage_outdated"]["calls"] == 3
    assert summary["specfun.marcum_q1"]["calls"] == 12
    assert tracer.counts["specfun.marcum_q1.elements"] == 12
