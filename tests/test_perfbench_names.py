"""The benchmark's tracer finds every walkforge name it wraps.

perfbench/tracing.py wraps public functions by module attribute and
reports a metric as absent when its name is gone; the benchmark's own
smoke tests catch that, but they are not part of this suite. So this test
loads tracing.py, without writing anything under perfbench/, installs its
Tracer over one in-process `--model all` pipeline at the benchmark's smoke
scale, and checks that no name is missing and that every nets wrap
recorded a span.
"""

import importlib.util
import pathlib
import sys

import pytest

from walkforge import cli

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# the smoke-scale flags of perfbench's all_models workload, on 300 usable rows
SMOKE = ["--synthetic", "300", "--seed", "7", "--model", "all", "--train-len", "150",
         "--test-len", "50", "--stride", "100", "--h1", "4", "--h2", "8", "--lookback", "5",
         "--epochs", "1", "--svr-max-iter", "300", "--trees", "1"]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclasses look their annotations up
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    yield module
    del sys.modules[spec.name]


@pytest.fixture(scope="module")
def traced(tracing, tmp_path_factory):
    tracer = tracing.Tracer("names")
    tracer.install()
    try:
        out = tmp_path_factory.mktemp("traced") / "out"
        assert cli.main(["pipeline", *SMOKE, "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    return tracer


def test_every_wrapped_name_exists_and_every_hook_fits(traced):
    assert traced.missing == set()


def test_every_nets_wrap_records_a_span(tracing, traced):
    names = {span[0] for span in traced.spans}
    for wrap in tracing.WRAPS:
        if wrap.module != "nets":
            continue
        qualified = f"nets.{wrap.attr}"
        assert any(name == qualified or name.startswith(qualified + ".") for name in names), \
            qualified


def test_the_tracer_is_removed_again(tracing, traced):
    from walkforge import nets, pipeline
    for module in (nets, pipeline):
        assert not any(hasattr(value, "__wrapped__") for value in vars(module).values())
