"""The benchmark's layer trace against the solver it wraps.

`perfbench/tracer.py` replaces module-level names of `colgen`, `illp`
and `llp` with timing wrappers.  A solve through the CLI must record
every span and counter the benchmark reports, so a change that stops
calling one of the wrapped names fails here.
"""

import importlib.util
import pathlib

from lexpbs import cli, colgen

TRACER_PATH = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_solve_records_every_metric(tmp_path, capsys):
    tracer_module = load_tracer()
    # A month whose master ends fractional, so that both integer solves
    # and gap completion run.
    inst, out = tmp_path / "s1009-3x12.json", tmp_path / "out.json"
    cli.dump_json(cli.instance_to_dict(cli.generate(1009, 3, 12)),
                  str(inst))
    original_run = colgen.run
    tracer = tracer_module.Tracer()
    tracer.begin_round()
    tracer.install()
    try:
        assert cli.main(["solve", str(inst), "-o", str(out)]) \
            == cli.EXIT_OK
    finally:
        tracer.uninstall()
    assert colgen.run is original_run
    for metric, spans in tracer_module.TIME_METRICS.items():
        for span in spans:
            assert tracer.times[span] > 0.0, (metric, span)
    for counter in tracer_module.WORK_COUNTERS:
        assert counter in tracer.counts, counter
    for counter in ("rclpp.labels_popped", "llp.master_solves",
                    "llp.lu_factorizations", "colgen.iterations",
                    "pbs.dag_arcs"):
        assert tracer.counts[counter] > 0, counter
    metrics = tracer.round_metrics()
    assert metrics["trace.solve_s"] > 0.0
    assert metrics["colgen.self_s"] > 0.0
