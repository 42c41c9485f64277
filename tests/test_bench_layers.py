import importlib.util
from pathlib import Path

from gridfourier.verification import CHECK_NAMES

_SPEC = importlib.util.spec_from_file_location(
    "bench_layers", Path(__file__).resolve().parent.parent / "tools" / "bench_layers.py"
)
bench_layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_layers)


def test_layers_are_the_in_process_layers_and_runner_layers_name_real_checks():
    layers = bench_layers._layers()
    assert tuple(layers) == bench_layers.IN_PROCESS_LAYERS
    assert set(bench_layers.RUNNER_CHECKS) <= set(layers)
    for layer, checks in bench_layers.RUNNER_CHECKS.items():
        assert set(checks) <= set(CHECK_NAMES), layer
        # one list of candidates per distinct runner of the layer's checks
        assert all(rows for rows in layers[layer]()), layer
