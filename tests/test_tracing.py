"""The benchmark's traced mode keeps working against the program.

perfbench/tracing.py wraps program functions by module and attribute name,
measures each assembled spectral form through its ``shape`` and ``nbytes``,
and each matrix handed to elimination through its ``rows`` and ``cols``.  A
renamed function, a form without ``nbytes`` or an elimination argument
without ``rows`` makes every traced operation fail.  The module is loaded
from its file, as the benchmark loads it, without editing it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from conemorse import cli, families, inequalities, spectral  # noqa: F401  (the tracer patches loaded modules only)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_target_resolves(tracing):
    for layer, targets in tracing.layers().items():
        for module_name, path, _ in targets:
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"{layer}: {module_name}.{path} is not callable"


def test_traced_spectral_calls_run(tracing, monkeypatch):
    # every band limit above the crossover, so the solve assembles a form to measure
    monkeypatch.setattr(spectral, "SCHUR_MAX_CUTOFF", 1)
    with tracing.Tracer() as tracer:
        report = spectral.spectral_report(spectral.SpectralProblem(10.0, 8, 1))
        mode = spectral.quasimode(spectral.SpectralProblem(20.0, 12, 1), "q1", 1)
    assert report.low_count == 3
    assert mode.rayleigh < 0.1
    assert tracer.calls["spectral.report"] == 1
    assert tracer.calls["spectral.eigensolve"] >= 1
    # one form per eigensolve; the quasimode is rated without assembling one
    assert tracer.calls["spectral.assemble"] == tracer.calls["spectral.eigensolve"]
    assert tracer.calls["spectral.quasimode"] == 1
    size = spectral.matrix_size(1, 8)
    assert tracer.max_unknowns == size
    assert 0 < tracer.max_form_bytes < size * size * 8


def test_traced_cone_report_runs(tracing):
    with tracing.Tracer() as tracer:
        report = inequalities.cone_report(families.torus(2))
    assert report.b_omega == [1, 4, 5, 5, 4, 1]
    assert tracer.calls["ratlinalg.eliminate"] > 0
    assert tracer.entries > 0
    # the complex validators check the datum's d∘d = 0 and dc = cd once each
    # (morse_complex calls them, not validate_datum) and the cone's d∘d = 0
    # once, and cohomology gives the Betti numbers of the Morse complex and
    # of the cone
    assert tracer.calls["morse.validate_datum"] == 0
    assert tracer.calls["complexes.validate"] == 3
    assert tracer.calls["complexes.cohomology"] == 2
