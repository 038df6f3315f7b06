"""The benchmark's tracer (``perfbench/tracer.py``, used by ``perfbench/run.py
--trace 1``) still installs on the package, records what it records, and
puts every patched attribute back.  It wraps functions by the names the
package binds, so a renamed or deleted function can break traced runs while
the untraced benchmark stays green."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import ensembleqc
# The tracer reads these as attributes of the package, so they are imported
# first, as perfbench/workloads.py does.
import ensembleqc.cli  # noqa: F401
import ensembleqc.presets  # noqa: F401
from ensembleqc import dynamics, presets
from ensembleqc.physical import derive_couplings

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings() -> dict[tuple[str, str], object]:
    bindings = {(name, attr): obj
                for name, module in sys.modules.items()
                if name == "ensembleqc" or name.startswith("ensembleqc.")
                for attr, obj in vars(module).items()}
    bindings[("gates.Unitary", "__init__")] = vars(ensembleqc.gates.Unitary)["__init__"]
    return bindings


def test_traced_call_records_a_span_and_steps_then_uninstalls():
    tracer = load_tracer().Tracer()
    before = package_bindings()
    couplings = derive_couplings(presets.blockade_tuned_params(presets.SQRT3))
    start = dynamics.NodePairState.excited_node_one()
    tracer.install(ensembleqc)
    try:
        assert dynamics.evolve_numerical is not before[("ensembleqc.dynamics", "evolve_numerical")]
        tracer.active = True
        dynamics.evolve_numerical(couplings, 1, dynamics.swap_time(couplings), start, samples=4)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert "dynamics.evolve_numerical" in {span[1] for span in tracer.spans}
    assert tracer.counters["dynamics.evolve_numerical.steps"] > 0
    after = package_bindings()
    assert after.keys() == before.keys()
    assert [key for key, obj in before.items() if after[key] is not obj] == []
