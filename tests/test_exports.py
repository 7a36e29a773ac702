"""What the package exports is declared once: each model and analysis module's
``__all__``, re-exported as it is. The codec, presets and CLI modules are
reached as submodules (``opiniondyn.serialize`` and so on)."""

import inspect

import opiniondyn
from opiniondyn import analysis, bounded_confidence, gossip, linear_dynamics, net_graph, state

MODULES = (state, net_graph, linear_dynamics, bounded_confidence, gossip, analysis)


def test_exports_are_exactly_the_union_of_the_modules_all():
    exported = {name for name, value in vars(opiniondyn).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared)), "a name is declared by two modules"
    assert exported == set(declared)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(opiniondyn, name) is getattr(module, name)
