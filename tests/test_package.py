"""The package surface: every name `rewirelab` exported when its `__init__`
imported every module, served on first use."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import rewirelab

SUBMODULES = ("cuts", "errors", "graph", "reductions", "rewiring", "spectral", "sturm")

# home module -> the names the eager `__init__` imported from it
EXPORTS = {
    "cuts": ("BisectionResult", "Cut", "balance_cut", "cheeger_consistent", "cheeger_interval",
             "conductance_exact", "conductance_of", "conductance_sweep", "min_bisection_exact"),
    "errors": ("RewireLabError",),
    "graph": ("EditSet", "Graph", "apply_edits", "barbell_graph", "build_graph", "complete_graph", "cycle_graph",
              "edit_set_between", "generate", "gnp_graph", "make_edit_set", "matrix_of", "parse_graph",
              "random_regular_graph", "serialize_graph"),
    "reductions": ("DEFAULT_SEED", "BisectionInstance", "CertifiedExpander", "ExpanderEmbedding",
                   "ReductionCertificate", "ReductionConstants", "build_certified_expander",
                   "certificate_json_text", "certificate_to_json", "embed_instance", "measure_constants",
                   "rebuild_certificate", "reduce_to_groc", "reduce_to_gros", "scale_instance_between",
                   "scale_instance_large", "verify_reduction"),
    "rewiring": ("Decision", "GrocInstance", "GrosInstance", "decide_groc", "decide_gros", "decision_to_json",
                 "edit_set_to_json", "effective_resistance", "forman_curvature", "greedy_rewire", "ppr_matrix",
                 "ppr_rewire", "resistance_matrix", "sdrf_like_rewire"),
    "spectral": ("SpectralSummary", "decay_report", "decay_report_csv", "dirichlet_energy", "propagate",
                 "spectral_summary"),
    "sturm": ("exact_mu2_leq",),
}
NAMES = sorted({name for names in EXPORTS.values() for name in names} | set(SUBMODULES))


def _home_value(name):
    if name in SUBMODULES:
        return importlib.import_module(f"rewirelab.{name}")
    home = next(module for module, names in EXPORTS.items() if name in names)
    return getattr(importlib.import_module(f"rewirelab.{home}"), name)


@pytest.mark.parametrize("name", NAMES)
def test_every_name_resolves_both_ways(name):
    namespace = {}
    exec(f"from rewirelab import {name}", namespace)
    assert getattr(rewirelab, name) is namespace[name] is _home_value(name)


def test_star_import_and_dir_list_the_surface():
    namespace = {}
    exec("from rewirelab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == NAMES
    assert set(NAMES) <= set(dir(rewirelab))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rewirelab.no_such_name
    assert not hasattr(rewirelab, "cli_main")
    with pytest.raises(ImportError):
        exec("from rewirelab import no_such_name", {})


# A fresh interpreter imports the package once per name: no submodule loads with
# the package, and the first access to the name loads every one.
_FIRST_ACCESS_PROBE = """
import json, sys
out = {}
for name in sys.argv[1:]:
    for module in [m for m in sys.modules if m == "rewirelab" or m.startswith("rewirelab.")]:
        del sys.modules[module]
    import rewirelab
    before = sorted(m for m in sys.modules if m.startswith("rewirelab."))
    getattr(rewirelab, name)
    out[name] = [before, sorted(m.split(".")[1] for m in sys.modules if m.startswith("rewirelab."))]
print(json.dumps(out))
"""


def test_first_access_loads_every_module():
    # the first name of each home module, and each submodule
    names = [names[0] for names in EXPORTS.values()] + ["DEFAULT_SEED", *SUBMODULES]
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _FIRST_ACCESS_PROBE, *names],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    loaded = json.loads(proc.stdout)
    assert sorted(loaded) == sorted(set(names))
    for before, after in loaded.values():
        assert before == []
        assert after == list(SUBMODULES)
