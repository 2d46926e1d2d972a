"""Import hygiene and the lazy top-level exports of ``repro``.

Each import check runs in a fresh interpreter, so the modules this test
process has already loaded cannot hide a heavy import.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

HEAVY = ("scipy.signal", "scipy.optimize", "scipy.stats", "networkx")


def _run(code):
    """Run ``code`` in a fresh interpreter and return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(code, watch):
    """Which of the ``watch`` modules are loaded once ``code`` has run."""
    probe = (f"import json, sys\n{code}\n"
             f"print(json.dumps([m for m in {list(watch)!r} "
             f"if m in sys.modules]))")
    return json.loads(_run(probe).splitlines()[-1])


class TestImportHygiene:
    def test_import_repro_loads_no_subpackage(self):
        assert _loaded_after("import repro", HEAVY + ("repro.phy",)) == []

    @pytest.mark.parametrize("module", ["repro.core.link", "repro.campaign"])
    def test_link_and_campaign_skip_heavy_dependencies(self, module):
        assert _loaded_after(f"import {module}", HEAVY) == []

    def test_mesh_coverage_loads_no_networkx(self):
        code = ("import repro.mesh\n"
                "from repro.mesh.coverage import coverage_result\n"
                "coverage_result(repro.mesh.grid_positions(3, 50.0), 150.0,"
                " n_samples=200, rng=1)")
        assert _loaded_after(code, HEAVY) == []

    def test_best_path_loads_networkx(self):
        code = ("from repro.mesh import MeshNetwork, grid_positions\n"
                "MeshNetwork(grid_positions(2, 20.0)).best_path(0, 3)")
        assert _loaded_after(code, HEAVY) == ["networkx"]

    @pytest.mark.parametrize("module", ["repro.mesh", "repro.mesh.coverage"])
    def test_mesh_import_skips_scipy_spatial(self, module):
        assert _loaded_after(f"import {module}", ("scipy.spatial",)) == []

    def test_mesh_graph_build_loads_scipy_spatial(self):
        code = ("from repro.mesh import MeshNetwork\n"
                "MeshNetwork([[0.0, 0.0], [10.0, 0.0]])")
        assert _loaded_after(code, ("scipy.spatial",)) == ["scipy.spatial"]

    def test_gfsk_modulate_loads_scipy_signal(self):
        code = ("from repro.phy.fhss import GfskModem\n"
                "GfskModem().modulate([0, 1, 1, 0])")
        assert "scipy.signal" in _loaded_after(code, HEAVY)


class TestLazyExports:
    def test_every_export_is_its_home_object(self):
        assert set(repro._EXPORTS) | {"__version__"} == set(repro.__all__)
        for name, home in repro._EXPORTS.items():
            assert getattr(repro, name) is getattr(
                importlib.import_module(home), name), name

    def test_dir_lists_all_exports(self):
        assert set(repro.__all__) <= set(dir(repro))

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)

    def test_subpackages_resolve_after_bare_import(self):
        out = _run("import repro\n"
                   "print(repro.mesh.MeshNetwork.__name__)\n"
                   "print(repro.campaign.run_campaign.__name__)")
        assert out.split() == ["MeshNetwork", "run_campaign"]

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.no_such_name
        with pytest.raises(AttributeError):
            repro._no_such_private_name
        assert not hasattr(repro, "no_such_name")

    def test_docstring_quick_start_runs(self):
        code = repro.__doc__.split("Quick start::", 1)[1]
        lines = [line[4:] for line in code.strip("\n").splitlines()
                 if line.startswith("    ")]
        out = _run("\n".join(lines))
        per, goodput = (float(x) for x in out.split())
        assert 0.0 <= per <= 1.0
        assert goodput >= 0.0
