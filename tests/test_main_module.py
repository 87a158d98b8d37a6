"""Smoke tests for packaging-level entry points and the public API."""

import subprocess
import sys

import repro


class TestPublicAPI:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_subpackage_alls_resolve(self):
        import repro.analysis
        import repro.core
        import repro.graph
        import repro.obs
        import repro.runtime
        import repro.serve
        import repro.static
        import repro.static.pysrc
        import repro.stats
        import repro.traces
        import repro.vindicate
        for module in (repro.analysis, repro.core, repro.graph, repro.obs,
                       repro.runtime, repro.serve, repro.static,
                       repro.static.pysrc, repro.stats, repro.traces,
                       repro.vindicate):
            assert module.__all__, module.__name__
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)
        # A lazy export must resolve through both packages that serve it.
        for name in repro.analysis.LAZY:
            assert hasattr(repro, name), ("repro", name)
            assert hasattr(repro.analysis, name), ("repro.analysis", name)


class TestMainModule:
    def test_python_dash_m_repro(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "litmus", "figure1"],
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0
        assert "WCP: 1 static races" in result.stdout

    def test_python_dash_m_repro_usage_error(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro"],
            capture_output=True, text=True, timeout=120)
        assert result.returncode != 0


#: Runs the CLI in-process as ``python -m repro`` would, then reports
#: whether numpy was imported along the way.
_PROBE = """
import runpy, sys
sys.argv = ["repro"] + sys.argv[1:]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
sys.stderr.write("NUMPY_LOADED=%s\\n" % ("numpy" in sys.modules))
"""


class TestLazyNumpy:
    """Only ``ReferenceAnalysis`` needs numpy; the CLI must not pay for
    it at start-up or on an ordinary analysis."""

    def _numpy_loaded(self, *args):
        result = subprocess.run([sys.executable, "-c", _PROBE, *args],
                                capture_output=True, text=True, timeout=120)
        assert "NUMPY_LOADED=" in result.stderr, result.stderr
        return result, "NUMPY_LOADED=True" in result.stderr

    def test_help_does_not_import_numpy(self):
        result, loaded = self._numpy_loaded("--help")
        assert "usage" in result.stdout
        assert not loaded

    def test_analyze_does_not_import_numpy(self, tmp_path):
        from repro.traces.io import dump_trace
        from repro.traces.litmus import ALL as LITMUS
        path = tmp_path / "figure2.txt"
        dump_trace(LITMUS["figure2"](), path)
        result, loaded = self._numpy_loaded("analyze", str(path))
        assert "races" in result.stdout, result.stdout + result.stderr
        assert not loaded

    def test_reference_analysis_still_exported(self):
        from repro import ReferenceAnalysis
        from repro.analysis import ReferenceAnalysis as from_analysis
        from repro.analysis.reference import ReferenceAnalysis as direct
        assert ReferenceAnalysis is from_analysis is direct
        assert "ReferenceAnalysis" in repro.__all__

    def test_unknown_attribute_still_raises(self):
        import repro.analysis
        for module in (repro, repro.analysis):
            assert not hasattr(module, "no_such_name")
