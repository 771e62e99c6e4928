"""The package namespace: exports and submodules load at first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fountain_lab

SUBMODULES = ("analytics", "channel", "cli", "config", "degree", "graph", "schemes", "sim", "wire")


def test_cli_predict_leaves_session_loop_unloaded(tmp_path):
    # predict needs the closed forms only: analytics, degree and the configs
    src = str(Path(fountain_lab.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from fountain_lab import cli\n"
        "for scheme, extra in (('ofc', []), ('ofcnb', ['--gamma0', '0.01']), ('sofc', [])):\n"
        "    out = sys.argv[1] + '/' + scheme + '.csv'\n"
        "    assert cli.main(['predict', '--scheme', scheme, '--k', '50', '--eps', '0.1', '--out', out] + extra) == 0\n"
        "names = ('sim', 'wire', 'graph', 'schemes', 'channel')\n"
        "print(' '.join(n for n in names if 'fountain_lab.' + n in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""
    assert len((tmp_path / "sofc.csv").read_text().splitlines()) == 51


def test_cli_predict_leaves_numpy_unloaded(tmp_path):
    # the closed forms compute in Python floats: a cold predict never pays
    # for numpy's import
    src = str(Path(fountain_lab.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from fountain_lab import cli\n"
        "for scheme, extra in (('ofc', []), ('ofcnb', ['--gamma0', '0.01']), ('sofc', [])):\n"
        "    out = sys.argv[1] + '/' + scheme + '.csv'\n"
        "    assert cli.main(['predict', '--scheme', scheme, '--k', '1000', '--eps', '0.1', '--out', out] + extra) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
    assert len((tmp_path / "ofcnb.csv").read_text().splitlines()) == 1001


def test_every_export_is_the_object_in_its_home_module():
    modules = [importlib.import_module(f"fountain_lab.{name}") for name in SUBMODULES]
    for name in fountain_lab.__all__:
        homes = [m for m in modules if name in getattr(m, "__all__", ())]
        assert homes, name
        for home in homes:
            assert getattr(fountain_lab, name) is getattr(home, name), (name, home.__name__)
    assert fountain_lab.schemes.OFC is fountain_lab.config.OFC


def test_submodules_resolve_as_attributes():
    # the benchmark reads fl.sim.milestone_grid and fl.analytics.compare_to_curve
    for name in SUBMODULES:
        assert getattr(fountain_lab, name) is sys.modules[f"fountain_lab.{name}"]
    assert callable(fountain_lab.sim.milestone_grid)
    assert callable(fountain_lab.analytics.compare_to_curve)


def test_dir_lists_every_export_and_unknown_names_raise():
    listed = dir(fountain_lab)
    assert set(fountain_lab.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        fountain_lab.no_such_name
    with pytest.raises(ImportError):
        from fountain_lab import no_such_name  # noqa: F401


def test_resolving_exports_leaves_the_namespace_unchanged():
    # span wrappers patch every package module that binds a function, so a
    # name stored here at first use would outlive its wrapper
    for name in SUBMODULES:
        importlib.import_module(f"fountain_lab.{name}")
    before = dict(vars(fountain_lab))
    for name in fountain_lab.__all__:
        getattr(fountain_lab, name)
    fountain_lab.run_session(fountain_lab.OFC(), 64, 0.1, seed=1)
    after = vars(fountain_lab)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
