"""The package namespace: ``import qcausal`` loads no layer, and each public
name loads its layer on first use without being cached in the package."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qcausal

REPO_ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("quantum", "entanglement", "lattice", "topology", "causal")


def test_import_loads_neither_numpy_nor_a_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    code = (
        "import sys, qcausal\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'"
        " or m.startswith('qcausal.')))"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=REPO_ROOT, env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "[]"


def test_every_name_is_its_home_layers_object():
    assert len(qcausal.__all__) == 51
    for layer in LAYERS:
        assert getattr(qcausal, layer) is importlib.import_module(f"qcausal.{layer}")
    for name in set(qcausal.__all__) - set(LAYERS):
        home = importlib.import_module(f"qcausal.{qcausal._HOME[name]}")
        value = getattr(qcausal, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from qcausal import *", namespace)
    assert set(qcausal.__all__) <= set(namespace)
    assert set(qcausal.__all__) <= set(dir(qcausal))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qcausal.no_such_name  # noqa: B018
    assert not hasattr(qcausal, "interval")  # a layer name outside __all__


def test_tracing_leaves_no_wrapper_in_the_package():
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(REPO_ROOT / "perfbench"))
    from qcausal import entanglement

    original = entanglement.maximize_chsh
    with tracing.installed(tracing.Tracer()):
        assert qcausal.maximize_chsh is entanglement.maximize_chsh is not original
        exec("from qcausal import *", {})
    assert qcausal.maximize_chsh is original
    assert not set(vars(qcausal)) & set(qcausal._HOME)  # nothing cached
    wrapped = [name for name, value in vars(qcausal).items() if hasattr(value, "__wrapped__")]
    assert wrapped == []


def _readme():
    return (REPO_ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_python_example_runs():
    example = re.search(r"```python\n(.*?)```", _readme(), re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})


def test_readme_states_the_public_name_count():
    stated = re.search(r"binds all (\d+) public\s+names", _readme())
    assert stated is not None
    assert int(stated.group(1)) == len(qcausal.__all__)
