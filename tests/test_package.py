import pkgutil
import subprocess
import sys
from importlib import import_module

import claimcube

#: The library modules: every module of the package but the command line.
LIBRARY = [
    import_module(f"claimcube.{info.name}")
    for info in pkgutil.iter_modules(claimcube.__path__)
    if info.name not in ("cli", "__main__")
]


def test_the_package_exports_each_library_module_api_once():
    assert len(claimcube.__all__) == len(set(claimcube.__all__))
    assert set(claimcube.__all__) == {name for module in LIBRARY for name in module.__all__}
    for module in LIBRARY:
        for name in module.__all__:
            obj = vars(module)[name]
            assert getattr(claimcube, name) is obj
            assert getattr(obj, "__module__", module.__name__) == module.__name__, name


def test_importing_the_package_leaves_the_command_line_unloaded():
    code = "import sys, claimcube; print(sorted(m for m in sys.modules if m.startswith('claimcube')))"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert loaded.strip() == repr(sorted(["claimcube", *(module.__name__ for module in LIBRARY)]))


def test_importing_the_package_leaves_the_thread_pool_unloaded():
    code = "import sys, claimcube; print('concurrent.futures' in sys.modules)"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
    assert loaded.strip() == "False"
