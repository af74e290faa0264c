"""What importing the package pulls in."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import forestseg


def _loaded_modules(imports: str) -> set[str]:
    """Names in ``sys.modules`` after a fresh interpreter runs ``import <imports>``."""
    package_root = str(Path(forestseg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    code = f"import sys, {imports}; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return set(out.stdout.split())


def test_import_does_not_load_scipy():
    # forestseg.cli imports every other module of the package.
    assert "scipy" not in _loaded_modules("forestseg.cli"), (
        "importing forestseg loaded scipy: `import scipy.sparse` alone adds about 21 MiB of "
        "resident memory, more than the 15% peak-RSS bound allows on the 30-tree benchmark "
        "scenes (67-75 MiB peak); keep the merge kernels numpy-only"
    )


def test_merge_path_process_loads_no_training_code():
    loaded = _loaded_modules("forestseg.pipeline, forestseg.io, forestseg.synthgen")
    assert {"forestseg.pipeline", "forestseg.io", "forestseg.synthgen"} <= loaded
    assert not loaded & {"forestseg.losses", "forestseg.isa_select"}


def test_merge_path_process_loads_no_thread_pool():
    # Every block is predicted in the calling thread, so the merge path needs no executor.
    loaded = _loaded_modules("forestseg.pipeline, forestseg.io, forestseg.synthgen")
    assert "forestseg.pipeline" in loaded
    assert "concurrent.futures" not in loaded


def _package_imports(module: str) -> set[str]:
    """Sibling ``forestseg`` modules that ``module``'s source imports directly."""
    tree = ast.parse((Path(forestseg.__file__).parent / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("forestseg."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("forestseg."))
    return found


def test_merge_path_loads_no_training_code():
    # tile -> predict -> merge -> evaluate, plus the readers and writers, the
    # oracle predictor and the orchestration over them, must not depend on the
    # loss stack or the embedding space, even indirectly.
    training = {"losses", "isa_select"}
    for module in ("core", "tiling", "merging", "metrics", "io", "synthgen", "pipeline"):
        reached, frontier = set(), {module}
        while frontier:
            name = frontier.pop()
            reached.add(name)
            frontier |= _package_imports(name) - reached
        assert not reached & training, f"forestseg.{module} imports {sorted(reached & training)}"
