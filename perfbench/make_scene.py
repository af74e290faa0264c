"""Set-up as a user pays it: import forestseg, generate a scene, write its PLY.

Usage: python3 make_scene.py SRC_DIR N_TREES PLOT_SIZE SEED OUT_PLY

Prints the elapsed seconds, measured from before ``import forestseg``.
"""

import sys
import time

start = time.perf_counter()
src, n_trees, plot_size, seed, out = sys.argv[1:]
sys.path.insert(0, src)

from forestseg import io  # noqa: E402
from forestseg.synthgen import ForestParams, generate_forest  # noqa: E402

io.write_cloud(out, generate_forest(ForestParams(n_trees=int(n_trees), plot_size=float(plot_size), seed=int(seed))))
print(repr(time.perf_counter() - start))
