"""What ``losslab sweep`` does before its first cell trains, in a fresh process.

Imports the CLI, parses the sweep config and builds every load column's
datasets.  Usage: ``python3 setup_probe.py CONFIG`` with the package on
``PYTHONPATH``.  The caller times the whole process.
"""

import sys

from losslab import cli  # noqa: F401  (the import a sweep pays for)
from losslab.config import load_config, parse_grid
from losslab.sweep import build_cell_dataset

grid = parse_grid(load_config(sys.argv[1]))
for value in grid.load_axis.values:
    build_cell_dataset(grid, value)
