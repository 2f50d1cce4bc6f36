"""Cold-start probe, run in a fresh interpreter by ``run.py``.

Usage: ``python3 bench/cold_start.py SRC_DIR CONFIGS_JSON``.  Imports
``biaslab.cli`` from SRC_DIR, parses every scenario document in
CONFIGS_JSON, then prints one JSON line with the import and parse times.
The parent process times the whole start-up up to that line.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import biaslab.cli  # noqa: E402,F401

t1 = perf_counter()
from biaslab.config import parse_config  # noqa: E402

with open(sys.argv[2]) as fh:
    for doc in json.load(fh):
        parse_config(doc)
t2 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1}), flush=True)
