#!/usr/bin/env python3
"""Golden check: the sha256 of every file the catalog scenarios write.

Runs every catalog scenario with seed 7, once with JSON and once with CSV as
the default output format, and hashes each written file and each run's
analysis errors.  Prints one ``<sha256>  <format>/<scenario>/<file>`` line per
digest, then the combined hash of them all.  Two checkouts that print the
same combined hash on the same machine wrote the same bytes.

    PYTHONPATH=src python3 scripts/golden_digests.py            # each scenario's own reps
    PYTHONPATH=src python3 scripts/golden_digests.py --reps 20  # quick: 20 reps per MC loop

BLAS kernels differ across CPUs, so compare hashes taken on one machine only.
"""

import argparse
import hashlib
import json
import os
import tempfile

from biaslab.catalog import catalog_config, catalog_ids
from biaslab.config import parse_config, run_scenario

SEED = 7


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--reps", type=int, default=None,
                    help="replicates per MC or sampling loop (default: each scenario's own)")
    args = ap.parse_args()

    digests: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as root:
        for fmt in ("json", "csv"):
            for ident in catalog_ids():
                cfg = parse_config(catalog_config(ident))
                if args.reps is not None:
                    cfg = cfg.with_reps(args.reps)
                run = run_scenario(cfg, out_dir=os.path.join(root, fmt, ident), seed=SEED,
                                   default_format=fmt)
                for path in run.files:
                    with open(path, "rb") as fh:
                        digests[os.path.relpath(path, root)] = sha256(fh.read())
                errors = json.dumps(run.analysis_errors, sort_keys=True).encode()
                digests[f"{fmt}/{ident}/analysis_errors"] = sha256(errors)
    for key, digest in sorted(digests.items()):
        print(f"{digest}  {key}")
    print(f"combined {sha256(json.dumps(digests, sort_keys=True).encode())}  ({len(digests)} digests)")


if __name__ == "__main__":
    main()
