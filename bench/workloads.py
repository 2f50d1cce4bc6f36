"""The benchmark's four workloads: catalog scenario configs made from the
workload seed, and the checks that decide whether a scenario's outputs are
correct.

Every workload is a closed loop: one caller runs one scenario at a time
through ``biaslab.config.run_scenario`` and waits for it.  One *unit* of a
workload is one scenario call for the Monte Carlo (MC) workloads and one pass
over the static catalog for ``catalog-static``.  Unit ``j`` of seed ``s`` is
always seeded with ``unit_seed(s, j)``.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from biaslab.catalog import catalog_config, catalog_ids
from biaslab.config import ScenarioRun


@dataclass(frozen=True)
class Workload:
    name: str
    scenario_ids: tuple[str, ...]
    reps: int  # replicates per scenario call; 0 for static scenarios
    workers: int
    why: str
    # spans and counts a traced unit must record; a boundary the tracer
    # fails to reach would otherwise read 0 like a layer the workload skips
    layers: tuple[str, ...]
    counts: tuple[str, ...]

    @property
    def is_mc(self) -> bool:
        return self.reps > 0


def _static_ids() -> tuple[str, ...]:
    return tuple(
        i for i in catalog_ids() if "scm" in catalog_config(i) or "corr" in catalog_config(i)
    )


_MC_LAYERS = ("rng.substream", "scm.evaluate", "regress.fit_ols", "mc.record",
              "mc.aggregate", "config.output_write")
_MC_COUNTS = ("rng.normals_drawn", "scm.rows_generated", "regress.fits",
              "regress.design_cells", "config.output_bytes")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-collider", ("entry8-collider-pp-mc",), 250, 1,
            "small-n template loop where per-replicate Python overhead dominates",
            _MC_LAYERS + ("mc.bind",), _MC_COUNTS,
        ),
        Workload(
            "mc-iv", ("entry11-iv-correlated-confounder-mc",), 50, 1,
            "large-n template loop where normal draws and QR dominate; only user of iv_wald",
            _MC_LAYERS + ("mc.bind", "causal.iv_wald"), _MC_COUNTS,
        ),
        Workload(
            "population-sampling", ("entry5-sampling-random",), 1000, 2,
            "repeated sampling from a 500k-row population; only user of the process pool",
            _MC_LAYERS + ("rng.sample_indices", "data.select_rows", "mc.pool"),
            _MC_COUNTS + ("mc.pickled_bytes",),
        ),
        Workload(
            "catalog-static", (), 0, 1,
            "every scm/corr catalog scenario with all outputs; iterative fitters and measure",
            ("rng.substream", "scm.evaluate", "regress.fit_ols", "regress.iterative",
             "measure.attenuation", "config.output_write"),
            _MC_COUNTS + ("regress.iterations",),
        ),
    )
}


def scenario_ids(w: Workload) -> tuple[str, ...]:
    return w.scenario_ids or _static_ids()


def unit_seed(seed: int, tag: object) -> int:
    """A 63-bit seed derived from the workload seed and a unit tag."""
    digest = hashlib.sha256(f"{seed}/{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def unit_docs(w: Workload, seed: int, j: object, reps: int | None = None) -> list[dict]:
    """Config documents for unit ``j``, with the unit seed written into them.

    The seed goes into the top-level ``seed`` and, for MC and population
    scenarios, into the generator payload, because a seed embedded in a
    catalog template is otherwise kept over the one passed to
    ``run_scenario``.
    """
    s = unit_seed(seed, j)
    docs = []
    for ident in scenario_ids(w):
        doc = catalog_config(ident)
        doc["seed"] = s
        if "mc" in doc:
            doc["mc"]["seed"] = s
            doc["mc"]["reps"] = reps or w.reps
        elif "population" in doc:
            doc["population"]["sampling"]["seed"] = s
            doc["population"]["sampling"]["reps"] = reps or w.reps
        docs.append(doc)
    return docs


# -- outputs -------------------------------------------------------------------


def file_digests(out_dir: str) -> dict[str, str]:
    """sha256 of every file under ``out_dir``, keyed by relative path."""
    out = {}
    for base, _, files in os.walk(out_dir):
        for f in files:
            path = os.path.join(base, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, out_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def combined_digest(digests: dict[str, str]) -> str:
    text = "\n".join(f"{k} {v}" for k, v in sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def output_bytes(out_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, f)) for base, _, files in os.walk(out_dir) for f in files
    )


# -- domain laws ---------------------------------------------------------------


def check_run(w: Workload, run: ScenarioRun) -> list[str]:
    """Timing-free checks of one scenario call; returns the failures."""
    fails: list[str] = []
    ident = run.config.id
    missing = [f for f in run.files if not os.path.isfile(f) or os.path.getsize(f) == 0]
    if missing:
        fails.append(f"{ident}: outputs missing or empty: {missing}")
    if not w.is_mc:
        if run.analysis_errors:
            fails.append(f"{ident}: analysis errors {run.analysis_errors}")
        return fails
    res = run.mc_result
    want = run.config.generator.get("sampling", run.config.generator)["reps"]
    if res is None or len(res) != want:
        fails.append(f"{ident}: expected {want} replicate records")
        return fails
    if w.name == "mc-collider":
        # positive x->col and y->col paths: conditioning on the collider
        # induces a negative x-y slope (the collider quadrant law).  With
        # n >= 100 and effects down to 1, about 3 in 10 000 replicates miss
        # it, so a call of a few hundred must clear 95 %.
        adj = res.series("bxy_adj")
        share = float(np.mean(adj < 0))
        if share < 0.95:
            fails.append(f"{ident}: only {share:.4f} of bxy_adj follow the collider sign law")
    elif w.name == "mc-iv":
        iv, m1, truth = res.series("IN_byx"), res.series("M1_byx"), res.series("b_x")
        bias = float(np.nanmedian(iv - truth))
        scale = float(np.median(truth))
        # the instrument shares a cause with the confounder, so the Wald
        # ratio is biased upward (about 4 % of the effect) but stays near the
        # true effect; the confounder-adjusted fit recovers it
        if not 0.0 < bias <= 0.25 * scale:
            fails.append(f"{ident}: median IN_byx - b_x = {bias:.4g}, want (0, {0.25 * scale:.4g}]")
        adj_bias = float(np.nanmedian(m1 - truth))
        if abs(adj_bias) > 0.01:
            fails.append(f"{ident}: median M1_byx - b_x = {adj_bias:.4g}, want |.| <= 0.01")
    elif w.name == "population-sampling":
        slope, se = res.series("slope"), res.series("se")
        ok = ~np.isnan(slope)
        pop = run.artifacts["population_fit"].coef("EP")
        med = float(np.median(slope[ok]))
        # five standard errors of a sample median, so that thousands of
        # calls raise no false alarm
        tol = 5.0 * math.sqrt(math.pi / 2) * float(np.median(se[ok])) / math.sqrt(ok.sum())
        if abs(med - pop) > tol:
            fails.append(f"{ident}: median slope {med:.6g} not within {tol:.3g} of population {pop:.6g}")
    return fails


def attempted_failed(w: Workload, run: ScenarioRun) -> tuple[int, int]:
    """Replicates (MC) or analyses (static) attempted, and how many failed."""
    if w.is_mc:
        return len(run.mc_result), len(run.mc_result.errors)
    return len(run.config.analyses), len(run.analysis_errors)
