"""The workloads: set-up, one closed-loop round, and the checks.

A round is the unit a run repeats; every round of a workload attempts
the same operations, so ``failed / attempted`` is the same share in
every run.  Each workload class keeps the data it needs between set-up,
rounds and checks; the driver in ``run.py`` owns the clock.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

import pyarrow as pa

import gen
import harness
import oracles

# input sizes (turns); see README.md for why each was chosen
SIZES = {"build": 20_000, "build_noisy": 20_000}
# warm-up input: one small build starts the Ray workers and imports the
# engine in them, so the first timed operation is not a cold one
WARMUP_TURNS = 500


def _collect(ds) -> pa.Table | None:
    import ray

    parts = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(parts, promote_options="permissive") \
        if parts else None


def _fingerprint(con) -> tuple:
    """Order-free digest of a store's triple set."""
    return con.execute("SELECT count(*), sum(hash(subj, pred, obj)) "
                       "FROM store").fetchone()


class Build:
    """``build_kg`` -> ``write_parquet`` over the default mix."""

    name = "build"
    mix = "default"

    def __init__(self, work: str, seed: int):
        self.work = work
        self.seed = seed
        self.data = os.path.join(work, "data")
        self.sizes: dict = {}
        self.samples: dict[str, list[float]] = {}
        self.checks: dict = {}
        self.rounds = 0
        self.attempted = 0
        self.phases: dict[str, float] = {}

    def setup(self) -> None:
        self.sizes = gen.generate(self.data, self.seed, SIZES[self.name],
                                  self.mix)
        self.warm = os.path.join(self.work, "warm")
        gen.generate(self.warm, self.seed, WARMUP_TURNS, self.mix)

    def add(self, key: str, seconds: float) -> None:
        self.samples.setdefault(key, []).append(seconds)

    def warmup(self) -> None:
        """Untimed work before measuring: one small build."""
        from tera_ray.pipelines.transcripts import build_kg

        harness.wait_idle()
        if not _collect(build_kg(self.warm)):
            raise RuntimeError("warm-up build wrote no triples")

    def median(self, key: str) -> float:
        return statistics.median(self.samples[key])

    def correct(self) -> bool:
        return bool(self.checks) and all(
            c.get("ok", False) for c in self.checks.values())

    def round(self) -> float:
        """Run one build; return its wall time in seconds."""
        from tera_ray.pipelines.transcripts import build_kg

        out = os.path.join(self.work, "store")
        shutil.rmtree(out, ignore_errors=True)
        self.attempted += 1
        harness.wait_idle()
        t0 = time.perf_counter()
        build_kg(self.data).write_parquet(out)
        dt = time.perf_counter() - t0
        self._check(out)
        self.add("build_s", dt)
        self.rounds += 1
        return dt

    def _check(self, out: str) -> None:
        con = oracles.connect(out, self.data)
        try:
            fp = _fingerprint(con)
            if "store" not in self.checks:
                # the first store gets every check; later rounds must
                # write the same triple set
                self.checks["store"] = oracles.store_checks(con)
                self.first = fp
            elif fp != self.first:
                self.checks["store"]["ok"] = False
                self.checks["store"]["changed_between_rounds"] = True
        finally:
            con.close()

    def metrics(self) -> dict:
        b = self.median("build_s")
        return {"build_s": b, "triples_per_s": self.first[0] / b}

    def detail(self) -> dict:
        return {"build_s": self.median("build_s"),
                "store_rows": self.first[0]}


class BuildNoisy(Build):
    """The same call over a misspelling-heavy mix with few mentions."""

    name = "build_noisy"
    mix = "noisy"


WORKLOADS = {w.name: w for w in (Build, BuildNoisy)}
