"""Traced mode: per-layer numbers from staged runs.

The engine is driven from outside, one public function per layer, and
each stage is materialized before the next starts, so a layer's span
covers only its own work.  Spans (name, start, end, parent) are kept in
memory and written to ``.kgbench/trace-<workload>-<seed>.json`` at the
end; ``Dataset.stats()`` gives each stage's per-operator remote wall,
CPU and UDF time and task counts.  Staging removes the streaming
overlap between operators, so ``trace.staged_s`` (the sum of one staged
operation's layer spans) is reported next to ``trace.untraced_s`` (the
same operation run normally in the same process).

Every workload reports every layer.  The staged build gives the
layers it exercises; Ray-free kernels, a staged SPARQL join and a
checkpoint write/skip over the built store give the others (README.md
lists which is which).
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import re
import shutil
import statistics
import time

import pyarrow.parquet as pq

import gen
import harness
import oracles
import workloads

PER_LAYER_UNITS = {
    "sources.read_s": "s", "sources.read_rows": "count",
    "sources.write_s": "s", "sources.write_bytes": "bytes",
    "state.lexicon.build_s": "s", "state.lexicon.probe_us_per_turn": "us",
    "state.lexicon.levenshtein_us_per_call": "us",
    "pipelines.transcripts.contract_check_s": "s",
    "pipelines.transcripts.link_s": "s",
    "pipelines.transcripts.link_udf_s": "s",
    "pipelines.transcripts.link_rows_out": "count",
    "stages.emit_s": "s", "stages.dedup_s": "s",
    "stages.dedup_rows_in": "count", "stages.dedup_rows_out": "count",
    "stages.dedup_keep_ratio": "ratio",
    "query.compile_s": "s", "query.bgp_s": "s", "query.distinct_s": "s",
    "query.exchanges": "count", "query.tasks": "count",
    "state.checkpoint.write_stage_s": "s",
    "state.checkpoint.novel_rows": "count",
    "state.checkpoint.skip_s": "s", "state.checkpoint.stage_files": "count",
    "trace.staged_s": "s", "trace.untraced_s": "s",
}

_OP_HEAD = re.compile(r"^Operator \d+ (.+?): (\d+) tasks executed")
_TOTAL = re.compile(r"^\* (Remote wall time|Remote cpu time|UDF time): "
                    r".*?([\d.]+)(us|ms|s) total")
# Dataset methods that plan an all-to-all exchange
_EXCHANGE_METHODS = ("sort", "repartition", "groupby", "random_shuffle",
                     "join", "unique")
_SCALE = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def operator_stats(ds) -> dict[str, dict]:
    """Per-operator ``{tasks, wall_s, cpu_s, udf_s}`` parsed from
    ``Dataset.stats()``; an operator that appears in several sections
    (upstream of a materialization) is counted once."""
    ops: dict[str, dict] = {}
    cur = None
    for line in ds.stats().splitlines():
        m = _OP_HEAD.match(line.strip())
        if m:
            cur = None if m.group(1) in ops else m.group(1)
            if cur:
                ops[cur] = {"tasks": int(m.group(2)), "wall_s": 0.0,
                            "cpu_s": 0.0, "udf_s": 0.0}
            continue
        m = _TOTAL.match(line.strip())
        if m and cur:
            key = {"Remote wall time": "wall_s", "Remote cpu time": "cpu_s",
                   "UDF time": "udf_s"}[m.group(1)]
            ops[cur][key] = float(m.group(2)) * _SCALE[m.group(3)]
    return ops


@contextlib.contextmanager
def count_exchanges():
    """Count the exchanges the engine plans while the block runs, by
    wrapping the Ray Data ``Dataset`` methods that create one.  Yields
    a dict whose ``"n"`` is the running count."""
    from ray.data import Dataset

    box = {"n": 0}
    saved = {m: getattr(Dataset, m) for m in _EXCHANGE_METHODS}

    def wrap(fn):
        def counted(self, *a, **k):
            box["n"] += 1
            return fn(self, *a, **k)
        return counted

    try:
        for m, fn in saved.items():
            setattr(Dataset, m, wrap(fn))
        yield box
    finally:
        for m, fn in saved.items():
            setattr(Dataset, m, fn)


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self.stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = {"id": sid, "name": name,
               "parent": self.stack[-1] if self.stack else None,
               "start": time.perf_counter() - self.t0, "end": None,
               **attrs}
        self.spans.append(rec)
        self.stack.append(sid)
        try:
            yield rec
        finally:
            self.stack.pop()
            rec["end"] = time.perf_counter() - self.t0

    @staticmethod
    def dur(rec: dict) -> float:
        return rec["end"] - rec["start"]

    def dump(self, path: str, metrics: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "metrics": metrics}, f,
                      indent=1, default=str)


class Layers:
    """Per-layer samples; a metric's value is the median of its samples."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def result(self) -> dict:
        missing = set(PER_LAYER_UNITS) - set(self.samples)
        if missing:
            raise RuntimeError(f"layers not measured: {sorted(missing)}")
        return {k: {"value": statistics.median(self.samples[k]), "unit": u}
                for k, u in PER_LAYER_UNITS.items()}


# -------------------------------------------------------------- staged ops

BUILD_KEYS = ("subj", "pred", "obj")


@contextlib.contextmanager
def staged(tr: Tracer, name: str, **attrs):
    """A span for one staged call, started on an idle cluster (the
    wait stays outside the span, as it stays outside the timed
    operations of the untraced runs)."""
    harness.wait_idle()
    with tr.span(name, **attrs) as rec:
        yield rec


def staged_build(tr: Tracer, lay: Layers, data_dir: str, out: str) -> float:
    """``build_kg`` -> ``write_parquet`` one layer at a time, along the
    route ``build_kg`` takes on unique turn keys (``dedup_mode="auto"``
    -> ``"scoped"``): the linker actors deduplicate each batch
    themselves (``combine_keys``), and the lexicon partition comes
    deduplicated from ``lexicon_dataset``.  Every ``gen.py`` input has
    unique turn keys; other inputs are refused.  Returns the staged
    sum."""
    import ray
    import ray.data

    from tera_ray.pipelines.transcripts import (build_lexicon,
                                                lexicon_dataset,
                                                link_transcripts,
                                                turn_keys_unique)

    ncpu = int(ray.cluster_resources().get("CPU", 4))
    with tr.span("build.staged") as root:
        with staged(tr, "sources.read") as s:
            tx = ray.data.read_parquet(
                os.path.join(data_dir, "transcripts.parquet"),
                columns=["conv_id", "turn_idx", "text"],
                override_num_blocks=max(8, 4 * ncpu)).materialize()
            s["rows"] = tx.count()
        lay.add("sources.read_s", Tracer.dur(s))
        lay.add("sources.read_rows", s["rows"])
        with staged(tr, "pipelines.transcripts.turn_keys_unique") as s:
            unique = s["unique"] = turn_keys_unique(tx)
        lay.add("pipelines.transcripts.contract_check_s", Tracer.dur(s))
        if not unique:
            raise RuntimeError("turn keys not unique: build_kg would take "
                               "the hash route, which is not staged")
        with staged(tr, "state.lexicon.build") as s:
            lex_ref = build_lexicon(data_dir)
        lay.add("state.lexicon.build_s", Tracer.dur(s))
        with staged(tr, "pipelines.transcripts.link") as s:
            linked = link_transcripts(tx, lex_ref, combine_keys=BUILD_KEYS,
                                      combine_hash=False).materialize()
            s["rows_out"] = linked.count()
            ops = operator_stats(linked)
            s["operators"] = ops
        lay.add("pipelines.transcripts.link_s", Tracer.dur(s))
        lay.add("pipelines.transcripts.link_udf_s",
                sum(o["udf_s"] for n, o in ops.items() if "LinkerStage" in n))
        lay.add("pipelines.transcripts.link_rows_out", s["rows_out"])
        with staged(tr, "stages.emit_lexicon") as s:
            lexds = lexicon_dataset(data_dir, keys=BUILD_KEYS).materialize()
            s["rows_out"] = lexds.count()
        lay.add("stages.emit_s", Tracer.dur(s))
        with staged(tr, "sources.write_parquet") as s:
            linked.union(lexds).write_parquet(out)
            s["bytes"] = sum(os.path.getsize(p) for p in glob.glob(
                os.path.join(out, "**", "*.parquet"), recursive=True))
        lay.add("sources.write_s", Tracer.dur(s))
        lay.add("sources.write_bytes", s["bytes"])
    staged_sum = sum(Tracer.dur(x) for x in tr.spans
                     if x["parent"] == root["id"])
    return staged_sum


def _median_time(fn, budget_s: float) -> float:
    """Median seconds of ``fn()`` over at least three calls and about
    ``budget_s`` seconds."""
    per_call = []
    t_end = time.perf_counter() + budget_s
    while len(per_call) < 3 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        per_call.append(time.perf_counter() - t0)
    return statistics.median(per_call)


def kernels(lay: Layers, data_dir: str, budget_s: float = 1.0) -> None:
    """Ray-free kernels, called in-process with the lexicon
    ``build_lexicon`` broadcasts:

    - ``LinkerStage`` as ``build_kg`` configures it (per-batch dedup
      fused in) on the first 2048 turns;
    - the dedup ``build_kg`` runs on these inputs: ``dedup_table`` of
      every 4096-turn linker batch (the fused combiner) and of the
      driver-side lexicon partition (``_combined_lexicon_sources``),
      fed the same tables the engine feeds it;
    - ``levenshtein_batch`` of 256 misspelled latin names against the
      lexicon's own fuzzy block for each (2-char prefix, token count).
    """
    import ray

    from tera_ray.pipelines.transcripts import (LinkerStage, build_lexicon,
                                                lexicon_sources)
    from tera_ray.stages.base import dedup_table
    from tera_ray.state.lexicon import levenshtein_batch, normalize, tokenize

    tx = pq.read_table(os.path.join(data_dir, "transcripts.parquet"),
                       columns=["conv_id", "turn_idx", "text"])
    tx = tx.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    lex = ray.get(build_lexicon(data_dir))

    fused = LinkerStage(lex, combine_keys=BUILD_KEYS, combine_hash=False)
    batch = tx.slice(0, 2048)
    lay.add("state.lexicon.probe_us_per_turn",
            _median_time(lambda: fused(batch), budget_s)
            / batch.num_rows * 1e6)

    plain = LinkerStage(lex)
    raw = [plain(tx.slice(i, 4096)) for i in range(0, tx.num_rows, 4096)]
    small, big = lexicon_sources(data_dir)
    if big:
        raise RuntimeError("lexicon tables too large for driver-side "
                           "emission; the dedup probe assumes none is")
    raw.append(small)
    lay.add("stages.dedup_s", _median_time(
        lambda: [dedup_table(t, BUILD_KEYS) for t in raw], budget_s))
    rows_in = sum(t.num_rows for t in raw)
    rows_out = sum(dedup_table(t, BUILD_KEYS).num_rows for t in raw)
    lay.add("stages.dedup_rows_in", rows_in)
    lay.add("stages.dedup_rows_out", rows_out)
    lay.add("stages.dedup_keep_ratio", rows_out / rows_in)

    names = sorted(pq.read_table(os.path.join(
        data_dir, "species.parquet"))["latin_name"].to_pylist())
    probes = []
    for i, n in enumerate(names[:256]):
        p = " ".join(tokenize(normalize(gen._misspell(n, i))))
        blk = lex.fuzzy_blocks.get((p[:2], p.count(" ") + 1))
        if blk is not None:
            probes.append((p, blk[1], blk[2]))

    def score():
        for p, mat, lens in probes:
            levenshtein_batch(p, mat, lens, 2)

    lay.add("state.lexicon.levenshtein_us_per_call",
            _median_time(score, budget_s) / len(probes) * 1e6)


def staged_query(tr: Tracer, lay: Layers, store: str, name: str) -> tuple:
    """One SPARQL SELECT staged: compile (``sparql_explain``), the
    WHERE block and projection (``sparql_select`` of the query without
    DISTINCT), then DISTINCT (``dedup_triples`` hash mode, as
    ``sparql_select`` runs it).  Returns (staged seconds, result)."""
    import ray.data

    from tera_ray.query.sparql import sparql_explain, sparql_select
    from tera_ray.stages.base import dedup_triples

    text = oracles.QUERIES[name]
    with tr.span(f"query.{name}.staged") as root:
        with tr.span("query.sparql.compile") as s:
            plan = sparql_explain(text)
            s["shuffles_upper_bound"] = plan["co_group_shuffles_upper_bound"]
        lay.add("query.compile_s", Tracer.dur(s))
        body = text.replace("SELECT DISTINCT", "SELECT", 1)
        with staged(tr, "query.kg.bgp") as s, count_exchanges() as ex:
            rows = sparql_select(ray.data.read_parquet(store), body) \
                .materialize()
            ops = operator_stats(rows)
            s["rows_out"] = rows.count()
        s["exchanges"] = ex["n"]
        lay.add("query.bgp_s", Tracer.dur(s))
        with staged(tr, "stages.distinct") as s, count_exchanges() as ex2:
            if plan["distinct"]:
                rows = dedup_triples(rows, keys=tuple(plan["select"]),
                                     mode="hash").materialize()
                ops.update({"distinct:" + k: v for k, v in
                            operator_stats(rows).items()})
        s["exchanges"] = ex2["n"]
        lay.add("query.distinct_s", Tracer.dur(s))
        lay.add("query.exchanges", ex["n"] + ex2["n"])
        lay.add("query.tasks", sum(o["tasks"] for o in ops.values()))
        root["operators"] = ops
    staged_sum = sum(Tracer.dur(x) for x in tr.spans
                     if x["parent"] == root["id"])
    return staged_sum, workloads._collect(rows)


def checkpoint_probe(tr: Tracer, lay: Layers, store: str, work: str) -> None:
    """``write_stage`` of a written store into a fresh checkpoint root,
    then ``run_stage`` with the same fingerprint, which must skip."""
    import ray.data

    from tera_ray.state.checkpoint import read_manifest, run_stage, write_stage

    root = os.path.join(work, "ckpt")
    shutil.rmtree(root, ignore_errors=True)
    ds = ray.data.read_parquet(store).materialize()
    with staged(tr, "state.checkpoint.write_stage") as s:
        write_stage(ds, root, "kg", "probe")
    lay.add("state.checkpoint.write_stage_s", Tracer.dur(s))
    lay.add("state.checkpoint.novel_rows",
            read_manifest(root, "kg")["row_count"])
    lay.add("state.checkpoint.stage_files", len(glob.glob(
        os.path.join(root, "kg", "**", "*.parquet"), recursive=True)))
    with staged(tr, "state.checkpoint.skip") as s:
        _, skipped = run_stage(lambda: ds, root, "kg", "probe")
    if not skipped:
        raise RuntimeError("run_stage re-ran a completed stage")
    lay.add("state.checkpoint.skip_s", Tracer.dur(s))


# ------------------------------------------------------------ per workload

def run_traced(wl, tr: Tracer, seconds: float) -> dict:
    """Set the workload up and repeat staged builds for ``seconds``;
    return the per-layer metrics."""
    from tera_ray.pipelines.transcripts import build_kg

    lay = Layers()
    with tr.span("setup"):
        wl.setup()
    kernels(lay, wl.data)
    with tr.span("warmup"):
        wl.warmup()
    out = os.path.join(wl.work, "store")
    deadline = time.perf_counter() + seconds
    while True:
        shutil.rmtree(out, ignore_errors=True)
        wl.attempted += 1
        with tr.span("round"):
            lay.add("trace.staged_s", staged_build(tr, lay, wl.data, out))
        wl._check(out)
        wl.rounds += 1
        if time.perf_counter() >= deadline:
            break
    # the same operation untraced, for the staging gap
    shutil.rmtree(out, ignore_errors=True)
    wl.attempted += 1
    with staged(tr, "untraced.build") as s:
        build_kg(wl.data).write_parquet(out)
    lay.add("trace.untraced_s", Tracer.dur(s))
    wl._check(out)
    wl.add("build_s", Tracer.dur(s))
    _probe_query(wl, tr, lay, out)
    checkpoint_probe(tr, lay, out, wl.work)
    return lay.result()


def _probe_query(wl, tr, lay, store) -> None:
    """The staged co-mention join over the built store, checked against
    DuckDB."""
    _, got = staged_query(tr, lay, store, "join")
    con = oracles.connect(store, wl.data)
    try:
        wl.checks["join_probe"] = oracles.query_result(con, "join", got)
    finally:
        con.close()
