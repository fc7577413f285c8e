"""Helpers for building triple batches with vectorized Arrow kernels.

The reference emits triples with a per-row Python closure
(``tera/DataAggregation.py:90-97``); here each "triple kind" an emitter
can produce becomes ONE vectorized column expression over the whole
batch, optionally masked — N input rows → k masked sub-tables of
triples, concatenated.  No per-row Python in the hot path.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..schema import TRIPLE_SCHEMA


def cat(*parts) -> pa.Array:
    """Element-wise string concat; str parts are broadcast scalars."""
    n = None
    for p in parts:
        if not isinstance(p, str):
            n = len(p)
            break
    assert n is not None, "cat() needs at least one array part"
    arrs = []
    for p in parts:
        if isinstance(p, str):
            arrs.append(pa.array([p] * n, type=pa.string()))
        else:
            arr = p.combine_chunks() if isinstance(p, pa.ChunkedArray) else p
            if not pa.types.is_string(arr.type):
                arr = arr.cast(pa.string())
            arrs.append(arr)
    return pc.binary_join_element_wise(*arrs, "")


def _as_array(x, n: int) -> pa.Array:
    if isinstance(x, str):
        return pa.array([x] * n, type=pa.string())
    if isinstance(x, pa.ChunkedArray):
        x = x.combine_chunks()
    if not pa.types.is_string(x.type):
        x = x.cast(pa.string())
    return x


def triples(subj, pred, obj, literal: bool, graph: str, mask=None) -> pa.Table:
    """One triple kind: aligned subj/pred/obj (array or broadcast str).

    ``mask`` (bool array) selects which input rows emit this kind.
    Rows where subj/pred/obj is null are dropped (reference loaders
    never emit null terms — nulls were dropped or gated per row).
    """
    n = None
    for x in (subj, pred, obj, mask):
        if x is not None and not isinstance(x, str):
            n = len(x)
            break
    assert n is not None, "triples() needs at least one array among terms/mask"
    s, p, o = _as_array(subj, n), _as_array(pred, n), _as_array(obj, n)
    lit = pa.array([literal] * n, type=pa.bool_())
    g = pa.array([graph] * n, type=pa.string())
    t = pa.table(
        {"subj": s, "pred": p, "obj": o, "obj_is_literal": lit, "graph": g},
        schema=TRIPLE_SCHEMA,
    )
    keep = pc.and_(pc.and_(pc.is_valid(s), pc.is_valid(p)), pc.is_valid(o))
    if mask is not None:
        mask = pc.fill_null(mask, False)
        keep = pc.and_(keep, mask)
    return t.filter(keep)


def concat_triples(parts: list[pa.Table]) -> pa.Table:
    parts = [p for p in parts if p is not None and p.num_rows >= 0]
    if not parts:
        return TRIPLE_SCHEMA.empty_table()
    return pa.concat_tables([p for p in parts], promote_options="none")


def static_triples(items: list[tuple[str, str, str, bool]], graph: str) -> pa.Table:
    """Constant axiom blocks (SURVEY M8) as a one-shot triple table."""
    if not items:
        return TRIPLE_SCHEMA.empty_table()
    s, p, o, lit = zip(*items)
    return pa.table(
        {
            "subj": pa.array(s, type=pa.string()),
            "pred": pa.array(p, type=pa.string()),
            "obj": pa.array(o, type=pa.string()),
            "obj_is_literal": pa.array(lit, type=pa.bool_()),
            "graph": pa.array([graph] * len(s), type=pa.string()),
        },
        schema=TRIPLE_SCHEMA,
    )


def hash_column(t: pa.Table, keys=("subj", "pred", "obj")) -> pa.Array:
    """Vectorized 64-bit row hash over ``keys`` (for hash-partitioned
    dedup).  polars ``hash_rows`` (native, seeded) — ~16× faster than
    the pandas object hasher and deterministic across workers for a
    fixed polars version (the cluster ships one environment)."""
    import polars as pl

    df = pl.from_arrow(t.select(list(keys)))
    h = df.hash_rows(seed=42)
    return pa.array(h.to_numpy(), type=pa.uint64())


def bucket_column(col, num_buckets: int, seed: int = 42) -> pa.Array:
    """Shared bucket-id helper: polars native column hash mod
    ``num_buckets`` as int32.  Accepts a pa.Array / pa.ChunkedArray /
    python list; used by every hash-bucketed shuffle in the engine so
    bucket assignment is computed by ONE fast native kernel (~16× the
    pandas object hasher) with one seed."""
    import polars as pl

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col, pa.Array):
        s = pl.from_arrow(col)
    else:
        s = pl.Series(col)
    h = s.hash(seed=seed).to_numpy()
    return pa.array((h % num_buckets).astype("int32"), type=pa.int32())


def dedup_table(t: pa.Table, keys=("subj", "pred", "obj")) -> pa.Table:
    """In-memory exact dedup keeping the first row per key (pure Arrow —
    pandas round-trips would mangle nullable int32 lineage columns)."""
    if t.num_rows == 0:
        return t
    import numpy as np

    tt = t.append_column("__idx", pa.array(np.arange(t.num_rows), type=pa.int64()))
    g = (
        tt.select(list(keys) + ["__idx"])
        .group_by(list(keys), use_threads=False)
        .aggregate([("__idx", "min")])
    )
    first = pc.sort_indices(g["__idx_min"].combine_chunks())
    return t.take(pc.take(g["__idx_min"].combine_chunks(), first))


def _auto_buckets(requested: int | None, lo: int = 32, hi: int = 512) -> int:
    """Power-of-2 bucket count sized to the cluster: ~16 reduce tasks
    per CPU so the sort's reduce side pipelines instead of running a
    handful of monolithic tasks (measured on the 20M-triple dedup at 32
    CPUs: 32 buckets → 107s, 128 → 66s, 512 → 42-80s), bounded so
    (dataset / buckets) fits a worker heap and the shuffle isn't
    fragmented.  100 TB callers pass an explicit larger value."""
    if requested is not None:
        return requested
    try:
        import ray

        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    b = 1
    while b < min(hi, max(lo, 16 * cpus)):
        b <<= 1
    return b


def schema_of(ds, static: "pa.Schema | None" = None) -> pa.Schema:
    """A Dataset's Arrow schema with the metadata-only fast path first.

    ``Dataset.schema()`` on a LAZY pipeline executes a ``limit=1``
    probe; the probe's task cancellation can trip a Ray-core race
    (``task_manager.cc:930`` CHECK "Tried to complete task that was not
    pending", observed on Ray 2.49 under a many-query driver).  Prefer:
    (1) a caller-supplied ``static`` schema, (2) the already-known
    schema (parquet metadata / materialized datasets — no execution),
    and only then (3) the limit-probe, which stays as the documented
    fallback for genuinely lazy inputs."""
    if static is not None:
        return static
    s = ds.schema(fetch_if_missing=False)
    if s is None:
        s = ds.schema()
    return getattr(s, "base_schema", s)


def bucketed_map_groups(ds, key, fn, **map_kwargs):
    """``ds.groupby(key).map_groups(fn)`` with schema-typed empty output.

    Ray's ``GroupedData.map_groups`` wraps ``fn`` in a generator that
    yields once per group, so an empty sorted block yields NOTHING and
    the executor emits a schema-less empty RefBundle ("Operator produced
    a RefBundle with a different schema" warnings; downstream stages see
    a schema-free block).  This helper keeps the identical semantics —
    the same ``sort(key)`` co-location Ray's own implementation relies
    on — but applies ``fn`` per key-run via numpy boundary detection and,
    for an EMPTY block, calls ``fn`` on the empty typed table so the
    output block keeps its schema (every per-group fn in this engine is
    total on empty input).
    """
    import numpy as np

    keys = [key] if isinstance(key, str) else list(key)

    def per_block(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return fn(t)
        change = np.zeros(t.num_rows - 1, dtype=bool)
        for k in keys:
            v = t[k].combine_chunks().to_numpy(zero_copy_only=False)
            change |= v[1:] != v[:-1]
        bounds = [0, *(np.flatnonzero(change) + 1).tolist(), t.num_rows]
        outs = [fn(t.slice(bounds[i], bounds[i + 1] - bounds[i]))
                for i in range(len(bounds) - 1)]
        outs = [o for o in outs if o is not None and o.num_rows > 0]
        if not outs:
            return fn(t.slice(0, 0))
        return pa.concat_tables(outs, promote_options="none")

    per_block.__name__ = getattr(fn, "__name__", "per_group")
    return ds.sort(keys).map_batches(
        per_block, batch_size=None, batch_format="pyarrow", **map_kwargs)


def dedup_triples(ds, keys=("subj", "pred", "obj"),
                  num_buckets: int | None = None, mode: str = "sort"):
    """Exact triple dedup (SURVEY A1) — rdflib set semantics.

    ``mode="sort"`` (the classic path): a per-batch local dedup
    (combiner; cuts shuffle volume), then a hash-shuffle on
    ``row_hash % num_buckets`` with a vectorized per-bucket exact dedup
    on the real key columns.  Bucketing matters: grouping on the raw
    hash would invoke the per-group fn once per DISTINCT key (millions
    of 1-row Python calls); per-bucket it runs ``num_buckets`` times
    over large Arrow tables.  Size ``num_buckets`` so (dataset size /
    num_buckets) fits a worker's heap.

    ``mode="hash"``: :func:`dedup_triples_hash` — the full payload
    never crosses the exchange; see its docstring.  Measured 2.4× on
    the 20.5M-triple build (99s → 41s at 32 CPUs) at its 0.3% true-dup
    rate.
    """
    if mode == "hash":
        return dedup_triples_hash(ds, keys, num_buckets)
    assert mode == "sort", f"unknown dedup mode={mode!r}"

    def local(t: pa.Table) -> pa.Table:
        t = dedup_table(t, keys)
        h = hash_column(t, keys)
        b = pc.cast(
            pc.bit_wise_and(h, pa.scalar(num_buckets - 1, pa.uint64())), pa.int32()
        )
        return t.append_column("__b", b)

    def per_bucket(t: pa.Table) -> pa.Table:
        return dedup_table(t, keys).drop_columns(["__b"])

    num_buckets = _auto_buckets(num_buckets)
    assert num_buckets & (num_buckets - 1) == 0, "num_buckets must be a power of 2"
    return bucketed_map_groups(
        ds.map_batches(local, batch_format="pyarrow"), "__b", per_bucket)


def dedup_triples_hash(ds, keys=("subj", "pred", "obj"),
                       num_buckets: int | None = None,
                       max_dup_hashes: int = 5_000_000,
                       precombined: bool = False,
                       driver_discover_limit: int = 50_000_000):
    """Exact dedup where only 8-byte row HASHES cross the exchange —
    the heavy (subj, pred, obj, …) payload never shuffles.

    The classic sort path moves every surviving byte through an
    all-to-all to discover that (at the flagship's 0.3% duplicate rate)
    almost nothing needed co-locating.  This path inverts that:

    1. combiner dedup per batch, append ``__h`` (u64 row hash over
       ``keys``), and MATERIALIZE — the same barrier a sort implies,
       but the payload parks in the local object store instead of
       crossing the exchange;
    2. duplicate discovery on the ``__h`` projection alone (8 B/row):
       driver-side np.sort up to ``driver_discover_limit`` rows (the
       distributed sort is pure tiny-object overhead at that scale;
       pass 0 to force the distributed path), else hash-bucket groupby
       → hashes seen ≥ 2 times.  Only DUPLICATE hashes broadcast —
       proportional to the true dup count, not the store;
    3. split pass over the materialized store against the broadcast
       dup-hash set (``ray.put`` once, ``np.searchsorted`` per batch):
       non-colliding rows stream straight through with ZERO shuffle;
       colliding rows (true dups + 2^-64 hash collisions) — the tiny
       fraction — go through the classic bucketed exact dedup on the
       REAL key columns, so collisions can never drop a distinct row.

    Exactness: a duplicated row always collides with its twin (equal
    rows hash equal), so it always reaches verification; verification
    compares real keys.  Representative choice is arbitrary-but-unique,
    same as the sort path (set-equality asserted in tests).

    Falls back to the sort path when the dup-hash set exceeds
    ``max_dup_hashes`` (a heavily-duplicated corpus would otherwise
    broadcast a huge set; the sort path's volume is the better deal
    there — the crossover is ~25% dup rate).

    ``precombined=True`` skips step 1's map: the caller certifies every
    input batch is already batch-locally deduped on ``keys`` AND
    carries the matching ``__h`` column (the fused-combiner path —
    ``LinkerStage(combine_keys=...)`` — which spares the build a
    separate combiner stage competing with the linker for CPUs).
    """
    import numpy as np

    import ray

    nb = _auto_buckets(num_buckets)
    assert nb & (nb - 1) == 0, "num_buckets must be a power of 2"

    def local(t: pa.Table) -> pa.Table:
        t = dedup_table(t, keys)
        return t.append_column("__h", hash_column(t, keys))

    if precombined:
        base = ds.materialize()
    else:
        base = ds.map_batches(local, batch_format="pyarrow").materialize()

    def hash_bucket(t: pa.Table) -> pa.Table:
        b = pc.cast(pc.bit_wise_and(t["__h"], pa.scalar(nb - 1, pa.uint64())),
                    pa.int32())
        return t.append_column("__b", b)

    def dups_in_bucket(t: pa.Table) -> pa.Table:
        import polars as pl

        empty = pa.table({"__h": pa.array([], pa.uint64())})
        if t.num_rows == 0:
            return empty
        df = (pl.from_arrow(t.select(["__h"]))
              .group_by("__h").agg(pl.len().alias("__n"))
              .filter(pl.col("__n") >= 2).select("__h"))
        return df.to_arrow().cast(pa.schema([("__h", pa.uint64())])) \
            if df.height else empty

    # duplicate discovery over the 8 B/row projection.  Up to
    # ``driver_discover_limit`` rows the driver finds duplicates itself
    # (stream the hash column, one np.sort — ≤400 MB at the default
    # limit): measured 3.6s vs 10.9s for the distributed sort on 20.5M
    # hashes at 32 CPUs, because a sort over many tiny 8-byte blocks is
    # pure per-object overhead.  Above the limit — the 100 TB regime —
    # the hash-bucket groupby runs with the projection coalesced to
    # ~2 blocks/CPU first (128 blocks → 64: 10.9s → 7.4s; block count ×
    # sort partitions is what explodes the object count).
    proj = base.select_columns(["__h"])
    chunks: list = []
    total = 0
    over = False
    if driver_discover_limit > 0:
        for b in proj.iter_batches(batch_format="pyarrow", batch_size=None):
            chunks.append(b["__h"].to_numpy(zero_copy_only=False))
            total += b.num_rows
            if total > driver_discover_limit:
                over = True
                break
    else:
        over = True
    if not over:
        allh = (np.concatenate(chunks).astype(np.uint64, copy=False)
                if chunks else np.zeros(0, np.uint64))
        allh.sort()
        dup_np = np.unique(allh[1:][allh[1:] == allh[:-1]])
    else:
        cpus = max(1, int(ray.cluster_resources().get("CPU", 4)))
        dup_tbls = [b for b in bucketed_map_groups(
            proj.repartition(2 * cpus).map_batches(
                hash_bucket, batch_format="pyarrow"),
            "__b", dups_in_bucket).iter_batches(
                batch_format="pyarrow", batch_size=None)]
        dup_np = np.sort(np.concatenate(
            [t["__h"].to_numpy(zero_copy_only=False) for t in dup_tbls]
            or [np.zeros(0, np.uint64)]).astype(np.uint64))

    def drop_h(t: pa.Table) -> pa.Table:
        return t.drop_columns(["__h"])

    if len(dup_np) == 0:
        return base.map_batches(drop_h, batch_format="pyarrow")
    if len(dup_np) > max_dup_hashes:
        return dedup_triples(base.map_batches(drop_h, batch_format="pyarrow"),
                             keys, num_buckets, mode="sort")

    dup_ref = ray.put(dup_np)

    def make_split(keep_colliding: bool):
        def f(t: pa.Table) -> pa.Table:
            d = ray.get(dup_ref)
            h = t["__h"].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(d, h)
            m = (pos < len(d)) & (d[np.minimum(pos, len(d) - 1)] == h)
            out = t.filter(pa.array(m if keep_colliding else ~m))
            return out if keep_colliding else out.drop_columns(["__h"])

        f.__name__ = "colliding" if keep_colliding else "passthrough"
        return f

    clean = base.map_batches(make_split(False), batch_format="pyarrow")

    def per_bucket(t: pa.Table) -> pa.Table:
        return dedup_table(t, keys).drop_columns(["__b", "__h"])

    verified = bucketed_map_groups(
        base.map_batches(make_split(True), batch_format="pyarrow")
            .map_batches(hash_bucket, batch_format="pyarrow"),
        "__b", per_bucket)
    return clean.union(verified)
