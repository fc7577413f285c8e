"""Driver contract for the graft builder (Ray Data target).

``entry()`` — flagship KG build; ``queries()`` — one entry per
implemented operator (SURVEY.md §2 + training-data ops); ``oracle_sql()``
— DuckDB parity SQL for every SQL-expressible query (same column names).

Ray is initialised by the driver BEFORE this module is imported; nothing
here calls ``ray.init()`` / ``ray.shutdown()``.

Inputs: the driver's sf tables (``documents``, ``embeddings``,
``events``, TPC-H-ish relations) for the training-data / relational
operators, plus the deterministic synthetic transcript+lexicon fixtures
(``tera_ray.sources.synthetic``, seed=42) for the KG pipelines — the
transcript table shape comes from BASELINE.json ``input_hint`` and the
driver's sf dirs don't carry one, so we synthesize it per the graft
instructions.  Fixture-backed oracle SQL reads the fixture parquet via
``read_parquet`` paths; fixtures are generated at import so both sides
always see the same files.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from tera_ray.schema import (
    ECOTOX_NS,
    NAN_VALUES,
    RDF_TYPE,
    RDF_VALUE,
    RDFS_LABEL,
    RDFS_SUBCLASSOF,
)
from tera_ray.sources.synthetic import fixture_dir
from tera_ray.text.analysis import BPE_RE

NS = ECOTOX_NS

# sf dir → fixture scale (driver smoke = sf0.001, correctness = sf0.01)
_FX_SCALE = {"sf0.001": "t1", "sf0.01": "t2", "sf0.1": "t2"}

# generated eagerly so oracle SQL (static strings with fixture paths)
# and queries() always see the same files
FX_T1 = fixture_dir("t1")
FX_T2 = fixture_dir("t2")


def _fx(sf_dir: str) -> str:
    scale = _FX_SCALE.get(os.path.basename(os.path.normpath(sf_dir)), "t2")
    return fixture_dir(scale)


def _read(sf_dir: str, name: str, columns=None, predicate=None):
    """Column-pruned (and optionally row-filter-pushed) parquet read:
    ``predicate`` is a pyarrow dataset expression evaluated at the SCAN
    — row groups whose statistics exclude it never leave storage."""
    import ray.data

    return ray.data.read_parquet(
        os.path.join(sf_dir, name + ".parquet"), columns=columns,
        filter=predicate)


def _collect(ds) -> pa.Table:
    parts = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    return pa.concat_tables(parts, promote_options="permissive") if parts else None


# --------------------------------------------------------------------------
# entry: flagship pipeline at sf0.001
# --------------------------------------------------------------------------

def entry() -> Any:
    """Flagship KG construction: sf0.001 ``documents`` re-shaped into the
    ``input_hint`` transcript schema (conv_id=source, turn order by
    doc_id) → task-parallel mention linking against the broadcast lexicon →
    lineage-tagged triples → exact dedup (A1)."""
    import ray
    import ray.data

    from tera_ray.pipelines.transcripts import build_lexicon, link_transcripts
    from tera_ray.stages.base import dedup_triples

    docs = _read("/root/testdata/sf0.001", "documents")

    def to_transcript(t: pa.Table) -> pa.Table:
        n = t.num_rows
        base = pa.scalar(1_700_000_000_000_000, pa.int64())
        return pa.table({
            "conv_id": t["source"].combine_chunks().cast(pa.string()),
            "turn_idx": t["doc_id"].combine_chunks().cast(pa.int32()),
            "role": pa.array(["user", "assistant", "tool"] * (n // 3 + 1),
                             pa.string())[:n],
            "text": t["text"],
            "tool": pa.array([""] * n, pa.string()),
            "ts": pc.add(pc.multiply(t["doc_id"].combine_chunks().cast(pa.int64()),
                                     pa.scalar(1_000_000, pa.int64())),
                         base).cast(pa.timestamp("us")),
        })

    transcripts = docs.map_batches(to_transcript, batch_format="pyarrow")
    lex_ref = build_lexicon(FX_T1)
    triples = link_transcripts(transcripts, lex_ref, fuzzy=False)
    return dedup_triples(triples)


# --------------------------------------------------------------------------
# queries over the driver's sf tables
# --------------------------------------------------------------------------

def _q_docs_dedup_exact(sf_dir: str):
    from tera_ray.dedup.exact import dedup_exact

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return dedup_exact(ds, keys=["text"], order_by="doc_id")


def _q_docs_line_dedup(sf_dir: str):
    """Corpus-level exact line dedup (RefinedWeb-style boilerplate
    scrub): any whitespace-separated token occurring in ≥ 80% of the
    documents is removed from every document, order preserved.  The
    synthetic docs are single-line, so the judged separator is the
    token boundary; real corpora use the default ``sep="\\n"``."""
    import pyarrow.parquet as pq

    from tera_ray.dedup.lines import dedup_lines

    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return dedup_lines(ds, sep=" ", min_docs=int(0.8 * n_docs))


def _q_docs_hot_lines(sf_dir: str):
    """The line-dedup CENSUS half standalone: lines (here tokens, the
    docs are single-line) present in ≥ 60% of distinct documents —
    one hash-bucket groupby over per-batch-distinct (line, doc)
    pairs."""
    import pyarrow.parquet as pq

    from tera_ray.dedup.lines import hot_lines

    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return hot_lines(ds, sep=" ", min_docs=int(0.6 * n_docs))


def _q_docs_hash_embed(sf_dir: str):
    """Feature-hashing bag-of-words embeddings (the hashing trick):
    deterministic FNV-based signed slot sums, L2-normalized — text →
    fixed-width vectors with no model, feeding the in-engine ANN /
    k-means / PCA / SemDeDup stack.  Pure per-batch map."""
    from tera_ray.text.analysis import hash_embed

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(lambda t: hash_embed(t, dim=16),
                          batch_format="pyarrow")


def _q_docs_embed_cluster(sf_dir: str):
    """Capstone composition: raw text → feature-hashing embeddings →
    broadcast nearest-centroid assignment (centroids = the first 8
    docs' vectors), all in-engine with no model weights and ONE pass
    per stage — the hashed-vector pipeline the ANN stack enables."""
    from tera_ray.ann.kmeans import kmeans_assign
    from tera_ray.text.analysis import hash_embed

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    emb = ds.map_batches(lambda t: hash_embed(t, dim=16),
                         batch_format="pyarrow")
    head = emb.filter(
        lambda r: r["doc_id"] < 8).take_all()
    head.sort(key=lambda r: r["doc_id"])
    cids = [r["doc_id"] for r in head]
    C = [r["embedding"] for r in head]
    return kmeans_assign(emb, cids, C, id_col="doc_id")


def _q_docs_quality_model(sf_dir: str):
    """Model-based quality scoring (FineWeb-Edu pattern): distributed
    IRLS logistic regression on the vectorized quality signals
    (label: is the doc English), then broadcast-weight sigmoid scoring
    of every document.  Rows-only — no SQL Newton solver."""
    from tera_ray.text.analysis import quality_stats
    from tera_ray.text.classifier import logreg_fit, logreg_score

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def feats(t: pa.Table) -> pa.Table:
        q = quality_stats(t)
        return q.append_column(
            "y", pc.cast(pc.equal(t["lang"], "en"), pa.int64()))

    feat_cols = ["alpha_ratio", "punct_ratio", "stopword_ratio",
                 "mean_word_len"]
    fds = ds.map_batches(feats, batch_format="pyarrow").materialize()
    w, _ = logreg_fit(fds, feat_cols, "y")
    return logreg_score(fds, w, feat_cols)


_LOGREG_FEATS = ["alpha_ratio", "punct_ratio", "stopword_ratio",
                 "mean_word_len"]


def _q_docs_logreg_partials(sf_dir: str):
    """SQL-oracleable face of the IRLS trainer (r2 verdict item #7):
    the first Newton iteration's summed Hessian/gradient partials at
    w = 0 over the same quality features docs_quality_model trains on.
    The d×d solve itself stays driver-side and non-SQL; everything
    that MOVES (the mergeable partials) is oracle-checked here."""
    from tera_ray.text.analysis import quality_stats
    from tera_ray.text.classifier import logreg_partials

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def feats(t: pa.Table) -> pa.Table:
        q = quality_stats(t)
        return q.append_column(
            "y", pc.cast(pc.equal(t["lang"], "en"), pa.int64()))

    return logreg_partials(ds.map_batches(feats, batch_format="pyarrow"),
                           _LOGREG_FEATS, "y")


def _logreg_partials_sql() -> str:
    # integer micro-units: q_k = round_even(x_k * 1000) BIGINT with
    # q0 = 1000 the intercept — exact sums, immune to float sum order
    qs = ["CAST(1000 AS BIGINT)"] + [
        f"CAST(round_even({c} * 1000, 0) AS BIGINT)"
        for c in _LOGREG_FEATS]
    arms = []
    for i, qi in enumerate(qs):
        for j, qj in enumerate(qs):
            arms.append(
                f"SELECT 'xx' AS kind, CAST({i} AS BIGINT) AS i,"
                f" CAST({j} AS BIGINT) AS j,"
                f" CAST(sum(({qi}) * ({qj})) AS BIGINT)"
                f" AS value FROM f")
    for j, qj in enumerate(qs):
        arms.append(
            f"SELECT 'xy' AS kind, CAST(-1 AS BIGINT) AS i,"
            f" CAST({j} AS BIGINT) AS j,"
            f" CAST(sum(({qj}) * (2 * y - 1)) AS BIGINT)"
            f" AS value FROM f")
    return (f"WITH q AS ({_quality_stats_sql()}),"
            f" f AS (SELECT q.*,"
            f" CAST(d.lang = 'en' AS BIGINT) AS y"
            f" FROM q JOIN documents d USING (doc_id)) "
            + " UNION ALL ".join(arms))


def _q_docs_union_by_name(sf_dir: str):
    """UNION ALL BY NAME (schema evolution): two shards of the
    documents table exposing different column subsets union by column
    name with null padding — the new-shard-gains-a-column case a
    long-lived 100 TB ingest hits constantly."""
    from tera_ray.query.relational import union_by_name

    a = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    b = _read(sf_dir, "documents", columns=["doc_id", "source"])
    return union_by_name([a, b])


def _q_orders_upsert(sf_dir: str):
    """SCD-1 merge (MERGE INTO): whole-row updates win on key, new keys
    insert, unmatched base rows pass through — one composite-key
    anti-join shuffle."""
    import ray.data

    from tera_ray.query.relational import upsert

    base = _read(sf_dir, "orders",
                 columns=["o_orderkey", "o_totalprice", "o_orderstatus"])

    def mk_updates(t: pa.Table) -> pa.Table:
        m = pc.equal(
            pc.subtract(t["o_orderkey"],
                        pc.multiply(pc.divide(t["o_orderkey"], 7),
                                    pa.scalar(7, pa.int64()))),
            pa.scalar(0, pa.int64()))
        t2 = t.filter(m)
        n = t2.num_rows
        return pa.table({
            "o_orderkey": t2["o_orderkey"],
            "o_totalprice": pa.array([0.0] * n, pa.float64()),
            "o_orderstatus": pa.array(["X"] * n, pa.string()),
        })

    updates = base.map_batches(mk_updates, batch_format="pyarrow")
    new_row = ray.data.from_arrow(pa.table({
        "o_orderkey": pa.array([-1], pa.int64()),
        "o_totalprice": pa.array([0.0], pa.float64()),
        "o_orderstatus": pa.array(["X"], pa.string()),
    }))
    return upsert(base, updates.union(new_row),
                  keys=["o_orderkey"])


def _q_docs_token_stats(sf_dir: str):
    from tera_ray.text.analysis import token_stats

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(token_stats, batch_format="pyarrow").map_batches(
        lambda t: t.select(["doc_id", "n_tokens_ws", "n_tokens_bpe"]),
        batch_format="pyarrow")


def _q_docs_lang_counts(sf_dir: str):
    from tera_ray.query.relational import grouped_agg

    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])
    return grouped_agg(ds, ["lang"], [("lang", "count", "n"),
                                      ("n_chars", "sum", "total_chars")])


def _q_orders_top1(sf_dir: str):
    from tera_ray.query.relational import top1_per_key

    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderkey", "o_totalprice"])
    return top1_per_key(ds, "o_custkey",
                        [("o_totalprice", "descending"),
                         ("o_orderkey", "ascending")])


def _cents(price, disc=None):
    x = price.combine_chunks() if isinstance(price, pa.ChunkedArray) else price
    if disc is not None:
        d = disc.combine_chunks() if isinstance(disc, pa.ChunkedArray) else disc
        x = pc.multiply(x, pc.subtract(pa.scalar(1.0), d))
    return pc.round(pc.multiply(x, pa.scalar(100.0)),
                    round_mode="half_towards_infinity").cast(pa.int64())


def _dim_orders_cust(sf_dir: str, segment: str | None = None) -> pa.Table:
    """orders ⋈ customer as a driver-side Arrow table — the broadcast
    small side (dimension-scale: ≤150k rows at sf0.1).  The fact table
    (lineitem) then joins map-side with zero shuffle."""
    import pyarrow.parquet as pq

    orders = pq.read_table(os.path.join(sf_dir, "orders.parquet"),
                           columns=["o_orderkey", "o_custkey"])
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_mktsegment"])
    if segment is not None:
        cust = cust.filter(pc.equal(cust["c_mktsegment"], segment))
    return orders.join(cust, keys=["o_custkey"], right_keys=["c_custkey"],
                       join_type="inner")


def _q_revenue_by_segment(sf_dir: str):
    from tera_ray.query.relational import broadcast_join, grouped_agg

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount"])
    j = broadcast_join(li, _dim_orders_cust(sf_dir),
                       "l_orderkey", "o_orderkey")

    def derive(t: pa.Table) -> pa.Table:
        return pa.table({
            "c_mktsegment": t["c_mktsegment"],
            "cents": _cents(t["l_extendedprice"], t["l_discount"]),
        })

    return grouped_agg(j.map_batches(derive, batch_format="pyarrow"),
                       ["c_mktsegment"],
                       [("cents", "count", "n"),
                        ("cents", "sum", "revenue_cents")])


def _q_building_suppliers(sf_dir: str):
    from tera_ray.query.relational import broadcast_join, distinct_values

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_suppkey"])
    j = broadcast_join(li, _dim_orders_cust(sf_dir, segment="BUILDING"),
                       "l_orderkey", "o_orderkey")
    return distinct_values(j, "l_suppkey")


def _q_pricing_summary(sf_dir: str):
    from tera_ray.query.relational import grouped_agg

    li = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity",
                        "l_extendedprice"])

    def derive(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "l_quantity": t["l_quantity"],
            "base_cents": _cents(t["l_extendedprice"]),
        })

    return grouped_agg(li.map_batches(derive, batch_format="pyarrow"),
                       ["l_returnflag", "l_linestatus"],
                       [("l_quantity", "count", "n"),
                        ("l_quantity", "sum", "sum_qty"),
                        ("base_cents", "sum", "base_cents")])


def _q_lineitem_price_stats(sf_dir: str):
    """Moment aggregates (avg / sample stddev / sample variance) via
    the mergeable-moments combiner in ``grouped_agg`` — one shuffle of
    (n, Σx, Σx²) triples per group, never raw rows.  Outputs are
    rounded identically in engine and oracle (float64 moment math and
    DuckDB's streaming variance agree to ~1e-9 relative; rounding
    removes the last-bit ambiguity)."""
    from tera_ray.query.relational import grouped_agg

    li = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_extendedprice", "l_quantity"])
    g = grouped_agg(li, ["l_returnflag"],
                    [("l_extendedprice", "avg", "avg_price"),
                     ("l_extendedprice", "std", "std_price"),
                     ("l_quantity", "avg", "avg_qty"),
                     ("l_quantity", "var", "var_qty"),
                     ("l_returnflag", "count", "n")])

    def rnd(t: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": t["l_returnflag"],
            "avg_price": pc.round(t["avg_price"], 4),
            "std_price": pc.round(t["std_price"], 4),
            "avg_qty": pc.round(t["avg_qty"], 6),
            "var_qty": pc.round(t["var_qty"], 6),
            "n": t["n"],
        })

    return g.map_batches(rnd, batch_format="pyarrow")


def _q_orders_rollup(sf_dir: str):
    """GROUP BY ROLLUP(priority, status): one raw-data shuffle at the
    finest level, subtotals + grand total re-aggregated from its
    (small, materialized) result — `tera_ray.query.relational.rollup_agg`."""
    from tera_ray.query.relational import rollup_agg

    orders = _read(sf_dir, "orders",
                   columns=["o_orderpriority", "o_orderstatus",
                            "o_totalprice"])

    def derive(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderpriority": t["o_orderpriority"],
            "o_orderstatus": t["o_orderstatus"],
            "cents": _cents(t["o_totalprice"]),
        })

    return rollup_agg(orders.map_batches(derive, batch_format="pyarrow"),
                      ["o_orderpriority", "o_orderstatus"],
                      [("cents", "count", "n"), ("cents", "sum", "cents")])


def _q_set_sides(sf_dir: str):
    """Shared sides for the set-op queries: urgent-order customer keys
    vs BUILDING-segment customer keys, both projected to one ``custkey``
    column."""
    urgent = _read(sf_dir, "orders",
                   columns=["o_custkey", "o_orderpriority"]).map_batches(
        lambda t: pa.table({"custkey": t.filter(
            pc.equal(t["o_orderpriority"], "1-URGENT"))["o_custkey"]}),
        batch_format="pyarrow")
    bld = _read(sf_dir, "customer",
                columns=["c_custkey", "c_mktsegment"]).map_batches(
        lambda t: pa.table({"custkey": t.filter(
            pc.equal(t["c_mktsegment"], "BUILDING"))["c_custkey"]}),
        batch_format="pyarrow")
    return urgent, bld


def _q_custkeys_intersect(sf_dir: str):
    """Distributed INTERSECT DISTINCT (side-flag groupby — null-safe,
    one distinct-rows shuffle; `tera_ray.query.relational.set_op`)."""
    from tera_ray.query.relational import set_op

    urgent, bld = _q_set_sides(sf_dir)
    return set_op(urgent, bld, "intersect")


def _q_custkeys_except(sf_dir: str):
    """Distributed EXCEPT DISTINCT (same machinery, left-only filter)."""
    from tera_ray.query.relational import set_op

    urgent, bld = _q_set_sides(sf_dir)
    return set_op(urgent, bld, "except")


def _q_orders_pivot(sf_dir: str):
    """PIVOT order priorities into per-status count columns (wide
    indicator combiner — the shuffle is already wide;
    `tera_ray.query.relational.pivot_agg`)."""
    from tera_ray.query.relational import pivot_agg

    orders = _read(sf_dir, "orders",
                   columns=["o_orderstatus", "o_orderpriority"])
    return pivot_agg(orders, "o_orderstatus", "o_orderpriority",
                     ["1-URGENT", "2-HIGH", "3-MEDIUM",
                      "4-NOT SPECIFIED", "5-LOW"])


def _q_lineitem_unpivot(sf_dir: str):
    """UNPIVOT/melt numeric lineitem columns to long form (pure
    per-batch fan-out, no shuffle; `tera_ray.query.relational.unpivot`)."""
    from tera_ray.query.relational import unpivot

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linenumber", "l_quantity",
                        "l_extendedprice", "l_discount"])
    return unpivot(li, ["l_orderkey", "l_linenumber"],
                   ["l_quantity", "l_extendedprice", "l_discount"])


def _q_parts_triangles(sf_dir: str):
    """Graph analytics: distinct triangles in the part co-occurrence
    graph of 1-URGENT orders (parts sharing an order are connected).
    Pair generation is one bucketed polars self-join; triangles are
    the two-shuffle wedge plan (`tera_ray.query.graph`)."""
    from tera_ray.query.graph import grouped_pairs, triangles
    from tera_ray.query.relational import key_semi_join

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    urgent = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderpriority"]).map_batches(
        lambda t: pa.table({"o_orderkey": t.filter(
            pc.equal(t["o_orderpriority"], "1-URGENT"))["o_orderkey"]}),
        batch_format="pyarrow")
    li_u = key_semi_join(li, urgent, "l_orderkey", "o_orderkey")
    edges = grouped_pairs(li_u, "l_orderkey", "l_partkey")
    return triangles(edges)


def _q_docs_top_tokens(sf_dir: str):
    """Vocabulary building: corpus-wide top-100 tokens.  Per-batch
    tokenize (vectorized RE2 split + value_counts combiner) → grouped
    sum (shuffle volume = per-batch DISTINCT tokens, Zipf-bounded) →
    global sort + limit over the vocab-sized count table."""
    from tera_ray.query.relational import grouped_agg

    ds = _read(sf_dir, "documents", columns=["text"])

    def toks(t: pa.Table) -> pa.Table:
        s = t["text"].combine_chunks()
        flat = pc.list_flatten(
            pc.split_pattern_regex(pc.utf8_lower(pc.fill_null(s, "")),
                                   r"\W+"))
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = pc.value_counts(flat)
        return pa.table({"token": vc.field("values"),
                         "cnt": vc.field("counts")})

    counts = grouped_agg(ds.map_batches(toks, batch_format="pyarrow"),
                         ["token"], [("cnt", "sum", "cnt")])
    return counts.sort(["cnt", "token"],
                       descending=[True, False]).limit(100)


def _q_events_interarrival(sf_dir: str):
    """Per-user inter-arrival statistics (mean/max gap seconds,
    n_gaps): window `lead(ts)` → µs gaps → one combiner-first
    grouped_agg.  The stream-health metric behind sessionization
    threshold choices."""
    import pyarrow.compute as pc

    from tera_ray.query.relational import grouped_agg
    from tera_ray.query.window import window_funcs

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    w = window_funcs(ds, ["user_id"],
                     [("ts", "ascending"), ("event_id", "ascending")],
                     specs=[("lead", "ts", "next_ts")])

    def gaps(t: pa.Table) -> pa.Table:
        dt = pc.subtract(pc.cast(t["next_ts"], pa.int64()),
                         pc.cast(t["ts"], pa.int64()))
        tt = pa.table({"user_id": t["user_id"], "dt": dt})
        return tt.filter(pc.is_valid(tt["dt"]))

    agg = grouped_agg(w.map_batches(gaps, batch_format="pyarrow"),
                      ["user_id"], [("dt", "count", "n_gaps"),
                                    ("dt", "avg", "mean_gap_us"),
                                    ("dt", "max", "max_gap_us")])
    return agg.map_batches(
        lambda t: pa.table({
            "user_id": t["user_id"], "n_gaps": t["n_gaps"],
            "mean_gap_s": pc.round(pc.divide(
                t["mean_gap_us"], pa.scalar(1_000_000.0)), 6),
            "max_gap_s": pc.divide(pc.cast(t["max_gap_us"], pa.float64()),
                                   pa.scalar(1_000_000.0))}),
        batch_format="pyarrow")


def _q_lang_quality_means(sf_dir: str):
    """Per-language mean quality score — the data-mixing dashboard view
    over the oracled quality kernel: per-doc signals (map-side) →
    combiner grouped_agg by lang."""
    import pyarrow.compute as pc

    from tera_ray.query.relational import grouped_agg
    from tera_ray.text.analysis import quality_stats

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    q = ds.map_batches(quality_stats, batch_format="pyarrow").map_batches(
        lambda t: t.select(["lang", "quality"]), batch_format="pyarrow")
    agg = grouped_agg(q, ["lang"], [("quality", "count", "n"),
                                    ("quality", "avg", "mean_quality")])
    return agg.map_batches(
        lambda t: pa.table({"lang": t["lang"], "n": t["n"],
                            "mean_quality": pc.round(t["mean_quality"],
                                                     6)}),
        batch_format="pyarrow")


def _q_source_top_tokens(sf_dir: str):
    """Per-SOURCE top-3 tokens — grouped vocabulary profiling (the
    per-stratum counterpart of docs_top_tokens): per-batch (source,
    token) value_counts combiner → grouped sum → topk_per_key with a
    deterministic (count desc, token asc) tie-break.  Shuffle volume is
    per-batch distinct (source, token) pairs, Zipf-bounded."""
    import numpy as np

    from tera_ray.query.relational import grouped_agg, topk_per_key

    ds = _read(sf_dir, "documents", columns=["source", "text"])

    def toks(t: pa.Table) -> pa.Table:
        s = t["text"].combine_chunks()
        src = t["source"].combine_chunks()
        lists = pc.split_pattern_regex(
            pc.utf8_lower(pc.fill_null(s, "")), r"\W+")
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        flat = pa.table({
            "source": src.take(pa.array(
                np.repeat(np.arange(len(lens)), lens))),
            "token": lists.combine_chunks().flatten()
            if isinstance(lists, pa.ChunkedArray) else lists.flatten(),
        })
        flat = flat.filter(pc.not_equal(flat["token"], pa.scalar("")))
        g = flat.group_by(["source", "token"],
                          use_threads=False).aggregate([("token", "count")])
        return g.rename_columns(["source", "token", "cnt"])

    counts = grouped_agg(ds.map_batches(toks, batch_format="pyarrow"),
                         ["source", "token"], [("cnt", "sum", "cnt")])
    return topk_per_key(counts, "source",
                        order=[("cnt", "descending"),
                               ("token", "ascending")], k=3)


def _q_events_props_sum(sf_dir: str):
    """Semi-structured payloads: vectorized JSON-path extraction from
    the ``events.props`` JSON string column (polars ``json_path_match``
    per batch — no Python row loop) folded by the grouped combiner.
    The string→int64 cast uses ``sql_try_cast_int64`` — DuckDB-identical
    semantics (decimal rounding, whitespace, exponents), because polars'
    strict-less Int64 cast nulls shapes like ``'1.5'``/``' 7 '`` that
    the oracle's ``CAST(… AS BIGINT)`` coerces (the r02 driver
    hash-mismatch root cause)."""
    from tera_ray.cleaning import sql_try_cast_int64
    from tera_ray.query.relational import grouped_agg

    ds = _read(sf_dir, "events", columns=["event_type", "props"])

    def extract(t: pa.Table) -> pa.Table:
        import polars as pl

        s = pl.from_arrow(t["props"].combine_chunks())
        raw = s.str.json_path_match("$.k").to_arrow()
        return pa.table({"event_type": t["event_type"],
                         "k": sql_try_cast_int64(raw)})

    return grouped_agg(ds.map_batches(extract, batch_format="pyarrow"),
                       ["event_type"],
                       [("k", "sum", "k_sum"), ("k", "count", "n")])


def _q_orders_by_month(sf_dir: str):
    """Temporal scalar functions: truncate order timestamps to month
    (Arrow ``floor_temporal`` — zero-copy vectorized) + grouped
    count/sum combiner."""
    from tera_ray.query.relational import grouped_agg

    orders = _read(sf_dir, "orders",
                   columns=["o_orderdate", "o_totalprice"])

    def derive(t: pa.Table) -> pa.Table:
        return pa.table({
            "month": pc.floor_temporal(t["o_orderdate"], unit="month"),
            "cents": _cents(t["o_totalprice"]),
        })

    return grouped_agg(orders.map_batches(derive, batch_format="pyarrow"),
                       ["month"],
                       [("cents", "count", "n"), ("cents", "sum", "cents")])


def _q_custkey_orderkeys(sf_dir: str):
    """Nested output: per customer the SORTED LIST of their order keys
    (`tera_ray.query.relational.grouped_array_agg` — list column
    assembled per bucket, no Python row loop)."""
    from tera_ray.query.relational import grouped_array_agg

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderkey"])
    return grouped_array_agg(orders, "o_custkey", "o_orderkey",
                             out_name="orderkeys")


def _q_events_cms_counts(sf_dir: str):
    """Count-Min point-frequency estimates for 10 probe users — the
    second sketch family member (`tera_ray.sketch.cms`): d×w mergeable
    counters, grouped-sum shuffle of ≤ d·w rows, min-over-rows probe
    reads.  Deterministic salted-FNV hashing → fully SQL-oracled."""
    from tera_ray.sketch.cms import cms_point_estimates

    ds = _read(sf_dir, "events", columns=["user_id"])
    return cms_point_estimates(ds, "user_id", list(range(10)))


def _q_events_hll_users(sf_dir: str):
    """HyperLogLog (p=14) approximate distinct users — the mergeable
    sketch pipeline (`tera_ray.sketch.hll`): per-batch register
    partials → grouped max (≤2^14 rows shuffle) → driver estimate.
    FNV hashing makes the sketch deterministic, so the ORACLE
    reproduces registers AND estimate bit-for-bit in SQL."""
    from tera_ray.sketch.hll import approx_count_distinct

    ds = _read(sf_dir, "events", columns=["user_id"])
    return approx_count_distinct(ds, "user_id")


def _q_docs_tfidf_top3(sf_dir: str):
    """TF-IDF top-3 terms per document — a four-operator composition:
    vectorized tokenize → tf (`grouped_agg` on (doc, token)) → df
    (`grouped_count_distinct` on token) → broadcast df join + score →
    `topk_per_key`.  The df table is vocab-bounded (Heaps' law), the
    canonical broadcast side; scores rounded to 9 decimals in engine
    AND oracle."""
    import math

    import ray

    from tera_ray.query.relational import (broadcast_join, grouped_agg,
                                           grouped_count_distinct,
                                           topk_per_key)

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    n_docs = ds.count()

    def toks(t: pa.Table) -> pa.Table:
        s = t["text"].combine_chunks()
        lists = pc.split_pattern_regex(pc.utf8_lower(pc.fill_null(s, "")),
                                       r"\W+")
        flat = pc.list_flatten(lists)
        did = pc.list_parent_indices(lists)
        doc = pc.take(t["doc_id"].combine_chunks(), did)
        keep = pc.not_equal(flat, "")
        return pa.table({"doc_id": doc.filter(keep),
                         "token": flat.filter(keep)})

    tokens = ds.map_batches(toks, batch_format="pyarrow")
    tf = grouped_agg(tokens, ["doc_id", "token"],
                     [("token", "count", "tf")])
    df = grouped_count_distinct(tokens, "token", "doc_id", out_name="df")
    df_tbl = pa.concat_tables(
        list(df.iter_batches(batch_format="pyarrow", batch_size=None)))

    scored = broadcast_join(tf, df_tbl, "token", "token")

    def score(t: pa.Table) -> pa.Table:
        idf = pc.ln(pc.divide(pa.scalar(float(n_docs)),
                              pc.cast(t["df"], pa.float64())))
        s = pc.round(pc.multiply(pc.cast(t["tf"], pa.float64()), idf), 9)
        return pa.table({"doc_id": t["doc_id"], "token": t["token"],
                         "score": s})

    return topk_per_key(scored.map_batches(score, batch_format="pyarrow"),
                        "doc_id",
                        [("score", "descending"), ("token", "ascending")],
                        k=3)


def _q_parts_pagerank(sf_dir: str):
    """Iterative fixpoint: 3 PageRank power iterations over the urgent
    part co-occurrence graph (`tera_ray.query.graph.pagerank` — per
    iteration one hash join + combiner-grouped sum + left join; node
    state re-materialized, never driver-collected).  Ranks rounded to
    10 decimals in engine AND oracle (summation-order FP jitter is
    ~1e-16)."""
    from tera_ray.query.graph import grouped_pairs, pagerank
    from tera_ray.query.relational import key_semi_join

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    urgent = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderpriority"]).map_batches(
        lambda t: pa.table({"o_orderkey": t.filter(
            pc.equal(t["o_orderpriority"], "1-URGENT"))["o_orderkey"]}),
        batch_format="pyarrow")
    li_u = key_semi_join(li, urgent, "l_orderkey", "o_orderkey")
    edges = grouped_pairs(li_u, "l_orderkey", "l_partkey")
    pr = pagerank(edges, iters=3, damping=0.85)
    return pr.map_batches(
        lambda t: pa.table({"node": t["node"],
                            "rank": pc.round(t["rank"], 10)}),
        batch_format="pyarrow")


def _q_orders_cube(sf_dir: str):
    """GROUP BY CUBE(priority, status): 2^k grouping sets from ONE raw
    shuffle (`tera_ray.query.relational.cube_agg`)."""
    from tera_ray.query.relational import cube_agg

    orders = _read(sf_dir, "orders",
                   columns=["o_orderpriority", "o_orderstatus",
                            "o_totalprice"])

    def derive(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderpriority": t["o_orderpriority"],
            "o_orderstatus": t["o_orderstatus"],
            "cents": _cents(t["o_totalprice"]),
        })

    return cube_agg(orders.map_batches(derive, batch_format="pyarrow"),
                    ["o_orderpriority", "o_orderstatus"],
                    [("cents", "count", "n"), ("cents", "sum", "cents")])


def _q_priority_distinct_parts(sf_dir: str):
    """Exact per-key COUNT(DISTINCT): distinct (priority, part) pairs
    shuffle (dedup combiner) + tiny grouped count
    (`tera_ray.query.relational.grouped_count_distinct`); priorities
    reach lineitem through the l_orderkey hash join."""
    from tera_ray.query.relational import (grouped_count_distinct,
                                           hash_join)

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderpriority"])
    j = hash_join(li, orders, on="l_orderkey", right_on="o_orderkey")
    return grouped_count_distinct(j, "o_orderpriority", "l_partkey",
                                  out_name="n_parts")


def _q_orders_top100(sf_dir: str):
    """K2/K-series: distributed sort + limit (all-to-all sort shuffle,
    then a driver-cheap limit)."""
    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    out = ds.sort(["o_totalprice", "o_orderkey"],
                  descending=[True, False]).limit(100)
    rank = [0]

    def add_rank(t: pa.Table) -> pa.Table:
        n = t.num_rows
        r = pa.array(range(rank[0] + 1, rank[0] + n + 1), pa.int64())
        rank[0] += n
        return t.append_column("rank", r)

    # limit(100) → single small block on the driver path; rank assigned
    # in order (deterministic because the sort is total)
    tbl = pa.concat_tables(
        list(out.iter_batches(batch_format="pyarrow", batch_size=None)))
    return add_rank(tbl)


def _q_events_sessions(sf_dir: str):
    from tera_ray.query.relational import ordered_group_concat

    ev = _read(sf_dir, "events",
               columns=["user_id", "event_id", "ts", "event_type"])
    return ordered_group_concat(
        ev, "user_id",
        [("ts", "ascending"), ("event_id", "ascending")],
        "event_type", sep="|", out_names=("user_id", "n_events", "seq"))


def _q_ann_topk(sf_dir: str):
    import pyarrow.parquet as pq

    from tera_ray.ann.search import brute_topk

    path = os.path.join(sf_dir, "embeddings.parquet")
    qt = pq.read_table(path, columns=["vec_id", "embedding"])
    keep = pc.is_in(qt["vec_id"], value_set=pa.array([0, 1, 2], pa.int64()))
    qt = qt.filter(keep)
    Q = np.asarray(qt["embedding"].to_pylist(), np.float64)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = brute_topk(ds, qids=qt["vec_id"].to_pylist(), Q=Q, k=10,
                     dtype=np.float64)
    return out.map_batches(lambda t: t.select(["query_id", "vec_id", "rank"]),
                           batch_format="pyarrow")


def _q_emb_cosine_dups(sf_dir: str):
    from tera_ray.dedup.embed import cosine_dup_pairs

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = cosine_dup_pairs(ds, threshold=0.5, bits=0, n_tables=1,
                           max_bucket=1 << 20, dtype=np.float64)
    return out.map_batches(lambda t: t.select(["a", "b"]),
                           batch_format="pyarrow")


def _q_emb_semdedup(sf_dir: str):
    """SemDeDup (arXiv:2303.09540; `tera_ray.dedup.embed.semdedup`):
    k-means partitions the embedding space (broadcast centroids, zero
    shuffle), then ONE groupby(cluster) shuffle prunes within-cluster
    rows whose cosine to an earlier same-cluster row is ≥ 0.4 —
    deterministic min-id keeper, float64 Gram kernel matching DuckDB's
    `list_cosine_similarity` (nearest sim sits 1.3e-4 from the
    threshold at sf0.01, far above float64 noise)."""
    from tera_ray.dedup.embed import semdedup

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return semdedup(ds, k=_KMEANS_K, threshold=0.4)


# rows-only (non-SQL-expressible) over sf tables ---------------------------

def _q_docs_bpe_pair_counts(sf_dir: str):
    """SQL-oracleable face of BPE training (r2 verdict item #7): the
    first round's freq-weighted adjacent-codepoint pair counts over
    the distinct-word table (`tera_ray.text.bpe.pair_counts`) — the
    exact table every merge round's argmax reduces over."""
    from tera_ray.text.bpe import pair_counts

    return pair_counts(_read(sf_dir, "documents",
                             columns=["doc_id", "text"]))


def _bpe_pair_counts_sql() -> str:
    return r"""
WITH w AS (
  SELECT tok AS word, count(*) AS freq
  FROM (SELECT unnest(string_split_regex(
            trim(lower(coalesce(text, ''))), '\s+')) AS tok
        FROM documents)
  WHERE tok <> '' GROUP BY tok
), p AS (
  SELECT (CAST(unicode(substring(word, g, 1)) AS BIGINT) << 32)
         | CAST(unicode(substring(word, g + 1, 1)) AS BIGINT) AS pair,
         freq
  FROM (SELECT word, freq,
               unnest(generate_series(1, length(word) - 1)) AS g
        FROM w WHERE length(word) >= 2)
)
SELECT pair, CAST(sum(freq) AS BIGINT) AS cnt FROM p GROUP BY pair
"""


def _q_docs_bpe_merges(sf_dir: str):
    """Distributed BPE tokenizer training (`tera_ray.text.bpe.bpe_train`,
    Sennrich et al. 2016): 24 merge rounds over the aggregated
    word-frequency table — pair counting is a combiner-first partial +
    tiny grouped sum, the argmax forwards only batch-max ties, and the
    merge applies as one vectorized pass.  Deterministic (ties break on
    resolved strings), partition-invariant (pytest-asserted), but the
    iterative argmax is not SQL-expressible → rows-only."""
    from tera_ray.text.bpe import bpe_train

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return bpe_train(ds, n_merges=24)


def _q_docs_quality(sf_dir: str):
    from tera_ray.text.analysis import langid, quality_stats

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return (ds.map_batches(quality_stats, batch_format="pyarrow")
            .map_batches(langid, batch_format="pyarrow")
            .map_batches(lambda t: t.drop_columns(["text"]),
                         batch_format="pyarrow"))


def _q_docs_fingerprint(sf_dir: str):
    from tera_ray.text.analysis import fingerprint

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(fingerprint, batch_format="pyarrow").map_batches(
        lambda t: t.select(["doc_id", "fp64"]), batch_format="pyarrow")


def _q_docs_quality_stats(sf_dir: str):
    """The oracled subset of docs_quality: every signal is a regex-count
    / arithmetic kernel DuckDB reproduces exactly (langid, which is not
    SQL-expressible, stays in the rows-only docs_quality entry)."""
    from tera_ray.text.analysis import quality_stats

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    cols = ["doc_id", "alpha_ratio", "punct_ratio", "stopword_ratio",
            "mean_word_len", "quality"]
    return ds.map_batches(quality_stats, batch_format="pyarrow").map_batches(
        lambda t: t.select(cols), batch_format="pyarrow")


# --- curation family (tera_ray/text/curation.py) ---------------------------

_PII_AUG_SQL = (
    "coalesce(text, '')"
    " || CASE WHEN doc_id % 3 = 0 THEN ' mail a'||doc_id||'@ex'"
    "||(doc_id % 7)||'.org' ELSE '' END"
    " || CASE WHEN doc_id % 4 = 0 THEN ' see https://w'||(doc_id % 5)"
    "||'.example.com/p?id='||doc_id ELSE '' END"
    " || CASE WHEN doc_id % 5 = 0 THEN ' node 10.'||(doc_id % 200)"
    "||'.0.'||(doc_id % 250) ELSE '' END"
    " || CASE WHEN doc_id % 6 = 0 THEN ' call 555-010-'"
    "||lpad((doc_id % 10000)::VARCHAR, 4, '0') ELSE '' END")


def _pii_augment(t: pa.Table) -> pa.Table:
    """Deterministically graft PII-shaped spans onto the synthetic docs
    (which contain none) so the scrub/extract operators are genuinely
    exercised; mirrored verbatim in SQL (``_PII_AUG_SQL``).  Fixture
    synthesis, not the operator under test — the per-row format() loop
    is acceptable here."""
    ids = t["doc_id"].to_pylist()
    base = pc.fill_null(t["text"], "").to_pylist()
    out = []
    for i, txt in zip(ids, base):
        if i % 3 == 0:
            txt += f" mail a{i}@ex{i % 7}.org"
        if i % 4 == 0:
            txt += f" see https://w{i % 5}.example.com/p?id={i}"
        if i % 5 == 0:
            txt += f" node 10.{i % 200}.0.{i % 250}"
        if i % 6 == 0:
            txt += f" call 555-010-{i % 10000:04d}"
        out.append(txt)
    return pa.table({"doc_id": t["doc_id"],
                     "text": pa.array(out, pa.string())})


def _q_docs_pii_scrub(sf_dir: str):
    """PII redaction (URL → email → IPv4 → phone chain) with per-kind
    counts — vectorized RE2 kernels, exactly reproduced by the nested
    ``regexp_replace`` oracle."""
    from tera_ray.text.curation import pii_scrub

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return (ds.map_batches(_pii_augment, batch_format="pyarrow")
            .map_batches(pii_scrub, batch_format="pyarrow")
            .map_batches(lambda t: t.drop_columns(["text"]),
                         batch_format="pyarrow"))


def _q_docs_split(sf_dir: str):
    """Deterministic 90/5/5 train/val/test assignment — pure function of
    the doc id (salted FNV-1a), stable under reruns and repartitioning."""
    from tera_ray.text.curation import deterministic_split

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    return ds.map_batches(deterministic_split, batch_format="pyarrow")


def _q_docs_sample(sf_dir: str):
    """Stratified deterministic sampling by language (the data-mixing
    primitive: per-stratum keep rates, map-side only, no shuffle)."""
    from tera_ray.text.curation import stratified_sample

    rates = {"en": 0.5, "de": 1.0, "fr": 0.25, "es": 0.1, "zh": 0.05}
    ds = _read(sf_dir, "documents", columns=["doc_id", "lang"])
    return ds.map_batches(
        lambda t: stratified_sample(t, "lang", rates),
        batch_format="pyarrow")


def _q_docs_source_cap(sf_dir: str):
    """Fixed per-stratum quota (the companion to rate-based sampling):
    keep at most 10 documents per source, chosen by smallest salted-FNV
    priority — a deterministic uniform draw, stable across runs and
    partitionings.  topk_per_key's combiner bounds the shuffle at
    k rows per (block, source)."""
    from tera_ray.text.curation import stratified_cap

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])
    return stratified_cap(ds, "source", 10)


def _q_docs_mix(sf_dir: str):
    """Domain-mixing sampler (`tera_ray.text.curation.proportional_mix`):
    draw ~40 documents at a 50/30/20 src0/src1/src2 mix (quotas 20/12/8)
    by smallest salted-FNV priority per stratum — DoReMi-style static
    mixing weights applied at corpus build.  Local per-block rank-filter
    bounds the single hash(stratum) shuffle at Σ quota per block."""
    from tera_ray.text.curation import proportional_mix

    ds = _read(sf_dir, "documents", columns=["doc_id", "source"])
    return proportional_mix(ds, "source",
                            {"src0": 0.5, "src1": 0.3, "src2": 0.2},
                            total=40, salt="mix:")


def _q_lineitem_hist_quantiles(sf_dir: str):
    """Mergeable fixed-width-histogram quantile sketch over
    l_extendedprice: per-batch bincount combiner, ≤ num_bins counter
    rows cross the shuffle (vs whole-column exchange for the exact
    quantiles) — estimates are bin lower edges, bit-reproducible in
    SQL."""
    from tera_ray.sketch.histogram import histogram_quantiles

    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])
    return histogram_quantiles(ds, "l_extendedprice",
                               [0.1, 0.25, 0.5, 0.75, 0.9, 0.99],
                               lo=0.0, width=1000.0, num_bins=128)


def _q_events_retention(sf_dir: str):
    """Retention-cohort matrix: users grouped by the month of their
    FIRST signup event (day granularity), counted as active on every
    later-or-equal day they emit any event — (cohort_day, active_day,
    n_users).  A
    pure composition of existing machinery: grouped min (combiner) →
    bucketed hash join → distinct combiner → grouped count."""
    from tera_ray.query.relational import grouped_agg, hash_join

    ev = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])

    def signup_only(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "signup"))
        return pa.table({"user_id": t["user_id"], "ts": t["ts"]})

    cohort = grouped_agg(ev.map_batches(signup_only, batch_format="pyarrow"),
                         ["user_id"], [("ts", "min", "first_signup")])
    cohort = cohort.map_batches(
        lambda t: pa.table({
            "user_id": t["user_id"],
            "cohort_day": pc.floor_temporal(t["first_signup"],
                                            unit="day")}),
        batch_format="pyarrow")

    def activity(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "active_day": pc.floor_temporal(t["ts"], unit="day")})

    act = ev.map_batches(activity, batch_format="pyarrow")
    joined = hash_join(act, cohort, on="user_id")
    joined = joined.map_batches(
        lambda t: t.filter(pc.greater_equal(t["active_day"],
                                            t["cohort_day"])),
        batch_format="pyarrow")
    # distinct (user, cohort, month) cells via a grouped max(1) combiner,
    # then count users per (cohort, month)
    cells = grouped_agg(joined.map_batches(
        lambda t: t.append_column("one", pa.array(
            np.ones(t.num_rows, np.int64))), batch_format="pyarrow"),
        ["user_id", "cohort_day", "active_day"],
        [("one", "max", "one")])
    return grouped_agg(cells,
                       ["cohort_day", "active_day"],
                       [("one", "sum", "n_users")])


def _q_events_funnel(sf_dir: str):
    """Strict sequential conversion funnel over the event stream: how
    far each user progressed through view → click → purchase, each step
    counted only strictly after the user's first qualifying previous
    step.  One hash(user) bucket shuffle, vectorized per-bucket polars
    chain."""
    from tera_ray.query.relational import funnel_stages

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    return funnel_stages(ds, "user_id", "ts", "event_type",
                         ["view", "click", "purchase"])


def _q_docs_bigram_fluency(sf_dir: str):
    """LM-free fluency scoring: mean corpus frequency of each doc's
    token bigrams — occurrence pairs ⋈ Zipf-bounded corpus counts via
    one bucketed hash join on the 8-byte bigram hash, then a per-doc
    grouped sum.  Exact integer ratio, so SQL-reproducible on string
    bigrams."""
    from tera_ray.text.analysis import bigram_fluency

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return bigram_fluency(ds)


def _q_docs_length_band(sf_dir: str):
    """Sketch-driven curation: keep documents inside the corpus's
    [p05, p95] length band — thresholds derived from the histogram
    quantile sketch (≤ num_bins rows to the driver), then a map-side
    filter.  The adaptive form of a hard-coded min/max-length rule."""
    from tera_ray.sketch.histogram import quantile_band_filter

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return quantile_band_filter(ds, "n_chars", 0.05, 0.95,
                                lo=0.0, width=10.0, num_bins=64)


def _q_source_len_quantiles(sf_dir: str):
    """Per-source approximate length percentiles from per-key histogram
    sketches — the shuffle carries (key × bins-touched) counter rows,
    never the documents.  Grouped analog of lineitem_hist_quantiles."""
    from tera_ray.sketch.histogram import grouped_histogram_quantiles

    ds = _read(sf_dir, "documents", columns=["source", "n_chars"])
    return grouped_histogram_quantiles(ds, "source", "n_chars",
                                       [0.5, 0.9], lo=0.0, width=10.0,
                                       num_bins=64)


def _q_docs_token_ids(sf_dir: str):
    """Vocab build + token-id encoding (the LLM-prep transform):
    top-500 vocabulary via the Zipf-bounded count shuffle, then a
    broadcast-vocab actor pool encodes every document to a
    ``list<int64>`` id sequence (unk = 0).  Map-side encode, no
    shuffle."""
    from tera_ray.text.analysis import build_vocab, encode_token_ids

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    vocab = build_vocab(ds, size=500)
    return encode_token_ids(ds, vocab)


def _q_docs_incremental(sf_dir: str):
    """Incremental near-dup (index + probe): docs with doc_id % 5 == 0
    play the NEW shard, the rest the already-indexed corpus.  Only the
    new shard is sketched — the corpus contributes its persistable LSH
    band index — and candidates are exact-verified distributed.  The
    100 TB pattern for deduping today's shard against yesterday's
    corpus without re-reading it."""
    import numpy as np

    from tera_ray.dedup.minhash import minhash_index, minhash_probe

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def side(new: bool):
        def f(t):
            m = t["doc_id"].combine_chunks().to_numpy() % 5 == 0
            return t.filter(pa.array(m if new else ~m))

        return f

    corpus = docs.map_batches(side(False), batch_format="pyarrow")
    new = docs.map_batches(side(True), batch_format="pyarrow")
    idx = minhash_index(corpus)
    out = minhash_probe(new, idx, docs, threshold=0.8)
    return out.map_batches(
        lambda t: t.rename_columns(["new_id", "dup_of", "jaccard"]),
        batch_format="pyarrow")


def _q_docs_shuffle_shards(sf_dir: str):
    """Deterministic global shuffle + shard assignment (the terminal
    training-data step): shard = salted-FNV % 8, pos = dense hash rank
    within the shard — a reproducible random permutation that is a pure
    function of the ids."""
    from tera_ray.text.curation import shuffle_shards

    ds = _read(sf_dir, "documents", columns=["doc_id"])
    return shuffle_shards(ds, "doc_id", n_shards=8)


def _q_docs_contamination(sf_dir: str):
    """Benchmark-contamination screen: docs with doc_id%10==0 play the
    held-out benchmark; every other doc is scored for 3-gram shingle
    overlap against the broadcast benchmark set."""
    import numpy as np

    from tera_ray.text.curation import contamination_check

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def keep(rem_zero: bool):
        def fn(t: pa.Table) -> pa.Table:
            m = t["doc_id"].combine_chunks().to_numpy() % 10 == 0
            return t.filter(pa.array(m if rem_zero else ~m))
        return fn

    bench_texts = _collect(ds.map_batches(
        keep(True), batch_format="pyarrow"))["text"]
    corpus = ds.map_batches(keep(False), batch_format="pyarrow")
    return contamination_check(corpus, bench_texts, n=3).map_batches(
        lambda t: t.drop_columns(["text"]), batch_format="pyarrow")


def _q_docs_repetition(sf_dir: str):
    """Intra-document repetition signals (dup-token and top-token
    fractions — C4/Gopher-style boilerplate filters)."""
    from tera_ray.text.curation import repetition_stats

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(repetition_stats, batch_format="pyarrow").map_batches(
        lambda t: t.drop_columns(["text"]), batch_format="pyarrow")


def _q_docs_url_domains(sf_dir: str):
    """URL extraction → domain rollup (polars ``extract_all`` — multiple
    matches per doc — then the combiner-first grouped count)."""
    from tera_ray.query.relational import grouped_agg

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def extract(t: pa.Table) -> pa.Table:
        import polars as pl

        s = pl.from_arrow(t["text"].combine_chunks())
        df = (pl.DataFrame({"u": s.str.extract_all(r"https?://[^/\s]+")})
              .explode("u").drop_nulls()
              .select(pl.col("u").str.replace(r"^https?://", "")
                      .alias("domain")))
        arr = df.to_arrow()["domain"].combine_chunks().cast(pa.string())
        return pa.table({"domain": arr})

    doms = ds.map_batches(_pii_augment, batch_format="pyarrow").map_batches(
        extract, batch_format="pyarrow")
    return grouped_agg(doms, ["domain"], [("domain", "count", "n")])


def _q_events_tumbling(sf_dir: str):
    """Tumbling 1-hour windows per event_type (engine-first windowed
    aggregate; exact int64 µs window arithmetic)."""
    from tera_ray.query.relational import tumbling_window_agg

    ds = _read(sf_dir, "events",
               columns=["event_id", "ts", "event_type", "value"])
    return tumbling_window_agg(
        ds, "ts", 3_600_000_000, keys=["event_type"],
        aggs=[("event_id", "count", "n_events"),
              ("value", "min", "vmin"), ("value", "max", "vmax")])


def _q_events_asof_view(sf_dir: str):
    """Backward as-of join: each click matched to the user's most recent
    strictly-prior view (temporal join — engine-first, no Dataset-API
    equivalent; `tera_ray.query.temporal.asof_join`)."""
    from tera_ray.query.temporal import asof_join

    ev = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type"])

    def mk_clicks(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "click"))
        return pa.table({"user_id": t["user_id"], "ts": t["ts"],
                         "click_id": t["event_id"]})

    def mk_views(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "view"))
        return pa.table({"user_id": t["user_id"], "view_ts": t["ts"],
                         "view_id": t["event_id"]})

    clicks = ev.map_batches(mk_clicks, batch_format="pyarrow")
    views = ev.map_batches(mk_views, batch_format="pyarrow")
    ts = pa.timestamp("us")
    return asof_join(
        clicks, views, key="user_id", left_ts="ts", right_ts="view_ts",
        left_cols=["user_id", "ts", "click_id"],
        right_cols=["view_ts", "view_id"],
        strict=True, how="inner", right_tiebreak=["view_id"],
        # static types: a schema() probe on this lazy pipeline would
        # execute a limit=1 plan (Ray-core cancellation race)
        left_types={"user_id": pa.int64(), "ts": ts,
                    "click_id": pa.int64()},
        right_types={"user_id": pa.int64(), "view_ts": ts,
                     "view_id": pa.int64()})


_ATTR_WINDOW_US = 24 * 3_600_000_000  # 24h attribution window


def _q_events_attribution(sf_dir: str):
    """Interval (band) join: clicks within the 24h window preceding a
    purchase by the same user (`tera_ray.query.temporal.interval_join`)."""
    from tera_ray.query.temporal import interval_join

    W = _ATTR_WINDOW_US
    ev = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type"])

    def mk_clicks(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "click"))
        return pa.table({"user_id": t["user_id"], "ts": t["ts"],
                         "click_id": t["event_id"]})

    def mk_purchases(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], "purchase"))
        ts = t["ts"].combine_chunks()
        start = pc.subtract(ts.cast(pa.int64()), W).cast(pa.timestamp("us"))
        return pa.table({"user_id": t["user_id"], "wstart": start,
                         "wend": t["ts"], "purchase_id": t["event_id"]})

    clicks = ev.map_batches(mk_clicks, batch_format="pyarrow")
    purchases = ev.map_batches(mk_purchases, batch_format="pyarrow")
    tsty = pa.timestamp("us")
    out = interval_join(
        clicks, purchases, key="user_id", ts="ts",
        start="wstart", end="wend", max_width_us=W,
        point_cols=["user_id", "ts", "click_id"],
        interval_cols=["wstart", "wend", "purchase_id"],
        point_types={"user_id": pa.int64(), "ts": tsty,
                     "click_id": pa.int64()},
        interval_types={"user_id": pa.int64(), "wstart": tsty,
                        "wend": tsty, "purchase_id": pa.int64()})
    return out.map_batches(
        lambda t: t.select(["user_id", "ts", "click_id", "purchase_id"]),
        batch_format="pyarrow")


def _q_events_salted_join(sf_dir: str):
    """Skew-safe large×large join: a per-user rollup joined back onto
    the full event stream through ``hash_join``'s SALTED mode — every
    user above the hot threshold scatters over ``salt`` buckets on the
    (big) left and replicates on the (tiny) right, capping per-bucket
    volume under key skew (`tera_ray.query.relational.hash_join`
    ``hot_keys`` + `detect_hot_keys`).  Salting is an execution
    strategy, not a semantics change, so the DuckDB oracle is the plain
    unsalted SQL join."""
    from tera_ray.query.relational import (detect_hot_keys, grouped_agg,
                                           hash_join)

    ev = _read(sf_dir, "events", columns=["event_id", "user_id"])
    per_user = grouped_agg(ev, ["user_id"],
                           [("event_id", "count", "user_events"),
                            ("event_id", "min", "first_event")])
    # threshold low enough that most keys route through the salted path
    # at sf0.01 (~67 events/user); an empty hot list degrades to the
    # plain shuffle, so correctness never depends on the skew estimate
    hot = detect_hot_keys(ev, "user_id", min_count=40)
    joined = hash_join(ev, per_user, on="user_id",
                       hot_keys=hot, salt=4, num_buckets=32)
    return joined.map_batches(
        lambda t: t.select(["event_id", "user_id", "user_events",
                            "first_event"]),
        batch_format="pyarrow")


def _q_events_sliding(sf_dir: str):
    """Overlapping 2h windows hopping every 30min, per event_type
    (`tera_ray.query.temporal.sliding_window_agg`: hop-level combiner,
    partial-state replication — the shuffle never moves raw rows 4×)."""
    from tera_ray.query.temporal import sliding_window_agg

    ds = _read(sf_dir, "events", columns=["event_id", "ts", "event_type",
                                          "value"])
    return sliding_window_agg(
        ds, "ts", 2 * 3_600_000_000, 1_800_000_000, keys=["event_type"],
        aggs=[("event_id", "count", "n_events"),
              ("value", "min", "vmin"), ("value", "max", "vmax")])


def _q_lineitem_quantiles(sf_dir: str):
    """Exact continuous quantiles of l_extendedprice via multi-pass
    histogram selection (`tera_ray.query.relational.exact_quantiles`) —
    bit-identical to SQL quantile_cont without a global sort."""
    from tera_ray.query.relational import exact_quantiles

    ds = _read(sf_dir, "lineitem", columns=["l_extendedprice"])
    return exact_quantiles(ds, "l_extendedprice", [0.25, 0.5, 0.75, 0.9])


def _q_lineitem_window(sf_dir: str):
    """Analytic window functions over per-order line sequences
    (`tera_ray.query.window.window_funcs`: one bucket shuffle, one
    vectorized run-boundary pass per bucket)."""
    from tera_ray.query.window import window_funcs

    ds = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linenumber", "l_quantity",
                        "l_partkey"])
    # l_linenumber repeats in this synthetic data — the full order list
    # is a unique composite so lag/lead/cumsum are deterministic
    return window_funcs(
        ds, keys=["l_orderkey"],
        order=[("l_linenumber", "ascending"), ("l_quantity", "ascending"),
               ("l_partkey", "ascending")],
        specs=[("row_number", None, "rn"),
               ("lag", "l_quantity", "prev_qty"),
               ("lead", "l_quantity", "next_qty"),
               ("cumsum", "l_quantity", "run_qty")])


def _q_orders_rank(sf_dir: str):
    """rank/dense_rank with real ties (priority strings repeat within a
    customer) — tie groups defined by the order columns exactly as SQL."""
    from tera_ray.query.window import window_funcs

    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderkey", "o_orderpriority"])
    return window_funcs(
        ds, keys=["o_custkey"], order=[("o_orderpriority", "ascending")],
        specs=[("rank", None, "rk"), ("dense_rank", None, "drk")])


def _q_orders_top3(sf_dir: str):
    """Top-3 orders per customer by price (A3 generalized to top-k:
    per-batch local top-k combiner → one bucket shuffle)."""
    from tera_ray.query.relational import topk_per_key

    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderkey", "o_totalprice"])
    return topk_per_key(
        ds, "o_custkey",
        [("o_totalprice", "descending"), ("o_orderkey", "ascending")], 3)


def _q_customers_no_urgent(sf_dir: str):
    """Anti join: customers with no 1-URGENT order (broadcast right-key
    set, no shuffle of the left side)."""
    from tera_ray.query.relational import key_semi_join

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_name"])
    urgent = _read(sf_dir, "orders",
                   columns=["o_custkey", "o_orderpriority"]).map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT")),
        batch_format="pyarrow")
    return key_semi_join(cust, urgent, "c_custkey", "o_custkey", anti=True)


def _q_orders_building_semi(sf_dir: str):
    """Semi join: orders of BUILDING-segment customers."""
    from tera_ray.query.relational import key_semi_join

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_totalprice"])
    bld = _read(sf_dir, "customer",
                columns=["c_custkey", "c_mktsegment"]).map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING")),
        batch_format="pyarrow")
    return key_semi_join(orders, bld, "o_custkey", "c_custkey")


def _q_lineitem_bloom_semi(sf_dir: str):
    """Semi join with Bloom runtime-filter pruning: lineitems of URGENT
    orders.  The filter is deliberately small (64 Kbit for ~3k keys —
    real fpp) so the exact-verify stage is genuinely exercised; output
    is bit-equal to the plain IN-subquery."""
    from tera_ray.query.bloom import bloom_semi_join

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linenumber", "l_quantity"])
    urgent = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderpriority"]).map_batches(
        lambda t: t.filter(pc.equal(t["o_orderpriority"], "1-URGENT")),
        batch_format="pyarrow")
    return bloom_semi_join(li, urgent, "l_orderkey", "o_orderkey",
                           num_bits=1 << 16)


def _q_nation_revenue(sf_dir: str):
    """TPC-H-Q5-shaped composite: revenue per ASIA nation where customer
    and supplier share the nation.  Dims (region/nation/supplier) are
    driver-small lookups shipped once; the two FACT joins — orders ⋈
    customers-in-region and lineitem ⋈ that — run as symmetric
    ``hash_join`` co-group shuffles, then a combiner-first grouped sum.
    The plan a 100 TB run needs: no fact table is ever broadcast or
    driver-materialized."""
    import numpy as np

    from tera_ray.query.relational import grouped_agg, hash_join

    nat = _collect(_read(sf_dir, "nation"))
    reg = _collect(_read(sf_dir, "region"))
    asia = reg.filter(pc.equal(reg["r_name"], "ASIA"))["r_regionkey"]
    nat_in = nat.filter(pc.is_in(nat["n_regionkey"], value_set=asia))
    sup = _collect(_read(sf_dir, "supplier",
                         columns=["s_suppkey", "s_nationkey"]))
    # dense int lookup arrays → vectorized np take inside the fact maps
    sk_all = sup["s_suppkey"].combine_chunks().to_numpy()
    sup_lut = np.full(int(sk_all.max()) + 1, -1, np.int64)
    sup_lut[sk_all] = sup["s_nationkey"].combine_chunks().to_numpy()
    nk_all = np.asarray(nat_in["n_nationkey"].to_pylist(), np.int64)
    name_lut = np.full(int(nat["n_nationkey"].combine_chunks()
                           .to_numpy().max()) + 1, "", object)
    name_lut[nk_all] = np.asarray(nat_in["n_name"].to_pylist(), object)

    cust = _read(sf_dir, "customer",
                 columns=["c_custkey", "c_nationkey"]).map_batches(
        lambda t: t.filter(pa.array(np.isin(
            t["c_nationkey"].combine_chunks().to_numpy(), nk_all))),
        batch_format="pyarrow")
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    ord_cust = hash_join(orders, cust, on="o_custkey", right_on="c_custkey")

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                        "l_discount"])

    def derive(t: pa.Table) -> pa.Table:
        sk = t["l_suppkey"].combine_chunks().to_numpy(zero_copy_only=False)
        s_nat = sup_lut[np.clip(sk, 0, len(sup_lut) - 1)]
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "s_nationkey": pa.array(s_nat),
            "cents": _cents(t["l_extendedprice"], t["l_discount"]),
        })

    li_n = li.map_batches(derive, batch_format="pyarrow")
    joined = hash_join(li_n, ord_cust, on="l_orderkey",
                       right_on="o_orderkey")

    def to_nation(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["s_nationkey"],
                              pc.cast(t["c_nationkey"], pa.int64())))
        nk = t["s_nationkey"].combine_chunks().to_numpy(
            zero_copy_only=False)
        return pa.table({
            "n_name": pa.array(name_lut[nk], pa.string()),
            "cents": t["cents"],
        })

    return grouped_agg(joined.map_batches(to_nation, batch_format="pyarrow"),
                       ["n_name"], [("cents", "sum", "revenue_cents")])


def _q_docs_pack_chunks(sf_dir: str):
    """Concat-and-chunk sequence packing for training prep: a
    distributed EXCLUSIVE prefix-sum of token counts in doc_id order
    (`ordered_prefix_sum` — range-bucket scan, only bucket scalars touch
    the driver) assigns every document its byte-exact position in the
    2048-token chunk stream."""
    from tera_ray.query.relational import ordered_prefix_sum
    from tera_ray.text.analysis import token_stats

    CHUNK = 2048
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    counted = ds.map_batches(token_stats, batch_format="pyarrow").map_batches(
        lambda t: t.select(["doc_id", "n_tokens_ws"]),
        batch_format="pyarrow")
    scanned = ordered_prefix_sum(counted, "doc_id", "n_tokens_ws")

    def place(t: pa.Table) -> pa.Table:
        import numpy as np

        p = t["prefix"].combine_chunks().to_numpy(zero_copy_only=False)
        n = t["n_tokens_ws"].combine_chunks().to_numpy(zero_copy_only=False)
        first = p // CHUNK
        last = np.where(n > 0, (p + n - 1) // CHUNK, first)
        return pa.table({
            "doc_id": t["doc_id"],
            "n_tokens": t["n_tokens_ws"],
            "prefix": t["prefix"],
            "first_chunk": pa.array(first.astype(np.int64)),
            "chunk_offset": pa.array((p % CHUNK).astype(np.int64)),
            "last_chunk": pa.array(last.astype(np.int64)),
        })

    return scanned.map_batches(place, batch_format="pyarrow")


def _q_emb_label_centroids(sf_dir: str):
    """Per-label embedding centroids (vector-column groupby mean:
    np.add.at partial per batch, combiner-first (key, dim) shuffle of
    8-byte sums — the vectors themselves never move)."""
    from tera_ray.ann.aggregate import vector_group_mean

    ds = _read(sf_dir, "embeddings", columns=["label", "embedding"])
    return vector_group_mean(ds, "label", "embedding")


def _q_emb_dim_stats(sf_dir: str):
    """Per-dimension mean + sample variance of the embedding column
    from ONE pass of mergeable moment partials — the SQL-checkable face
    of the distributed PCA moment machinery (`ann/pca.py`)."""
    from tera_ray.ann.pca import vector_dim_stats

    ds = _read(sf_dir, "embeddings", columns=["embedding"])
    return vector_dim_stats(ds)


def _q_emb_pca(sf_dir: str):
    """Distributed PCA: fit on the moment partials (driver eigh of the
    d×d covariance, canonical component signs), then broadcast-project
    every embedding to the top-4 components.  No shuffle in fit or
    transform; rows-only (no SQL eigensolver)."""
    from tera_ray.ann.pca import pca_fit, pca_transform

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    mu, comps, _ = pca_fit(ds, k=4)
    return pca_transform(ds, mu, comps, round_digits=4)


_KMEANS_K = 8


def _q_emb_kmeans_assign(sf_dir: str):
    """Distributed k-means assignment (`tera_ray.ann.kmeans`): the k×d
    centroid matrix is broadcast once (`ray.put`); every batch computes
    exact float64 L2 distances and emits (vec_id, cluster) — zero
    shuffle.  Seeds are the deterministic rows vec_id < k; ties break to
    the smallest centroid id, mirroring the oracle's QUALIFY+min(cid)."""
    from tera_ray.ann.kmeans import kmeans_assign, seed_centroids

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cids, C = seed_centroids(ds, _KMEANS_K)
    return kmeans_assign(ds, cids, C)


def _q_emb_kmeans_iter(sf_dir: str):
    """Per-cluster statistics of the k-means assignment — the Lloyd
    update's inputs (count + mean of per-row element sums), i.e. what a
    full `kmeans_lloyd` round shuffles: O(k) aggregates, never vectors.
    Engine: assign (broadcast centroids) → per-batch row sums →
    combiner-first grouped_agg; mean rounded to 6 on both sides."""
    import pyarrow.compute as pc

    from tera_ray.ann.aggregate import _flat_f64
    from tera_ray.ann.kmeans import kmeans_assign, seed_centroids
    from tera_ray.query.relational import grouped_agg

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    cids, C = seed_centroids(ds, _KMEANS_K)
    assigned = kmeans_assign(ds, cids, C, keep_vec=True)

    def vsum(t: pa.Table) -> pa.Table:
        m, _ = _flat_f64(t["embedding"])
        return pa.table({"cluster": t["cluster"],
                         "vsum": pa.array(m.sum(axis=1), pa.float64())})

    agg = grouped_agg(assigned.map_batches(vsum, batch_format="pyarrow"),
                      ["cluster"], [("vsum", "count", "n"),
                                    ("vsum", "avg", "mean_sum")])
    return agg.map_batches(
        lambda t: pa.table({"cluster": t["cluster"], "n": t["n"],
                            "mean_sum": pc.round(t["mean_sum"], 6)}),
        batch_format="pyarrow")


def _q_docs_postings(sf_dir: str):
    """Inverted index over the corpus (`tera_ray.text.index.inverted_index`):
    per-batch distinct (token, doc) pairs, ONE hash(token)-bucket
    shuffle, vectorized per-bucket posting-list build.  Output
    (token, df, postings sorted list<int64>); min_df prunes hapaxes."""
    from tera_ray.text.index import inverted_index

    return inverted_index(_read(sf_dir, "documents",
                                columns=["doc_id", "text"]), min_df=5)


_KEYWORDS = ["customer", "spark", "vector", "window"]


def _q_docs_keyword_tags(sf_dir: str):
    """Broadcast keyword scan (`tera_ray.text.index.keyword_tags`): the
    needle list ships once; each batch runs one vectorized
    match_substring per keyword — zero shuffle (SQL contains())."""
    from tera_ray.text.index import keyword_tags

    return keyword_tags(_read(sf_dir, "documents",
                              columns=["doc_id", "text"]), _KEYWORDS)


def _q_lineitem_zscore(sf_dir: str):
    """Per-group z-score standardization
    (`tera_ray.query.relational.grouped_standardize`): one combiner-first
    grouped_agg produces the tiny (mean, std) table, broadcast back into
    a second map pass — the big side never shuffles.  z rounded to 6 in
    engine and oracle."""
    from tera_ray.query.relational import grouped_standardize

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_extendedprice", "l_orderkey",
                        "l_linenumber"])
    out = grouped_standardize(ds, key="l_returnflag",
                              col="l_extendedprice",
                              keep_cols=["l_orderkey", "l_linenumber"])
    return out


def _q_events_mad_outliers(sf_dir: str):
    """Robust per-group outlier filter
    (`tera_ray.query.relational.mad_outliers`): two exact grouped
    medians (quantile_cont machinery), each broadcast back; rows kept
    where round(|x − med| / MAD, 9) > 3.  Only num_groups-row tables
    ever reach the driver."""
    from tera_ray.query.relational import mad_outliers

    ds = _read(sf_dir, "events", columns=["event_type", "value",
                                          "event_id"])
    return mad_outliers(ds, key="event_type", col="value", k=3.0,
                        keep_cols=["event_id"])


def _q_lineitem_winsorize(sf_dir: str):
    """Per-group winsorization
    (`tera_ray.query.relational.grouped_winsorize`): one exact grouped
    quantile pass (2·groups rows) broadcast back as a clip map — big
    side never shuffles; interpolation is the quantile_cont machinery
    already proven bit-identical to DuckDB."""
    from tera_ray.query.relational import grouped_winsorize

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_extendedprice", "l_orderkey",
                        "l_linenumber"])
    return grouped_winsorize(ds, key="l_returnflag", col="l_extendedprice",
                             keep_cols=["l_orderkey", "l_linenumber"])


_BOOL_NEEDLES = ["spark", "vector", "stream"]


def _q_docs_bool_search(sf_dir: str):
    """Token-level AND search (`tera_ray.text.index.boolean_search`):
    per-batch tokenize → keep needle tokens → distinct-needle count per
    doc == |needles|.  Fully map-side, zero shuffle."""
    from tera_ray.text.index import boolean_search

    return boolean_search(_read(sf_dir, "documents",
                                columns=["doc_id", "text"]), _BOOL_NEEDLES)


def _q_docs_dup_spans(sf_dir: str):
    """Substring-level duplication report (`tera_ray.dedup.ngram.dup_spans`):
    spans shared across documents are flagged through one hash-bucket
    groupby on the 8-byte span hash; per-doc counts come from the
    combiner-first grouped_agg.  Lee-et-al-style span dedup signal that
    document-level dedup cannot see."""
    from tera_ray.dedup.ngram import dup_spans

    return dup_spans(_read(sf_dir, "documents", columns=["doc_id", "text"]),
                     n=8)


_BM25_TERMS = ["hash", "join", "vector", "slow"]


def _q_docs_bm25(sf_dir: str):
    """Scored retrieval (`tera_ray.text.index.bm25_topk`): two streaming
    passes — a tiny per-term df/avgdl reduction, then vectorized scoring
    with per-block local top-k and an O(blocks×k) merge.  Fixed-point
    score_micro so the float64 DuckDB oracle hash-matches."""
    from tera_ray.text.index import bm25_topk

    return bm25_topk(_read(sf_dir, "documents", columns=["doc_id", "text"]),
                     _BM25_TERMS, k=10)


def _q_lineitem_orders_join(sf_dir: str):
    """Large×large inner equi-join (symmetric co-group shuffle — neither
    side is broadcastable at scale)."""
    from tera_ray.query.relational import hash_join

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linenumber", "l_extendedprice"])
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_totalprice"])
    return hash_join(li, orders, on="l_orderkey", right_on="o_orderkey")


def _q_customer_urgent_full(sf_dir: str):
    """FULL OUTER join with unmatched rows on BOTH sides: BUILDING
    customers (left-only when they placed no urgent order) against
    per-customer 1-URGENT order counts (right-only for non-BUILDING
    customers).  The co-group shuffle coalesces the key exactly like
    SQL ``COALESCE(l.k, r.k)``."""
    from tera_ray.query.relational import grouped_agg, hash_join

    import pyarrow.dataset as pads

    # constant filters pushed INTO the scan (row-group pruning)
    bld = _read(sf_dir, "customer",
                columns=["c_custkey", "c_mktsegment"],
                predicate=pads.field("c_mktsegment") == "BUILDING")
    urgent = _read(sf_dir, "orders",
                   columns=["o_custkey", "o_orderpriority"],
                   predicate=pads.field("o_orderpriority") == "1-URGENT")
    cnt = grouped_agg(urgent, ["o_custkey"],
                      [("o_custkey", "count", "urgent_cnt")])
    return hash_join(bld, cnt, on="c_custkey", right_on="o_custkey",
                     how="full")


def _q_orders_customer_left(sf_dir: str):
    """Left outer join with real null fill (right side filtered to
    BUILDING-segment customers)."""
    from tera_ray.query.relational import hash_join

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    bld = _read(sf_dir, "customer",
                columns=["c_custkey", "c_mktsegment"]).map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING")),
        batch_format="pyarrow")
    return hash_join(orders, bld, on="o_custkey", right_on="c_custkey",
                     how="left")


def _q_orders_priority_quantiles(sf_dir: str):
    """Per-group exact quantile_cont (vectorized rank-grid gather, one
    bucket shuffle)."""
    from tera_ray.query.relational import grouped_quantiles

    ds = _read(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"])
    return grouped_quantiles(ds, "o_orderpriority", "o_totalprice",
                             [0.25, 0.5, 0.75])


def _q_events_heavy_users(sf_dir: str):
    """EXACT heavy hitters (users with ≥0.7% of all events): per-batch
    locally-frequent candidate pruning (superset guarantee) + exact
    verify pass (`tera_ray.query.relational.heavy_hitters`)."""
    from tera_ray.query.relational import heavy_hitters

    ds = _read(sf_dir, "events", columns=["user_id"])
    return heavy_hitters(ds, "user_id", 0.007)


def _q_docs_minhash(sf_dir: str):
    from tera_ray.dedup.minhash import minhash_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return minhash_dedup(ds, threshold=0.8)


def _q_docs_leakage_split(sf_dir: str):
    """Leakage-safe train/val/test split
    (`tera_ray.text.curation.leakage_safe_split`): near-dup clusters
    (MinHash+LSH, exact-Jaccard verified) resolve to a canonical id,
    broadcast once; the split hash is taken OF THE CANON id, so a
    cluster never straddles train/eval.  Oracle composes the exact
    Jaccard + recursive-components mapping with the split-hash CASE."""
    from tera_ray.dedup.minhash import minhash_dedup
    from tera_ray.text.curation import leakage_safe_split

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    mapping = minhash_dedup(docs, threshold=0.8)
    return leakage_safe_split(_read(sf_dir, "documents",
                                    columns=["doc_id"]), mapping)


def _q_emb_quantize(sf_dir: str):
    """Symmetric int8 scalar quantization (`tera_ray.ann.quantize`):
    the 4x memory/shuffle lever for 100 TB vector search.  Pure per-row
    kernel, zero shuffle; `floor(x/scale + 0.5)` rounding chosen so the
    SQL oracle reproduces every code bit-for-bit (checked here through
    the per-vector code SUM plus the exact scale)."""
    from tera_ray.ann.quantize import scalar_quantize

    qs = scalar_quantize(_read(sf_dir, "embeddings",
                               columns=["vec_id", "embedding"]))

    def summarize(t: pa.Table) -> pa.Table:
        codes = t["q"]
        if isinstance(codes, pa.ChunkedArray):
            codes = codes.combine_chunks()
        import numpy as np

        n = len(codes)
        d = codes.type.list_size
        qsum = (codes.values.to_numpy(zero_copy_only=False)
                .reshape(n, d).astype(np.int64).sum(axis=1))
        return pa.table({"vec_id": t["vec_id"], "scale": t["scale"],
                         "qsum": pa.array(qsum, pa.int64())})

    return qs.map_batches(summarize, batch_format="pyarrow")


def _q_lineitem_mode(sf_dir: str):
    """Per-group MODE (most frequent value, deterministic tie-break) as
    a pure composition: combiner-first grouped count on (key, value) →
    `topk_per_key` k=1 ordered by (count desc, value asc).  No new
    operator — the composition IS the point (mode never shuffles more
    than the distinct (key, value) pairs)."""
    from tera_ray.query.relational import grouped_agg, topk_per_key

    ds = _read(sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus"])
    counts = grouped_agg(ds, ["l_returnflag", "l_linestatus"],
                         [("l_linestatus", "count", "n")])
    top = topk_per_key(counts, "l_returnflag",
                       order=[("n", "descending"),
                              ("l_linestatus", "ascending")], k=1)
    return top.map_batches(
        lambda t: pa.table({"l_returnflag": t["l_returnflag"],
                            "mode_value": t["l_linestatus"],
                            "n": t["n"]}),
        batch_format="pyarrow")


def _q_events_hll_per_type(sf_dir: str):
    """Per-key HLL distinct-user estimate
    (`tera_ray.sketch.hll.grouped_approx_count_distinct`): register
    shuffle ≤ keys × 2^p rows total regardless of input size; finalize
    is itself a grouped aggregate.  Deterministic FNV+mix hashing makes
    even the sketch SQL-bit-reproducible (as in events_hll_users)."""
    from tera_ray.sketch.hll import grouped_approx_count_distinct

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])
    return grouped_approx_count_distinct(ds, "event_type", "user_id")


def _q_lineitem_corr(sf_dir: str):
    """Per-group Pearson correlation + sample covariance
    (`tera_ray.query.relational.grouped_corr`): six mergeable float64
    moments per (batch, group) cross the shuffle, never data rows;
    pairwise-complete null semantics; rounded identically in the SQL
    oracle."""
    from tera_ray.query.relational import grouped_corr

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity", "l_extendedprice"])
    return grouped_corr(ds, ["l_returnflag"], "l_quantity",
                        "l_extendedprice")


def _q_events_fill_forward(sf_dir: str):
    """LOCF gap fill (`tera_ray.query.window.window_funcs`
    ``fill_forward``): per-user "last purchase amount as of each
    event" — purchase rows keep their value, every other row is null,
    then the null gaps carry the last observation forward within the
    user's timeline.  Exact copies of earlier float values, never
    arithmetic, so the hash compare is bit-stable."""
    from tera_ray.query.window import window_funcs

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts",
                                          "event_type", "value"])

    def gap(t: pa.Table) -> pa.Table:
        v = pc.if_else(pc.equal(t["event_type"], "purchase"),
                       t["value"], pa.scalar(None, pa.float64()))
        return (t.drop_columns(["value"])
                .append_column("pval", v.cast(pa.float64())))

    out = window_funcs(
        ds.map_batches(gap, batch_format="pyarrow"),
        ["user_id"], [("ts", "ascending"), ("event_id", "ascending")],
        specs=[("fill_forward", "pval", "last_purchase")])
    return out.map_batches(
        lambda t: t.select(["event_id", "user_id", "last_purchase"]),
        batch_format="pyarrow")


def _q_events_rolling(sf_dir: str):
    """Rolling/ranking analytics in one bucketed window pass
    (`tera_ray.query.window.window_funcs`): per-user rolling mean/sum
    over ROWS 3 PRECEDING..CURRENT (partition-clamped shifted adds),
    PERCENT_RANK, and NTILE(4) — one shuffle computes all four."""
    import pyarrow.compute as pc

    from tera_ray.query.window import window_funcs

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts",
                                          "value"])
    out = window_funcs(
        ds, ["user_id"], [("ts", "ascending"), ("event_id", "ascending")],
        specs=[("rolling_mean", "value", "roll_avg", 4),
               ("rolling_sum", "value", "roll_sum", 4),
               ("rolling_std", "value", "roll_std", 4),
               ("percent_rank", None, "pr"),
               ("ntile", None, "tile", 4)])
    return out.map_batches(
        lambda t: pa.table({
            "event_id": t["event_id"], "user_id": t["user_id"],
            "roll_avg": pc.round(t["roll_avg"], 6),
            "roll_sum": pc.round(t["roll_sum"], 6),
            "roll_std": pc.round(t["roll_std"], 6),
            "pr": t["pr"], "tile": t["tile"]}),
        batch_format="pyarrow")


def _q_events_time_weighted(sf_dir: str):
    """Per-user TIME-WEIGHTED mean of `value` (piecewise-constant until
    the next event): window `lead(ts)` gives each segment's duration,
    then one combiner-first grouped_agg of (value·Δt, Δt) — the
    standard irregular-time-series aggregate (billing, utilization).
    Exact integer microsecond weights; final division rounded to 6 on
    both sides."""
    import pyarrow.compute as pc

    from tera_ray.query.relational import grouped_agg
    from tera_ray.query.window import window_funcs

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts",
                                          "value"])
    w = window_funcs(ds, ["user_id"],
                     [("ts", "ascending"), ("event_id", "ascending")],
                     specs=[("lead", "ts", "next_ts")])

    def seg(t: pa.Table) -> pa.Table:
        dt = pc.cast(pc.subtract(pc.cast(t["next_ts"], pa.int64()),
                                 pc.cast(t["ts"], pa.int64())),
                     pa.float64())
        v = pc.cast(t["value"], pa.float64())
        keep = pc.fill_null(pc.greater(dt, pa.scalar(0.0)), False)
        tt = pa.table({"user_id": t["user_id"],
                       "vdt": pc.multiply(v, dt), "dt": dt}).filter(keep)
        return tt

    agg = grouped_agg(w.map_batches(seg, batch_format="pyarrow"),
                      ["user_id"], [("vdt", "sum", "vdt"),
                                    ("dt", "sum", "dt")])
    return agg.map_batches(
        lambda t: pa.table({
            "user_id": t["user_id"],
            "twa": pc.round(pc.divide(t["vdt"], t["dt"]), 6)}),
        batch_format="pyarrow")


def _q_docs_chunk_windows(sf_dir: str):
    """Overlapping token-window chunking for retrieval/context prep
    (`tera_ray.text.curation.chunk_windows`): whitespace tokens, 32-token
    windows every 24 — the SPLIT counterpart of docs_pack_chunks' PACK.
    Map-side only; window fan-out is vectorized polars list slice+join."""
    from tera_ray.text.curation import chunk_windows

    return chunk_windows(_read(sf_dir, "documents",
                               columns=["doc_id", "text"]),
                         size=32, stride=24)


def _q_orders_profile(sf_dir: str):
    """Dataset column profiler (`tera_ray.query.relational.column_profile`):
    per column n / n_null / exact n_distinct; counts from per-batch
    partials, distincts via the dedup shuffle — only scalars on the
    driver."""
    from tera_ray.query.relational import column_profile

    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderpriority", "o_totalprice"])
    return column_profile(ds, ["o_custkey", "o_orderpriority",
                               "o_totalprice"])


def _q_conv_role_stats(sf_dir: str):
    """Per-conversation role/tool/duration stats over the north-rule
    transcript shape (conv_id, turn_idx, role, text, tool, ts): derived
    indicator columns + one combiner-first grouped_agg — count, three
    conditional sums, min/max ts folded into duration seconds.  The
    dialogue-curation primitive (filter by tool usage / role balance /
    wall-clock span) exercising every input_hint column."""
    import pyarrow.compute as pc

    import ray.data

    from tera_ray.query.relational import grouped_agg

    fx = _fx(sf_dir)
    tr = ray.data.read_parquet(os.path.join(fx, "transcripts.parquet"),
                               columns=["conv_id", "role", "tool", "ts"])

    def derive(t: pa.Table) -> pa.Table:
        role = t["role"]
        tool = pc.fill_null(t["tool"], "")
        return pa.table({
            "conv_id": t["conv_id"],
            "is_user": pc.cast(pc.equal(role, pa.scalar("user")),
                               pa.int64()),
            "is_assistant": pc.cast(pc.equal(role, pa.scalar("assistant")),
                                    pa.int64()),
            "is_tool_call": pc.cast(pc.not_equal(tool, pa.scalar("")),
                                    pa.int64()),
            "ts_us": pc.cast(t["ts"], pa.int64()),
        })

    agg = grouped_agg(tr.map_batches(derive, batch_format="pyarrow"),
                      ["conv_id"],
                      [("is_user", "count", "n_turns"),
                       ("is_user", "sum", "n_user"),
                       ("is_assistant", "sum", "n_assistant"),
                       ("is_tool_call", "sum", "n_tool_calls"),
                       ("ts_us", "min", "__t0"),
                       ("ts_us", "max", "__t1")])

    def finish(t: pa.Table) -> pa.Table:
        dur = pc.round(pc.divide(
            pc.cast(pc.subtract(t["__t1"], t["__t0"]), pa.float64()),
            pa.scalar(1_000_000.0)), 6)
        return pa.table({
            "conv_id": t["conv_id"], "n_turns": t["n_turns"],
            "n_user": t["n_user"], "n_assistant": t["n_assistant"],
            "n_tool_calls": t["n_tool_calls"], "duration_s": dur})

    return agg.map_batches(finish, batch_format="pyarrow")


def _q_docs_weighted_sample(sf_dir: str):
    """Quality-weighted per-source sampling
    (`tera_ray.text.curation.weighted_sample_per_key`, Efraimidis-
    Spirakis A-ES with salted-FNV uniforms): inclusion probability
    scales with weight, yet the draw is a pure function of (salt, id) —
    rerun/partitioning/append stable.  Distributed via the topk_per_key
    combiner; shuffle ≤ k rows per (batch, key)."""
    from tera_ray.text.curation import weighted_sample_per_key

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])
    return weighted_sample_per_key(ds, key="source", weight_col="n_chars",
                                   k=20)


def _q_docs_dup_rate(sf_dir: str):
    """Per-source near-duplication rate — the curation dashboard metric
    behind data-mixing decisions: MinHash+LSH cluster mapping (tiny,
    non-singleton members only) broadcast into an indicator pass, then
    one combiner-first grouped_agg per source.  dup = doc that maps to
    another canonical id."""
    import pyarrow.compute as pc

    import ray

    from tera_ray.dedup.minhash import minhash_dedup
    from tera_ray.query.relational import grouped_agg

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    mapping = _collect(minhash_dedup(docs, threshold=0.8))
    dup_ids = (mapping["src"].cast(pa.string())
               if mapping is not None and mapping.num_rows
               else pa.array([], pa.string()))
    ref = ray.put(dup_ids)

    def tag(t: pa.Table) -> pa.Table:
        ids = t["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        m = pc.is_in(ids.cast(pa.string()), value_set=ray.get(ref))
        return pa.table({
            "source": t["source"],
            "is_dup": pc.cast(m, pa.int64()),
        })

    agg = grouped_agg(
        _read(sf_dir, "documents", columns=["doc_id", "source"])
        .map_batches(tag, batch_format="pyarrow"),
        ["source"], [("is_dup", "count", "n_docs"),
                     ("is_dup", "sum", "n_dups")])
    return agg.map_batches(
        lambda t: pa.table({
            "source": t["source"], "n_docs": t["n_docs"],
            "n_dups": t["n_dups"],
            "dup_rate": pc.round(pc.divide(
                pc.cast(t["n_dups"], pa.float64()),
                pc.cast(t["n_docs"], pa.float64())), 6)}),
        batch_format="pyarrow")


def _q_events_skew_stats(sf_dir: str):
    """Partition-key skew diagnostic
    (`tera_ray.query.relational.key_skew_stats`): combiner-first count
    per key, then 4-scalar partials; only a 1-row summary reaches the
    driver.  The ops primitive for choosing shuffle keys at 100 TB."""
    from tera_ray.query.relational import key_skew_stats

    return key_skew_stats(_read(sf_dir, "events", columns=["event_type"]),
                          key="event_type")


def _q_docs_simhash(sf_dir: str):
    from tera_ray.dedup.simhash import simhash_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return simhash_pairs(ds, max_hamming=3)


# --------------------------------------------------------------------------
# KG queries over the synthetic transcript/lexicon fixtures
# --------------------------------------------------------------------------

EMIT_BATCH = 32768  # large batches: emitters are pure Arrow kernels, so
                    # per-invocation overhead dominates below ~32k rows


def _kg_emit(sf_dir: str, table: str, fn):
    import ray.data

    ds = ray.data.read_parquet(os.path.join(_fx(sf_dir), table + ".parquet"))
    return ds.map_batches(fn, batch_format="pyarrow", batch_size=EMIT_BATCH)


def _q_kg_synonyms(sf_dir: str):
    from tera_ray.stages.ecotox import emit_synonyms

    return _kg_emit(sf_dir, "species_synonyms", emit_synonyms)


def _q_kg_taxa(sf_dir: str):
    from tera_ray.stages.ecotox import emit_taxa

    return _kg_emit(sf_dir, "species", emit_taxa)


def _q_kg_chemicals(sf_dir: str):
    from tera_ray.stages.ecotox import emit_chemicals

    return _kg_emit(sf_dir, "chemicals", emit_chemicals)


def _q_kg_hierarchy(sf_dir: str):
    from tera_ray.stages.ecotox import emit_ecotox_hierarchy

    return _kg_emit(sf_dir, "species", emit_ecotox_hierarchy)


def _q_kg_star(sf_dir: str):
    import pyarrow as pa

    import ray.data

    from tera_ray.query.kg import endpoint_star
    from tera_ray.stages.base import dedup_triples
    from tera_ray.stages.ecotox import emit_results, emit_tests

    fx = _fx(sf_dir)
    paths = [os.path.join(fx, "tests.parquet"),
             os.path.join(fx, "results.parquet")]
    tests = ray.data.read_parquet(paths[0]).map_batches(
        emit_tests, batch_format="pyarrow", batch_size=EMIT_BATCH)
    results = ray.data.read_parquet(paths[1]).map_batches(
        emit_results, batch_format="pyarrow", batch_size=EMIT_BATCH)
    triples = dedup_triples(tests.union(results))
    # judged path routes by input size: small → driver star, large →
    # distributed star (same 8 columns either way)
    star = endpoint_star(
        triples, size_hint_bytes=sum(os.path.getsize(p) for p in paths))
    cols = ["chemical", "species", "conc_value", "endpoint", "effect",
            "sd", "sd_unit"]
    if isinstance(star, pa.Table):
        return star.select(cols)
    return star.map_batches(lambda t: t.select(cols), batch_format="pyarrow")


def _ecotox_star_store(sf_dir: str):
    """Dedup'd tests+results emitter store (shared by the star-join and
    SPARQL judged queries)."""
    import ray.data

    from tera_ray.stages.base import dedup_triples
    from tera_ray.stages.ecotox import emit_results, emit_tests

    fx = _fx(sf_dir)
    tests = ray.data.read_parquet(os.path.join(fx, "tests.parquet")).map_batches(
        emit_tests, batch_format="pyarrow", batch_size=EMIT_BATCH)
    results = ray.data.read_parquet(os.path.join(fx, "results.parquet")).map_batches(
        emit_results, batch_format="pyarrow", batch_size=EMIT_BATCH)
    return dedup_triples(tests.union(results))


def _q_kg_sparql_star(sf_dir: str):
    """F5+T4 end-to-end: the reference's flagship SPARQL SELECT
    (``tera/DataAccess.py:977-994`` — nested concentration BNode +
    OPTIONAL studyDuration BNode) as a query STRING compiled by
    :mod:`tera_ray.query.sparql` onto the distributed BGP matcher.
    Same oracle as ``kg_endpoint_star`` (variables renamed to the
    oracle's column names; projection/DISTINCT semantics identical)."""
    from tera_ray.query.sparql import sparql_select

    q = """
        SELECT DISTINCT ?chemical ?species ?conc_value ?endpoint ?effect
                        ?sd ?sd_unit WHERE {
            ?test rdf:type ns:Test ;
              ns:chemical ?chemical ;
               ns:species ?species ;
               ns:hasResult [
               ns:endpoint ?endpoint ;
               ns:effect ?effect ;
               ns:concentration [rdf:value ?conc_value ;
                                    unit:units ?cu] ] .

            OPTIONAL {
                ?test ns:studyDuration [rdf:value ?sd ;
                                        unit:units ?sd_unit] .
            }
        }"""
    return sparql_select(_ecotox_star_store(sf_dir), q)


def _q_kg_sparql_compounds(sf_dir: str):
    """The reference ``ChemistryAPI.compounds()`` scan
    (``tera/DataAccess.py:650-654``) through the SPARQL front-end:
    variable-predicate full scan + ``isURI``/``STRSTARTS`` FILTER
    (set-return semantics → DISTINCT)."""
    import ray.data

    from tera_ray.query.sparql import sparql_select
    from tera_ray.stages.ecotox import emit_chemicals

    fx = _fx(sf_dir)
    store = ray.data.read_parquet(
        os.path.join(fx, "chemicals.parquet")).map_batches(
        emit_chemicals, batch_format="pyarrow", batch_size=EMIT_BATCH)
    q = f"""PREFIX cas: <{NS}cas/>
        SELECT DISTINCT ?s {{
        ?s  ?o  ?z
        FILTER (isURI(?s) && STRSTARTS(str(?s), str(cas:) ) )
        }}
        """
    return sparql_select(store, q)


def _q_kg_sparql_agg(sf_dir: str):
    """SPARQL aggregate select expressions + GROUP BY compiled onto the
    combiner-first distributed groupby: results per chemical over the
    dedup'd tests+results emitter store."""
    from tera_ray.query.sparql import sparql_select

    q = """
        SELECT ?chemical (COUNT(?r) AS ?n) WHERE {
            ?t rdf:type ns:Test ;
               ns:chemical ?chemical ;
               ns:hasResult ?r .
        } GROUP BY ?chemical
        """
    return sparql_select(_ecotox_star_store(sf_dir), q)


def _q_kg_sparql_union(sf_dir: str):
    """SPARQL UNION over the dedup'd chemical emitter store: label
    bindings from both the alias and group shapes plus subclass edges,
    null-pad-free two-branch stream union with DISTINCT."""
    import ray.data

    from tera_ray.query.sparql import sparql_select
    from tera_ray.stages.base import dedup_triples
    from tera_ray.stages.ecotox import emit_chemicals

    store = dedup_triples(ray.data.read_parquet(
        os.path.join(_fx(sf_dir), "chemicals.parquet")).map_batches(
        emit_chemicals, batch_format="pyarrow", batch_size=EMIT_BATCH))
    q = """
        SELECT DISTINCT ?s ?v WHERE {
            { ?s rdfs:label ?v } UNION { ?s rdfs:subClassOf ?v }
        }
        """
    return sparql_select(store, q)


def _q_kg_sparql_path(sf_dir: str):
    """SPARQL property path ``rdfs:subClassOf+`` compiled onto the
    semi-naive distributed transitive closure: all DISTINCT ancestor
    pairs of the NCBI hierarchy."""
    from tera_ray.query.sparql import sparql_select

    q = "SELECT ?s ?o WHERE { ?s rdfs:subClassOf+ ?o }"
    return sparql_select(_q_kg_ncbi_hierarchy(sf_dir), q)


def _q_kg_sparql_star_path(sf_dir: str):
    """SPARQL zero-or-more path (anchored): one taxon's
    ancestors-or-self via ``rdfs:subClassOf*`` — the constant end
    matches itself (zero-length path, SPARQL 1.1 §9.3) and the seeded
    broadcast-frontier BFS supplies the rest."""
    from tera_ray.query.sparql import sparql_select
    from tera_ray.schema import NCBI_NS

    q = (f"SELECT ?o WHERE {{ <{NCBI_NS}taxon/950000>"
         " rdfs:subClassOf* ?o }")
    return sparql_select(_q_kg_ncbi_hierarchy(sf_dir), q)


def _q_kg_sparql_zero_or_one(sf_dir: str):
    """SPARQL zero-or-one path ``rdfs:subClassOf?`` over the NCBI
    hierarchy store: DISTINCT direct parent edges unioned with identity
    pairs over EVERY node of the full store (zero-length matches all
    graph nodes, not just the path predicate's subgraph)."""
    from tera_ray.query.sparql import sparql_select

    q = "SELECT ?s ?o WHERE { ?s rdfs:subClassOf? ?o }"
    return sparql_select(_q_kg_ncbi_hierarchy(sf_dir), q)


def _q_kg_sparql_group_concat(sf_dir: str):
    """SPARQL GROUP_CONCAT over the synonym emitter store: each taxon's
    synonyms joined '|'-separated in deterministic ascending order
    (mirrored by the oracle's ``string_agg(... ORDER BY ...)``)."""
    from tera_ray.query.sparql import sparql_select

    q = ('SELECT ?s (GROUP_CONCAT(?o ; SEPARATOR="|") AS ?syns) '
         'WHERE { ?s ns:synonym ?o } GROUP BY ?s')
    return sparql_select(_q_kg_synonyms(sf_dir), q)


def _q_kg_sparql_negated(sf_dir: str):
    """SPARQL negated property set over the NCBI names store: every
    data triple whose predicate is NOT a schema edge (subPropertyOf /
    domain) — the complement scan that predicate narrowing must skip."""
    from tera_ray.query.sparql import sparql_select
    from tera_ray.schema import OWL_SUBPROPERTYOF, RDFS_DOMAIN

    q = (f"SELECT ?s ?o WHERE {{ ?s !(<{OWL_SUBPROPERTYOF}> |"
         f" <{RDFS_DOMAIN}>) ?o }}")
    return sparql_select(_q_kg_ncbi_names(sf_dir), q)


def _q_kg_sparql_update(sf_dir: str):
    """SPARQL 1.1 UPDATE (DELETE/INSERT WHERE) over the NCBI names
    store: rename the ``uniqueName`` data predicate to
    ``skos:prefLabel``.  Deletes drop every copy (bag store); inserts
    are set-inserted via the composite-key anti-join."""
    from tera_ray.query.sparql import sparql_update
    from tera_ray.schema import NCBI_NS, SKOS_PREFLABEL

    u = (f"DELETE {{ ?s <{NCBI_NS}uniqueName> ?o }}"
         f" INSERT {{ ?s <{SKOS_PREFLABEL}> ?o }}"
         f" WHERE {{ ?s <{NCBI_NS}uniqueName> ?o }}")
    return sparql_update(_q_kg_ncbi_names(sf_dir), u)


def _q_kg_sparql_construct(sf_dir: str):
    """SPARQL CONSTRUCT (KG rewriting): chemical ``rdfs:label`` edges
    re-emitted as ``skos:altLabel`` triples — returns a NEW triple
    Dataset, dedup'd (CONSTRUCT produces a graph/set)."""
    import ray.data

    from tera_ray.query.sparql import sparql_construct
    from tera_ray.stages.ecotox import emit_chemicals

    store = ray.data.read_parquet(
        os.path.join(_fx(sf_dir), "chemicals.parquet")).map_batches(
        emit_chemicals, batch_format="pyarrow", batch_size=EMIT_BATCH)
    q = """
        CONSTRUCT { ?c skos:altLabel ?l }
        WHERE { ?c a ns:Chemical ; rdfs:label ?l }
        """
    return sparql_construct(store, q)


def _q_kg_sparql_graph(sf_dir: str):
    """SPARQL GRAPH scoping over a two-graph store (chemicals +
    taxonomy emitters): label bindings restricted to the
    ``ecotox_chemicals`` named graph via the store's lineage column."""
    import ray.data

    from tera_ray.query.sparql import sparql_select
    from tera_ray.stages.ecotox import emit_chemicals, emit_taxa

    fx = _fx(sf_dir)
    chems = ray.data.read_parquet(
        os.path.join(fx, "chemicals.parquet")).map_batches(
        emit_chemicals, batch_format="pyarrow", batch_size=EMIT_BATCH)
    taxa = ray.data.read_parquet(
        os.path.join(fx, "species.parquet")).map_batches(
        emit_taxa, batch_format="pyarrow", batch_size=EMIT_BATCH)
    q = """
        SELECT DISTINCT ?s ?l WHERE {
            GRAPH "ecotox_chemicals" { ?s rdfs:label ?l }
        }
        """
    return sparql_select(chems.union(taxa), q)


def _q_kg_sparql_graph_var(sf_dir: str):
    """``GRAPH ?g { … }`` (variable graph name): per-lineage-tag triple
    counts over a two-graph store (synonym + EOL term-label emitters) —
    the block evaluates once per distinct tag (tags are few by
    construction) and unions with ``?g`` bound."""
    import ray.data

    from tera_ray.query.sparql import sparql_select
    from tera_ray.stages.ecotox import emit_synonyms
    from tera_ray.stages.traits import emit_term_labels

    fx = _fx(sf_dir)
    syn = ray.data.read_parquet(
        os.path.join(fx, "species_synonyms.parquet")).map_batches(
        emit_synonyms, batch_format="pyarrow", batch_size=EMIT_BATCH)
    terms = ray.data.read_parquet(
        os.path.join(fx, "terms.parquet")).map_batches(
        emit_term_labels, batch_format="pyarrow", batch_size=EMIT_BATCH)
    q = ("SELECT ?g (COUNT(?s) AS ?n) WHERE {"
         " GRAPH ?g { ?s ?p ?o } } GROUP BY ?g")
    return sparql_select(syn.union(terms), q)


def _q_kg_sparql_ask(sf_dir: str):
    """SPARQL ASK (existence, short-circuit limit(1)) wrapped as a
    1-row boolean table for the driver compare."""
    import ray.data

    from tera_ray.query.sparql import sparql_ask
    from tera_ray.stages.ecotox import emit_chemicals

    store = ray.data.read_parquet(
        os.path.join(_fx(sf_dir), "chemicals.parquet")).map_batches(
        emit_chemicals, batch_format="pyarrow", batch_size=EMIT_BATCH)
    got = sparql_ask(store, "ASK { ?s a ns:Chemical }")
    missing = sparql_ask(store, 'ASK { ?s rdfs:label "no-such-label-xyz" }')
    return pa.table({"ex": pa.array([got], pa.bool_()),
                     "ex_missing": pa.array([missing], pa.bool_())})


def _q_kg_sparql_describe(sf_dir: str):
    """SPARQL DESCRIBE of the ns:Chemical class node: every triple
    whose subject or object is the class (= all chemical rdf:type
    edges)."""
    import ray.data

    from tera_ray.query.sparql import sparql_describe
    from tera_ray.stages.ecotox import emit_chemicals

    store = ray.data.read_parquet(
        os.path.join(_fx(sf_dir), "chemicals.parquet")).map_batches(
        emit_chemicals, batch_format="pyarrow", batch_size=EMIT_BATCH)
    return sparql_describe(store, "DESCRIBE ns:Chemical")


def _q_kg_sparql_bind(sf_dir: str):
    """SPARQL BIND string expressions: strip the cas/ namespace off
    chemical IRIs (the reference's ``strip_namespace``,
    ``tera/utils.py:337-359``, as a query-level BIND)."""
    import ray.data

    from tera_ray.query.sparql import sparql_select
    from tera_ray.stages.ecotox import emit_chemicals

    store = ray.data.read_parquet(
        os.path.join(_fx(sf_dir), "chemicals.parquet")).map_batches(
        emit_chemicals, batch_format="pyarrow", batch_size=EMIT_BATCH)
    q = """
        SELECT DISTINCT ?cas WHERE {
            ?c a ns:Chemical .
            BIND(STRAFTER(STR(?c), "cas/") AS ?cas)
        }
        """
    return sparql_select(store, q)


def _q_kg_sparql_minus(sf_dir: str):
    """SPARQL MINUS (negation → one co-group anti-join): tests WITHOUT
    a studyDuration measurement."""
    import ray.data

    from tera_ray.query.sparql import sparql_select
    from tera_ray.stages.ecotox import emit_tests

    store = ray.data.read_parquet(
        os.path.join(_fx(sf_dir), "tests.parquet")).map_batches(
        emit_tests, batch_format="pyarrow", batch_size=EMIT_BATCH)
    q = """
        SELECT DISTINCT ?t WHERE {
            ?t a ns:Test MINUS { ?t ns:studyDuration ?m }
        }
        """
    return sparql_select(store, q)


def _q_kg_sparql_values_undef(sf_dir: str):
    """SPARQL VALUES with the spec's per-column UNDEF wildcard: rows
    group by their defined-column mask and join on just those columns,
    preserving Join multiplicity — a solution with habitat Water
    matches BOTH inline rows and appears twice (store deduped first so
    the multiset is deterministic)."""
    import ray.data

    from tera_ray.query.sparql import sparql_select
    from tera_ray.stages.base import dedup_triples
    from tera_ray.stages.ecotox import emit_tests

    store = dedup_triples(ray.data.read_parquet(
        os.path.join(_fx(sf_dir), "tests.parquet")).map_batches(
        emit_tests, batch_format="pyarrow", batch_size=EMIT_BATCH))
    q = """
        SELECT ?t ?h WHERE {
            ?t ns:organismHabitat ?h .
            VALUES (?h) {
                (<https://cfpub.epa.gov/ecotox/habitat/Water>) (UNDEF)
            }
        }
        """
    return sparql_select(store, q)


def _q_kg_sparql_seq_path(sf_dir: str):
    """SPARQL sequence path (fresh-variable chain rewrite): each test's
    concentration values through hasResult / concentration / rdf:value
    in one step."""
    import ray.data

    from tera_ray.query.sparql import sparql_select
    from tera_ray.stages.ecotox import emit_results

    store = ray.data.read_parquet(
        os.path.join(_fx(sf_dir), "results.parquet")).map_batches(
        emit_results, batch_format="pyarrow", batch_size=EMIT_BATCH)
    q = """
        SELECT DISTINCT ?t ?cc WHERE {
            ?t ns:hasResult / ns:concentration / rdf:value ?cc
        }
        """
    return sparql_select(store, q)


def _q_kg_sparql_having(sf_dir: str):
    """SPARQL HAVING: chemicals with at least 5 results (post-agg mask
    over the distributed groupby)."""
    from tera_ray.query.sparql import sparql_select

    q = """
        SELECT ?chemical (COUNT(?r) AS ?n) WHERE {
            ?t rdf:type ns:Test ;
               ns:chemical ?chemical ;
               ns:hasResult ?r .
        } GROUP BY ?chemical HAVING (?n >= 5)
        """
    return sparql_select(_ecotox_star_store(sf_dir), q)


def _q_kg_sparql_subquery(sf_dir: str):
    """SPARQL 1.1 subquery: per-chemical result counts computed in a
    nested SELECT (distributed groupby) and joined back to the outer
    (chemical, species) pattern."""
    from tera_ray.query.sparql import sparql_select

    q = """
        SELECT DISTINCT ?chemical ?species ?n WHERE {
            ?t ns:chemical ?chemical ; ns:species ?species .
            { SELECT ?chemical (COUNT(?r) AS ?n) WHERE {
                ?t2 rdf:type ns:Test ;
                    ns:chemical ?chemical ;
                    ns:hasResult ?r .
              } GROUP BY ?chemical }
        }
        """
    return sparql_select(_ecotox_star_store(sf_dir), q)


def _q_kg_sparql_nested_optional(sf_dir: str):
    """Depth-3 nested OPTIONAL (SPARQL 1.1 §18.2 LeftJoin algebra,
    recursive bottom-up fold) over the tests+results emitter store:
    Test → hasResult → concentration value → unit, each level
    left-joined so a miss nulls that level and everything below it —
    tests without results null all three; digitless concentrations
    null value+unit.  Oracle: a DuckDB LEFT-JOIN chain."""
    from tera_ray.query.sparql import sparql_select

    q = """
        SELECT DISTINCT ?test ?r ?cv ?cu ?sd ?sdu WHERE {
            ?test rdf:type ns:Test .
            OPTIONAL {
                ?test ns:hasResult ?r .
                OPTIONAL {
                    ?r ns:concentration ?c .
                    ?c rdf:value ?cv .
                    OPTIONAL { ?c unit:units ?cu }
                }
            }
            OPTIONAL {
                ?test ns:studyDuration ?sb .
                ?sb rdf:value ?sd .
                OPTIONAL { ?sb unit:units ?sdu }
            }
        }
        """
    return sparql_select(_ecotox_star_store(sf_dir), q)


def _q_kg_sparql_optional_filter(sf_dir: str):
    """FILTER scoped inside OPTIONAL = the LeftJoin condition (SPARQL
    1.1 §18.2.2.2): tests keep their row when the studyDuration fails
    the condition — the duration vars just go null (join-then-filter
    would drop those tests entirely).  String comparison is lexical on
    both sides (engine store terms and the VARCHAR oracle)."""
    from tera_ray.query.sparql import sparql_select

    q = """
        SELECT DISTINCT ?test ?sd WHERE {
            ?test rdf:type ns:Test .
            OPTIONAL {
                ?test ns:studyDuration ?b .
                ?b rdf:value ?sd
                FILTER(?sd > "50")
            }
        }
        """
    return sparql_select(_ecotox_star_store(sf_dir), q)


def _q_kg_sparql_select_expr(sf_dir: str):
    """Non-aggregate SELECT expression + COALESCE (round-5 conformance
    widening): each taxon's scientific name uppercased, with the
    uniqueName filled from a COALESCE over the OPTIONAL uniqueName
    edge — exercises (expr AS ?x) desugaring, BIND-over-OPTIONAL null
    semantics, and the group-scoped value functions end-to-end."""
    from tera_ray.query.sparql import sparql_select
    from tera_ray.schema import NCBI_NS

    q = f"""
        PREFIX ncbi: <{NCBI_NS}>
        SELECT DISTINCT ?t (UCASE(?n) AS ?un) ?u WHERE {{
            ?t ncbi:scientific_name ?n .
            OPTIONAL {{ ?t ncbi:uniqueName ?raw }}
            BIND(COALESCE(?raw, "-") AS ?u)
        }}
        """
    return sparql_select(_q_kg_ncbi_names(sf_dir), q)


def _q_kg_sparql_arith(sf_dir: str):
    """Arithmetic + nested IF in BIND (round-5 widening): every test's
    study duration normalized to HOURS (d×24, w×168) from the
    measurement BNode's value/unit pair — float64 math on the string
    store with lenient coercion; oracle = CAST × CASE in DuckDB."""
    from tera_ray.query.sparql import sparql_select

    q = """
        SELECT DISTINCT ?t ?h WHERE {
            ?t ns:studyDuration ?b .
            ?b rdf:value ?v ;
               unit:units ?u .
            BIND(IF(?u = unit:Day, ?v * 24,
                    IF(?u = unit:Week, ?v * 168, ?v * 1)) AS ?h)
        }
        """
    return sparql_select(_ecotox_star_store(sf_dir), q)


def _q_kg_unionfind(sf_dir: str):
    import ray.data

    from tera_ray.state.linkage import canonical_mapping, connected_components
    from tera_ray.state.mapping import threshold

    pairs = ray.data.read_parquet(os.path.join(_fx(sf_dir), "sameas_pairs.parquet"))
    comp = connected_components(threshold(pairs, 0.9))
    return canonical_mapping(comp).map_batches(
        lambda t: t.select(["src", "dst"]), batch_format="pyarrow")


def _q_kg_conversations(sf_dir: str):
    import ray.data

    from tera_ray.query.relational import ordered_group_concat

    ts = ray.data.read_parquet(
        os.path.join(_fx(sf_dir), "transcripts.parquet"),
        columns=["conv_id", "turn_idx", "ts", "text"])
    return ordered_group_concat(
        ts, "conv_id", [("turn_idx", "ascending"), ("ts", "ascending")],
        "text", sep="\x1f", out_names=("conv_id", "n_turns", "seq"))


def _q_conv_training_examples(sf_dir: str):
    """End-to-end training-example preparation over the north-rule
    transcript shape: stable turn-ordered conversation reconstruction
    (K4, `ordered_group_concat`) → overlapping 32-token windows every
    24 (`chunk_windows`) — the transcripts→context-window pipeline an
    LLM data build actually runs, as one composition of judged
    operators (one bucketed shuffle for the reconstruction, map-side
    windowing)."""
    import ray.data

    from tera_ray.query.relational import ordered_group_concat
    from tera_ray.text.curation import chunk_windows

    ts = ray.data.read_parquet(
        os.path.join(_fx(sf_dir), "transcripts.parquet"),
        columns=["conv_id", "turn_idx", "ts", "text"])
    seqs = ordered_group_concat(
        ts, "conv_id", [("turn_idx", "ascending"), ("ts", "ascending")],
        "text", sep=" ", out_names=("conv_id", "n_turns", "text"))
    return chunk_windows(seqs, size=32, stride=24, id_col="conv_id",
                         text_col="text")


def _q_returned_revenue(sf_dir: str):
    """TPC-H-Q10-shaped composite: returned lineitems → order join
    (bucketed co-group) → customer broadcast join → grouped revenue
    (integer cents) → global top-20 (sort+limit).  Exercises filter
    pushdown, large×large + broadcast joins, combiner aggregation and
    the distributed top-k in one pipeline."""
    import ray.data

    from tera_ray.query.relational import (
        broadcast_join,
        grouped_agg,
        hash_join,
    )

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount",
                        "l_returnflag"]).filter(
        expr="l_returnflag == 'R'")
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    j = hash_join(li, orders, on="l_orderkey", right_on="o_orderkey")

    def derive(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": t["o_custkey"],
            "cents": _cents(t["l_extendedprice"], t["l_discount"]),
        })

    agg = grouped_agg(j.map_batches(derive, batch_format="pyarrow"),
                      ["o_custkey"], [("cents", "sum", "revenue_cents")])
    cust = _collect(_read(sf_dir, "customer",
                          columns=["c_custkey", "c_name", "c_mktsegment"]))
    out = broadcast_join(agg, cust, "o_custkey", "c_custkey")
    # global top-20 via the top-k combiner (local top-k caps each batch
    # at k rows before the shuffle), not a full distributed sort — a
    # range sort on a small aggregate is pure fixed overhead
    from tera_ray.query.relational import topk_per_key

    tagged = out.map_batches(
        lambda t: t.append_column("__g", pa.array([0] * t.num_rows,
                                                  pa.int8())),
        batch_format="pyarrow")
    top = topk_per_key(tagged, "__g",
                       order=[("revenue_cents", "descending"),
                              ("o_custkey", "ascending")], k=20)
    return top.map_batches(
        lambda t: t.select(["o_custkey", "c_name", "c_mktsegment",
                            "revenue_cents"]),
        batch_format="pyarrow")


def _q_kg_build(sf_dir: str):
    from tera_ray.pipelines.transcripts import build_kg

    return build_kg(_fx(sf_dir))


def _q_kg_canonical(sf_dir: str):
    """Full E1+E2 flagship: build → align → union-find → rewrite → dedup."""
    from tera_ray.pipelines.transcripts import build_kg_canonical

    return build_kg_canonical(_fx(sf_dir))


_STRUCTURAL_PREDS = (
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
    "https://cfpub.epa.gov/ecotox/hasTurn",
    "https://cfpub.epa.gov/ecotox/precededBy",
)


def _structural_subset(kg):
    """Project a built KG to its turn-structure triples (rdf:type Turn /
    hasTurn / precededBy) — a pure function of ``(conv_id, turn_idx)``,
    hence exactly DuckDB-expressible (SURVEY §7.5 item 3: partial
    oracles for the flagship builds).  The mention/linking subset stays
    covered by ``kg_linking_pr``."""
    import pyarrow.compute as _pc

    preds = pa.array(_STRUCTURAL_PREDS, pa.string())
    turn_obj = "https://cfpub.epa.gov/ecotox/Turn"

    def f(t: pa.Table) -> pa.Table:
        keep = _pc.and_(
            _pc.is_in(t["pred"], value_set=preds),
            _pc.or_(_pc.not_equal(t["pred"], _STRUCTURAL_PREDS[0]),
                    _pc.equal(t["obj"], turn_obj)),
        )
        return t.filter(keep).select(["subj", "pred", "obj"])

    return kg.map_batches(f, batch_format="pyarrow")


def _q_kg_build_structural(sf_dir: str):
    """The REAL flagship build (linker included), projected to the
    SQL-expressible structural subset — converts kg_build from
    rows-only to partially hash-oracled."""
    from tera_ray.pipelines.transcripts import build_kg

    return _structural_subset(build_kg(_fx(sf_dir)))


def _q_kg_canonical_structural(sf_dir: str):
    """Same partial oracle over the E1+E2 canonical build: turn URIs are
    never members of alias clusters (alignment pairs taxonomy/species
    URIs only), so the structural subset must survive union-find rewrite
    bit-identically — a canonicalization-correctness check the hash
    compare enforces."""
    from tera_ray.pipelines.transcripts import build_kg_canonical

    return _structural_subset(build_kg_canonical(_fx(sf_dir)))


def _q_kg_bgp_match(sf_dir: str):
    """SPARQL-style BGP over the REAL flagship store
    (`tera_ray.query.kg.bgp_match`): required ``(?c hasTurn ?t)`` with
    OPTIONAL ``(?t precededBy ?p)`` (the reference's OPTIONAL-block
    shape, ``DataAccess.py:977-994``) — constant-pred scans folded
    through co-group shuffles on the shared variable; oracled by a SQL
    left self-join of the structural subset."""
    from tera_ray.pipelines.transcripts import build_kg
    from tera_ray.query.kg import bgp_match

    ns = "https://cfpub.epa.gov/ecotox/"
    return bgp_match(build_kg(_fx(sf_dir)),
                     [("?c", ns + "hasTurn", "?t")],
                     optional=[("?t", ns + "precededBy", "?p")])


def _q_kg_build_checkpointed(sf_dir: str):
    """Flagship build through the resumable stage boundaries (north rule
    "checkpoint-resumable stage boundaries" made driver-visible): a cold
    run writes every stage's partitioned Parquet + manifest, then a
    second run MUST skip all stages via manifest match — asserted here,
    so this judged entry fails if resume ever re-executes work.  Returns
    the KG re-opened from the checkpoint store (rows-only check; content
    equality with the direct build is pytest-asserted in
    tests/test_checkpoint.py)."""
    import shutil
    import tempfile

    from tera_ray.state.checkpoint import build_kg_checkpointed

    fx = _fx(sf_dir)
    ckpt = tempfile.mkdtemp(prefix="tera_ray_ckpt_")
    _, skipped_cold = build_kg_checkpointed(fx, ckpt, fuzzy=False)
    assert not any(skipped_cold.values()), skipped_cold
    kg, skipped_warm = build_kg_checkpointed(fx, ckpt, fuzzy=False)
    assert all(skipped_warm.values()), skipped_warm
    return kg


def _q_kg_align_pr(sf_dir: str):
    """North-rule alignment quality made driver-visible (the companion
    of kg_linking_pr): precision/recall of the blocked fuzzy NCBI↔ECOTOX
    alignment against the fixture's planted ground truth (ncbi taxon
    900000+i ↔ ecotox taxon 100000+i; eligibility mirrors the
    reference's whole-row dropna).  Only the alignment mapping (small
    by construction — one best edge per source) and a 1-row summary
    reach the driver.  P/R ≥ 0.95 is asserted in
    tests/test_driver_contract.py."""
    import pyarrow.parquet as _pq

    import ray.data

    from tera_ray.schema import NAN_VALUES
    from tera_ray.stages.align import blocked_fuzzy_align, label_bags
    from tera_ray.stages.ecotox import emit_taxa
    from tera_ray.stages.taxonomy import emit_names

    fx = _fx(sf_dir)
    ncbi = ray.data.read_parquet(
        os.path.join(fx, "taxonomy_names.parquet")).map_batches(
        emit_names, batch_format="pyarrow")
    eco = ray.data.read_parquet(
        os.path.join(fx, "species.parquet")).map_batches(
        emit_taxa, batch_format="pyarrow")
    ncbi_preds = (
        "https://www.ncbi.nlm.nih.gov/taxonomy/scientific_name",
        "https://www.ncbi.nlm.nih.gov/taxonomy/common_name",
        "https://www.ncbi.nlm.nih.gov/taxonomy/uniqueName",
    )
    eco_preds = ("https://cfpub.epa.gov/ecotox/latinName",)
    m = _collect(blocked_fuzzy_align(
        label_bags(ncbi, ncbi_preds), label_bags(eco, eco_preds),
        threshold=90.0))
    if m is None:
        m = pa.table({"src": pa.array([], pa.string()),
                      "dst": pa.array([], pa.string())})
    names = _pq.read_table(os.path.join(fx, "taxonomy_names.parquet"),
                           columns=["taxon", "unique_name"])
    eligible = {
        int(t) - 900000
        for t, u in zip(names["taxon"].to_pylist(),
                        names["unique_name"].to_pylist())
        if u not in NAN_VALUES}
    pairs = [(int(s.rsplit("/", 1)[1]) - 900000,
              int(d.rsplit("/", 1)[1]) - 100000)
             for s, d in zip(m["src"].to_pylist(), m["dst"].to_pylist())]
    correct = sum(1 for i, j in pairs if i == j)
    recalled = sum(1 for i, j in pairs if i in eligible and i == j)
    return pa.table({
        "n_aligned": pa.array([len(pairs)], pa.int64()),
        "n_eligible": pa.array([len(eligible)], pa.int64()),
        "precision": pa.array(
            [round(correct / len(pairs), 6) if pairs else None],
            pa.float64()),
        "recall": pa.array(
            [round(recalled / len(eligible), 6) if eligible else None],
            pa.float64()),
    })


def _q_kg_incremental(sf_dir: str):
    """Incremental KG maintenance (`tera_ray.pipelines.transcripts.update_kg`):
    build the store from conversations with EVEN numeric suffix, then
    fold in the odd half — the new shard alone is linked, an exact
    (subj, pred, obj) anti-join co-group admits only novel triples, and
    the result is row-multiset identical to a one-shot full build
    (asserted in tests/test_transcripts.py).  The 10^12-turn pipeline is
    never a one-shot build; this is the nightly-shard path."""
    import pyarrow.compute as pc

    import ray.data

    from tera_ray.pipelines.transcripts import build_kg_from, update_kg

    fx = _fx(sf_dir)
    tr = ray.data.read_parquet(os.path.join(fx, "transcripts.parquet"),
                               columns=["conv_id", "turn_idx", "text"])

    def half(even: bool):
        def f(t: pa.Table) -> pa.Table:
            tail = pc.cast(pc.utf8_slice_codeunits(
                t["conv_id"], start=5, stop=99), pa.int64())
            m = pc.equal(pc.bit_wise_and(tail, pa.scalar(1, pa.int64())),
                         pa.scalar(0 if even else 1, pa.int64()))
            return t.filter(m)

        return f

    prev = build_kg_from(tr.map_batches(half(True), batch_format="pyarrow"),
                         fx)
    return update_kg(prev,
                     tr.map_batches(half(False), batch_format="pyarrow"),
                     fx)


def _q_kg_incremental_structural(sf_dir: str):
    """``update_kg``'s merged store hash-oracled on the SQL-expressible
    structural subset (the `kg_build_structural` pattern): prev = the
    even-conversation build, shard = the odd conversations; the merged
    store's turn-structure must be bit-identical to the FULL transcript
    table's — exercising the auto-scope contract check, the
    turn-unique pushdown, and the lexicon novelty logic end-to-end
    under the driver's value-hash compare."""
    return _structural_subset(_q_kg_incremental(sf_dir))


def _q_kg_shard_registry(sf_dir: str):
    """The nightly maintenance loop made driver-visible
    (``state/checkpoint.update_kg_incremental``): ingest two disjoint
    transcript shards into a fresh checkpointed store (shard 1 → base
    build; shard 2 → novel-partition append attested disjoint by the
    ``_SHARDS.json`` registry, prev partitions untouched), then
    re-deliver shard 2 (idempotent registry no-op), then CONSOLIDATE
    the shard stages into a fresh base (atomic registry commit; the
    ingested-paths ledger survives, so a post-consolidation
    re-delivery still skips).  One row per event with the novel row
    count, registry size, and the merged store's row count — which
    must equal the one-shot full build's."""
    import shutil
    import tempfile

    import pyarrow.compute as pc
    import pyarrow.parquet as _pq

    from tera_ray.pipelines.transcripts import build_kg
    from tera_ray.state.checkpoint import (
        consolidate_shards,
        merged_kg,
        read_shard_registry,
        update_kg_incremental,
    )

    fx = _fx(sf_dir)
    work = tempfile.mkdtemp(prefix="tera_ray_shards_")
    try:
        tr = _pq.read_table(os.path.join(fx, "transcripts.parquet"))
        tail = pc.cast(pc.utf8_slice_codeunits(
            tr["conv_id"], start=5, stop=99), pa.int64())
        odd = pc.equal(pc.bit_wise_and(tail, pa.scalar(1, pa.int64())),
                       pa.scalar(1, pa.int64()))
        s1 = os.path.join(work, "shard1.parquet")
        s2 = os.path.join(work, "shard2.parquet")
        _pq.write_table(tr.filter(pc.invert(odd)), s1)
        _pq.write_table(tr.filter(odd), s2)
        root = os.path.join(work, "store")
        events = []
        for phase, path in [("base", s1), ("append", s2),
                            ("redeliver", s2)]:
            r = update_kg_incremental(root, fx, path, num_partitions=4)
            events.append((phase, r["skipped"], r["novel_rows"],
                           len(read_shard_registry(root)["shards"])))
        c = consolidate_shards(root, num_partitions=4)
        events.append(("consolidate", not c["consolidated"], c["rows"],
                       len(read_shard_registry(root)["shards"])))
        r = update_kg_incremental(root, fx, s2, num_partitions=4)
        events.append(("redeliver_after_consolidate", r["skipped"],
                       r["novel_rows"],
                       len(read_shard_registry(root)["shards"])))
        merged_rows = merged_kg(root).count()
        full_rows = build_kg(fx).count()
        final_reg = len(read_shard_registry(root)["shards"])
        return pa.table({
            "phase": pa.array([e[0] for e in events] + ["merged"]),
            "skipped": pa.array([e[1] for e in events] + [False]),
            "novel_rows": pa.array(
                [e[2] for e in events] + [merged_rows], pa.int64()),
            "registry_size": pa.array(
                [e[3] for e in events] + [final_reg], pa.int64()),
            # measured only on the merged row; event rows carry null
            "equals_full_build": pa.array(
                [None] * len(events) + [merged_rows == full_rows],
                pa.bool_()),
        })
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _q_kg_compaction(sf_dir: str):
    """Checkpoint-store maintenance made driver-visible: write a stage,
    FRAGMENT one partition (simulated multi-writer small files), then
    compact and validate.  Returns one row per phase with the stage's
    visible row count and validation verdict — fails if compaction ever
    loses or duplicates a row."""
    import glob
    import shutil
    import tempfile

    import pyarrow.parquet as _pq

    import ray.data

    from tera_ray.state.checkpoint import (
        compact_stage,
        validate_stage,
        write_stage,
    )

    fx = _fx(sf_dir)
    tr = ray.data.read_parquet(os.path.join(fx, "transcripts.parquet"),
                               columns=["conv_id", "turn_idx"])
    root = tempfile.mkdtemp(prefix="tera_ray_compact_")
    write_stage(tr.map_batches(
        lambda t: pa.table({"subj": t["conv_id"],
                            "turn_idx": t["turn_idx"]}),
        batch_format="pyarrow"), root, "st", "fp",
        partition_key="subj", num_partitions=8)

    def snap(phase: str) -> dict:
        chk = validate_stage(root, "st")
        return {"phase": phase, "ok": chk["ok"],
                "row_count": chk["row_count"]}

    rows = [snap("written")]
    d = sorted(glob.glob(os.path.join(root, "st", "part=*")))[0]
    f = sorted(os.listdir(d))[0]
    t = _pq.read_table(os.path.join(d, f))
    h = t.num_rows // 2
    _pq.write_table(t.slice(0, h), os.path.join(d, "frag_000.parquet"))
    _pq.write_table(t.slice(h), os.path.join(d, "frag_001.parquet"))
    os.remove(os.path.join(d, f))
    rows.append(snap("fragmented"))
    res = compact_stage(root, "st")
    rows.append({**snap("compacted"),
                 "ok": rows[-1]["ok"] and res["validate"]["ok"]})
    shutil.rmtree(root)
    out = pa.table({
        "phase": pa.array([r["phase"] for r in rows], pa.string()),
        "ok": pa.array([bool(r["ok"]) for r in rows], pa.bool_()),
        "row_count": pa.array([int(r["row_count"]) for r in rows],
                              pa.int64()),
    })
    assert all(r["ok"] for r in rows) and \
        len({r["row_count"] for r in rows}) == 1, rows
    return out


def _q_kg_linking_pr(sf_dir: str):
    """North-rule linking quality made driver-visible: precision/recall
    of the mention linker against the fixture's embedded ground truth
    (turns whose text carries a planted species mention).  Everything is
    computed distributed — side-tagged union + one grouped_agg; only the
    final 1-row summary reaches the driver.  The north rule requires
    P/R ≥ 0.95; tests/test_driver_contract.py asserts it on this entry."""
    return _linking_pr_over(_fx(sf_dir))


def _q_kg_linking_pr_hard(sf_dir: str):
    """kg_linking_pr on the ADVERSARIAL fixture variant (misspelling
    rate 0.5, mention density 0.1, heavier synonym/common-name share —
    ``sources/synthetic.py:_VARIANTS['hard']``): the regime where the
    linker's fuzzy candidate-mask pruning and the case-aware lowercase
    common-name fallback actually carry the recall.  Same P/R ≥ 0.95
    bar, asserted in tests/test_driver_contract.py."""
    from tera_ray.sources.synthetic import fixture_dir

    scale = _FX_SCALE.get(os.path.basename(os.path.normpath(sf_dir)), "t2")
    return _linking_pr_over(fixture_dir(scale, variant="hard"))


def _linking_pr_over(fx: str):
    import pyarrow.compute as pc

    import ray.data

    from tera_ray.pipelines.transcripts import build_lexicon, link_transcripts
    from tera_ray.query.relational import grouped_agg

    path = os.path.join(fx, "transcripts.parquet")
    tr = ray.data.read_parquet(path, columns=["conv_id", "turn_idx", "text"])

    def bearing(t: pa.Table) -> pa.Table:
        m = pc.starts_with(pc.fill_null(t["text"], ""), "Exposure of ")
        t = t.filter(m)
        return pa.table({"conv_id": t["conv_id"], "turn_idx": t["turn_idx"],
                         "b": pa.array([1] * t.num_rows, pa.int64()),
                         "l": pa.array([0] * t.num_rows, pa.int64())})

    lex = build_lexicon(fx)
    linked = link_transcripts(ray.data.read_parquet(path), lex)

    def linked_keys(t: pa.Table) -> pa.Table:
        m = pc.ends_with(t["pred"], "mentionsTaxon")
        t = t.filter(m)
        t = t.group_by(["conv_id", "turn_idx"],
                       use_threads=False).aggregate([])
        return pa.table({"conv_id": t["conv_id"], "turn_idx": t["turn_idx"],
                         "b": pa.array([0] * t.num_rows, pa.int64()),
                         "l": pa.array([1] * t.num_rows, pa.int64())})

    both = tr.map_batches(bearing, batch_format="pyarrow").union(
        linked.map_batches(linked_keys, batch_format="pyarrow"))
    per_key = grouped_agg(both, ["conv_id", "turn_idx"],
                          [("b", "max", "b"), ("l", "max", "l")])

    def partial(t: pa.Table) -> pa.Table:
        b = t["b"].to_numpy(zero_copy_only=False)
        ln = t["l"].to_numpy(zero_copy_only=False)
        return pa.table({"n_bearing": pa.array([int(b.sum())], pa.int64()),
                         "n_linked": pa.array([int(ln.sum())], pa.int64()),
                         "tp": pa.array([int((b & ln).sum())], pa.int64())})

    sums = _collect(per_key.map_batches(partial, batch_format="pyarrow"))
    nb = pc.sum(sums["n_bearing"]).as_py()
    nl = pc.sum(sums["n_linked"]).as_py()
    tp = pc.sum(sums["tp"]).as_py()
    return pa.table({
        "n_bearing": pa.array([nb], pa.int64()),
        "n_linked": pa.array([nl], pa.int64()),
        "tp": pa.array([tp], pa.int64()),
        "precision": pa.array([round(tp / nl, 6) if nl else None],
                              pa.float64()),
        "recall": pa.array([round(tp / nb, 6) if nb else None],
                           pa.float64()),
    })


def _q_kg_lineage(sf_dir: str):
    """Per-partition lineage made driver-visible: run the checkpointed
    build, then return each stage's MANIFEST content as rows
    (stage, row_count, num_partitions, min/max partition rows) — the
    north rule's "per-partition lineage + metrics" artifact.  Only
    manifest JSON is read here; the data stays in the checkpoint store."""
    import shutil
    import tempfile

    from tera_ray.state.checkpoint import build_kg_checkpointed, read_manifest

    fx = _fx(sf_dir)
    # per-process unique dir: a fixed shared path races concurrent runs
    # (pytest alongside tools/sweep.py) — one process rmtree-ing while
    # the other reads manifests (round-2 review finding)
    ckpt = tempfile.mkdtemp(prefix="tera_ray_lineage_")
    build_kg_checkpointed(fx, ckpt, fuzzy=False)
    stages, rows, parts, pmin, pmax = [], [], [], [], []
    for stage in ("link", "lexicon", "kg"):
        m = read_manifest(ckpt, stage)
        assert m is not None, f"missing manifest for {stage}"
        counts = list(m["partitions"].values())
        stages.append(stage)
        rows.append(int(m["row_count"]))
        parts.append(len(counts))
        pmin.append(min(counts))
        pmax.append(max(counts))
    shutil.rmtree(ckpt, ignore_errors=True)
    return pa.table({
        "stage": pa.array(stages, pa.string()),
        "row_count": pa.array(rows, pa.int64()),
        "num_partitions": pa.array(parts, pa.int64()),
        "min_partition_rows": pa.array(pmin, pa.int64()),
        "max_partition_rows": pa.array(pmax, pa.int64()),
    })


def _q_kg_fuzzy_align(sf_dir: str):
    import ray.data

    from tera_ray.schema import NCBI_NS
    from tera_ray.stages.align import blocked_fuzzy_align, label_bags
    from tera_ray.stages.ecotox import emit_taxa
    from tera_ray.stages.taxonomy import emit_names

    fx = _fx(sf_dir)
    names = ray.data.read_parquet(os.path.join(fx, "taxonomy_names.parquet")).map_batches(
        emit_names, batch_format="pyarrow")
    taxa = ray.data.read_parquet(os.path.join(fx, "species.parquet")).map_batches(
        emit_taxa, batch_format="pyarrow")
    ncbi_preds = (NCBI_NS + "scientific_name", NCBI_NS + "common_name",
                  NCBI_NS + "uniqueName")
    eco_preds = (NS + "latinName",)
    return blocked_fuzzy_align(label_bags(names, ncbi_preds),
                               label_bags(taxa, eco_preds), threshold=90.0)


def _q_kg_traits(sf_dir: str):
    from tera_ray.stages.traits import emit_traits

    return _kg_emit(sf_dir, "traits", emit_traits)


def _q_kg_term_labels(sf_dir: str):
    from tera_ray.stages.traits import emit_term_labels

    return _kg_emit(sf_dir, "terms", emit_term_labels)


def _q_kg_eol_subclasses(sf_dir: str):
    from tera_ray.stages.traits import emit_subclasses

    return _kg_emit(sf_dir, "eol_rels", emit_subclasses)


def _q_chem_tanimoto(sf_dir: str):
    import ray.data

    from tera_ray.dedup.fingerprint import tanimoto_pairs

    ds = ray.data.read_parquet(
        os.path.join(_fx(sf_dir), "chem_fingerprints.parquet"))
    return tanimoto_pairs(ds, threshold=0.7)


def _q_chem_enrich(sf_dir: str):
    import pyarrow.parquet as pq

    import ray.data

    from tera_ray.pipelines.chemistry import enrich_chemicals

    fx = _fx(sf_dir)
    chems = ray.data.read_parquet(
        os.path.join(fx, "chemicals.parquet"),
        columns=["cas_number", "chemical_name"])
    snapshot = pq.read_table(os.path.join(fx, "chem_fingerprints.parquet"))
    return enrich_chemicals(chems, snapshot)


def _q_src_pipe_roundtrip(sf_dir: str):
    """S1 driver-visible: species table → headerless pipe-CSV dump on
    disk → ``read_pipe_dump`` → rows.  Oracle = trim+sentinel semantics
    straight off the parquet, so the dump writer/reader pair is
    validated end-to-end by the correctness gate."""
    import shutil

    import pyarrow.parquet as pq
    from pyarrow import csv as pacsv

    from tera_ray.sources.dumps import read_pipe_dump

    fx = _fx(sf_dir)
    src = pq.read_table(os.path.join(fx, "species.parquet"))
    out_dir = os.path.join("/tmp", "tera_ray_dumps",
                           os.path.basename(os.path.normpath(fx)))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    path = os.path.join(out_dir, "species.txt")
    src = pa.table({n: src[n].cast(pa.string()) for n in src.schema.names})
    pacsv.write_csv(src, path, pacsv.WriteOptions(include_header=False,
                                                  delimiter="|"))
    return read_pipe_dump(path, column_names=list(src.schema.names))


def _q_src_nt_roundtrip(sf_dir: str):
    """S3+S6 driver-visible: division triples → NT sink → NT reader →
    (subj, pred, obj, obj_is_literal).  Oracle = the divisions SQL minus
    the graph column, so the NT escape/parse pair must invert exactly."""
    import shutil

    from tera_ray.sources.dumps import read_ntriples
    from tera_ray.sources.sinks import write_ntriples
    from tera_ray.stages.taxonomy import emit_divisions

    fx = _fx(sf_dir)
    out_dir = os.path.join("/tmp", "tera_ray_nt",
                           os.path.basename(os.path.normpath(fx)))
    shutil.rmtree(out_dir, ignore_errors=True)
    triples = _kg_emit(sf_dir, "divisions", emit_divisions)
    paths = write_ntriples(triples, out_dir)
    back = read_ntriples(paths, graph="roundtrip")
    return back.map_batches(
        lambda t: t.select(["subj", "pred", "obj", "obj_is_literal"]),
        batch_format="pyarrow")


def _q_src_ttl_roundtrip(sf_dir: str):
    """S3+S6 driver-visible (r2 verdict item #5): division triples →
    TURTLE sink (prefix compression, ';' predicate lists, literal +
    IRI escaping) → full Turtle parser → rows.  Oracle = the divisions
    SQL, so writer and parser must invert exactly — through prefixed
    names and grouped statements, not just NT-style lines."""
    import shutil

    from tera_ray.schema import ECOTOX_NS, RDF
    from tera_ray.sources.dumps import read_turtle
    from tera_ray.sources.sinks import write_turtle
    from tera_ray.stages.taxonomy import emit_divisions

    fx = _fx(sf_dir)
    out_dir = os.path.join("/tmp", "tera_ray_ttl",
                           os.path.basename(os.path.normpath(fx)))
    shutil.rmtree(out_dir, ignore_errors=True)
    triples = _kg_emit(sf_dir, "divisions", emit_divisions)
    paths = write_turtle(triples, out_dir,
                         prefixes={"ns": ECOTOX_NS, "rdf": RDF})
    back = read_turtle(paths, graph="roundtrip")
    return back.map_batches(
        lambda t: t.select(["subj", "pred", "obj", "obj_is_literal"]),
        batch_format="pyarrow")


_TTL_PARSE_DOC = """\
@prefix ex: <http://ex.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@base <http://base.org/> .
PREFIX chebi: <http://purl.obolibrary.org/obo/CHEBI_>

ex:water a ex:Chemical ;
    rdfs:label "water"@en , "Wasser"@de ;
    ex:mass 18.015 ;
    ex:stable true ;
    ex:note \"\"\"multi
line "quoted" text\"\"\" ;
    ex:sameAs chebi:15377 , <relative/path> .

ex:thing ex:prop [ ex:inner "nested" ] .
ex:list ex:items ( ex:a 42 ) .
"""

#: hand-written spec expectation for ``_TTL_PARSE_DOC`` — the oracle
#: side of ``src_ttl_parse`` AND the pytest assertion
#: (tests/test_sources.py), so parser and oracle are independent
_EX, _RDFS = "http://ex.org/", "http://www.w3.org/2000/01/rdf-schema#"
_RDFNS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
TTL_PARSE_EXPECTED = [
    (_EX + "water", _RDFNS + "type", _EX + "Chemical", False),
    (_EX + "water", _RDFS + "label", "water", True),
    (_EX + "water", _RDFS + "label", "Wasser", True),
    (_EX + "water", _EX + "mass", "18.015", True),
    (_EX + "water", _EX + "stable", "true", True),
    (_EX + "water", _EX + "note", 'multi\nline "quoted" text', True),
    (_EX + "water", _EX + "sameAs",
     "http://purl.obolibrary.org/obo/CHEBI_15377", False),
    (_EX + "water", _EX + "sameAs", "http://base.org/relative/path", False),
    ("_:tb1", _EX + "inner", "nested", True),
    (_EX + "thing", _EX + "prop", "_:tb1", False),
    ("_:tb2", _RDFNS + "first", _EX + "a", False),
    ("_:tb2", _RDFNS + "rest", "_:tb3", False),
    ("_:tb3", _RDFNS + "first", "42", True),
    ("_:tb3", _RDFNS + "rest", _RDFNS + "nil", False),
    (_EX + "list", _EX + "items", "_:tb2", False),
]


def _q_src_ttl_parse(sf_dir: str):
    """Full-grammar Turtle parse (S3): a fixed document exercising
    @prefix/@base/PREFIX, 'a', ';'/',' lists, lang/typed + MULTI-LINE
    literals, numeric/boolean shortcuts, bnode property lists and
    collections — against a DuckDB VALUES oracle of the expected
    triples (bnode ids are deterministic per document)."""
    from tera_ray.sources.dumps import read_turtle

    d = os.path.join("/tmp", "tera_ray_ttl_parse")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "doc.ttl")
    with open(path, "w") as f:
        f.write(_TTL_PARSE_DOC)
    return read_turtle(path, graph="parse").map_batches(
        lambda t: t.select(["subj", "pred", "obj", "obj_is_literal"]),
        batch_format="pyarrow")


def _ttl_parse_sql() -> str:
    rows = TTL_PARSE_EXPECTED
    # the oracle is the HAND-WRITTEN spec expectation above (also
    # pytest-asserted against the parser in tests/test_sources.py) —
    # independent of the parser, rendered into a VALUES list
    vals = ", ".join(
        "({}, {}, {}, {})".format(
            "'" + s.replace("'", "''") + "'",
            "'" + p.replace("'", "''") + "'",
            "'" + o.replace("'", "''")
                  .replace(chr(10), "' || chr(10) || '") + "'",
            "TRUE" if lit else "FALSE")
        for s, p, o, lit in rows)
    return (f"SELECT * FROM (VALUES {vals})"
            f" t(subj, pred, obj, obj_is_literal)")


def _q_src_rdfxml_roundtrip(sf_dir: str):
    """S3+S6, third dump format (reference rdflib parses/saves RDF/XML,
    `tera/DataAggregation.py:54-62`): division triples → RDF/XML sink
    (one well-formed document per block, XML text/attr escaping, bnode
    nodeIDs, factorized predicate QNames) → RdfXmlParser → rows.
    Oracle = the divisions SQL, so writer and parser must invert
    exactly."""
    import shutil

    from tera_ray.sources.dumps import read_rdfxml
    from tera_ray.sources.sinks import write_rdfxml
    from tera_ray.stages.taxonomy import emit_divisions

    fx = _fx(sf_dir)
    out_dir = os.path.join("/tmp", "tera_ray_rdfxml",
                           os.path.basename(os.path.normpath(fx)))
    shutil.rmtree(out_dir, ignore_errors=True)
    triples = _kg_emit(sf_dir, "divisions", emit_divisions)
    paths = write_rdfxml(triples, out_dir)
    back = read_rdfxml(paths, graph="roundtrip")
    return back.map_batches(
        lambda t: t.select(["subj", "pred", "obj", "obj_is_literal"]),
        batch_format="pyarrow")


_RDFXML_PARSE_DOC = """\
<?xml version="1.0" encoding="utf-8"?>
<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"
         xmlns:ex="http://ex.org/"
         xml:base="http://base.org/">
  <ex:Chemical rdf:about="http://ex.org/water" ex:formula="H2O">
    <ex:label xml:lang="en">water</ex:label>
    <ex:mass rdf:datatype="http://www.w3.org/2001/XMLSchema#double">\
18.015</ex:mass>
    <ex:sameAs rdf:resource=\
"http://purl.obolibrary.org/obo/CHEBI_15377"/>
    <ex:part>
      <rdf:Description rdf:ID="hydrogen">
        <ex:count>2</ex:count>
      </rdf:Description>
    </ex:part>
    <ex:props rdf:parseType="Resource">
      <ex:state>liquid</ex:state>
    </ex:props>
    <ex:tags rdf:parseType="Collection">
      <rdf:Description rdf:about="http://ex.org/solvent"/>
      <rdf:Description rdf:about="http://ex.org/polar"/>
    </ex:tags>
  </ex:Chemical>
  <rdf:Description rdf:nodeID="alpha">
    <rdf:li>first</rdf:li>
    <rdf:li rdf:resource="relative/path"/>
  </rdf:Description>
</rdf:RDF>
"""

#: hand-written spec expectation for ``_RDFXML_PARSE_DOC`` — the oracle
#: side of ``src_rdfxml_parse`` AND the pytest assertion
#: (tests/test_sources.py), independent of the parser
_BASE = "http://base.org/"
RDFXML_PARSE_EXPECTED = [
    (_EX + "water", _RDFNS + "type", _EX + "Chemical", False),
    (_EX + "water", _EX + "formula", "H2O", True),
    (_EX + "water", _EX + "label", "water", True),
    (_EX + "water", _EX + "mass", "18.015", True),
    (_EX + "water", _EX + "sameAs",
     "http://purl.obolibrary.org/obo/CHEBI_15377", False),
    (_BASE + "#hydrogen", _EX + "count", "2", True),
    (_EX + "water", _EX + "part", _BASE + "#hydrogen", False),
    (_EX + "water", _EX + "props", "_:rx1", False),
    ("_:rx1", _EX + "state", "liquid", True),
    (_EX + "water", _EX + "tags", "_:rx2", False),
    ("_:rx2", _RDFNS + "first", _EX + "solvent", False),
    ("_:rx2", _RDFNS + "rest", "_:rx3", False),
    ("_:rx3", _RDFNS + "first", _EX + "polar", False),
    ("_:rx3", _RDFNS + "rest", _RDFNS + "nil", False),
    ("_:alpha", _RDFNS + "_1", "first", True),
    ("_:alpha", _RDFNS + "_2", _BASE + "relative/path", False),
]


def _q_src_rdfxml_parse(sf_dir: str):
    """Full-grammar RDF/XML parse (S3): a fixed document exercising
    typed node elements, property attributes, rdf:about/ID/nodeID,
    xml:base resolution, rdf:resource/datatype, nested node elements,
    parseType Resource/Collection, and rdf:li container numbering —
    against a DuckDB VALUES oracle of the expected triples (fresh
    bnode ids are deterministic ``_:rx{n}`` per document)."""
    from tera_ray.sources.dumps import read_rdfxml

    d = os.path.join("/tmp", "tera_ray_rdfxml_parse")
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "doc.rdf")
    with open(path, "w") as f:
        f.write(_RDFXML_PARSE_DOC)
    return read_rdfxml(path, graph="parse").map_batches(
        lambda t: t.select(["subj", "pred", "obj", "obj_is_literal"]),
        batch_format="pyarrow")


def _rdfxml_parse_sql() -> str:
    vals = ", ".join(
        "({}, {}, {}, {})".format(
            "'" + s.replace("'", "''") + "'",
            "'" + p.replace("'", "''") + "'",
            "'" + o.replace("'", "''") + "'",
            "TRUE" if lit else "FALSE")
        for s, p, o, lit in RDFXML_PARSE_EXPECTED)
    return (f"SELECT * FROM (VALUES {vals})"
            f" t(subj, pred, obj, obj_is_literal)")


def _q_src_csv_roundtrip(sf_dir: str):
    """CSV sink→reader inversion (S1/S2's write-side counterpart —
    the reference's dumps are CSV, so a complete engine must emit
    them too): documents → sharded ``.csv`` under /tmp (Arrow CSV
    writer: minimal quoting, embedded quotes/commas/newlines) →
    ``ray.data.read_csv`` with ``newlines_in_values`` → original
    columns.  Oracle = the documents table itself."""
    import shutil

    import pyarrow.csv as pacsv
    import ray.data

    out_dir = os.path.join("/tmp", "tera_ray_csv",
                           os.path.basename(os.path.normpath(sf_dir)))
    shutil.rmtree(out_dir, ignore_errors=True)
    cols = ["doc_id", "text", "lang", "source", "n_chars"]
    _read(sf_dir, "documents", columns=cols).write_csv(out_dir)
    back = ray.data.read_csv(
        out_dir,
        parse_options=pacsv.ParseOptions(newlines_in_values=True))
    return back.map_batches(lambda t: t.select(cols),
                            batch_format="pyarrow")


def _q_src_jsonl_roundtrip(sf_dir: str):
    """JSONL sink→reader inversion (`tera_ray.sources.jsonl`): the
    documents table → sharded ``.jsonl`` under /tmp → dead-letter
    reader → original columns.  Oracle = the documents table itself, so
    the JSON escape/parse pair must invert exactly (unicode, newlines,
    quotes) and the reader's fast vectorized path must type every
    row; any dead-letter row would break the row-count match."""
    import shutil

    from tera_ray.sources.jsonl import read_jsonl, write_jsonl

    out_dir = os.path.join("/tmp", "tera_ray_jsonl",
                           os.path.basename(os.path.normpath(sf_dir)))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    docs = _read(sf_dir, "documents",
                 columns=["doc_id", "text", "lang", "source", "n_chars"])
    write_jsonl(docs, out_dir)
    back = read_jsonl(out_dir, {"doc_id": pa.int64(), "text": pa.string(),
                                "lang": pa.string(), "source": pa.string(),
                                "n_chars": pa.int64()})
    return back.map_batches(
        lambda t: t.drop_columns(["__error", "__line"]),
        batch_format="pyarrow")


def _q_kg_endpoint_mapping(sf_dir: str):
    """EndpointMapping parity (DataIntegration.py:122-141): owl:sameAs
    triples in a graph → (src, dst, score) mapping Dataset.  The graph
    here is the sameas fixture re-expressed as triples, so the oracle is
    the fixture itself."""
    import ray.data

    from tera_ray.schema import OWL_SAMEAS
    from tera_ray.sources.mappings import endpoint_mapping

    pairs = ray.data.read_parquet(
        os.path.join(_fx(sf_dir), "sameas_pairs.parquet"))

    def to_triples(t):
        return pa.table({
            "subj": t["src"].combine_chunks().cast(pa.string()),
            "pred": pa.array([OWL_SAMEAS] * t.num_rows, pa.string()),
            "obj": t["dst"].combine_chunks().cast(pa.string()),
            "obj_is_literal": pa.array([False] * t.num_rows, pa.bool_()),
            "graph": pa.array(["sameas"] * t.num_rows, pa.string()),
        })

    return endpoint_mapping(pairs.map_batches(to_triples,
                                              batch_format="pyarrow"))


def _tests_triples(sf_dir: str):
    import ray.data

    from tera_ray.stages.base import dedup_triples
    from tera_ray.stages.ecotox import emit_tests

    tests = ray.data.read_parquet(
        os.path.join(_fx(sf_dir), "tests.parquet")).map_batches(
        emit_tests, batch_format="pyarrow", batch_size=EMIT_BATCH)
    return dedup_triples(tests)


def _q_kg_species_list(sf_dir: str):
    from tera_ray.query.kg import list_species

    return list_species(_tests_triples(sf_dir))


def _q_kg_chemicals_list(sf_dir: str):
    from tera_ray.query.kg import list_chemicals

    return list_chemicals(_tests_triples(sf_dir))


_SEMI_SPECIES = [str(100000 + i) for i in range(5)]


def _q_kg_chems_for_species(sf_dir: str):
    import ray.data

    from tera_ray.query.kg import chemicals_from_species
    from tera_ray.stages.base import dedup_triples
    from tera_ray.stages.ecotox import emit_tests

    fx = _fx(sf_dir)
    tests = ray.data.read_parquet(os.path.join(fx, "tests.parquet")).map_batches(
        emit_tests, batch_format="pyarrow", batch_size=EMIT_BATCH)
    triples = dedup_triples(tests)
    return chemicals_from_species(
        triples, [NS + "taxon/" + s for s in _SEMI_SPECIES])


def _q_kg_hier_consensus(sf_dir: str):
    import pyarrow.parquet as pq

    import ray.data

    from tera_ray.schema import NCBI_NS
    from tera_ray.stages.align import hierarchy_consensus_align

    fx = _fx(sf_dir)
    cand = _q_kg_fuzzy_align(sf_dir)
    nodes = pq.read_table(os.path.join(fx, "taxonomy_nodes.parquet"))
    parents_a = pa.table({
        "child": pc.binary_join_element_wise(
            pa.array([NCBI_NS + "taxon/"] * nodes.num_rows), nodes["child"].combine_chunks(), ""),
        "parent": pc.binary_join_element_wise(
            pa.array([NCBI_NS + "taxon/"] * nodes.num_rows), nodes["parent"].combine_chunks(), ""),
    })
    sp = pq.read_table(os.path.join(fx, "species.parquet"),
                       columns=["species_number", "genus"])
    keep = pc.is_valid(sp["genus"].combine_chunks())
    sp = sp.filter(keep)
    parents_b = pa.table({
        "child": pc.binary_join_element_wise(
            pa.array([NS + "taxon/"] * sp.num_rows), sp["species_number"].combine_chunks(), ""),
        "parent": pc.binary_join_element_wise(
            pa.array([NS + "taxon/"] * sp.num_rows), sp["genus"].combine_chunks(), ""),
    })
    return hierarchy_consensus_align(cand, parents_a, parents_b)


# NCBI taxonomy emitters (M5-M7) + query layer (G2-G4) + J1 ----------------

def _ncbi_ns():
    from tera_ray.schema import NCBI_NS

    return NCBI_NS


def _q_kg_ncbi_hierarchy(sf_dir: str):
    from tera_ray.stages.taxonomy import emit_hierarchy

    return _kg_emit(sf_dir, "taxonomy_nodes", emit_hierarchy)


def _q_kg_ncbi_names(sf_dir: str):
    from tera_ray.stages.taxonomy import emit_names

    return _kg_emit(sf_dir, "taxonomy_names", emit_names)


def _q_kg_sparql_service(sf_dir: str):
    """SPARQL 1.1 SERVICE as offline federation (the engine's by-design
    replacement for remote endpoints, like S4): the NCBI hierarchy
    store is the main graph, the names store registers as a SERVICE
    endpoint, and the query joins each taxon's rank edge with its
    scientific name ACROSS the two stores.  Oracle = the SQL join of
    the two emitters' oracles."""
    from tera_ray.query.sparql import (
        register_service,
        sparql_select,
        unregister_service,
    )
    from tera_ray.schema import NCBI_NS

    iri = "http://tera-ray.local/ncbi-names"
    register_service(iri, _q_kg_ncbi_names(sf_dir))
    try:
        q = f"""
            PREFIX ncbi: <{NCBI_NS}>
            SELECT ?t ?r ?name WHERE {{
                ?t ncbi:rank ?r .
                SERVICE <{iri}> {{ ?t ncbi:scientific_name ?name }}
            }}
        """
        return sparql_select(_q_kg_ncbi_hierarchy(sf_dir), q)
    finally:
        # the compiled plan captured the Dataset; the registry entry
        # is only needed during sparql_select's plan construction
        unregister_service(iri)


def _kg_sparql_service_sql(fx: str) -> str:
    from tera_ray.schema import NCBI_NS as NNS

    return f"""
WITH h AS ({_ncbi_hierarchy_sql(fx)}), n AS ({_ncbi_names_sql(fx)})
SELECT h.subj AS t, h.obj AS r, n.obj AS name
FROM h JOIN n ON n.subj = h.subj
WHERE h.pred = '{NNS}rank'
  AND n.pred = '{NNS}scientific_name'
"""


def _q_kg_divisions(sf_dir: str):
    from tera_ray.stages.taxonomy import emit_divisions

    return _kg_emit(sf_dir, "divisions", emit_divisions)


def _q_kg_subgraph(sf_dir: str):
    """G3 BFS closure from one species over the NCBI hierarchy triples."""
    from tera_ray.query.kg import construct_subgraph

    tri = _q_kg_ncbi_hierarchy(sf_dir)
    return construct_subgraph(tri, [_ncbi_ns() + "taxon/900000"])


def _q_kg_closure(sf_dir: str):
    """Full transitive closure with depth over the NCBI subClassOf
    graph — semi-naive iterated hash-join
    (`tera_ray.query.kg.transitive_closure`), recursive-CTE semantics."""
    from tera_ray.query.kg import transitive_closure
    from tera_ray.schema import RDFS_SUBCLASSOF as SUB

    tri = _q_kg_ncbi_hierarchy(sf_dir)
    edges = tri.map_batches(
        lambda t: pa.table({
            "src": t.filter(pc.equal(t["pred"], SUB))["subj"],
            "dst": t.filter(pc.equal(t["pred"], SUB))["obj"]}),
        batch_format="pyarrow")
    return transitive_closure(edges)


def _q_kg_siblings(sf_dir: str):
    """G4 k-hop (up=1, down=1 ⇒ siblings) along subClassOf."""
    from tera_ray.query.kg import khop_related
    from tera_ray.schema import RDFS_SUBCLASSOF as SUB

    tri = _q_kg_ncbi_hierarchy(sf_dir)
    return khop_related(tri, _ncbi_ns() + "taxon/950000", SUB, up=1, down=1)


def _q_kg_alt_labels(sf_dir: str):
    """G2: labels reachable via the subPropertyOf-of-rdfs:label closure."""
    from tera_ray.query.kg import query_alt_labels

    tri = _q_kg_ncbi_names(sf_dir)
    return query_alt_labels(tri, _ncbi_ns() + "taxon/900000")


def _q_kg_convert_id(sf_dir: str):
    """J1 multi-hop id pivot: compose the sameAs mapping with itself
    (x→y ∘ y→z ⇒ x→z, min score)."""
    import ray.data

    from tera_ray.state.mapping import compose

    m = ray.data.read_parquet(os.path.join(_fx(sf_dir), "sameas_pairs.parquet"))
    return compose(m, m)


def _q_kg_ranks(sf_dir: str):
    """``get_ranks`` (``tera/DataAccess.py:418-425``): all rank nodes —
    entities of ``rdf:type ncbi:Rank`` over the NCBI hierarchy store,
    distributed distinct."""
    from tera_ray.query.kg import entities_of_type

    return entities_of_type(_q_kg_ncbi_hierarchy(sf_dir), _ncbi_ns() + "Rank")


def _q_kg_rank_taxa(sf_dir: str):
    """``get_rank(t)`` (``tera/DataAccess.py:427-441``; the reference
    calls a nonexistent ``query_subclassof`` — broken there, implemented
    to documented intent): all taxa whose ``ncbi:rank`` is the species
    rank node."""
    from tera_ray.query.kg import subjects_with

    return subjects_with(_q_kg_ncbi_hierarchy(sf_dir), _ncbi_ns() + "rank",
                         _ncbi_ns() + "rank/species")


def _q_kg_ssd_members(sf_dir: str):
    """``get_ssd(t)`` / ``get_division(t)``
    (``tera/DataAccess.py:389-416``, both call the nonexistent
    ``query_subclassof``): direct ``rdfs:subClassOf`` members of a group
    node — here the NCBI root's genus children."""
    from tera_ray.query.kg import subjects_with
    from tera_ray.schema import RDFS_SUBCLASSOF as SUB

    return subjects_with(_q_kg_ncbi_hierarchy(sf_dir), SUB,
                         _ncbi_ns() + "taxon/990000")


def _q_kg_which_features(sf_dir: str):
    """``which_features`` (``tera/DataAccess.py:595-614``): the
    DISTINCT predicate inventory of one chemical node (the store's
    honest equivalent of the reference's static pubchempy property
    list)."""
    from tera_ray.query.kg import which_features

    return which_features(_q_kg_chemicals(sf_dir), NS + "cas/50000")


def _q_kg_chemical_names(sf_dir: str):
    """``query_chemical_names`` (``tera/DataAccess.py:802-816``, calls
    the nonexistent ``query_labels``): (chemical, name) rdfs:label
    pairs for every ``ns:Chemical``-typed subject — label×type
    hash-join, no driver materialization."""
    from tera_ray.query.kg import chemical_names

    return chemical_names(_q_kg_chemicals(sf_dir), ns=NS)


def _q_kg_class_hierarchy(sf_dir: str):
    """``class_hierarchy`` (``tera/DataAccess.py:529-553``): union of
    subgraph closures from two seed URIs (the reference unions the
    compound- and mesh-converted seeds of one id) — one multi-source
    BFS over the NCBI hierarchy."""
    from tera_ray.query.kg import class_hierarchy

    return class_hierarchy(
        _q_kg_ncbi_hierarchy(sf_dir),
        [_ncbi_ns() + "taxon/900000", _ncbi_ns() + "taxon/900004"])


def _q_docs_ngram_jaccard(sf_dir: str):
    from tera_ray.dedup.ngram import ngram_jaccard_pairs

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ngram_jaccard_pairs(ds, threshold=0.5)


def _q_ann_ivf(sf_dir: str):
    """IVF ANN with every list probed (exact ⇒ oracle-checkable; lower
    ``nprobe`` is the approximate scale path, recall-tested in pytest)."""
    import pyarrow.parquet as pq

    from tera_ray.ann.search import ivf_topk

    path = os.path.join(sf_dir, "embeddings.parquet")
    qt = pq.read_table(path, columns=["vec_id", "embedding"])
    keep = pc.is_in(qt["vec_id"], value_set=pa.array([0, 1, 2], pa.int64()))
    qt = qt.filter(keep)
    Q = np.asarray(qt["embedding"].to_pylist(), np.float64)
    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = ivf_topk(ds, qids=qt["vec_id"].to_pylist(), Q=Q, k=10,
                   n_centroids=8, nprobe=8, dtype=np.float64)
    return out.map_batches(lambda t: t.select(["query_id", "vec_id", "rank"]),
                           batch_format="pyarrow")


def _q_emb_knn_join(sf_dir: str):
    """kNN SELF-join: every row's top-5 cosine neighbors
    (`tera_ray.ann.search.knn_join`).  Both roles flow through ONE
    IVF-list-keyed shuffle ((1+nprobe)×N vector rows, never a broadcast
    query matrix and never N²); nprobe == n_lists here makes the join
    exact ⇒ oracle-checkable, and pytest covers the approximate
    partial-probe scale path's recall."""
    from tera_ray.ann.search import knn_join

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = knn_join(ds, k=5, n_lists=4, nprobe=4, dtype=np.float64)
    return out.map_batches(lambda t: t.select(["query_id", "vec_id", "rank"]),
                           batch_format="pyarrow")


def _q_results_normalized(sf_dir: str):
    """F1+F2 judged: normalize result concentrations to mg/L.  Distinct
    unit strings are parsed/converted ONCE (`unit_parser` +
    `unit_conversion`, `tera/utils.py:52-203` semantics) and the factor
    table is broadcast-joined back — never per-row parsing (SURVEY §2.3
    'distinct-then-join').  Dimensionally-incompatible units (molar,
    mass/mass) get a null factor."""
    import ray.data

    from tera_ray.cleaning import clean_table
    from tera_ray.query.relational import broadcast_join, distinct_values
    from tera_ray.units import unit_conversion, unit_parser

    ds = ray.data.read_parquet(
        os.path.join(_fx(sf_dir), "results.parquet"),
        columns=["test_id", "conc1_mean", "conc1_unit"])

    def prep(t: pa.Table) -> pa.Table:
        b = clean_table(t)
        digits = pc.replace_substring_regex(
            b["conc1_mean"].combine_chunks(), r"\D", "")
        out = pa.table({"test_id": b["test_id"], "conc_value": digits,
                        "conc_unit": b["conc1_unit"]})
        return out.filter(pc.greater(pc.utf8_length(digits), 0))

    ds = ds.map_batches(prep, batch_format="pyarrow", batch_size=EMIT_BATCH)
    units = sorted(r["conc_unit"]
                   for r in distinct_values(ds, "conc_unit").take_all())
    target = unit_parser("mg/L")
    factors = []
    for u in units:
        try:
            factors.append(float(unit_conversion(unit_parser(u), target)))
        except (AssertionError, ZeroDivisionError, ValueError):
            factors.append(None)
    small = pa.table({"conc_unit": pa.array(units, pa.string()),
                      "factor": pa.array(factors, pa.float64())})
    joined = broadcast_join(ds, small, "conc_unit", "conc_unit",
                            how="left outer")

    def fin(t: pa.Table) -> pa.Table:
        val = t["conc_value"].combine_chunks().cast(pa.float64())
        return pa.table({
            "test_id": t["test_id"], "conc_value": t["conc_value"],
            "conc_unit": t["conc_unit"],
            "conc_mg_l": pc.multiply(val, t["factor"].combine_chunks()),
        })

    return joined.map_batches(fin, batch_format="pyarrow")


_Q3_CUTOFF = "1998-06-15"


def _q_shipping_priority(sf_dir: str):
    """TPC-H-Q3-style 3-table join: BUILDING-segment customers'
    pre-cutoff orders x post-cutoff lineitems -> top-10 orders by
    revenue.  Dimension side (customer ⋈ orders, filtered) broadcasts;
    the fact scan joins map-side; one combiner groupby; one distributed
    sort + limit."""
    import datetime

    import pyarrow.parquet as pq

    from tera_ray.query.relational import broadcast_join, grouped_agg

    cutoff = datetime.datetime.fromisoformat(_Q3_CUTOFF)
    orders = pq.read_table(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"])
    orders = orders.filter(pc.less(orders["o_orderdate"], cutoff))
    cust = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                         columns=["c_custkey", "c_mktsegment"])
    cust = cust.filter(pc.equal(cust["c_mktsegment"], "BUILDING"))
    dim = orders.join(cust, keys=["o_custkey"], right_keys=["c_custkey"],
                      join_type="inner").select(["o_orderkey", "o_orderdate"])

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount",
                        "l_shipdate"])
    li = li.map_batches(
        lambda t: t.filter(pc.greater(t["l_shipdate"], cutoff)),
        batch_format="pyarrow")
    j = broadcast_join(li, dim, "l_orderkey", "o_orderkey")

    def derive(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t["l_orderkey"],
            "o_orderdate": t["o_orderdate"],
            "cents": _cents(t["l_extendedprice"], t["l_discount"]),
        })

    agg = grouped_agg(j.map_batches(derive, batch_format="pyarrow"),
                      ["o_orderkey", "o_orderdate"],
                      [("cents", "sum", "revenue_cents")])
    out = agg.sort(["revenue_cents", "o_orderkey"],
                   descending=[True, False]).limit(10)
    return _collect(out)


_SESSION_GAP_US = 30 * 60 * 1_000_000  # 30-minute inactivity gap


def _q_events_sessionized(sf_dir: str):
    """Gap-based session windows over the events stream (engine-first
    windowed aggregate; one hash-bucket shuffle, vectorized window)."""
    from tera_ray.query.relational import sessionize

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id"])
    return sessionize(ds, "user_id", "ts", _SESSION_GAP_US,
                      tiebreak=["event_id"])


_TRAIT_LOOKUP_PRED = "http://eol.org/schema/terms/Habitat"


def _q_kg_trait_lookup(sf_dir: str):
    """G5 point lookup: all (page, habitat) pairs via a predicate-constant
    filter over the EOL trait triples (``TraitsAPI`` getters,
    ``tera/DataAccess.py:681-779``)."""
    from tera_ray.query.kg import filter_pred
    from tera_ray.stages.traits import emit_traits

    tri = _kg_emit(sf_dir, "traits", emit_traits)
    return filter_pred(tri, _TRAIT_LOOKUP_PRED)


def _q_media_features(sf_dir: str):
    """Multimodal plumbing (rows-only): synthetic binary image payloads →
    actor-pool decode stage → per-image feature scalars."""
    import ray.data

    from tera_ray.multimodal.media import decode_images, synthetic_media

    ds = ray.data.from_arrow(synthetic_media(200))
    out = decode_images(ds, out_size=16, concurrency=(1, 4))
    return out.map_batches(
        lambda t: t.select(["media_id", "px_mean", "px_std"]),
        batch_format="pyarrow")


def _q_media_frames(sf_dir: str):
    """Video frame sampling (rows-only): k evenly-spaced frames per
    synthetic clip through the actor-pool decode; returns one row per
    (clip, frame) with tensor summary scalars."""
    import numpy as np

    import ray.data

    from tera_ray.multimodal.media import sample_frames, synthetic_media

    ds = ray.data.from_arrow(synthetic_media(100, kind="video"))
    out = sample_frames(ds, num_frames=4, out_size=8, concurrency=(1, 4))

    def summarize(t):
        px = t["pixels"]
        if isinstance(px, pa.ChunkedArray):
            px = px.combine_chunks()
        v = px.values.to_numpy(zero_copy_only=False).reshape(len(px), -1)
        return pa.table({
            "media_id": t["media_id"], "frame_idx": t["frame_idx"],
            "px_mean": pa.array(v.mean(axis=1)),
        })

    return out.map_batches(summarize, batch_format="pyarrow")


def _q_media_audio(sf_dir: str):
    """Audio feature extraction (rows-only): per-clip windowed RMS
    energies through the actor pool."""
    import ray.data

    from tera_ray.multimodal.media import extract_audio_features, synthetic_media

    ds = ray.data.from_arrow(synthetic_media(100, kind="audio"))
    out = extract_audio_features(ds, concurrency=(1, 4))
    return out.map_batches(
        lambda t: t.select(["media_id", "n_windows", "rms_mean"]),
        batch_format="pyarrow")


def _media_fixture() -> str:
    """Mixed-kind media fixture parquet (deterministic, incl. corrupted
    rows) — written once so ``media_validate``'s SQL oracle reads the
    identical bytes the Ray query streams."""
    import pyarrow.parquet as _pq

    path = "/tmp/tera_ray_fixtures/media_mixed_117.parquet"
    if not os.path.exists(path):
        from tera_ray.multimodal.media import synthetic_media_mixed

        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        _pq.write_table(synthetic_media_mixed(117), tmp)
        os.replace(tmp, path)
    return path


FX_MEDIA = _media_fixture()


def _q_media_validate(sf_dir: str):
    """Metadata dead-letter gate (`tera_ray.multimodal.media.validate_media`):
    vectorized validity checks over a heterogeneous media table — first
    failing reason per row, payload bytes untouched.  Fully oracled
    (the one SQL-expressible slice of the media family)."""
    import ray.data

    from tera_ray.multimodal.media import validate_media

    return validate_media(ray.data.read_parquet(FX_MEDIA))


def _q_media_dispatch(sf_dir: str):
    """Per-format dispatch (rows-only): validate → map-side gate →
    ONE actor-pool pass routing image/audio/video slices to their
    decode stages under a common fixed-width output schema."""
    import ray.data

    from tera_ray.multimodal.media import dispatch_media, filter_valid_media

    out = dispatch_media(filter_valid_media(ray.data.read_parquet(FX_MEDIA)))
    return out.map_batches(
        lambda t: t.select(["media_id", "kind", "n_units"]),
        batch_format="pyarrow")


def _q_dq_orders_checks(sf_dir: str):
    """Declarative data-quality constraint suite (Deequ-style;
    ``tera_ray/quality/checks.py``): six constraints over orders —
    null-freedom, numeric range, set membership, regex shape, key
    uniqueness (exact-dedup shuffle) and referential integrity against
    customer (bucketed composite-key anti-join) — evaluated in ONE
    streaming union where only scalar counters reach the driver."""
    from tera_ray.quality import (foreign_key, in_range, in_set, matches,
                                  not_null, run_checks, unique)

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderstatus",
                            "o_totalprice", "o_orderpriority"])
    customer = _read(sf_dir, "customer", columns=["c_custkey"])
    return run_checks(orders, [
        not_null("o_custkey"),
        in_range("o_totalprice", 0, 450000),
        in_set("o_orderstatus", ["O", "F"]),
        matches("o_orderpriority", r"^[1-5]-"),
        unique("o_orderkey"),
        foreign_key(["o_custkey"], customer, ["c_custkey"]),
    ])


def _q_dq_approx_unique(sf_dir: str):
    """Sketch-backed key-uniqueness constraints: ``approx_unique``
    rides the engine's deterministic HLL (``tera_ray/sketch/hll.py``,
    FNV-1a + xorshift mix, p=14) inside ``run_checks``' single
    streaming union — per-batch register partials fold by max, no
    dedup shuffle, the 100 TB shape for monitoring key health.  Two
    checks: o_orderkey (a true key → passes within the 3% tolerance)
    and o_custkey (massively duplicated → fails).  Deterministic
    hashing makes violations/frac/passed SQL-bit-reproducible."""
    from tera_ray.quality import approx_unique, run_checks

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    return run_checks(orders, [
        approx_unique("o_orderkey", tol=0.03),
        approx_unique("o_custkey", tol=0.03),
    ])


def _q_dq_approx_fk(sf_dir: str):
    """Bloom-backed referential-integrity monitor
    (``quality.approx_foreign_key``): the referenced keys fold into a
    2^16-bit filter (OR-merged partials, broadcast once); orders rows
    are probed MAP-SIDE and definite orphans counted — no anti-join
    shuffle, the 100 TB monitoring shape.  The ref side is customer
    restricted to EVEN custkeys so odd-key orders are true orphans at
    every scale.  Deterministic FNV double hashing makes filter
    contents and the violation count SQL-bit-reproducible."""
    import pyarrow.compute as pc

    from tera_ray.quality import approx_foreign_key, run_checks

    orders = _read(sf_dir, "orders", columns=["o_custkey"])
    customer = _read(sf_dir, "customer", columns=["c_custkey"])
    even = customer.map_batches(
        lambda t: t.filter(pc.equal(
            pc.bit_wise_and(t["c_custkey"], pa.scalar(1, pa.int64())),
            pa.scalar(0, pa.int64()))),
        batch_format="pyarrow")
    return run_checks(orders, [
        approx_foreign_key(["o_custkey"], even, ["c_custkey"],
                           num_bits=1 << 16, num_hashes=4),
    ])


def _q_docs_drift_psi(sf_dir: str):
    """Distribution-drift monitor: Population Stability Index of the
    document-length distribution between the deterministic train and
    test splits (same salted-FNV split as ``docs_split``), fixed bin
    edges, Laplace-smoothed per-bin terms
    (``tera_ray.quality.histogram_psi`` — per-(split,bin) count
    partials through the grouped combiner; rows never leave workers)."""
    from tera_ray.quality import histogram_psi
    from tera_ray.text.curation import deterministic_split

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    split = ds.map_batches(deterministic_split, batch_format="pyarrow")
    return histogram_psi(split, "split", "n_chars",
                         [150, 250, 350, 450], base="train", cmp="test")


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # --- driver-oracle window: first 50 entries, all SQL-oracled ---
        # Front-loads the flagship kg_*/emb_* pipelines so the driver's
        # first-50 correctness sample re-oracles them every round
        # (VERDICT r4 item 1). No no_oracle entries in this window.
        "kg_build_structural": _q_kg_build_structural,
        "kg_canonical_structural": _q_kg_canonical_structural,
        "kg_incremental_structural": _q_kg_incremental_structural,
        "kg_endpoint_star": _q_kg_star,
        "kg_conversations": _q_kg_conversations,
        "kg_unionfind": _q_kg_unionfind,
        "kg_bgp_match": _q_kg_bgp_match,
        "kg_synonym_triples": _q_kg_synonyms,
        "kg_traits_triples": _q_kg_traits,
        "kg_term_labels": _q_kg_term_labels,
        "kg_eol_subclasses": _q_kg_eol_subclasses,
        "kg_taxa_triples": _q_kg_taxa,
        "kg_chemical_triples": _q_kg_chemicals,
        "kg_hierarchy_triples": _q_kg_hierarchy,
        "kg_ncbi_hierarchy": _q_kg_ncbi_hierarchy,
        "kg_ncbi_names": _q_kg_ncbi_names,
        "kg_divisions": _q_kg_divisions,
        "kg_fuzzy_align": _q_kg_fuzzy_align,
        "kg_hier_consensus": _q_kg_hier_consensus,
        "kg_endpoint_mapping": _q_kg_endpoint_mapping,
        "kg_convert_id": _q_kg_convert_id,
        "kg_subgraph": _q_kg_subgraph,
        "kg_siblings": _q_kg_siblings,
        "kg_closure": _q_kg_closure,
        "kg_alt_labels": _q_kg_alt_labels,
        "kg_chems_for_species": _q_kg_chems_for_species,
        "kg_species_list": _q_kg_species_list,
        "kg_chemicals_list": _q_kg_chemicals_list,
        "kg_trait_lookup": _q_kg_trait_lookup,
        "kg_ranks": _q_kg_ranks,
        "kg_rank_taxa": _q_kg_rank_taxa,
        "kg_ssd_members": _q_kg_ssd_members,
        "kg_which_features": _q_kg_which_features,
        "kg_chemical_names": _q_kg_chemical_names,
        "kg_class_hierarchy": _q_kg_class_hierarchy,
        "kg_sparql_star": _q_kg_sparql_star,
        "kg_sparql_compounds": _q_kg_sparql_compounds,
        "kg_sparql_agg": _q_kg_sparql_agg,
        "kg_sparql_union": _q_kg_sparql_union,
        "kg_sparql_path": _q_kg_sparql_path,
        "kg_sparql_group_concat": _q_kg_sparql_group_concat,
        "kg_sparql_construct": _q_kg_sparql_construct,
        "kg_sparql_subquery": _q_kg_sparql_subquery,
        "kg_sparql_nested_optional": _q_kg_sparql_nested_optional,
        "kg_sparql_optional_filter": _q_kg_sparql_optional_filter,
        "emb_cosine_dups": _q_emb_cosine_dups,
        "emb_knn_join": _q_emb_knn_join,
        "chem_tanimoto": _q_chem_tanimoto,
        "docs_logreg_partials": _q_docs_logreg_partials,
        "docs_bpe_pair_counts": _q_docs_bpe_pair_counts,
        # --- remaining entries (driver checks rows-only / not sampled) ---
        "emb_semdedup": _q_emb_semdedup,
        "emb_kmeans_assign": _q_emb_kmeans_assign,
        "emb_kmeans_iter": _q_emb_kmeans_iter,
        "emb_quantize": _q_emb_quantize,
        "emb_dim_stats": _q_emb_dim_stats,
        "ann_topk": _q_ann_topk,
        "chem_enrich": _q_chem_enrich,
        "ann_ivf_topk": _q_ann_ivf,
        "docs_dedup_exact": _q_docs_dedup_exact,
        "docs_line_dedup": _q_docs_line_dedup,
        "docs_union_by_name": _q_docs_union_by_name,
        "docs_quality_model": _q_docs_quality_model,
        "docs_hash_embed": _q_docs_hash_embed,
        "docs_embed_cluster": _q_docs_embed_cluster,
        "docs_hot_lines": _q_docs_hot_lines,
        "orders_upsert": _q_orders_upsert,
        "docs_token_stats": _q_docs_token_stats,
        "docs_lang_counts": _q_docs_lang_counts,
        "orders_top1_per_customer": _q_orders_top1,
        "orders_top100": _q_orders_top100,
        "revenue_by_segment": _q_revenue_by_segment,
        "building_suppliers": _q_building_suppliers,
        "pricing_summary": _q_pricing_summary,
        "lineitem_price_stats": _q_lineitem_price_stats,
        "orders_rollup": _q_orders_rollup,
        "custkeys_intersect": _q_custkeys_intersect,
        "custkeys_except": _q_custkeys_except,
        "orders_pivot": _q_orders_pivot,
        "parts_triangles": _q_parts_triangles,
        "orders_cube": _q_orders_cube,
        "docs_top_tokens": _q_docs_top_tokens,
        "parts_pagerank": _q_parts_pagerank,
        "docs_tfidf_top3": _q_docs_tfidf_top3,
        "events_props_sum": _q_events_props_sum,
        "events_hll_users": _q_events_hll_users,
        "events_cms_counts": _q_events_cms_counts,
        "orders_by_month": _q_orders_by_month,
        "custkey_orderkeys": _q_custkey_orderkeys,
        "priority_distinct_parts": _q_priority_distinct_parts,
        "lineitem_unpivot": _q_lineitem_unpivot,
        "events_sessions": _q_events_sessions,
        "docs_bpe_merges": _q_docs_bpe_merges,
        "docs_quality": _q_docs_quality,
        "docs_quality_stats": _q_docs_quality_stats,
        "events_tumbling": _q_events_tumbling,
        "events_asof_view": _q_events_asof_view,
        "events_attribution": _q_events_attribution,
        "events_salted_join": _q_events_salted_join,
        "events_sliding": _q_events_sliding,
        "lineitem_quantiles": _q_lineitem_quantiles,
        "lineitem_window": _q_lineitem_window,
        "orders_rank": _q_orders_rank,
        "orders_top3_per_customer": _q_orders_top3,
        "customers_no_urgent": _q_customers_no_urgent,
        "orders_building_semi": _q_orders_building_semi,
        "lineitem_bloom_semi": _q_lineitem_bloom_semi,
        "events_heavy_users": _q_events_heavy_users,
        "lineitem_orders_join": _q_lineitem_orders_join,
        "emb_label_centroids": _q_emb_label_centroids,
        "emb_pca": _q_emb_pca,
        "docs_postings": _q_docs_postings,
        "docs_keyword_tags": _q_docs_keyword_tags,
        "lineitem_zscore": _q_lineitem_zscore,
        "events_mad_outliers": _q_events_mad_outliers,
        "lineitem_winsorize": _q_lineitem_winsorize,
        "docs_bool_search": _q_docs_bool_search,
        "docs_bm25_topk": _q_docs_bm25,
        "docs_dup_spans": _q_docs_dup_spans,
        "docs_pack_chunks": _q_docs_pack_chunks,
        "nation_revenue": _q_nation_revenue,
        "orders_customer_left": _q_orders_customer_left,
        "customer_urgent_full": _q_customer_urgent_full,
        "orders_priority_quantiles": _q_orders_priority_quantiles,
        "docs_fingerprint": _q_docs_fingerprint,
        "docs_pii_scrub": _q_docs_pii_scrub,
        "docs_split": _q_docs_split,
        "docs_sample": _q_docs_sample,
        "dq_orders_checks": _q_dq_orders_checks,
        "dq_approx_unique": _q_dq_approx_unique,
        "dq_approx_fk": _q_dq_approx_fk,
        "docs_drift_psi": _q_docs_drift_psi,
        "docs_source_cap": _q_docs_source_cap,
        "docs_mix": _q_docs_mix,
        "docs_shuffle_shards": _q_docs_shuffle_shards,
        "docs_incremental_dedup": _q_docs_incremental,
        "docs_leakage_split": _q_docs_leakage_split,
        "docs_weighted_sample": _q_docs_weighted_sample,
        "docs_dup_rate": _q_docs_dup_rate,
        "conv_role_stats": _q_conv_role_stats,
        "docs_chunk_windows": _q_docs_chunk_windows,
        "events_fill_forward": _q_events_fill_forward,
        "events_rolling": _q_events_rolling,
        "events_time_weighted": _q_events_time_weighted,
        "source_top_tokens": _q_source_top_tokens,
        "events_interarrival": _q_events_interarrival,
        "lang_quality_means": _q_lang_quality_means,
        "lineitem_corr": _q_lineitem_corr,
        "events_hll_per_type": _q_events_hll_per_type,
        "lineitem_mode": _q_lineitem_mode,
        "conv_training_examples": _q_conv_training_examples,
        "returned_revenue": _q_returned_revenue,
        "orders_profile": _q_orders_profile,
        "events_skew_stats": _q_events_skew_stats,
        "docs_token_ids": _q_docs_token_ids,
        "docs_length_band": _q_docs_length_band,
        "source_len_quantiles": _q_source_len_quantiles,
        "docs_bigram_fluency": _q_docs_bigram_fluency,
        "events_funnel": _q_events_funnel,
        "events_retention": _q_events_retention,
        "lineitem_hist_quantiles": _q_lineitem_hist_quantiles,
        "docs_contamination": _q_docs_contamination,
        "docs_repetition": _q_docs_repetition,
        "docs_url_domains": _q_docs_url_domains,
        "docs_minhash_dedup": _q_docs_minhash,
        "docs_simhash_pairs": _q_docs_simhash,
        "kg_sparql_star_path": _q_kg_sparql_star_path,
        "kg_sparql_zero_or_one": _q_kg_sparql_zero_or_one,
        "kg_sparql_negated": _q_kg_sparql_negated,
        "kg_sparql_update": _q_kg_sparql_update,
        "kg_sparql_graph_var": _q_kg_sparql_graph_var,
        "kg_sparql_graph": _q_kg_sparql_graph,
        "kg_sparql_ask": _q_kg_sparql_ask,
        "kg_sparql_describe": _q_kg_sparql_describe,
        "kg_sparql_bind": _q_kg_sparql_bind,
        "kg_sparql_minus": _q_kg_sparql_minus,
        "kg_sparql_values_undef": _q_kg_sparql_values_undef,
        "kg_sparql_seq_path": _q_kg_sparql_seq_path,
        "kg_sparql_having": _q_kg_sparql_having,
        "kg_build": _q_kg_build,
        "kg_build_checkpointed": _q_kg_build_checkpointed,
        "kg_linking_pr": _q_kg_linking_pr,
        "kg_linking_pr_hard": _q_kg_linking_pr_hard,
        "kg_incremental": _q_kg_incremental,
        "kg_shard_registry": _q_kg_shard_registry,
        "kg_align_pr": _q_kg_align_pr,
        "kg_compaction": _q_kg_compaction,
        "kg_lineage": _q_kg_lineage,
        "kg_canonical_build": _q_kg_canonical,
        "src_pipe_roundtrip": _q_src_pipe_roundtrip,
        "src_nt_roundtrip": _q_src_nt_roundtrip,
        "src_ttl_roundtrip": _q_src_ttl_roundtrip,
        "src_ttl_parse": _q_src_ttl_parse,
        "src_rdfxml_roundtrip": _q_src_rdfxml_roundtrip,
        "src_rdfxml_parse": _q_src_rdfxml_parse,
        "src_jsonl_roundtrip": _q_src_jsonl_roundtrip,
        "src_csv_roundtrip": _q_src_csv_roundtrip,
        "kg_sparql_service": _q_kg_sparql_service,
        "kg_sparql_select_expr": _q_kg_sparql_select_expr,
        "kg_sparql_arith": _q_kg_sparql_arith,
        "docs_ngram_jaccard": _q_docs_ngram_jaccard,
        "media_features": _q_media_features,
        "media_frames": _q_media_frames,
        "media_audio": _q_media_audio,
        "media_validate": _q_media_validate,
        "media_dispatch": _q_media_dispatch,
        "results_normalized": _q_results_normalized,
        "events_sessionized": _q_events_sessionized,
        "shipping_priority": _q_shipping_priority,
    }


# --------------------------------------------------------------------------
# DuckDB oracles
# --------------------------------------------------------------------------

def _sq(s: str) -> str:
    return s.replace("'", "''")


# URL-shape regex mirroring tera_ray.stages.traits._URL_RE
_URL_SQL = r"^https?://[^\s/$.?#][^\s]*$"


def _sent(col: str) -> str:
    """Sentinel-nullify expression mirroring cleaning.nullify_sentinels."""
    vals = ", ".join(f"'{v}'" for v in NAN_VALUES)
    return f"(CASE WHEN {col} IN ({vals}) THEN NULL ELSE trim({col}) END)"


def _hierarchy_sql(fx: str) -> str:
    from tera_ray.stages.ecotox import ECOTOX_LINEAGE_COLS, _RANK_FOR_COL

    sents = ", ".join(f"'{v}'" for v in NAN_VALUES)

    def scrub(c):
        # quoted ("class" is reserved), VARCHAR-cast (all-null columns
        # read back as non-string), sentinel-nullified, \W-scrubbed —
        # the emitter runs with strip=False, so no trim here
        q = f'"{c}"::VARCHAR'
        return (f"regexp_replace(CASE WHEN {q} IN ({sents}) THEN NULL"
                f" ELSE {q} END, '\\W', '', 'g')")

    rank_case = "CASE " + " ".join(
        f"WHEN {scrub(c)} IS NOT NULL THEN '{r}'"
        for c, r in zip(ECOTOX_LINEAGE_COLS, _RANK_FOR_COL)
    ) + " ELSE 'phylum_division' END"
    base = (f"SELECT {scrub('species_number')} AS sn, "
            + ", ".join(f'{scrub(c)} AS "{c}"' for c in ECOTOX_LINEAGE_COLS)
            + f", {rank_case} AS rnk"
            f" FROM read_parquet('{fx}/species.parquet')"
            f" WHERE {scrub('species_number')} IS NOT NULL")
    s_uri = f"'{NS}taxon/'||sn"
    rank_uri = f"'{NS}rank/'||rnk"
    parts = [
        f"SELECT {rank_uri} AS subj, '{RDF_TYPE}' AS pred, '{NS}Rank' AS obj,"
        f" FALSE AS obj_is_literal, 'ecotox_taxonomy' AS graph FROM b",
        f"SELECT {s_uri}, '{NS}rank', {rank_uri}, FALSE, 'ecotox_taxonomy' FROM b",
    ]
    for j, c in enumerate(ECOTOX_LINEAGE_COLS):
        left = [f"'{NS}taxon/'||\"{ECOTOX_LINEAGE_COLS[i]}\""
                for i in range(j - 1, -1, -1)]
        child = ("COALESCE(" + ", ".join(left + [s_uri]) + ")") if left else s_uri
        parent = f"'{NS}taxon/'||\"{c}\""
        parts.append(
            f"SELECT {child}, '{RDF_TYPE}', {parent}, FALSE, 'ecotox_taxonomy'"
            f" FROM b WHERE \"{c}\" IS NOT NULL AND rnk = 'species'")
        parts.append(
            f"SELECT {child}, '{RDFS_SUBCLASSOF}', {parent}, FALSE,"
            f" 'ecotox_taxonomy' FROM b WHERE \"{c}\" IS NOT NULL"
            f" AND rnk <> 'species'")
    return f"WITH b AS ({base}) " + " UNION ALL ".join(parts)


def _star_sql(fx: str) -> str:
    sents = ", ".join(f"'{v}'" for v in NAN_VALUES)
    return f"""
WITH t AS (
  SELECT trim(test_id) AS test_id, trim(test_cas) AS test_cas,
         trim(species_number) AS species_number
  FROM read_parquet('{fx}/tests.parquet')
  WHERE test_id NOT IN ({sents}) AND test_cas NOT IN ({sents})
    AND species_number NOT IN ({sents})
), sd AS (
  -- OPTIONAL studyDuration tuple: bound only when value AND unit both
  -- emit (DataAccess.py:977-994).  The unit map holds the fixture's
  -- closed duration vocabulary with its public QUDT names — fixed
  -- physical-unit constants, independent of the engine's unit_parser.
  SELECT trim(s.test_id) AS test_id, trim(s.study_duration_mean) AS sd,
         'http://qudt.org/vocab/unit#'||m.u AS sd_unit
  FROM read_parquet('{fx}/tests.parquet') s
  JOIN (VALUES ('h', 'Hour'), ('d', 'Day'), ('w', 'Week')) m(k, u)
    ON trim(s.study_duration_unit) = m.k
  WHERE s.test_id NOT IN ({sents}) AND s.test_cas NOT IN ({sents})
    AND s.species_number NOT IN ({sents})
    AND s.study_duration_mean NOT IN ({sents})
    AND s.study_duration_mean IS NOT NULL
), r AS (
  SELECT trim(test_id) AS test_id, trim(endpoint) AS endpoint,
         trim(conc1_mean) AS conc1_mean, trim(effect) AS effect
  FROM read_parquet('{fx}/results.parquet')
  WHERE test_id NOT IN ({sents}) AND endpoint NOT IN ({sents})
    AND conc1_mean NOT IN ({sents}) AND conc1_unit NOT IN ({sents})
    AND effect NOT IN ({sents})
    AND length(regexp_replace(conc1_mean, '\\D', '', 'g')) > 0
)
SELECT DISTINCT '{NS}cas/'||t.test_cas AS chemical,
       '{NS}taxon/'||t.species_number AS species,
       regexp_replace(r.conc1_mean, '\\D', '', 'g') AS conc_value,
       '{NS}endpoint/'||r.endpoint AS endpoint,
       '{NS}effect/'||r.effect AS effect,
       sd.sd AS sd, sd.sd_unit AS sd_unit
FROM r JOIN t USING (test_id) LEFT JOIN sd ON sd.test_id = t.test_id
"""


def _sparql_nested_optional_sql(fx: str) -> str:
    """Oracle for kg_sparql_nested_optional: the depth-3 OPTIONAL chain
    as a DuckDB LEFT-JOIN chain.  Result-BNode identity is the full
    cleaned-row key (emit_results); the concentration value binds only
    when digit-filtering leaves something; the unit binds only when the
    value binds (fixture's closed unit vocabulary, all parseable —
    mapped by the same fixed physical-unit constants as _star_sql)."""
    sents = ", ".join(f"'{v}'" for v in NAN_VALUES)
    return f"""
WITH t AS (
  SELECT DISTINCT trim(test_id) AS test_id
  FROM read_parquet('{fx}/tests.parquet')
  WHERE test_id NOT IN ({sents}) AND test_cas NOT IN ({sents})
    AND species_number NOT IN ({sents})
), r AS (
  SELECT DISTINCT trim(test_id) AS test_id, trim(endpoint) AS ep,
         trim(effect) AS ef, trim(conc1_mean) AS cm,
         trim(conc1_unit) AS cu
  FROM read_parquet('{fx}/results.parquet')
  WHERE test_id NOT IN ({sents}) AND endpoint NOT IN ({sents})
    AND conc1_mean NOT IN ({sents}) AND conc1_unit NOT IN ({sents})
    AND effect NOT IN ({sents})
), rb AS (
  SELECT test_id,
         '_:r|'||test_id||'|'||ep||'|'||ef||'|'||cm||'|'||cu AS r,
         nullif(regexp_replace(cm, '\\D', '', 'g'), '') AS cv,
         cu AS raw_unit
  FROM r
), u AS (
  SELECT * FROM (VALUES ('mg/L','MilligramPerLitre'),
    ('ug/L','MicrogramPerLitre'), ('mM','Millimol'),
    ('ng/L','NanogramPerLitre'), ('g/L','GramPerLitre'),
    ('mg/kg','MilligramPerKilogram')) m(k, qudt)
), sd AS (
  -- studyDuration BNode: the t->bnode edge and rdf:value gate on the
  -- value alone; the unit triple additionally needs a non-missing,
  -- parseable unit (fixture's closed duration vocabulary) — the
  -- genuine inner-OPTIONAL miss when value is present without unit
  SELECT trim(s.test_id) AS test_id, trim(s.study_duration_mean) AS sd,
         CASE WHEN trim(s.study_duration_unit) NOT IN ({sents})
              THEN 'http://qudt.org/vocab/unit#'||m.u END AS sdu
  FROM read_parquet('{fx}/tests.parquet') s
  LEFT JOIN (VALUES ('h', 'Hour'), ('d', 'Day'), ('w', 'Week')) m(k, u)
    ON trim(s.study_duration_unit) = m.k
  WHERE s.test_id NOT IN ({sents}) AND s.test_cas NOT IN ({sents})
    AND s.species_number NOT IN ({sents})
    AND s.study_duration_mean NOT IN ({sents})
    AND s.study_duration_mean IS NOT NULL
)
SELECT DISTINCT '{NS}test/'||t.test_id AS test, rb.r AS r, rb.cv AS cv,
       CASE WHEN rb.cv IS NOT NULL
            THEN 'http://qudt.org/vocab/unit#'||u.qudt END AS cu,
       sd.sd AS sd, sd.sdu AS sdu
FROM t LEFT JOIN rb ON rb.test_id = t.test_id
       LEFT JOIN u ON u.k = rb.raw_unit
       LEFT JOIN sd ON sd.test_id = t.test_id
"""


def _sparql_agg_sql(fx: str) -> str:
    """Oracle for kg_sparql_agg: results per chemical.  hasResult edges
    are unconditional per cleaned result row; result BNode identity is
    the full (test_id, endpoint, effect, conc, unit) key, so the
    dedup'd store holds one edge per DISTINCT key."""
    sents = ", ".join(f"'{v}'" for v in NAN_VALUES)
    return f"""
WITH t AS (
  SELECT DISTINCT trim(test_id) AS test_id, trim(test_cas) AS cas
  FROM read_parquet('{fx}/tests.parquet')
  WHERE test_id NOT IN ({sents}) AND test_cas NOT IN ({sents})
    AND species_number NOT IN ({sents})
), r AS (
  SELECT DISTINCT trim(test_id) AS test_id, trim(endpoint) AS ep,
         trim(effect) AS ef, trim(conc1_mean) AS cm, trim(conc1_unit) AS cu
  FROM read_parquet('{fx}/results.parquet')
  WHERE test_id NOT IN ({sents}) AND endpoint NOT IN ({sents})
    AND conc1_mean NOT IN ({sents}) AND conc1_unit NOT IN ({sents})
    AND effect NOT IN ({sents})
)
SELECT '{NS}cas/'||t.cas AS chemical, count(*) AS n
FROM r JOIN t USING (test_id) GROUP BY 1
"""


def _sparql_union_sql(fx: str) -> str:
    """Oracle for kg_sparql_union: DISTINCT (s, v) pairs from the label
    branches (cas aliases + group names) and the subClassOf branch of
    the chemical emitter; SQL UNION mirrors SELECT DISTINCT."""
    return f"""
WITH b AS (
  SELECT {_sent('cas_number')} AS cas, {_sent('chemical_name')} AS cname,
         {_sent('ecotox_group')} AS grp
  FROM read_parquet('{fx}/chemicals.parquet')
  WHERE {_sent('cas_number')} IS NOT NULL
    AND {_sent('chemical_name')} IS NOT NULL
    AND {_sent('ecotox_group')} IS NOT NULL
), ax AS (
  SELECT cas, unnest(string_split(cname, ', ')) AS alias FROM b
), gx AS (
  SELECT cas, unnest(string_split(grp, ',')) AS gname,
         unnest(string_split(replace(replace(replace(grp, '/', ''), '.', ''),
                ' ', ''), ',')) AS gscrub
  FROM b
)
SELECT '{NS}cas/'||cas AS s, alias AS v FROM ax
UNION
SELECT '{NS}group/'||gscrub, gname FROM gx
UNION
SELECT '{NS}cas/'||cas, '{NS}group/'||gscrub FROM gx
"""


def _bm25_sql(k: int = 10, k1: float = 1.2, b: float = 0.75) -> str:
    """Float64 BM25 mirror of ``text.index.bm25_topk`` (Robertson idf;
    fixed-point ``floor(score·1e6+0.5)`` so the hash compare is exact)."""
    terms = sorted(set(_BM25_TERMS))
    in_list = ", ".join(f"'{t}'" for t in terms)
    return f"""
WITH tk AS (
  SELECT doc_id, unnest(string_split_regex(lower(text), '[^a-z0-9]+')) AS token
  FROM documents
), tk2 AS (SELECT doc_id, token FROM tk WHERE token <> ''),
n AS (SELECT count(*)::DOUBLE AS n_docs FROM documents),
ad AS (SELECT count(*)::DOUBLE / (SELECT n_docs FROM n) AS avgdl FROM tk2),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM tk2 GROUP BY doc_id),
df AS (SELECT token AS term, count(DISTINCT doc_id)::DOUBLE AS df
       FROM tk2 WHERE token IN ({in_list}) GROUP BY token),
tf AS (SELECT doc_id, token AS term, count(*)::DOUBLE AS tf
       FROM tk2 WHERE token IN ({in_list}) GROUP BY doc_id, token),
sc AS (SELECT tf.doc_id,
         sum(ln(((SELECT n_docs FROM n) - df.df + 0.5) / (df.df + 0.5) + 1.0)
             * tf.tf * ({k1} + 1.0)
             / (tf.tf + {k1} * (1.0 - {b} + {b} * dl.dl / (SELECT avgdl FROM ad)))) AS s
       FROM tf JOIN df USING (term) JOIN dl ON dl.doc_id = tf.doc_id
       GROUP BY tf.doc_id),
m AS (SELECT doc_id, CAST(floor(s * 1e6 + 0.5) AS BIGINT) AS score_micro
      FROM sc WHERE floor(s * 1e6 + 0.5) > 0)
SELECT doc_id, score_micro,
       row_number() OVER (ORDER BY score_micro DESC, doc_id) AS rank
FROM m ORDER BY score_micro DESC, doc_id LIMIT {k}
"""


def _structural_sql(fx: str) -> str:
    """Partial oracle for the flagship builds: the turn-structure subset
    (rdf:type Turn / hasTurn / precededBy) as a pure SQL function of the
    transcript table — mirrors ``LinkerStage._structural``."""
    ns = "https://cfpub.epa.gov/ecotox/"
    rdf_type = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
    return f"""
WITH u AS (
  SELECT '{ns}turn/' || conv_id || '/' || turn_idx AS t_uri,
         conv_id, turn_idx
  FROM read_parquet('{fx}/transcripts.parquet')
)
SELECT DISTINCT subj, pred, obj FROM (
  SELECT t_uri AS subj, '{rdf_type}' AS pred, '{ns}Turn' AS obj FROM u
  UNION ALL
  SELECT '{ns}conversation/' || conv_id, '{ns}hasTurn', t_uri FROM u
  UNION ALL
  SELECT t_uri, '{ns}precededBy',
         '{ns}turn/' || conv_id || '/' || (turn_idx - 1)
  FROM u WHERE turn_idx > 0
) s(subj, pred, obj)
"""


def _chemicals_sql(fx: str) -> str:
    """M18 oracle: mirrors ``stages.ecotox.emit_chemicals``."""
    return f"""
WITH b AS (
  SELECT {_sent('cas_number')} AS cas, {_sent('chemical_name')} AS cname,
         {_sent('ecotox_group')} AS grp
  FROM read_parquet('{fx}/chemicals.parquet')
  WHERE {_sent('cas_number')} IS NOT NULL
    AND {_sent('chemical_name')} IS NOT NULL
    AND {_sent('ecotox_group')} IS NOT NULL
), ax AS (
  SELECT cas, unnest(string_split(cname, ', ')) AS alias FROM b
), gx AS (
  SELECT cas, unnest(string_split(grp, ',')) AS gname,
         unnest(string_split(replace(replace(replace(grp, '/', ''), '.', ''),
                ' ', ''), ',')) AS gscrub
  FROM b
)
SELECT '{NS}cas/'||cas AS subj, '{RDF_TYPE}' AS pred, '{NS}Chemical' AS obj,
       FALSE AS obj_is_literal, 'ecotox_chemicals' AS graph FROM b
UNION ALL
SELECT '{NS}cas/'||cas, '{RDFS_LABEL}', alias, TRUE, 'ecotox_chemicals' FROM ax
UNION ALL
SELECT '{NS}cas/'||cas, '{RDFS_SUBCLASSOF}', '{NS}group/'||gscrub, FALSE,
       'ecotox_chemicals' FROM gx
UNION ALL
SELECT '{NS}group/'||gscrub, '{RDFS_LABEL}', gname, TRUE,
       'ecotox_chemicals' FROM gx
UNION ALL
SELECT '{NS}group/'||gscrub, '{RDF_TYPE}', '{NS}ChemicalGroup', FALSE,
       'ecotox_chemicals' FROM gx
"""


def _ncbi_hierarchy_sql(fx: str) -> str:
    """M5 oracle: mirrors ``stages.taxonomy.emit_hierarchy`` (clean =
    sentinel-nullify → dropna all cols → trim; rank/division spaces →
    underscores)."""
    from tera_ray.schema import NCBI_NS as NNS

    g = "'ncbi_taxonomy'"
    return f"""
WITH b AS (
  SELECT {_sent('child')} AS child, {_sent('parent')} AS parent,
         {_sent('rank')} AS rank_raw,
         replace({_sent('rank')}, ' ', '_') AS rnk,
         replace({_sent('division')}, ' ', '_') AS dvn
  FROM read_parquet('{fx}/taxonomy_nodes.parquet')
  WHERE {_sent('child')} IS NOT NULL AND {_sent('parent')} IS NOT NULL
    AND {_sent('rank')} IS NOT NULL AND {_sent('division')} IS NOT NULL
)
SELECT '{NNS}taxon/'||child AS subj, '{NNS}rank' AS pred,
       '{NNS}rank/'||rnk AS obj, FALSE AS obj_is_literal, {g} AS graph
  FROM b WHERE rnk <> 'no_rank'
UNION ALL
SELECT '{NNS}rank/'||rnk, '{RDFS_LABEL}', rank_raw, TRUE, {g}
  FROM b WHERE rnk <> 'no_rank'
UNION ALL
SELECT '{NNS}rank/'||rnk, '{RDF_TYPE}', '{NNS}Rank', FALSE, {g}
  FROM b WHERE rnk <> 'no_rank'
UNION ALL
SELECT '{NNS}taxon/'||child, '{RDF_TYPE}', '{NNS}taxon/'||parent, FALSE, {g}
  FROM b WHERE rnk = 'species'
UNION ALL
SELECT '{NNS}taxon/'||child, '{RDF_TYPE}', '{NNS}division/'||dvn, FALSE, {g}
  FROM b WHERE rnk = 'species'
UNION ALL
SELECT '{NNS}taxon/'||child, '{RDFS_SUBCLASSOF}', '{NNS}taxon/'||parent,
       FALSE, {g} FROM b WHERE rnk <> 'species'
UNION ALL
SELECT '{NNS}taxon/'||child, '{RDFS_SUBCLASSOF}', '{NNS}division/'||dvn,
       FALSE, {g} FROM b WHERE rnk <> 'species'
"""


def _ncbi_names_sql(fx: str) -> str:
    """M6 oracle: mirrors ``stages.taxonomy.emit_names``."""
    from tera_ray.schema import (
        NCBI_NS as NNS,
        OWL_SUBPROPERTYOF as SUBP,
        RDFS_DOMAIN as DOM,
        SKOS_PREFLABEL as PREF,
    )

    g = "'ncbi_taxonomy'"
    return f"""
WITH b AS (
  SELECT {_sent('taxon')} AS tx, {_sent('name')} AS nm,
         {_sent('unique_name')} AS un, {_sent('name_type')} AS nt_raw,
         replace({_sent('name_type')}, ' ', '_') AS nt
  FROM read_parquet('{fx}/taxonomy_names.parquet')
  WHERE {_sent('taxon')} IS NOT NULL AND {_sent('name')} IS NOT NULL
    AND {_sent('unique_name')} IS NOT NULL AND {_sent('name_type')} IS NOT NULL
)
SELECT '{NNS}taxon/'||tx AS subj, '{NNS}uniqueName' AS pred, un AS obj,
       TRUE AS obj_is_literal, {g} AS graph FROM b WHERE length(un) > 0
UNION ALL
SELECT '{NNS}uniqueName', '{SUBP}', '{RDFS_LABEL}', FALSE, {g}
  FROM b WHERE length(un) > 0
UNION ALL
SELECT '{NNS}uniqueName', '{SUBP}', '{PREF}', FALSE, {g}
  FROM b WHERE length(un) > 0
UNION ALL
SELECT '{NNS}'||nt, '{SUBP}', '{RDFS_LABEL}', FALSE, {g}
  FROM b WHERE length(nm) > 0
UNION ALL
SELECT '{NNS}taxon/'||tx, '{NNS}'||nt, nm, TRUE, {g} FROM b WHERE length(nm) > 0
UNION ALL
SELECT '{NNS}'||nt, '{RDFS_LABEL}', nt_raw, TRUE, {g} FROM b WHERE length(nm) > 0
UNION ALL
SELECT '{NNS}'||nt, '{DOM}', '{NNS}Taxon', FALSE, {g} FROM b WHERE length(nm) > 0
"""


def _divisions_sql(fx: str) -> str:
    """M7 oracle: mirrors ``stages.taxonomy.emit_divisions`` (dropna spans
    the unused ``acronym`` column too — faithful to the emitter's
    column selection)."""
    from tera_ray.schema import NCBI_NS as NNS

    g = "'ncbi_taxonomy'"
    return f"""
WITH b AS (
  SELECT {_sent('division')} AS dv, {_sent('name')} AS nm
  FROM read_parquet('{fx}/divisions.parquet')
  WHERE {_sent('division')} IS NOT NULL AND {_sent('acronym')} IS NOT NULL
    AND {_sent('name')} IS NOT NULL
)
SELECT '{NNS}division/'||dv AS subj, '{RDF_TYPE}' AS pred,
       '{NNS}Division' AS obj, FALSE AS obj_is_literal, {g} AS graph FROM b
UNION ALL
SELECT '{NNS}division/'||dv, '{RDFS_LABEL}', nm, TRUE, {g} FROM b
"""


def _subgraph_sql(fx: str) -> str:
    """G3 oracle: transitive closure of outgoing non-literal edges from
    the seed, then every hierarchy triple whose subject was reached."""
    from tera_ray.schema import NCBI_NS as NNS

    seed = NNS + "taxon/900000"
    return f"""
WITH RECURSIVE h AS (SELECT * FROM ({_ncbi_hierarchy_sql(fx)})),
e AS (SELECT DISTINCT subj, obj FROM h WHERE NOT obj_is_literal),
reach(v) AS (
  SELECT '{seed}'
  UNION
  SELECT e.obj FROM reach JOIN e ON e.subj = reach.v
)
SELECT h.subj, h.pred, h.obj, h.obj_is_literal, h.graph
FROM h JOIN reach r ON h.subj = r.v
"""


def _class_hierarchy_sql(fx: str) -> str:
    """Oracle for kg_class_hierarchy: the two-seed variant of
    ``_subgraph_sql`` — reachability seeded from BOTH URIs equals the
    union of the per-seed closures."""
    from tera_ray.schema import NCBI_NS as NNS

    s1, s2 = NNS + "taxon/900000", NNS + "taxon/900004"
    return f"""
WITH RECURSIVE h AS (SELECT * FROM ({_ncbi_hierarchy_sql(fx)})),
e AS (SELECT DISTINCT subj, obj FROM h WHERE NOT obj_is_literal),
reach(v) AS (
  SELECT s FROM (VALUES ('{s1}'), ('{s2}')) seeds(s)
  UNION
  SELECT e.obj FROM reach JOIN e ON e.subj = reach.v
)
SELECT h.subj, h.pred, h.obj, h.obj_is_literal, h.graph
FROM h JOIN reach r ON h.subj = r.v
"""


def _closure_sql(fx: str) -> str:
    """Transitive-closure oracle: recursive CTE with UNION (distinct
    (src, anc, depth) rows — one row per distinct path length)."""
    return f"""
WITH RECURSIVE h AS (SELECT * FROM ({_ncbi_hierarchy_sql(fx)})),
e AS (SELECT DISTINCT subj AS src, obj AS dst FROM h
      WHERE pred = '{RDFS_SUBCLASSOF}'),
c(src, anc, depth) AS (
  SELECT src, dst, CAST(1 AS BIGINT) FROM e
  UNION
  SELECT c.src, e.dst, c.depth + 1 FROM c JOIN e ON e.src = c.anc
)
SELECT src, anc, depth FROM c
"""


def _update_sql(fx: str) -> str:
    """DELETE/INSERT-WHERE oracle: kept bag (everything but the renamed
    predicate) plus the DISTINCT renamed triples not already present
    (set-insert = EXCEPT against the kept bag)."""
    from tera_ray.schema import NCBI_NS as NNS, SKOS_PREFLABEL as PREF

    return f"""
WITH n AS ({_ncbi_names_sql(fx)}),
kept AS (SELECT subj, pred, obj FROM n WHERE pred <> '{NNS}uniqueName'),
ins AS (
  SELECT DISTINCT subj, '{PREF}' AS pred, obj FROM n
  WHERE pred = '{NNS}uniqueName'
  EXCEPT SELECT subj, pred, obj FROM kept
)
SELECT subj, pred, obj FROM kept
UNION ALL SELECT subj, pred, obj FROM ins
"""


def _negated_sql(fx: str) -> str:
    """Negated-property-set oracle: the NCBI names store minus the
    schema predicates, one row per surviving emitted triple."""
    from tera_ray.schema import OWL_SUBPROPERTYOF as SUBP, RDFS_DOMAIN as DOM

    return f"""
WITH n AS ({_ncbi_names_sql(fx)})
SELECT subj AS s, obj AS o FROM n
WHERE pred NOT IN ('{SUBP}', '{DOM}')
"""


def _star_path_sql(fx: str) -> str:
    """Anchored ``rdfs:subClassOf*`` oracle: recursive reachability
    seeded with the anchor ITSELF (SPARQL 1.1 §9.3 zero-length match),
    then every parent hop."""
    from tera_ray.schema import NCBI_NS as NNS

    x = NNS + "taxon/950000"
    return f"""
WITH RECURSIVE h AS (SELECT * FROM ({_ncbi_hierarchy_sql(fx)})),
e AS (SELECT DISTINCT subj AS src, obj AS dst FROM h
      WHERE pred = '{RDFS_SUBCLASSOF}'),
r(n) AS (
  SELECT '{x}'
  UNION
  SELECT e.dst FROM r JOIN e ON e.src = r.n
)
SELECT n AS o FROM r
"""


def _zero_or_one_sql(fx: str) -> str:
    """``rdfs:subClassOf?`` oracle: DISTINCT direct edges unioned with
    identity pairs over every node (subject or object) of the store."""
    return f"""
WITH h AS ({_ncbi_hierarchy_sql(fx)}),
nodes AS (SELECT DISTINCT subj AS n FROM h
          UNION SELECT DISTINCT obj FROM h)
SELECT DISTINCT subj AS s, obj AS o FROM h
WHERE pred = '{RDFS_SUBCLASSOF}'
UNION
SELECT n AS s, n AS o FROM nodes
"""


def _siblings_sql(fx: str) -> str:
    from tera_ray.schema import NCBI_NS as NNS

    x = NNS + "taxon/950000"
    return f"""
WITH h AS ({_ncbi_hierarchy_sql(fx)}),
e AS (SELECT subj, obj FROM h WHERE pred = '{RDFS_SUBCLASSOF}'),
up AS (SELECT DISTINCT obj AS v FROM e WHERE subj = '{x}')
SELECT DISTINCT e.subj AS entity FROM e JOIN up ON e.obj = up.v
WHERE e.subj <> '{x}'
"""


def _alt_labels_sql(fx: str) -> str:
    from tera_ray.schema import NCBI_NS as NNS, OWL_SUBPROPERTYOF as SUBP

    ent = NNS + "taxon/900000"
    return f"""
WITH n AS ({_ncbi_names_sql(fx)}),
lp AS (
  SELECT DISTINCT subj AS p FROM n
  WHERE pred = '{SUBP}' AND obj = '{RDFS_LABEL}'
  UNION SELECT '{RDFS_LABEL}'
)
SELECT pred, obj FROM n WHERE subj = '{ent}' AND pred IN (SELECT p FROM lp)
"""


def _ngram_jaccard_sql() -> str:
    return """
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS l
  FROM documents
), pos AS (
  SELECT doc_id, l, unnest(generate_series(1, len(l)-2)) AS g
  FROM toks WHERE len(l) >= 3
), sh AS (
  SELECT DISTINCT doc_id, l[g]||' '||l[g+1]||' '||l[g+2] AS s FROM pos
), sz AS (
  SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id
), inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
  FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id
  GROUP BY 1, 2
)
SELECT a, b, i / (sa.n + sb.n - i) AS jaccard
FROM inter JOIN sz sa ON sa.doc_id = a JOIN sz sb ON sb.doc_id = b
WHERE i / (sa.n + sb.n - i) >= 0.5
"""


def _fuzzy_align_sql(fx: str) -> str:
    """J4 oracle: mirrors the blocked fuzzy alignment chain — label bags
    from ``emit_names`` (NCBI scientific/common/uniqueName) × ``emit_taxa``
    (ECOTOX latinName), 3-char-prefix blocking, exact-match short-circuit,
    Levenshtein ratio ≥ 90 for leftovers, best-per-src with (score desc,
    dst asc) tie-break.  DuckDB ``levenshtein`` computes the same exact
    edit distance the engine's banded scorer reports for emitted pairs."""
    from tera_ray.schema import NCBI_NS as NNS

    return f"""
WITH nb AS (
  SELECT {_sent('taxon')} AS tx, {_sent('name')} AS nm,
         {_sent('unique_name')} AS un,
         replace({_sent('name_type')}, ' ', '_') AS nt
  FROM read_parquet('{fx}/taxonomy_names.parquet')
  WHERE {_sent('taxon')} IS NOT NULL AND {_sent('name')} IS NOT NULL
    AND {_sent('unique_name')} IS NOT NULL AND {_sent('name_type')} IS NOT NULL
), l AS (
  SELECT '{NNS}taxon/'||tx AS entity, lower(un) AS label
  FROM nb WHERE length(un) > 0
  UNION ALL
  SELECT '{NNS}taxon/'||tx, lower(nm)
  FROM nb WHERE length(nm) > 0 AND nt IN ('scientific_name', 'common_name')
), sb AS (
  SELECT {_sent('species_number')} AS num, {_sent('latin_name')} AS ln
  FROM read_parquet('{fx}/species.parquet')
  WHERE {_sent('species_number')} IS NOT NULL
    AND {_sent('common_name')} IS NOT NULL
    AND {_sent('latin_name')} IS NOT NULL
    AND {_sent('ecotox_group')} IS NOT NULL
), r AS (
  SELECT '{NS}taxon/'||num AS entity, lower(ln) AS label
  FROM sb WHERE length(ln) > 0
), exact AS (
  SELECT l.entity AS src, r.entity AS dst, 100.0 AS score
  FROM l JOIN r ON l.label = r.label
), fz AS (
  SELECT l.entity AS src, r.entity AS dst,
         100.0 * (1.0 - CAST(levenshtein(l.label, r.label) AS DOUBLE)
                  / greatest(length(l.label), length(r.label))) AS score
  FROM l JOIN r ON substr(l.label, 1, 3) = substr(r.label, 1, 3)
   AND l.label <> r.label
  WHERE NOT EXISTS (SELECT 1 FROM r r2 WHERE r2.label = l.label)
), cand AS (
  SELECT * FROM exact
  UNION ALL
  SELECT src, dst, score FROM fz WHERE score >= 90.0
), best AS (
  SELECT src, dst, score,
         row_number() OVER (PARTITION BY src
                            ORDER BY score DESC, dst ASC) AS rn
  FROM cand
)
SELECT src, dst, score FROM best WHERE rn = 1
"""


def _quality_stats_sql() -> str:
    """Mirrors text.analysis.quality_stats term by term: RE2 counts and
    the same float expression order (IEEE doubles ⇒ identical bits)."""
    from tera_ray.text.analysis import _STOPWORDS

    sw = "|".join(sorted(_STOPWORDS["en"]))
    return rf"""
WITH c AS (
  SELECT doc_id,
         CAST(length(coalesce(text, '')) AS DOUBLE) AS n_chars,
         CAST(len(regexp_extract_all(coalesce(text, ''), '[A-Za-z]'))
              AS DOUBLE) AS n_alpha,
         CAST(len(regexp_extract_all(coalesce(text, ''),
                                     '[!-/:-@\[-`{{-~]')) AS DOUBLE)
           AS n_punct,
         CAST(len(regexp_extract_all(coalesce(text, ''), '\S+'))
              AS DOUBLE) AS n_words,
         CAST(len(regexp_extract_all(coalesce(text, ''),
                                     '(?i)\b({sw})\b')) AS DOUBLE) AS n_sw
  FROM documents
), r AS (
  SELECT doc_id,
         n_alpha / greatest(n_chars, 1.0) AS alpha_ratio,
         n_punct / greatest(n_chars, 1.0) AS punct_ratio,
         least(n_sw / greatest(n_words, 1.0), 1.0) AS stopword_ratio,
         n_alpha / greatest(n_words, 1.0) AS mean_word_len,
         n_chars, n_punct
  FROM c
)
SELECT doc_id,
       round_even(alpha_ratio * 1e6, 0) / 1e6 AS alpha_ratio,
       round_even(punct_ratio * 1e6, 0) / 1e6 AS punct_ratio,
       round_even(stopword_ratio * 1e6, 0) / 1e6 AS stopword_ratio,
       round_even(mean_word_len * 1e6, 0) / 1e6 AS mean_word_len,
       round_even((least(greatest(n_chars / 200.0, 0.0), 1.0)
                   * least(greatest(1.0 - punct_ratio * 3.0, 0.0), 1.0)
                   * greatest(least(greatest(stopword_ratio * 4.0, 0.0), 1.0),
                              0.1)) * 1e6, 0) / 1e6 AS quality
FROM r
"""


def _fnv_sql(expr: str) -> str:
    """64-bit FNV-1a over the chars of ``expr`` in HUGEINT arithmetic —
    the same low-byte-xor trick as the fingerprint oracle (valid because
    every hashed char here is ASCII < 128, so the xor only ever touches
    the low byte)."""
    return (
        "list_reduce(list_prepend(14695981039346656037::HUGEINT, "
        f"list_transform(regexp_extract_all({expr}, '.'), "
        "c -> unicode(c)::HUGEINT)), "
        "(h, b) -> ((h - (h % 256)"
        " + xor((h % 256)::BIGINT, b::BIGINT)::HUGEINT)"
        " * 1099511628211::HUGEINT) % 18446744073709551616::HUGEINT)")


def _mix64_ctes(prefix: str, src: str) -> tuple[str, str]:
    """CTE chain reproducing ``tera_ray.sketch.hll._mix64`` over column
    ``h`` of CTE ``src`` (other columns carried via ``* REPLACE``).
    Returns (cte_sql_fragment, final_cte_name)."""
    P = "1099511628211::HUGEINT"
    M = "18446744073709551616::HUGEINT"
    steps = [
        _xor64_sql("h", "h // 8589934592"),
        f"(h * {P}) % {M}",
        _xor64_sql("h", "h // 8589934592"),
        f"(h * {P}) % {M}",
        _xor64_sql("h", "h // 536870912"),
    ]
    parts, cur = [], src
    for i, e in enumerate(steps):
        name = f"{prefix}{i}"
        parts.append(f"{name} AS (SELECT * REPLACE ({e} AS h) FROM {cur})")
        cur = name
    return ", ".join(parts), cur


def _cms_sql(width: int = 2048, depth: int = 4) -> str:
    """Count-Min oracle: rebuilds the salted-FNV sketch counters and the
    min-over-rows probe estimates bit-for-bit (`tera_ray.sketch.cms`)."""
    probes = ", ".join(f"('{i}')" for i in range(10))
    ctes = [
        "ev AS (SELECT user_id::VARCHAR AS s FROM events"
        " WHERE user_id IS NOT NULL)",
        "vals AS (SELECT s, count(*) AS cnt FROM ev GROUP BY s)",
        f"probes(key) AS (VALUES {probes})",
    ]
    est_legs = []
    for j in range(depth):
        salted_v = "s||'|" + str(j) + "'"
        salted_p = "key||'|" + str(j) + "'"
        ctes.append(
            f"vh{j} AS (SELECT s, {_fnv_sql(salted_v)} AS h FROM vals)")
        mix, fin = _mix64_ctes(f"vm{j}_", f"vh{j}")
        ctes.append(mix)
        ctes.append(f"ctr{j} AS (SELECT (h % {width})::BIGINT AS col,"
                    f" sum(cnt) AS c FROM {fin} JOIN vals USING (s)"
                    " GROUP BY 1)")
        ctes.append(
            f"ph{j} AS (SELECT key, {_fnv_sql(salted_p)} AS h"
            " FROM probes)")
        pmix, pfin = _mix64_ctes(f"pm{j}_", f"ph{j}")
        ctes.append(pmix)
        ctes.append(f"pc{j} AS (SELECT key, (h % {width})::BIGINT AS col"
                    f" FROM {pfin})")
        est_legs.append(f"SELECT key, coalesce(c, 0) AS c FROM pc{j}"
                        f" LEFT JOIN ctr{j} USING (col)")
    ctes.append("ests AS (" + " UNION ALL ".join(est_legs) + ")")
    return ("WITH " + ", ".join(ctes) +
            " SELECT key, CAST(min(c) AS BIGINT) AS est_cnt"
            " FROM ests GROUP BY key")


def _dq_approx_unique_sql(cols=("o_orderkey", "o_custkey"),
                          tol: float = 0.03) -> str:
    """Oracle for ``dq_approx_unique``: rebuilds the p=14 HLL registers
    (FNV-1a + mix, same chain as the ``events_hll_users`` oracle) per
    key column, finalizes the estimate, and derives the run_checks
    report row (violations = greatest(0, n - floor(e + 0.5)))."""
    alpha = "(0.7213/(1 + 1.079/16384)) * 16384 * 16384"
    ctes = ["t AS (SELECT count(*) AS n FROM orders)"]
    legs = []
    for j, col in enumerate(cols):
        ctes.append(f"v{j} AS (SELECT DISTINCT {col}::VARCHAR AS s"
                    f" FROM orders WHERE {col} IS NOT NULL)")
        ctes.append(f"h{j} AS (SELECT {_fnv_sql('s')} AS h FROM v{j})")
        mix, fin = _mix64_ctes(f"x{j}_", f"h{j}")
        ctes.append(mix)
        ctes.append(f"b{j} AS (SELECT (h // 1125899906842624)::BIGINT"
                    " AS reg, (h % 1125899906842624)::BIGINT AS low"
                    f" FROM {fin})")
        ctes.append(f"r{j} AS (SELECT reg, max(CASE WHEN low = 0 THEN 51"
                    " ELSE 50 - CAST(floor(log2(low)) AS BIGINT) END)"
                    f" AS rho FROM b{j} GROUP BY reg)")
        ctes.append(f"a{j} AS (SELECT count(*) AS nreg,"
                    f" sum(pow(2.0, -rho)) AS s FROM r{j})")
        ctes.append(f"z{j} AS (SELECT 16384 - nreg AS zeros,"
                    f" s + (16384 - nreg) AS ss FROM a{j})")
        ctes.append(f"f{j} AS (SELECT CASE WHEN {alpha} / ss <= 2.5*16384"
                    " AND zeros > 0 THEN 16384 * ln(16384.0/zeros)"
                    f" ELSE {alpha} / ss END AS e FROM z{j})")
        ctes.append(f"w{j} AS (SELECT greatest(0, t.n -"
                    " CAST(floor(e + 0.5) AS BIGINT)) AS violations,"
                    f" t.n AS n FROM f{j}, t)")
        legs.append(f"SELECT 'approx_unique' AS chk, '{col}' AS col,"
                    " n, violations,"
                    " round(violations / n::DOUBLE, 6) AS frac,"
                    f" round(violations / n::DOUBLE, 6) <= {tol}"
                    f" AS passed FROM w{j}")
    return ("WITH " + ", ".join(ctes) + " SELECT * FROM ("
            + " UNION ALL ".join(legs) + ") ORDER BY chk, col")


def _dq_approx_fk_sql(num_bits: int = 1 << 16, k: int = 4,
                      tol: float = 0.0) -> str:
    """Oracle for ``dq_approx_fk``: rebuilds the Bloom filter's bit
    positions (FNV-1a + mix, double hashing h_i = h1 + i·h2 mod 2^m —
    power-of-two m makes the HUGEINT mod exact) over the even-custkey
    ref side and counts orders whose key misses ANY position, plus
    NULL keys."""
    salts = ", ".join(f"({i})" for i in range(k))
    salted = "s || '|b'"
    ctes = [
        f"salts(i) AS (VALUES {salts})",
        "t AS (SELECT count(*) AS n FROM orders)",
        "nulls AS (SELECT count(*) AS n0 FROM orders"
        " WHERE o_custkey IS NULL)",
        "rk AS (SELECT DISTINCT c_custkey::VARCHAR AS s FROM customer"
        " WHERE c_custkey IS NOT NULL AND c_custkey % 2 = 0)",
        f"rh1 AS (SELECT s, {_fnv_sql('s')} AS h FROM rk)",
        f"rh2 AS (SELECT s, {_fnv_sql(salted)} AS h FROM rk)",
        "lk AS (SELECT o_custkey::VARCHAR AS s, count(*) AS cnt"
        " FROM orders WHERE o_custkey IS NOT NULL GROUP BY 1)",
        f"lh1 AS (SELECT s, {_fnv_sql('s')} AS h FROM lk)",
        f"lh2 AS (SELECT s, {_fnv_sql(salted)} AS h FROM lk)",
    ]
    m1a, f1a = _mix64_ctes("rm1_", "rh1")
    m2a, f2a = _mix64_ctes("rm2_", "rh2")
    m1b, f1b = _mix64_ctes("lm1_", "lh1")
    m2b, f2b = _mix64_ctes("lm2_", "lh2")
    ctes += [m1a, m2a, m1b, m2b]
    ctes.append(
        f"rpos AS (SELECT DISTINCT ((a.h + i.i * b.h) % {num_bits})::BIGINT"
        f" AS pos FROM {f1a} a JOIN {f2a} b USING (s), salts i)")
    ctes.append(
        f"lpos AS (SELECT a.s, ((a.h + i.i * b.h) % {num_bits})::BIGINT"
        f" AS pos FROM {f1b} a JOIN {f2b} b USING (s), salts i)")
    ctes.append(
        "orphk AS (SELECT DISTINCT s FROM lpos"
        " WHERE pos NOT IN (SELECT pos FROM rpos))")
    ctes.append(
        "viol AS (SELECT coalesce((SELECT sum(cnt) FROM lk"
        " JOIN orphk USING (s)), 0)::BIGINT + nulls.n0 AS violations,"
        " t.n AS n FROM nulls, t)")
    return ("WITH " + ", ".join(ctes) +
            " SELECT 'approx_foreign_key' AS chk, 'o_custkey' AS col,"
            " n, violations, round(violations / n::DOUBLE, 6) AS frac,"
            f" round(violations / n::DOUBLE, 6) <= {tol} AS passed"
            " FROM viol")


def _xor64_sql(a: str, b: str) -> str:
    """64-bit XOR of two HUGEINT expressions in [0, 2^64): DuckDB's
    ``xor`` is BIGINT-only, so xor the 32-bit halves separately and
    recombine (bitwise ops are independent across the split)."""
    return (
        f"(xor((({a}) // 4294967296)::BIGINT,"
        f" (({b}) // 4294967296)::BIGINT)::HUGEINT * 4294967296"
        f" + xor((({a}) % 4294967296)::BIGINT,"
        f" (({b}) % 4294967296)::BIGINT)::HUGEINT)")


def _pii_scrub_sql() -> str:
    """Nested regexp_replace chain on the augmented text, counting each
    pattern on the text AS IT STANDS at that point (mirrors
    ``curation.pii_scrub``'s chain order: URL → email → IPv4 → phone)."""
    from tera_ray.text.curation import PII_PATTERNS

    u, e, i, p = (pat for _, pat, _ in PII_PATTERNS)
    return rf"""
WITH aug AS (SELECT doc_id, {_PII_AUG_SQL} AS t0 FROM documents),
s1 AS (SELECT doc_id, len(regexp_extract_all(t0, '{u}')) AS n_url,
              regexp_replace(t0, '{u}', '<URL>', 'g') AS t1 FROM aug),
s2 AS (SELECT *, len(regexp_extract_all(t1, '{e}')) AS n_email,
              regexp_replace(t1, '{e}', '<EMAIL>', 'g') AS t2 FROM s1),
s3 AS (SELECT *, len(regexp_extract_all(t2, '{i}')) AS n_ipv4,
              regexp_replace(t2, '{i}', '<IP>', 'g') AS t3 FROM s2),
s4 AS (SELECT *, len(regexp_extract_all(t3, '{p}')) AS n_phone,
              regexp_replace(t3, '{p}', '<PHONE>', 'g') AS t4 FROM s3)
SELECT doc_id, t4 AS clean, n_url, n_email, n_ipv4, n_phone,
       n_url + n_email + n_ipv4 + n_phone AS n_redactions FROM s4
"""


def _contamination_sql() -> str:
    """String 3-gram shingles (same tokenization as the ngram-jaccard
    oracle); overlap counts equal the engine's hash-shingle counts
    modulo 2^-64 collisions."""
    return """
WITH toks AS (
  SELECT doc_id,
         regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS l
  FROM documents
), pos AS (
  SELECT doc_id, l, unnest(generate_series(1, len(l)-2)) AS g
  FROM toks WHERE len(l) >= 3
), sh AS (
  SELECT DISTINCT doc_id, l[g]||' '||l[g+1]||' '||l[g+2] AS s FROM pos
), bench AS (
  SELECT DISTINCT s FROM sh WHERE doc_id % 10 = 0
), sz AS (
  SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id
), ov AS (
  SELECT sh.doc_id, count(*) AS o FROM sh JOIN bench USING (s)
  WHERE sh.doc_id % 10 <> 0 GROUP BY sh.doc_id
)
SELECT d.doc_id, coalesce(sz.n, 0) AS n_shingles,
       coalesce(ov.o, 0) AS n_overlap,
       coalesce(ov.o, 0) >= 1 AS contaminated
FROM documents d LEFT JOIN sz ON sz.doc_id = d.doc_id
LEFT JOIN ov ON ov.doc_id = d.doc_id
WHERE d.doc_id % 10 <> 0
"""


def _hash_embed_sql(dim: int = 16) -> str:
    """Feature-hashing embedding oracle: same FNV-1a per token as the
    fingerprint oracle, signed by the hash's top bit, slot = hash mod
    dim, L2-normalized, zero-filled grid, engine rounding."""
    fnv = _fnv_sql("t")
    return f"""
WITH tk AS (
  SELECT doc_id,
         string_split_regex(trim(lower(coalesce(text, '')),
                                 ' '||chr(9)||chr(10)||chr(13)),
                            '[^a-z0-9]+') AS toks
  FROM documents
), tok AS (
  SELECT doc_id, unnest(toks) AS t FROM tk
), h AS (
  SELECT doc_id, {fnv} AS hv FROM tok WHERE t <> ''
), s AS (
  SELECT doc_id, (hv % {dim})::BIGINT AS slot,
         CASE WHEN hv >= 9223372036854775808::HUGEINT
              THEN -1.0 ELSE 1.0 END AS sgn
  FROM h
), agg AS (SELECT doc_id, slot, sum(sgn) AS v FROM s GROUP BY 1, 2),
nrm AS (SELECT doc_id, sqrt(sum(v*v)) AS nn FROM agg GROUP BY 1),
grid AS (SELECT d.doc_id, r.range::BIGINT AS slot
         FROM (SELECT DISTINCT doc_id FROM documents) d
         CROSS JOIN range({dim}) r),
vals AS (
  SELECT g.doc_id, g.slot,
         round_even(coalesce(a.v, 0)
                    / coalesce(NULLIF(n.nn, 0), 1) * 1e6, 0) / 1e6 AS v
  FROM grid g
  LEFT JOIN agg a ON a.doc_id = g.doc_id AND a.slot = g.slot
  LEFT JOIN nrm n ON n.doc_id = g.doc_id
)
SELECT doc_id, array_agg(v ORDER BY slot) AS embedding
FROM vals GROUP BY doc_id
"""


def _fingerprint_sql() -> str:
    """Rolling FNV-1a document fingerprint, reproduced bit-for-bit in
    SQL: per-token FNV-1a over ASCII codes (list_reduce with the xor
    emulated on the low byte — token bytes are < 128 by construction),
    then the Rabin-Karp combine mod 2^64 via HUGEINT arithmetic."""
    B = "1099511628211::HUGEINT"
    M = "18446744073709551616::HUGEINT"
    return f"""
WITH tk AS (
  SELECT doc_id,
         string_split_regex(trim(lower(coalesce(text, '')),
                                 ' '||chr(9)||chr(10)||chr(13)),
                            '[^a-z0-9]+') AS toks
  FROM documents
), th AS (
  SELECT doc_id,
         list_transform(toks, t ->
           list_reduce(
             list_prepend(14695981039346656037::HUGEINT,
               list_transform(regexp_extract_all(t, '.'),
                              c -> unicode(c)::HUGEINT)),
             (h, b) -> ((h - (h % 256)
                         + xor((h % 256)::BIGINT, b::BIGINT)::HUGEINT)
                        * {B}) % {M})) AS hs
  FROM tk
)
SELECT doc_id,
       CAST(list_reduce(list_prepend(0::HUGEINT, hs),
                        (h, x) -> (h * {B} + x) % {M}) AS UBIGINT) AS fp64
FROM th
"""


def _docs_quality_sql() -> str:
    """Full docs_quality oracle: the quality signals (see
    ``_quality_stats_sql``) PLUS lang_pred — argmax stopword-profile hit
    rate with numpy's first-wins tie-break expressed as ordered >=
    comparisons, the < 0.02 'und' floor, and the non-ASCII 'zh'
    override, exactly as text.analysis.langid computes them."""
    from tera_ray.text.analysis import _STOPWORDS

    langs = list(_STOPWORDS)
    hit_cols = ",\n         ".join(
        f"CAST(len(regexp_extract_all(coalesce(text, ''),"
        f" '(?i)\\b({'|'.join(sorted(_STOPWORDS[lg]))})\\b')) AS DOUBLE)"
        f" AS h_{lg}"
        for lg in langs)
    s = {lg: f"(h_{lg} / greatest(n_words, 1.0))" for lg in langs}
    best_lang = (
        f"CASE WHEN {s['en']} >= {s['de']} AND {s['en']} >= {s['fr']}"
        f" AND {s['en']} >= {s['es']} THEN 'en'"
        f" WHEN {s['de']} >= {s['fr']} AND {s['de']} >= {s['es']} THEN 'de'"
        f" WHEN {s['fr']} >= {s['es']} THEN 'fr' ELSE 'es' END")
    best_score = (f"greatest({s['en']}, {s['de']}, {s['fr']}, {s['es']})")
    return rf"""
WITH c AS (
  SELECT doc_id,
         CAST(length(coalesce(text, '')) AS DOUBLE) AS n_chars,
         CAST(len(regexp_extract_all(coalesce(text, ''), '[A-Za-z]'))
              AS DOUBLE) AS n_alpha,
         CAST(len(regexp_extract_all(coalesce(text, ''),
                                     '[!-/:-@\[-`{{-~]')) AS DOUBLE)
           AS n_punct,
         CAST(len(regexp_extract_all(coalesce(text, ''), '\S+'))
              AS DOUBLE) AS n_words,
         CAST(len(regexp_extract_all(coalesce(text, ''), '[^\x00-\x7F]'))
              AS DOUBLE) AS non_ascii,
         {hit_cols}
  FROM documents
), r AS (
  SELECT doc_id,
         n_alpha / greatest(n_chars, 1.0) AS alpha_ratio,
         n_punct / greatest(n_chars, 1.0) AS punct_ratio,
         least(h_en / greatest(n_words, 1.0), 1.0) AS stopword_ratio,
         n_alpha / greatest(n_words, 1.0) AS mean_word_len,
         n_chars, n_punct,
         CASE WHEN non_ascii / greatest(n_chars, 1.0) > 0.3 THEN 'zh'
              WHEN {best_score} < 0.02 THEN 'und'
              ELSE {best_lang} END AS lang_pred
  FROM c
)
SELECT doc_id,
       round_even(alpha_ratio * 1e6, 0) / 1e6 AS alpha_ratio,
       round_even(punct_ratio * 1e6, 0) / 1e6 AS punct_ratio,
       round_even(stopword_ratio * 1e6, 0) / 1e6 AS stopword_ratio,
       round_even(mean_word_len * 1e6, 0) / 1e6 AS mean_word_len,
       round_even((least(greatest(n_chars / 200.0, 0.0), 1.0)
                   * least(greatest(1.0 - punct_ratio * 3.0, 0.0), 1.0)
                   * greatest(least(greatest(stopword_ratio * 4.0, 0.0), 1.0),
                              0.1)) * 1e6, 0) / 1e6 AS quality,
       lang_pred
FROM r
"""


def _simhash_pairs_sql() -> str:
    """SimHash all-pairs oracle: signatures rebuilt bit-for-bit in SQL
    (per-token FNV-1a as in the fingerprint oracle, 64 bit-vote sums,
    sign vector), then the documented contract — every (a < b) pair with
    hamming ≤ 3 — checked directly via bit_count(xor).  Valid at fixture
    scale where no band bucket exceeds the engine's star cap, so the
    engine output IS the complete pair set."""
    return """
WITH tk AS (
  SELECT doc_id,
         string_split_regex(trim(lower(coalesce(text, '')),
                                 ' '||chr(9)||chr(10)||chr(13)),
                            '[^a-z0-9]+') AS toks
  FROM documents
), th AS (
  SELECT doc_id, CAST(list_reduce(
           list_prepend(14695981039346656037::HUGEINT,
             list_transform(regexp_extract_all(t.tok, '.'),
                            c -> unicode(c)::HUGEINT)),
           (h, b) -> ((h - (h % 256)
                       + xor((h % 256)::BIGINT, b::BIGINT)::HUGEINT)
                      * 1099511628211::HUGEINT)
                     % 18446744073709551616::HUGEINT) AS UBIGINT) AS th
  FROM tk, unnest(tk.toks) AS t(tok)
), votes AS (
  SELECT doc_id, b,
         sum(CASE WHEN (th >> b) & 1 = 1 THEN 1 ELSE -1 END) AS v
  FROM th, unnest(generate_series(0, 63)) AS g(b)
  GROUP BY doc_id, b
), sig AS (
  SELECT doc_id, CAST(sum(CASE WHEN v > 0 THEN (1::UBIGINT << b)::HUGEINT
                               ELSE 0::HUGEINT END) AS UBIGINT) AS sig
  FROM votes GROUP BY doc_id
)
SELECT x.doc_id AS a, y.doc_id AS b,
       CAST(bit_count(xor(x.sig, y.sig)) AS BIGINT) AS hamming
FROM sig x JOIN sig y ON x.doc_id < y.doc_id
WHERE bit_count(xor(x.sig, y.sig)) <= 3
"""


def _pipe_roundtrip_sql(fx: str) -> str:
    """S1 oracle: the dump reader applies trim-then-sentinel-null to
    every column; mirror that per column straight off the parquet."""
    import pyarrow.parquet as pq

    vals = ", ".join(f"'{v}'" for v in NAN_VALUES)
    cols = ", ".join(
        f'(CASE WHEN trim(CAST("{n}" AS VARCHAR)) IN ({vals}) THEN NULL'
        f' ELSE trim(CAST("{n}" AS VARCHAR)) END) AS "{n}"'
        for n in pq.read_schema(os.path.join(fx, "species.parquet")).names)
    return f"SELECT {cols} FROM read_parquet('{fx}/species.parquet')"


def _nt_roundtrip_sql(fx: str) -> str:
    return (f"SELECT subj, pred, obj, obj_is_literal FROM "
            f"({_divisions_sql(fx)})")


def _hier_consensus_sql(fx: str) -> str:
    """J7 oracle: the fuzzy-align result re-weighted by parent-lineage
    agreement — +10 (capped at 100) when the pair's (NCBI parent, ECOTOX
    genus) is itself an aligned pair; penalty 0 otherwise (the judged
    call's defaults).  Parent URIs join RAW columns exactly as the
    judged query builds them (no sentinel cleaning)."""
    from tera_ray.schema import NCBI_NS as NNS

    return f"""
WITH best AS ({_fuzzy_align_sql(fx)}),
pa_ AS (
  SELECT '{NNS}taxon/'||child AS c, '{NNS}taxon/'||parent AS p
  FROM read_parquet('{fx}/taxonomy_nodes.parquet')
),
pb_ AS (
  SELECT '{NS}taxon/'||species_number AS c, '{NS}taxon/'||genus AS p
  FROM read_parquet('{fx}/species.parquet') WHERE genus IS NOT NULL
)
SELECT b.src AS src, b.dst AS dst,
       CASE WHEN pa_.p IS NOT NULL AND pb_.p IS NOT NULL
                 AND EXISTS (SELECT 1 FROM best b3
                             WHERE b3.src = pa_.p AND b3.dst = pb_.p)
            THEN least(100.0, b.score + 10.0)
            ELSE b.score END AS score
FROM best b
LEFT JOIN pa_ ON pa_.c = b.src
LEFT JOIN pb_ ON pb_.c = b.dst
"""


def _minhash_dedup_sql() -> str:
    """Near-dup cluster oracle: exact shingle-set Jaccard ≥ 0.8 edges +
    recursive min-id components.  The shingle definition replicates
    ``dedup.minhash.shingle_hashes`` exactly: tokens are a REGEX SPLIT
    of the trimmed lowercase text on ``[^a-z0-9]+`` (split, not
    extract — punctuation edges yield empty tokens that join shingles),
    3-gram shingles for docs with ≥ 3 tokens, one whole-doc shingle
    otherwise.  Valid as an oracle because LSH at 128 perms / 16 bands
    is lossless on the fixture's duplicate groups (their Jaccard is far
    above the 0.948-collision point at J = 0.8); the engine result is
    verified by the SAME exact-Jaccard check, so edge sets coincide.
    Component ids compare as STRINGS (the engine casts ids to string
    before union-find), hence the VARCHAR min."""
    return """
WITH RECURSIVE tk AS (
  SELECT doc_id,
         string_split_regex(trim(lower(text), ' '||chr(9)||chr(10)||chr(13)),
                            '[^a-z0-9]+') AS l
  FROM documents
), sh AS (
  SELECT DISTINCT doc_id, l[g]||chr(31)||l[g+1]||chr(31)||l[g+2] AS s
  FROM (SELECT doc_id, l, unnest(generate_series(1, len(l)-2)) AS g
        FROM tk WHERE len(l) >= 3)
  UNION
  SELECT DISTINCT doc_id, list_aggregate(l, 'string_agg', chr(31)) AS s
  FROM tk WHERE len(l) < 3
), sz AS (
  SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id
), inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
  FROM sh x JOIN sh y ON x.s = y.s AND x.doc_id < y.doc_id
  GROUP BY 1, 2
), ed AS (
  SELECT CAST(a AS VARCHAR) AS a, CAST(b AS VARCHAR) AS b
  FROM inter JOIN sz sa ON sa.doc_id = a JOIN sz sb ON sb.doc_id = b
  WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.8
), e AS (
  SELECT a, b FROM ed UNION SELECT b, a FROM ed
), n AS (
  SELECT DISTINCT a AS v FROM e
), reach(v, r) AS (
  SELECT v, v FROM n
  UNION
  SELECT reach.v, e.b FROM reach JOIN e ON reach.r = e.a
)
SELECT v AS src, min(r) AS dst, 1.0::DOUBLE AS score
FROM reach GROUP BY v HAVING min(r) <> v
"""


def _unionfind_sql(fx: str) -> str:
    return f"""
WITH RECURSIVE
p AS (SELECT src, dst FROM read_parquet('{fx}/sameas_pairs.parquet')
      WHERE score >= 0.9),
e AS (SELECT src AS a, dst AS b FROM p UNION SELECT dst, src FROM p),
n AS (SELECT DISTINCT a AS v FROM e),
reach(v, r) AS (
  SELECT v, v FROM n
  UNION
  SELECT reach.v, e.b FROM reach JOIN e ON reach.r = e.a
)
SELECT v AS src, min(r) AS dst FROM reach GROUP BY v HAVING min(r) <> v
"""


def oracle_sql() -> dict[str, str]:
    fx = FX_T2
    bpe = _sq(BPE_RE)
    lit = "obj_is_literal"
    g_tax = "'ecotox_taxonomy' AS graph"
    split_h = _fnv_sql("'split:'||doc_id::VARCHAR")
    sample_h = _fnv_sql("'sample:'||doc_id::VARCHAR")
    cap_h = _fnv_sql("'cap:'||doc_id::VARCHAR")
    mix_h = _fnv_sql("'mix:'||doc_id::VARCHAR")
    shuf_h = _fnv_sql("'shuffle:'||doc_id::VARCHAR")
    return {
        "docs_dedup_exact":
            "SELECT min(doc_id) AS doc_id, text FROM documents GROUP BY text",
        # corpus-level line scrub: tokens in >= 80% of docs removed
        # everywhere, order preserved (parallel unnests zip in DuckDB)
        "docs_line_dedup": """
WITH l AS (SELECT doc_id, unnest(string_split(text, ' ')) AS line,
                  unnest(range(len(string_split(text, ' ')))) AS i
           FROM documents),
hot AS (SELECT line FROM l GROUP BY line
        HAVING count(DISTINCT doc_id) >=
               (SELECT CAST(floor(count(*) * 0.8) AS BIGINT)
                FROM documents)),
kept AS (SELECT doc_id, string_agg(line, ' ' ORDER BY i) AS text
         FROM l WHERE line NOT IN (SELECT line FROM hot)
         GROUP BY doc_id)
SELECT d.doc_id, coalesce(k.text, '') AS text
FROM documents d LEFT JOIN kept k USING (doc_id)
""",
        # the line-dedup census standalone: tokens in >= 60% of docs
        "docs_hot_lines":
            "WITH l AS (SELECT doc_id,"
            " unnest(string_split(text, ' ')) AS line FROM documents)"
            " SELECT line FROM l GROUP BY line"
            " HAVING count(DISTINCT doc_id) >="
            " (SELECT CAST(floor(count(*) * 0.6) AS BIGINT)"
            "  FROM documents)",
        # schema-evolution union: column match by NAME, null padding
        "docs_union_by_name":
            "SELECT doc_id, lang, NULL::VARCHAR AS source FROM documents"
            " UNION ALL"
            " SELECT doc_id, NULL::VARCHAR, source FROM documents",
        # MERGE INTO: updates (key%7=0 rows zeroed + one new key) win
        "orders_upsert":
            "SELECT o_orderkey,"
            " CASE WHEN o_orderkey % 7 = 0 THEN 0.0"
            "      ELSE o_totalprice END AS o_totalprice,"
            " CASE WHEN o_orderkey % 7 = 0 THEN 'X'"
            "      ELSE o_orderstatus END AS o_orderstatus"
            " FROM orders"
            " UNION ALL SELECT -1, 0.0, 'X'",
        "docs_token_stats":
            "SELECT doc_id,"
            " len(regexp_extract_all(text, '\\S+'))::BIGINT AS n_tokens_ws,"
            f" len(regexp_extract_all(text, '{bpe}'))::BIGINT AS n_tokens_bpe"
            " FROM documents",
        "docs_lang_counts":
            "SELECT lang, count(*) AS n,"
            " CAST(sum(n_chars) AS BIGINT) AS total_chars"
            " FROM documents GROUP BY lang",
        "orders_top1_per_customer":
            "SELECT o_custkey, o_orderkey, o_totalprice FROM ("
            " SELECT *, row_number() OVER (PARTITION BY o_custkey"
            " ORDER BY o_totalprice DESC, o_orderkey) AS rn FROM orders)"
            " WHERE rn = 1",
        "orders_top100":
            "SELECT o_orderkey, o_totalprice, row_number() OVER ("
            "ORDER BY o_totalprice DESC, o_orderkey) AS rank"
            " FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 100",
        "revenue_by_segment":
            "SELECT c_mktsegment, count(*) AS n,"
            " CAST(sum(CAST(round(l_extendedprice*(1-l_discount)*100)"
            " AS BIGINT)) AS BIGINT) AS revenue_cents"
            " FROM lineitem JOIN orders ON l_orderkey = o_orderkey"
            " JOIN customer ON o_custkey = c_custkey GROUP BY c_mktsegment",
        "building_suppliers":
            "SELECT DISTINCT l_suppkey FROM lineitem"
            " JOIN orders ON l_orderkey = o_orderkey"
            " JOIN customer ON o_custkey = c_custkey"
            " WHERE c_mktsegment = 'BUILDING'",
        "pricing_summary":
            "SELECT l_returnflag, l_linestatus, count(*) AS n,"
            " sum(l_quantity) AS sum_qty,"
            " CAST(sum(CAST(round(l_extendedprice*100) AS BIGINT)) AS BIGINT)"
            " AS base_cents"
            " FROM lineitem GROUP BY l_returnflag, l_linestatus",
        "parts_pagerank":
            "WITH li AS (SELECT DISTINCT l.l_orderkey, l.l_partkey"
            " FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey"
            " WHERE o.o_orderpriority = '1-URGENT'),"
            " e0 AS (SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v"
            " FROM li a JOIN li b ON a.l_orderkey = b.l_orderkey"
            " AND a.l_partkey < b.l_partkey),"
            " e AS (SELECT u AS src, v AS dst FROM e0"
            " UNION ALL SELECT v, u FROM e0),"
            " deg AS (SELECT src AS node, count(*) AS d FROM e"
            " GROUP BY src),"
            " nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM deg),"
            " r0 AS (SELECT node, 1.0/(SELECT n FROM nn) AS r FROM deg),"
            " s1 AS (SELECT e.dst AS node, sum(r0.r/deg.d) AS s FROM e"
            " JOIN r0 ON r0.node = e.src JOIN deg ON deg.node = e.src"
            " GROUP BY e.dst),"
            " r1 AS (SELECT deg.node, 0.15/(SELECT n FROM nn)"
            " + 0.85*coalesce(s1.s, 0) AS r FROM deg"
            " LEFT JOIN s1 ON s1.node = deg.node),"
            " s2 AS (SELECT e.dst AS node, sum(r1.r/deg.d) AS s FROM e"
            " JOIN r1 ON r1.node = e.src JOIN deg ON deg.node = e.src"
            " GROUP BY e.dst),"
            " r2 AS (SELECT deg.node, 0.15/(SELECT n FROM nn)"
            " + 0.85*coalesce(s2.s, 0) AS r FROM deg"
            " LEFT JOIN s2 ON s2.node = deg.node),"
            " s3 AS (SELECT e.dst AS node, sum(r2.r/deg.d) AS s FROM e"
            " JOIN r2 ON r2.node = e.src JOIN deg ON deg.node = e.src"
            " GROUP BY e.dst),"
            " r3 AS (SELECT deg.node, 0.15/(SELECT n FROM nn)"
            " + 0.85*coalesce(s3.s, 0) AS r FROM deg"
            " LEFT JOIN s3 ON s3.node = deg.node)"
            " SELECT node, round(r, 10) AS rank FROM r3",
        "parts_triangles":
            "WITH li AS (SELECT DISTINCT l.l_orderkey, l.l_partkey"
            " FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey"
            " WHERE o.o_orderpriority = '1-URGENT'),"
            " e AS (SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v"
            " FROM li a JOIN li b ON a.l_orderkey = b.l_orderkey"
            " AND a.l_partkey < b.l_partkey)"
            " SELECT e1.u AS a, e1.v AS b, e2.v AS c"
            " FROM e e1 JOIN e e2 ON e2.u = e1.u AND e2.v > e1.v"
            " JOIN e e3 ON e3.u = e1.v AND e3.v = e2.v",
        "orders_pivot":
            "SELECT o_orderstatus,"
            " sum(CASE WHEN o_orderpriority = '1-URGENT' THEN 1 ELSE 0"
            " END)::BIGINT AS n_1_urgent,"
            " sum(CASE WHEN o_orderpriority = '2-HIGH' THEN 1 ELSE 0"
            " END)::BIGINT AS n_2_high,"
            " sum(CASE WHEN o_orderpriority = '3-MEDIUM' THEN 1 ELSE 0"
            " END)::BIGINT AS n_3_medium,"
            " sum(CASE WHEN o_orderpriority = '4-NOT SPECIFIED' THEN 1"
            " ELSE 0 END)::BIGINT AS n_4_not_specified,"
            " sum(CASE WHEN o_orderpriority = '5-LOW' THEN 1 ELSE 0"
            " END)::BIGINT AS n_5_low"
            " FROM orders GROUP BY o_orderstatus",
        "lineitem_unpivot":
            "SELECT l_orderkey, l_linenumber, 'l_quantity' AS name,"
            " l_quantity AS value FROM lineitem"
            " UNION ALL"
            " SELECT l_orderkey, l_linenumber, 'l_extendedprice',"
            " l_extendedprice FROM lineitem"
            " UNION ALL"
            " SELECT l_orderkey, l_linenumber, 'l_discount',"
            " l_discount FROM lineitem",
        "custkeys_intersect":
            "SELECT DISTINCT o_custkey AS custkey FROM orders"
            " WHERE o_orderpriority = '1-URGENT'"
            " INTERSECT"
            " SELECT c_custkey FROM customer"
            " WHERE c_mktsegment = 'BUILDING'",
        "custkeys_except":
            "SELECT DISTINCT o_custkey AS custkey FROM orders"
            " WHERE o_orderpriority = '1-URGENT'"
            " EXCEPT"
            " SELECT c_custkey FROM customer"
            " WHERE c_mktsegment = 'BUILDING'",
        "events_cms_counts": _cms_sql(),
        "orders_by_month":
            "SELECT CAST(date_trunc('month', o_orderdate) AS TIMESTAMP)"
            " AS month,"
            " count(*) AS n,"
            " CAST(sum(CAST(round(o_totalprice*100) AS BIGINT)) AS BIGINT)"
            " AS cents"
            " FROM orders GROUP BY 1",
        "custkey_orderkeys":
            "SELECT o_custkey,"
            " list_sort(array_agg(o_orderkey)) AS orderkeys"
            " FROM orders GROUP BY o_custkey",
        "events_hll_users":
            "WITH v AS (SELECT DISTINCT user_id::VARCHAR AS s"
            " FROM events WHERE user_id IS NOT NULL),"
            f" h0 AS (SELECT {_fnv_sql('s')} AS h FROM v),"
            f" m1 AS (SELECT {_xor64_sql('h', 'h // 8589934592')} AS h"
            " FROM h0),"
            " m2 AS (SELECT (h * 1099511628211::HUGEINT)"
            " % 18446744073709551616::HUGEINT AS h FROM m1),"
            f" m3 AS (SELECT {_xor64_sql('h', 'h // 8589934592')} AS h"
            " FROM m2),"
            " m4 AS (SELECT (h * 1099511628211::HUGEINT)"
            " % 18446744073709551616::HUGEINT AS h FROM m3),"
            f" h AS (SELECT {_xor64_sql('h', 'h // 536870912')} AS h"
            " FROM m4),"
            " b AS (SELECT (h // 1125899906842624)::BIGINT AS reg,"
            " (h % 1125899906842624)::BIGINT AS low FROM h),"
            " r AS (SELECT reg, max(CASE WHEN low = 0 THEN 51"
            " ELSE 50 - CAST(floor(log2(low)) AS BIGINT) END) AS rho"
            " FROM b GROUP BY reg),"
            " agg AS (SELECT count(*) AS nreg,"
            " sum(pow(2.0, -rho)) AS s FROM r),"
            " est AS (SELECT 16384 - nreg AS zeros,"
            " s + (16384 - nreg) AS ss FROM agg),"
            " e1 AS (SELECT zeros,"
            " (0.7213/(1 + 1.079/16384)) * 16384 * 16384 / ss AS e"
            " FROM est)"
            " SELECT round(CASE WHEN e <= 2.5*16384 AND zeros > 0"
            " THEN 16384 * ln(16384.0/zeros) ELSE e END, 6)"
            " AS approx_n FROM e1",
        "events_props_sum":
            "SELECT event_type,"
            " CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT))"
            " AS BIGINT) AS k_sum, count(*) AS n"
            " FROM events GROUP BY event_type",
        "docs_tfidf_top3":
            "WITH toks AS (SELECT doc_id,"
            " unnest(string_split_regex(lower(text), '\\W+')) AS token"
            " FROM documents),"
            " tf AS (SELECT doc_id, token, count(*) AS tf FROM toks"
            " WHERE token <> '' GROUP BY doc_id, token),"
            " df AS (SELECT token, count(DISTINCT doc_id) AS df FROM toks"
            " WHERE token <> '' GROUP BY token),"
            " nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents),"
            " s AS (SELECT tf.doc_id, tf.token,"
            " round(tf.tf * ln((SELECT n FROM nn)/df.df), 9) AS score"
            " FROM tf JOIN df USING (token))"
            " SELECT doc_id, token, score FROM"
            " (SELECT *, row_number() OVER (PARTITION BY doc_id"
            " ORDER BY score DESC, token) AS rn FROM s)"
            " WHERE rn <= 3",
        "docs_top_tokens":
            "SELECT token, count(*) AS cnt FROM ("
            " SELECT unnest(string_split_regex(lower(text), '\\W+'))"
            " AS token FROM documents) t"
            " WHERE token <> ''"
            " GROUP BY token ORDER BY cnt DESC, token LIMIT 100",
        "orders_cube":
            "SELECT o_orderpriority, o_orderstatus, count(*) AS n,"
            " CAST(sum(CAST(round(o_totalprice*100) AS BIGINT)) AS BIGINT)"
            " AS cents"
            " FROM orders"
            " GROUP BY CUBE (o_orderpriority, o_orderstatus)",
        "priority_distinct_parts":
            "SELECT o_orderpriority, count(DISTINCT l_partkey) AS n_parts"
            " FROM lineitem JOIN orders ON l_orderkey = o_orderkey"
            " GROUP BY o_orderpriority",
        "orders_rollup":
            "SELECT o_orderpriority, o_orderstatus, count(*) AS n,"
            " CAST(sum(CAST(round(o_totalprice*100) AS BIGINT)) AS BIGINT)"
            " AS cents"
            " FROM orders"
            " GROUP BY ROLLUP (o_orderpriority, o_orderstatus)",
        "lineitem_price_stats":
            "SELECT l_returnflag,"
            " round(avg(l_extendedprice), 4) AS avg_price,"
            " round(stddev_samp(l_extendedprice), 4) AS std_price,"
            " round(avg(l_quantity), 6) AS avg_qty,"
            " round(var_samp(l_quantity), 6) AS var_qty,"
            " count(*) AS n"
            " FROM lineitem GROUP BY l_returnflag",
        "events_sessions":
            "SELECT user_id, count(*) AS n_events,"
            " string_agg(event_type, '|' ORDER BY ts, event_id) AS seq"
            " FROM events GROUP BY user_id",
        "ann_topk":
            "SELECT query_id, vec_id, rank FROM ("
            " SELECT q.vec_id AS query_id, e.vec_id,"
            " row_number() OVER (PARTITION BY q.vec_id ORDER BY"
            " list_cosine_similarity(q.embedding, e.embedding) DESC, e.vec_id)"
            " AS rank"
            " FROM embeddings q CROSS JOIN embeddings e"
            " WHERE q.vec_id IN (0, 1, 2))"
            " WHERE rank <= 10",
        "emb_semdedup":
            f"WITH cents AS (SELECT vec_id AS cid, embedding AS cvec"
            f" FROM embeddings WHERE vec_id < {_KMEANS_K}),"
            " d AS (SELECT e.vec_id, c.cid,"
            " list_distance(e.embedding::DOUBLE[], c.cvec::DOUBLE[]) AS dist"
            " FROM embeddings e CROSS JOIN cents c),"
            " m AS (SELECT vec_id, cid, dist,"
            " min(dist) OVER (PARTITION BY vec_id) AS md FROM d),"
            " a AS (SELECT vec_id, min(cid) AS cluster FROM m"
            " WHERE dist = md GROUP BY vec_id),"
            " v AS (SELECT a.vec_id, a.cluster, e.embedding"
            " FROM a JOIN embeddings e USING (vec_id)),"
            " drp AS (SELECT DISTINCT x.vec_id FROM v x JOIN v y"
            " ON x.cluster = y.cluster AND y.vec_id < x.vec_id"
            " WHERE list_cosine_similarity(x.embedding::DOUBLE[],"
            " y.embedding::DOUBLE[]) >= 0.4)"
            " SELECT vec_id, cluster FROM v"
            " WHERE vec_id NOT IN (SELECT vec_id FROM drp)",
        "emb_cosine_dups":
            "SELECT x.vec_id AS a, y.vec_id AS b"
            " FROM embeddings x JOIN embeddings y ON x.vec_id < y.vec_id"
            " WHERE list_cosine_similarity(x.embedding, y.embedding) >= 0.5",
        "kg_synonym_triples":
            f"SELECT '{NS}taxon/'||trim(species_number) AS subj,"
            f" '{NS}synonym' AS pred, trim(latin_name) AS obj,"
            f" TRUE AS {lit}, {g_tax}"
            f" FROM read_parquet('{fx}/species_synonyms.parquet')"
            f" WHERE {_sent('species_number')} IS NOT NULL"
            f" AND {_sent('latin_name')} IS NOT NULL",
        "kg_traits_triples":
            f"SELECT 'https://eol.org/pages/'||trim(page_id) AS subj,"
            f" trim(predicate) AS pred, trim(value_uri) AS obj,"
            f" FALSE AS {lit}, 'eol_traits' AS graph"
            f" FROM read_parquet('{fx}/traits.parquet')"
            f" WHERE regexp_matches(trim(predicate), '{_URL_SQL}')"
            f" AND regexp_matches(trim(value_uri), '{_URL_SQL}')",
        "kg_term_labels":
            f"SELECT trim(uri) AS subj, '{RDFS_LABEL}' AS pred,"
            f" trim(name) AS obj, TRUE AS {lit}, 'eol_traits' AS graph"
            f" FROM read_parquet('{fx}/terms.parquet')"
            f" WHERE regexp_matches(trim(uri), '{_URL_SQL}')"
            f" AND length(trim(name)) > 0",
        "kg_eol_subclasses":
            f"SELECT trim(child) AS subj, '{RDFS_SUBCLASSOF}' AS pred,"
            f" trim(parent) AS obj, FALSE AS {lit}, 'eol_traits' AS graph"
            f" FROM read_parquet('{fx}/eol_rels.parquet')"
            f" WHERE regexp_matches(trim(child), '{_URL_SQL}')"
            f" AND regexp_matches(trim(parent), '{_URL_SQL}')",
        "chem_tanimoto":
            f"SELECT x.cas_number AS a, y.cas_number AS b,"
            f" round(bit_count(x.fp & y.fp) /"
            f" (bit_count(x.fp) + bit_count(y.fp) - bit_count(x.fp & y.fp)),"
            f" 6) AS tanimoto"
            f" FROM read_parquet('{fx}/chem_fingerprints.parquet') x"
            f" JOIN read_parquet('{fx}/chem_fingerprints.parquet') y"
            f" ON x.cas_number < y.cas_number"
            f" WHERE bit_count(x.fp & y.fp) /"
            f" (bit_count(x.fp) + bit_count(y.fp) - bit_count(x.fp & y.fp))"
            f" >= 0.7",
        "kg_taxa_triples": f"""
WITH b AS (
  SELECT {_sent('species_number')} AS sn, {_sent('common_name')} AS cn,
         {_sent('latin_name')} AS ln,
         replace({_sent('ecotox_group')}, ' ', '') AS grp
  FROM read_parquet('{fx}/species.parquet')
  WHERE {_sent('species_number')} IS NOT NULL
    AND {_sent('common_name')} IS NOT NULL
    AND {_sent('latin_name')} IS NOT NULL
    AND {_sent('ecotox_group')} IS NOT NULL
), gx AS (
  SELECT sn, unnest(string_split(grp, ',')) AS gname FROM b
)
SELECT '{NS}taxon/'||sn AS subj, '{NS}ecotoxGroup' AS pred,
       '{NS}group/'||gname AS obj, FALSE AS {lit}, {g_tax}
  FROM gx WHERE length(gname) > 0
UNION ALL
SELECT '{NS}group/'||gname, '{RDFS_LABEL}', gname, TRUE, 'ecotox_taxonomy'
  FROM gx WHERE length(gname) > 0
UNION ALL
SELECT '{NS}taxon/'||sn, '{NS}commonName', cn, TRUE, 'ecotox_taxonomy'
  FROM b WHERE length(cn) > 0
UNION ALL
SELECT '{NS}taxon/'||sn, '{NS}latinName', ln, TRUE, 'ecotox_taxonomy'
  FROM b WHERE length(ln) > 0
""",
        "kg_chemical_triples": _chemicals_sql(fx),
        "kg_hierarchy_triples": _hierarchy_sql(fx),
        "kg_endpoint_star": _star_sql(fx),
        # same join as the engine star — the SPARQL string compiles to
        # the identical BGP + OPTIONAL left-join
        "kg_sparql_star": _star_sql(fx),
        "kg_sparql_agg": _sparql_agg_sql(fx),
        "kg_sparql_having":
            f"SELECT * FROM ({_sparql_agg_sql(fx)}) WHERE n >= 5",
        # subquery: per-chemical counts joined to the distinct
        # (chemical, species) pairs of the cleaned tests table
        "kg_sparql_subquery":
            f"WITH pairs AS ("
            f"  SELECT DISTINCT '{NS}cas/'||trim(test_cas) AS chemical,"
            f"   '{NS}taxon/'||trim(species_number) AS species"
            f"  FROM read_parquet('{fx}/tests.parquet')"
            f"  WHERE {_sent('test_id')} IS NOT NULL"
            f"   AND {_sent('test_cas')} IS NOT NULL"
            f"   AND {_sent('species_number')} IS NOT NULL)"
            f" SELECT DISTINCT p.chemical, p.species, a.n"
            f" FROM pairs p JOIN ({_sparql_agg_sql(fx)}) a"
            f" USING (chemical)",
        "kg_sparql_nested_optional": _sparql_nested_optional_sql(fx),
        "kg_sparql_optional_filter": f"""
WITH t AS (
  SELECT DISTINCT trim(test_id) AS test_id
  FROM read_parquet('{fx}/tests.parquet')
  WHERE test_id NOT IN ({", ".join(f"'{v}'" for v in NAN_VALUES)})
    AND test_cas NOT IN ({", ".join(f"'{v}'" for v in NAN_VALUES)})
    AND species_number NOT IN ({", ".join(f"'{v}'" for v in NAN_VALUES)})
), sd AS (
  SELECT trim(test_id) AS test_id, trim(study_duration_mean) AS sd
  FROM read_parquet('{fx}/tests.parquet')
  WHERE test_id NOT IN ({", ".join(f"'{v}'" for v in NAN_VALUES)})
    AND test_cas NOT IN ({", ".join(f"'{v}'" for v in NAN_VALUES)})
    AND species_number NOT IN ({", ".join(f"'{v}'" for v in NAN_VALUES)})
    AND study_duration_mean NOT IN ({", ".join(f"'{v}'" for v in NAN_VALUES)})
    AND study_duration_mean IS NOT NULL
    AND trim(study_duration_mean) > '50'
)
SELECT DISTINCT '{NS}test/'||t.test_id AS test, sd.sd AS sd
FROM t LEFT JOIN sd ON sd.test_id = t.test_id
""",
        "kg_sparql_union": _sparql_union_sql(fx),
        # CONSTRUCT rewrite: the ns:Chemical-typed subjects are exactly
        # the cas/ subjects (groups type as ChemicalGroup), so the
        # rewritten graph is the DISTINCT (cas, altLabel, alias) set
        "kg_sparql_construct":
            f"SELECT DISTINCT '{NS}cas/'||cas AS subj,"
            f" 'http://www.w3.org/2004/02/skos/core#altLabel' AS pred,"
            f" alias AS obj FROM ("
            f"  SELECT {_sent('cas_number')} AS cas,"
            f"   unnest(string_split({_sent('chemical_name')}, ', ')) AS alias"
            f"  FROM read_parquet('{fx}/chemicals.parquet')"
            f"  WHERE {_sent('cas_number')} IS NOT NULL"
            f"   AND {_sent('chemical_name')} IS NOT NULL"
            f"   AND {_sent('ecotox_group')} IS NOT NULL)",
        # GRAPH scoping: only the chemicals graph's label triples
        # survive, i.e. cas→alias plus group→name pairs
        "kg_sparql_graph":
            f"WITH b AS ("
            f"  SELECT {_sent('cas_number')} AS cas,"
            f"   {_sent('chemical_name')} AS cname,"
            f"   {_sent('ecotox_group')} AS grp"
            f"  FROM read_parquet('{fx}/chemicals.parquet')"
            f"  WHERE {_sent('cas_number')} IS NOT NULL"
            f"   AND {_sent('chemical_name')} IS NOT NULL"
            f"   AND {_sent('ecotox_group')} IS NOT NULL)"
            f" SELECT DISTINCT '{NS}cas/'||cas AS s,"
            f"  unnest(string_split(cname, ', ')) AS l FROM b"
            f" UNION"
            f" SELECT '{NS}group/'||unnest(string_split(replace(replace("
            f"replace(grp, '/', ''), '.', ''), ' ', ''), ',')),"
            f"  unnest(string_split(grp, ',')) FROM b",
        # ASK existence over the emitter store; the negative probe looks
        # for a label value that no alias or group name can equal
        "kg_sparql_ask":
            f"WITH b AS ("
            f"  SELECT {_sent('cas_number')} AS cas,"
            f"   {_sent('chemical_name')} AS cname,"
            f"   {_sent('ecotox_group')} AS grp"
            f"  FROM read_parquet('{fx}/chemicals.parquet')"
            f"  WHERE {_sent('cas_number')} IS NOT NULL"
            f"   AND {_sent('chemical_name')} IS NOT NULL"
            f"   AND {_sent('ecotox_group')} IS NOT NULL)"
            f" SELECT (SELECT count(*) FROM b) > 0 AS ex,"
            f" (SELECT count(*) FROM b"
            f"   WHERE ', '||cname||', ' LIKE '%, no-such-label-xyz, %'"
            f"   OR ','||grp||',' LIKE '%,no-such-label-xyz,%') > 0"
            f" AS ex_missing",
        # MINUS anti-join: test URIs where NO row emitted a
        # studyDuration edge (gate: study_duration_mean non-sentinel)
        "kg_sparql_minus":
            f"WITH t AS ("
            f"  SELECT trim(test_id) AS test_id,"
            f"   {_sent('study_duration_mean')} AS sd"
            f"  FROM read_parquet('{fx}/tests.parquet')"
            f"  WHERE {_sent('test_id')} IS NOT NULL"
            f"   AND {_sent('test_cas')} IS NOT NULL"
            f"   AND {_sent('species_number')} IS NOT NULL)"
            f" SELECT DISTINCT '{NS}test/'||test_id AS t FROM t"
            f" WHERE test_id NOT IN"
            f"  (SELECT test_id FROM t WHERE sd IS NOT NULL)",
        # VALUES UNDEF wildcard: base = distinct (test, habitat) pairs;
        # Water-habitat solutions match both inline rows -> UNION ALL
        "kg_sparql_values_undef":
            f"WITH t AS ("
            f"  SELECT trim(test_id) AS test_id,"
            f"   {_sent('organism_habitat')} AS hab"
            f"  FROM read_parquet('{fx}/tests.parquet')"
            f"  WHERE {_sent('test_id')} IS NOT NULL"
            f"   AND {_sent('test_cas')} IS NOT NULL"
            f"   AND {_sent('species_number')} IS NOT NULL),"
            f" b AS (SELECT DISTINCT '{NS}test/'||test_id AS t,"
            f"  '{NS}habitat/'||hab AS h FROM t WHERE hab IS NOT NULL)"
            f" SELECT t, h FROM b"
            f" UNION ALL SELECT t, h FROM b"
            f" WHERE h = '{NS}habitat/Water'",
        # sequence path = (test, digit-filtered conc value) pairs from
        # cleaned result rows whose value survived the digit gate
        "kg_sparql_seq_path":
            f"SELECT DISTINCT '{NS}test/'||trim(test_id) AS t,"
            f" regexp_replace(trim(conc1_mean), '\\D', '', 'g') AS cc"
            f" FROM read_parquet('{fx}/results.parquet')"
            f" WHERE {_sent('test_id')} IS NOT NULL"
            f"  AND {_sent('endpoint')} IS NOT NULL"
            f"  AND {_sent('conc1_mean')} IS NOT NULL"
            f"  AND {_sent('conc1_unit')} IS NOT NULL"
            f"  AND {_sent('effect')} IS NOT NULL"
            f"  AND length(regexp_replace(trim(conc1_mean), '\\D', '',"
            f" 'g')) > 0",
        # BIND(STRAFTER(...)) namespace strip = the cleaned cas values
        "kg_sparql_bind":
            f"SELECT DISTINCT {_sent('cas_number')} AS cas"
            f" FROM read_parquet('{fx}/chemicals.parquet')"
            f" WHERE {_sent('cas_number')} IS NOT NULL"
            f"  AND {_sent('chemical_name')} IS NOT NULL"
            f"  AND {_sent('ecotox_group')} IS NOT NULL",
        # DESCRIBE ns:Chemical = every type edge naming the class (one
        # per surviving source row; the emitter store is not dedup'd)
        "kg_sparql_describe":
            f"SELECT '{NS}cas/'||{_sent('cas_number')} AS subj,"
            f" '{RDF_TYPE}' AS pred, '{NS}Chemical' AS obj"
            f" FROM read_parquet('{fx}/chemicals.parquet')"
            f" WHERE {_sent('cas_number')} IS NOT NULL"
            f"  AND {_sent('chemical_name')} IS NOT NULL"
            f"  AND {_sent('ecotox_group')} IS NOT NULL",
        # same recursion as kg_closure, projected to DISTINCT pairs
        # (existential path semantics)
        "kg_sparql_path":
            f"SELECT DISTINCT src AS s, anc AS o"
            f" FROM ({_closure_sql(fx)})",
        # ancestors-or-self: the recursion seeded with the anchor itself
        # (zero-length path — the constant end always matches itself)
        "kg_sparql_star_path": _star_path_sql(fx),
        # direct edges ∪ identity over every node of the full store
        "kg_sparql_zero_or_one": _zero_or_one_sql(fx),
        # bag-semantics concat in ascending value order — the engine
        # sorts values so the result is deterministic (module docs)
        # complement scan: every names-store triple whose predicate is
        # not in the negated set (bag semantics — no dedup)
        "kg_sparql_negated": _negated_sql(fx),
        # DELETE/INSERT WHERE: bag-delete + set-insert (EXCEPT)
        "kg_sparql_update": _update_sql(fx),
        # per-graph triple counts: each emitter yields one triple per
        # surviving source row, so counts = filtered row counts
        "kg_sparql_graph_var":
            f"SELECT 'ecotox_taxonomy' AS g, count(*)::BIGINT AS n"
            f" FROM read_parquet('{fx}/species_synonyms.parquet')"
            f" WHERE {_sent('species_number')} IS NOT NULL"
            f" AND {_sent('latin_name')} IS NOT NULL"
            f" UNION ALL"
            f" SELECT 'eol_traits', count(*)::BIGINT"
            f" FROM read_parquet('{fx}/terms.parquet')"
            f" WHERE regexp_matches(trim(uri), '{_URL_SQL}')"
            f" AND length(trim(name)) > 0",
        "kg_sparql_group_concat":
            f"SELECT '{NS}taxon/'||trim(species_number) AS s,"
            f" string_agg(trim(latin_name), '|'"
            f"   ORDER BY trim(latin_name)) AS syns"
            f" FROM read_parquet('{fx}/species_synonyms.parquet')"
            f" WHERE {_sent('species_number')} IS NOT NULL"
            f" AND {_sent('latin_name')} IS NOT NULL"
            f" GROUP BY 1",
        # compounds() scan: every cas/ subject the chemical emitter
        # produces (subjects exist iff all three source fields survive
        # sentinel-nullification, mirroring emit_chemicals' row gate)
        "kg_sparql_compounds":
            f"SELECT DISTINCT '{NS}cas/'||{_sent('cas_number')} AS s"
            f" FROM read_parquet('{fx}/chemicals.parquet')"
            f" WHERE {_sent('cas_number')} IS NOT NULL"
            f" AND {_sent('chemical_name')} IS NOT NULL"
            f" AND {_sent('ecotox_group')} IS NOT NULL",
        # fp_bits/fp_hex mirror bin(int).count('1') / hex(int) — fixed
        # integer identities, independent of the engine implementation
        "chem_enrich":
            f"SELECT '{NS}cas/'||c.cas_number AS chemical,"
            f" c.cas_number AS cas_number,"
            f" CAST(length(string_split(coalesce(c.chemical_name, ''),"
            f" ', ')) AS BIGINT) AS n_synonyms,"
            f" CAST(bit_count(f.fp) AS BIGINT) AS fp_bits,"
            f" '0x'||lower(to_hex(f.fp)) AS fp_hex"
            f" FROM read_parquet('{fx}/chemicals.parquet') c"
            f" LEFT JOIN read_parquet('{fx}/chem_fingerprints.parquet') f"
            f" USING (cas_number)",
        "kg_unionfind": _unionfind_sql(fx),
        "kg_chems_for_species":
            f"SELECT DISTINCT '{NS}cas/'||trim(test_cas) AS chemical"
            f" FROM read_parquet('{fx}/tests.parquet')"
            f" WHERE {_sent('test_id')} IS NOT NULL"
            f" AND {_sent('test_cas')} IS NOT NULL"
            f" AND trim(species_number) IN ("
            + ", ".join(f"'{s}'" for s in _SEMI_SPECIES) + ")",
        "kg_fuzzy_align": _fuzzy_align_sql(fx),
        "kg_hier_consensus": _hier_consensus_sql(fx),
        "src_pipe_roundtrip": _pipe_roundtrip_sql(fx),
        "src_nt_roundtrip": _nt_roundtrip_sql(fx),
        "src_ttl_roundtrip": _nt_roundtrip_sql(fx),
        "src_ttl_parse": _ttl_parse_sql(),
        "src_rdfxml_roundtrip": _nt_roundtrip_sql(fx),
        "src_rdfxml_parse": _rdfxml_parse_sql(),
        "docs_logreg_partials": _logreg_partials_sql(),
        "docs_bpe_pair_counts": _bpe_pair_counts_sql(),
        "src_jsonl_roundtrip":
            "SELECT doc_id, text, lang, source, n_chars FROM documents",
        "src_csv_roundtrip":
            "SELECT doc_id, text, lang, source, n_chars FROM documents",
        "kg_endpoint_mapping":
            f"SELECT CAST(src AS VARCHAR) AS src, CAST(dst AS VARCHAR) AS dst,"
            f" 1.0::DOUBLE AS score"
            f" FROM read_parquet('{fx}/sameas_pairs.parquet')",
        "docs_quality_stats": _quality_stats_sql(),
        "docs_quality": _docs_quality_sql(),
        "docs_fingerprint": _fingerprint_sql(),
        "docs_hash_embed": _hash_embed_sql(),
        # text → hashed vectors → nearest-centroid assignment, same
        # min-dist/min-cid convention as the kmeans oracle
        "docs_embed_cluster":
            f"WITH e AS ({_hash_embed_sql()}),"
            " cents AS (SELECT doc_id AS cid, embedding AS cvec"
            " FROM e WHERE doc_id < 8),"
            " d AS (SELECT e.doc_id, c.cid,"
            " list_distance(e.embedding::DOUBLE[], c.cvec::DOUBLE[])"
            " AS dist FROM e CROSS JOIN cents c),"
            " m AS (SELECT doc_id, cid, dist,"
            " min(dist) OVER (PARTITION BY doc_id) AS md FROM d)"
            " SELECT doc_id, min(cid) AS cluster FROM m"
            " WHERE dist = md GROUP BY doc_id",
        "docs_simhash_pairs": _simhash_pairs_sql(),
        "events_tumbling":
            "SELECT event_type,"
            " epoch_us(ts) - epoch_us(ts) % 3600000000 AS window_start,"
            " count(*) AS n_events, min(value) AS vmin, max(value) AS vmax"
            " FROM events GROUP BY 1, 2",
        "docs_minhash_dedup": _minhash_dedup_sql(),
        "docs_leakage_split":
            "WITH c AS (SELECT d.doc_id,"
            " coalesce(m.dst, CAST(d.doc_id AS VARCHAR)) AS canon_id"
            " FROM documents d LEFT JOIN (" + _minhash_dedup_sql() + ") m"
            " ON CAST(d.doc_id AS VARCHAR) = m.src),"
            " h AS (SELECT doc_id, canon_id,"
            " (" + _fnv_sql("'split:'||canon_id") + " % 10000) AS b FROM c)"
            " SELECT doc_id, canon_id,"
            " CASE WHEN b < 9000 THEN 'train'"
            " WHEN b < 9500 THEN 'val' ELSE 'test' END AS split FROM h",
        "conv_training_examples":
            f"WITH seqs AS (SELECT conv_id,"
            f" string_agg(text, ' ' ORDER BY turn_idx, ts) AS text"
            f" FROM read_parquet('{fx}/transcripts.parquet')"
            f" GROUP BY conv_id),"
            " tk AS (SELECT conv_id,"
            " list_filter(string_split_regex(text, '\\s+'),"
            " x -> x <> '') AS l FROM seqs),"
            " s AS (SELECT conv_id, l,"
            " unnest(generate_series(0, len(l) - 1, 24)) AS st"
            " FROM tk WHERE len(l) > 0)"
            " SELECT conv_id, (st // 24)::BIGINT AS chunk_idx,"
            " len(l[st + 1 : least(st + 32, len(l))])::BIGINT AS n_tokens,"
            " array_to_string(l[st + 1 : least(st + 32, len(l))], ' ')"
            " AS chunk_text FROM s",
        "returned_revenue":
            "SELECT o_custkey, c_name, c_mktsegment, revenue_cents FROM"
            " (SELECT o_custkey,"
            " CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100)"
            " AS BIGINT)) AS BIGINT) AS revenue_cents"
            " FROM lineitem JOIN orders ON l_orderkey = o_orderkey"
            " WHERE l_returnflag = 'R' GROUP BY o_custkey)"
            " JOIN customer ON o_custkey = c_custkey"
            " ORDER BY revenue_cents DESC, o_custkey LIMIT 20",
        "emb_quantize":
            "WITH s AS (SELECT vec_id, embedding::DOUBLE[] AS e,"
            " list_max(list_transform(embedding::DOUBLE[],"
            " x -> abs(x))) / 127.0 AS scale FROM embeddings)"
            " SELECT vec_id, scale,"
            " CASE WHEN scale > 0 THEN list_sum(list_transform(e,"
            " x -> floor(x / scale + 0.5)))::BIGINT"
            " ELSE 0 END AS qsum FROM s",
        "events_interarrival":
            "WITH g AS (SELECT user_id,"
            " epoch_us(lead(ts) OVER (PARTITION BY user_id"
            " ORDER BY ts, event_id)) - epoch_us(ts) AS dt"
            " FROM events)"
            " SELECT user_id, count(*) AS n_gaps,"
            " round(avg(dt) / 1000000.0, 6) AS mean_gap_s,"
            " max(dt) / 1000000.0 AS max_gap_s"
            " FROM g WHERE dt IS NOT NULL GROUP BY user_id",
        "lang_quality_means":
            "WITH q AS (" + _quality_stats_sql() + ")"
            " SELECT d.lang, count(*) AS n,"
            " round(avg(q.quality), 6) AS mean_quality"
            " FROM q JOIN documents d ON q.doc_id = d.doc_id"
            " GROUP BY d.lang",
        "source_top_tokens":
            "WITH tk AS (SELECT source,"
            " unnest(string_split_regex(lower(text), '\\W+')) AS token"
            " FROM documents),"
            " c AS (SELECT source, token, count(*) AS cnt FROM tk"
            " WHERE token <> '' GROUP BY source, token)"
            " SELECT source, token, cnt FROM"
            " (SELECT source, token, cnt, row_number() OVER"
            " (PARTITION BY source ORDER BY cnt DESC, token) AS rn"
            " FROM c) WHERE rn <= 3",
        "events_time_weighted":
            "WITH seg AS (SELECT user_id, value,"
            " epoch_us(lead(ts) OVER (PARTITION BY user_id"
            " ORDER BY ts, event_id)) - epoch_us(ts) AS dt"
            " FROM events)"
            " SELECT user_id,"
            " round(sum(value * dt) / sum(dt), 6) AS twa"
            " FROM seg WHERE dt > 0 GROUP BY user_id",
        "lineitem_mode":
            "SELECT l_returnflag, l_linestatus AS mode_value, n FROM"
            " (SELECT l_returnflag, l_linestatus, count(*) AS n,"
            " row_number() OVER (PARTITION BY l_returnflag"
            " ORDER BY count(*) DESC, l_linestatus) AS rn"
            " FROM lineitem GROUP BY 1, 2) WHERE rn = 1",
        "events_hll_per_type":
            "WITH v AS (SELECT DISTINCT event_type AS k,"
            " user_id::VARCHAR AS s FROM events"
            " WHERE user_id IS NOT NULL AND event_type IS NOT NULL),"
            f" h0 AS (SELECT k, {_fnv_sql('s')} AS h FROM v),"
            f" m1 AS (SELECT k, {_xor64_sql('h', 'h // 8589934592')} AS h"
            " FROM h0),"
            " m2 AS (SELECT k, (h * 1099511628211::HUGEINT)"
            " % 18446744073709551616::HUGEINT AS h FROM m1),"
            f" m3 AS (SELECT k, {_xor64_sql('h', 'h // 8589934592')} AS h"
            " FROM m2),"
            " m4 AS (SELECT k, (h * 1099511628211::HUGEINT)"
            " % 18446744073709551616::HUGEINT AS h FROM m3),"
            f" h AS (SELECT k, {_xor64_sql('h', 'h // 536870912')} AS h"
            " FROM m4),"
            " b AS (SELECT k, (h // 1125899906842624)::BIGINT AS reg,"
            " (h % 1125899906842624)::BIGINT AS low FROM h),"
            " r AS (SELECT k, reg, max(CASE WHEN low = 0 THEN 51"
            " ELSE 50 - CAST(floor(log2(low)) AS BIGINT) END) AS rho"
            " FROM b GROUP BY k, reg),"
            " agg AS (SELECT k, count(*) AS nreg,"
            " sum(pow(2.0, -rho)) AS s FROM r GROUP BY k),"
            " est AS (SELECT k, 16384 - nreg AS zeros,"
            " s + (16384 - nreg) AS ss FROM agg),"
            " e1 AS (SELECT k, zeros,"
            " (0.7213/(1 + 1.079/16384)) * 16384 * 16384 / ss AS e"
            " FROM est)"
            " SELECT k AS event_type,"
            " round(CASE WHEN e <= 2.5*16384 AND zeros > 0"
            " THEN 16384 * ln(16384.0/zeros) ELSE e END, 6)"
            " AS approx_n FROM e1",
        "lineitem_corr":
            "SELECT l_returnflag,"
            " count(*) FILTER (l_quantity IS NOT NULL"
            " AND l_extendedprice IS NOT NULL) AS n,"
            " round(covar_samp(l_quantity, l_extendedprice), 6) AS covar,"
            " round(corr(l_quantity, l_extendedprice), 6) AS corr"
            " FROM lineitem GROUP BY l_returnflag",
        "events_fill_forward":
            "SELECT event_id, user_id,"
            " last_value(CASE WHEN event_type='purchase' THEN value END"
            " IGNORE NULLS) OVER (PARTITION BY user_id"
            " ORDER BY ts, event_id"
            " ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)"
            " AS last_purchase FROM events",
        "events_rolling":
            "SELECT event_id, user_id,"
            " round(avg(value) OVER w4, 6) AS roll_avg,"
            " round(sum(value) OVER w4, 6) AS roll_sum,"
            " round(stddev_samp(value) OVER w4, 6) AS roll_std,"
            " percent_rank() OVER"
            " (PARTITION BY user_id ORDER BY ts, event_id) AS pr,"
            " ntile(4) OVER"
            " (PARTITION BY user_id ORDER BY ts, event_id) AS tile"
            " FROM events WINDOW w4 AS"
            " (PARTITION BY user_id ORDER BY ts, event_id"
            " ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)",
        "docs_chunk_windows":
            "WITH tk AS (SELECT doc_id,"
            " list_filter(string_split_regex(text, '\\s+'),"
            " x -> x <> '') AS l FROM documents),"
            " s AS (SELECT doc_id, l,"
            " unnest(generate_series(0, len(l) - 1, 24)) AS st"
            " FROM tk WHERE len(l) > 0)"
            " SELECT doc_id, (st // 24)::BIGINT AS chunk_idx,"
            " len(l[st + 1 : least(st + 32, len(l))])::BIGINT AS n_tokens,"
            " array_to_string(l[st + 1 : least(st + 32, len(l))], ' ')"
            " AS chunk_text FROM s",
        "orders_profile":
            "SELECT 'o_custkey' AS \"column\", count(*) AS n,"
            " sum(CASE WHEN o_custkey IS NULL THEN 1 ELSE 0 END)::BIGINT"
            " AS n_null, count(DISTINCT o_custkey) AS n_distinct"
            " FROM orders"
            " UNION ALL SELECT 'o_orderpriority', count(*),"
            " sum(CASE WHEN o_orderpriority IS NULL THEN 1 ELSE 0"
            " END)::BIGINT, count(DISTINCT o_orderpriority) FROM orders"
            " UNION ALL SELECT 'o_totalprice', count(*),"
            " sum(CASE WHEN o_totalprice IS NULL THEN 1 ELSE 0"
            " END)::BIGINT, count(DISTINCT o_totalprice) FROM orders",
        "conv_role_stats":
            f"SELECT conv_id, count(*) AS n_turns,"
            f" CAST(sum(CASE WHEN role = 'user' THEN 1 ELSE 0 END)"
            f" AS BIGINT) AS n_user,"
            f" CAST(sum(CASE WHEN role = 'assistant' THEN 1 ELSE 0 END)"
            f" AS BIGINT) AS n_assistant,"
            f" CAST(sum(CASE WHEN coalesce(tool, '') <> '' THEN 1 ELSE 0"
            f" END) AS BIGINT) AS n_tool_calls,"
            f" round((epoch_us(max(ts)) - epoch_us(min(ts)))"
            f" / 1000000.0, 6) AS duration_s"
            f" FROM read_parquet('{fx}/transcripts.parquet')"
            f" GROUP BY conv_id",
        "docs_weighted_sample":
            "WITH p AS (SELECT doc_id, source, n_chars,"
            " round(pow(((" + _fnv_sql("'wsample:'||doc_id::VARCHAR") +
            " % 9007199254740992) + 1) / 9007199254740992.0,"
            " 1.0 / n_chars), 9) AS pr"
            " FROM documents WHERE n_chars > 0)"
            " SELECT doc_id, source, n_chars FROM p"
            " QUALIFY row_number() OVER (PARTITION BY source"
            " ORDER BY pr DESC, doc_id) <= 20",
        "docs_dup_rate":
            "WITH m AS (" + _minhash_dedup_sql() + ")"
            " SELECT d.source, count(*) AS n_docs,"
            " count(m.src) AS n_dups,"
            " round(count(m.src)::DOUBLE / count(*), 6) AS dup_rate"
            " FROM documents d LEFT JOIN m"
            " ON CAST(d.doc_id AS VARCHAR) = m.src"
            " GROUP BY d.source",
        "events_skew_stats":
            "WITH c AS (SELECT event_type, count(*)::DOUBLE AS c"
            " FROM events GROUP BY 1)"
            " SELECT sum(c)::BIGINT AS n, count(*)::BIGINT AS n_keys,"
            " round(max(c)/sum(c), 6) AS top1_share,"
            " round(log2(sum(c)) - sum(c*log2(c))/sum(c), 6)"
            " AS entropy_bits FROM c",
        "events_asof_view":
            "WITH o AS (SELECT user_id, ts, event_id, event_type,"
            " last_value(CASE WHEN event_type='view' THEN event_id END"
            " IGNORE NULLS) OVER w AS view_id,"
            " last_value(CASE WHEN event_type='view' THEN ts END"
            " IGNORE NULLS) OVER w AS view_ts"
            " FROM events WHERE event_type IN ('click','view')"
            " WINDOW w AS (PARTITION BY user_id ORDER BY ts"
            " ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING))"
            " SELECT user_id, ts, event_id AS click_id, view_ts, view_id"
            " FROM o WHERE event_type='click' AND view_id IS NOT NULL",
        "events_attribution":
            "SELECT c.user_id, c.ts, c.event_id AS click_id,"
            " p.event_id AS purchase_id"
            " FROM events p JOIN events c ON c.user_id = p.user_id"
            " WHERE p.event_type='purchase' AND c.event_type='click'"
            " AND c.ts >= p.ts - INTERVAL 24 HOUR AND c.ts < p.ts",
        "events_salted_join":
            "SELECT e.event_id, e.user_id, u.user_events, u.first_event"
            " FROM events e JOIN"
            " (SELECT user_id, COUNT(*) AS user_events,"
            "  MIN(event_id) AS first_event FROM events GROUP BY user_id) u"
            " USING (user_id)",
        "events_sliding":
            "SELECT event_type,"
            " (epoch_us(ts) - epoch_us(ts) % 1800000000)"
            " - i*1800000000 AS window_start,"
            " count(*) AS n_events, min(value) AS vmin, max(value) AS vmax"
            " FROM events CROSS JOIN"
            " (SELECT unnest(generate_series(0,3)) AS i) GROUP BY 1, 2",
        "lineitem_quantiles":
            "SELECT CAST(0.25 AS DOUBLE) AS q,"
            " quantile_cont(l_extendedprice, 0.25) AS value FROM lineitem"
            " UNION ALL SELECT 0.5, quantile_cont(l_extendedprice, 0.5)"
            " FROM lineitem"
            " UNION ALL SELECT 0.75, quantile_cont(l_extendedprice, 0.75)"
            " FROM lineitem"
            " UNION ALL SELECT 0.9, quantile_cont(l_extendedprice, 0.9)"
            " FROM lineitem",
        "lineitem_window":
            "SELECT l_orderkey, l_linenumber, l_quantity, l_partkey,"
            " row_number() OVER w AS rn,"
            " lag(l_quantity) OVER w AS prev_qty,"
            " lead(l_quantity) OVER w AS next_qty,"
            " sum(l_quantity) OVER (PARTITION BY l_orderkey"
            " ORDER BY l_linenumber, l_quantity, l_partkey"
            " ROWS UNBOUNDED PRECEDING) AS run_qty"
            " FROM lineitem WINDOW w AS (PARTITION BY l_orderkey"
            " ORDER BY l_linenumber, l_quantity, l_partkey)",
        "orders_rank":
            "SELECT o_custkey, o_orderkey, o_orderpriority,"
            " rank() OVER w AS rk, dense_rank() OVER w AS drk"
            " FROM orders"
            " WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderpriority)",
        "orders_top3_per_customer":
            "SELECT o_custkey, o_orderkey, o_totalprice FROM"
            " (SELECT *, row_number() OVER (PARTITION BY o_custkey"
            " ORDER BY o_totalprice DESC, o_orderkey) AS rn FROM orders)"
            " WHERE rn <= 3",
        "customers_no_urgent":
            "SELECT c_custkey, c_name FROM customer"
            " WHERE c_custkey NOT IN (SELECT o_custkey FROM orders"
            " WHERE o_orderpriority = '1-URGENT')",
        "orders_building_semi":
            "SELECT o_orderkey, o_custkey, o_totalprice FROM orders"
            " WHERE o_custkey IN (SELECT c_custkey FROM customer"
            " WHERE c_mktsegment = 'BUILDING')",
        "lineitem_bloom_semi":
            "SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem"
            " WHERE l_orderkey IN (SELECT o_orderkey FROM orders"
            " WHERE o_orderpriority = '1-URGENT')",
        "events_heavy_users":
            "SELECT user_id, count(*) AS cnt FROM events GROUP BY user_id"
            " HAVING count(*) >= 0.007 * (SELECT count(*) FROM events)",
        "nation_revenue":
            "SELECT n_name, CAST(sum(CAST("
            "round(l_extendedprice*(1-l_discount)*100) AS BIGINT))"
            " AS BIGINT) AS revenue_cents"
            " FROM region JOIN nation ON n_regionkey = r_regionkey"
            " JOIN customer ON c_nationkey = n_nationkey"
            " JOIN orders ON o_custkey = c_custkey"
            " JOIN lineitem ON l_orderkey = o_orderkey"
            " JOIN supplier ON s_suppkey = l_suppkey"
            " AND s_nationkey = c_nationkey"
            " WHERE r_name = 'ASIA' GROUP BY n_name",
        "docs_pack_chunks":
            r"WITH c AS (SELECT doc_id,"
            r" len(regexp_extract_all(coalesce(text, ''), '\S+')) AS n"
            r" FROM documents),"
            " p AS (SELECT doc_id, n, coalesce(sum(n) OVER"
            " (ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND"
            " 1 PRECEDING), 0)::BIGINT AS prefix FROM c)"
            " SELECT doc_id, n AS n_tokens, prefix,"
            " prefix // 2048 AS first_chunk,"
            " prefix % 2048 AS chunk_offset,"
            " CASE WHEN n = 0 THEN prefix // 2048"
            " ELSE (prefix + n - 1) // 2048 END AS last_chunk FROM p",
        # same rounding convention as the centroids oracle; var_samp
        # mirrors the engine's (Σx² − n·μ²)/(n−1) sample variance
        "emb_dim_stats":
            "WITH u AS (SELECT unnest(embedding) AS v,"
            " unnest(range(0, len(embedding))) AS dim FROM embeddings)"
            " SELECT dim,"
            " round_even(avg(v::DOUBLE) * 1e6, 0) / 1e6 AS mean,"
            " round_even(var_samp(v::DOUBLE) * 1e6, 0) / 1e6 AS var"
            " FROM u GROUP BY dim",
        "emb_label_centroids":
            "WITH u AS (SELECT label, unnest(embedding) AS v,"
            " unnest(range(0, len(embedding))) AS dim FROM embeddings)"
            " SELECT label, dim,"
            " round_even(avg(v::DOUBLE) * 1e6, 0) / 1e6 AS mean"
            " FROM u GROUP BY label, dim",
        "emb_kmeans_assign":
            f"WITH cents AS (SELECT vec_id AS cid, embedding AS cvec"
            f" FROM embeddings WHERE vec_id < {_KMEANS_K}),"
            " d AS (SELECT e.vec_id, c.cid,"
            " list_distance(e.embedding::DOUBLE[], c.cvec::DOUBLE[]) AS dist"
            " FROM embeddings e CROSS JOIN cents c),"
            " m AS (SELECT vec_id, cid, dist,"
            " min(dist) OVER (PARTITION BY vec_id) AS md FROM d)"
            " SELECT vec_id, min(cid) AS cluster FROM m"
            " WHERE dist = md GROUP BY vec_id",
        "emb_kmeans_iter":
            f"WITH cents AS (SELECT vec_id AS cid, embedding AS cvec"
            f" FROM embeddings WHERE vec_id < {_KMEANS_K}),"
            " d AS (SELECT e.vec_id, c.cid,"
            " list_distance(e.embedding::DOUBLE[], c.cvec::DOUBLE[]) AS dist,"
            " list_sum(e.embedding::DOUBLE[]) AS vsum"
            " FROM embeddings e CROSS JOIN cents c),"
            " m AS (SELECT vec_id, cid, dist, vsum,"
            " min(dist) OVER (PARTITION BY vec_id) AS md FROM d),"
            " a AS (SELECT vec_id, min(cid) AS cluster,"
            " any_value(vsum) AS vsum FROM m WHERE dist = md"
            " GROUP BY vec_id)"
            " SELECT cluster, count(*)::BIGINT AS n,"
            " round(sum(vsum)/count(*), 6) AS mean_sum"
            " FROM a GROUP BY cluster",
        "docs_postings":
            "WITH toks AS (SELECT doc_id,"
            " unnest(string_split_regex(lower(text), '[^a-z0-9]+'))"
            " AS token FROM documents),"
            " t2 AS (SELECT DISTINCT doc_id, token FROM toks"
            " WHERE token <> '')"
            " SELECT token, count(*)::BIGINT AS df,"
            " list(doc_id ORDER BY doc_id) AS postings"
            " FROM t2 GROUP BY token HAVING count(*) >= 5",
        "docs_keyword_tags":
            "SELECT d.doc_id, k.keyword FROM documents d"
            " CROSS JOIN (VALUES " +
            ", ".join(f"('{k}')" for k in sorted(set(_KEYWORDS))) +
            ") AS k(keyword) WHERE contains(d.text, k.keyword)",
        "lineitem_zscore":
            "SELECT l_returnflag, l_orderkey, l_linenumber,"
            " round((l_extendedprice"
            " - avg(l_extendedprice) OVER (PARTITION BY l_returnflag))"
            " / NULLIF(stddev_samp(l_extendedprice)"
            " OVER (PARTITION BY l_returnflag), 0), 6) AS z"
            " FROM lineitem",
        "events_mad_outliers":
            "WITH med AS (SELECT event_type AS g, median(value) AS med"
            " FROM events GROUP BY 1),"
            " ad AS (SELECT e.event_type AS g, e.event_id, e.value,"
            " abs(e.value - m.med) AS adev, m.med"
            " FROM events e JOIN med m ON e.event_type = m.g),"
            " mad AS (SELECT g, median(adev) AS mad FROM ad GROUP BY g)"
            " SELECT a.g AS event_type, a.event_id, a.value"
            " FROM ad a JOIN mad d ON a.g = d.g"
            " WHERE round(abs(a.value - a.med) / NULLIF(d.mad, 0), 9)"
            " > 3.0",
        "lineitem_winsorize":
            "SELECT l_returnflag, l_orderkey, l_linenumber,"
            " least(greatest(l_extendedprice,"
            " quantile_cont(l_extendedprice, 0.05)"
            " OVER (PARTITION BY l_returnflag)),"
            " quantile_cont(l_extendedprice, 0.95)"
            " OVER (PARTITION BY l_returnflag)) AS clipped"
            " FROM lineitem",
        "docs_bool_search":
            "SELECT doc_id FROM documents WHERE " + " AND ".join(
                f"list_contains(string_split_regex(lower(text),"
                f" '[^a-z0-9]+'), '{n}')" for n in _BOOL_NEEDLES),
        "docs_bm25_topk": _bm25_sql(),
        "media_validate":
            "WITH r AS (SELECT media_id,"
            " CASE WHEN coalesce(octet_length(payload), 0) = 0"
            " THEN 'empty_payload'"
            " WHEN kind NOT IN ('image', 'audio', 'video')"
            " THEN 'unknown_kind'"
            " WHEN regexp_replace(coalesce(mime, ''), '/.*$', '') <> kind"
            " THEN 'mime_mismatch'"
            " WHEN kind IN ('image', 'video')"
            " AND (coalesce(width, 0) <= 0 OR coalesce(height, 0) <= 0)"
            " THEN 'bad_dims'"
            " WHEN kind IN ('audio', 'video')"
            " AND coalesce(duration_ms, 0) <= 0 THEN 'bad_duration'"
            " END AS reason"
            f" FROM read_parquet('{FX_MEDIA}'))"
            " SELECT media_id, reason IS NULL AS ok, reason FROM r",
        # the dispatch's n_units is a pure metadata function of the
        # validated rows (1/image, duration-derived windows capped at
        # FEAT_DIM=16 for audio, num_frames=2 for video) — the decode
        # stubs are deterministic, so the whole routing is SQL-checkable
        "media_dispatch":
            "SELECT media_id, kind,"
            " CAST(CASE kind WHEN 'image' THEN 1 WHEN 'video' THEN 2"
            " ELSE least(16, greatest(1, duration_ms // 250)) END"
            " AS INTEGER) AS n_units"
            f" FROM read_parquet('{FX_MEDIA}')"
            " WHERE coalesce(octet_length(payload), 0) > 0"
            " AND kind IN ('image', 'audio', 'video')"
            " AND regexp_replace(coalesce(mime, ''), '/.*$', '') = kind"
            " AND NOT (kind IN ('image', 'video')"
            "  AND (coalesce(width, 0) <= 0 OR coalesce(height, 0) <= 0))"
            " AND NOT (kind IN ('audio', 'video')"
            "  AND coalesce(duration_ms, 0) <= 0)",
        "docs_dup_spans":
            "WITH toks AS (SELECT doc_id,"
            " list_filter(string_split_regex(lower(text), '[^a-z0-9]+'),"
            " x -> x <> '') AS l FROM documents),"
            " s AS (SELECT doc_id, array_to_string(l[i:i+7], ' ') AS span"
            " FROM toks, unnest(generate_series(1, len(l) - 7)) AS g(i)),"
            " d AS (SELECT DISTINCT doc_id, span FROM s),"
            " c AS (SELECT span, count(DISTINCT doc_id) AS nd"
            " FROM d GROUP BY span)"
            " SELECT d.doc_id, count(*)::BIGINT AS n_spans,"
            " sum(CASE WHEN c.nd >= 2 THEN 1 ELSE 0 END)::BIGINT"
            " AS n_dup_spans"
            " FROM d JOIN c USING (span) GROUP BY d.doc_id",
        "lineitem_orders_join":
            "SELECT l_orderkey, l_linenumber, l_extendedprice,"
            " o_custkey, o_totalprice FROM lineitem"
            " JOIN orders ON l_orderkey = o_orderkey",
        "orders_customer_left":
            "SELECT o_orderkey, o_custkey, c_mktsegment FROM orders"
            " LEFT JOIN (SELECT * FROM customer"
            " WHERE c_mktsegment = 'BUILDING') c"
            " ON o_custkey = c_custkey",
        "customer_urgent_full":
            "SELECT COALESCE(c.c_custkey, o.o_custkey) AS c_custkey,"
            " c.c_mktsegment, o.urgent_cnt"
            " FROM (SELECT c_custkey, c_mktsegment FROM customer"
            " WHERE c_mktsegment = 'BUILDING') c"
            " FULL OUTER JOIN (SELECT o_custkey, count(*) AS urgent_cnt"
            " FROM orders WHERE o_orderpriority = '1-URGENT'"
            " GROUP BY o_custkey) o"
            " ON c.c_custkey = o.o_custkey",
        "orders_priority_quantiles":
            "WITH a AS (SELECT o_orderpriority,"
            " quantile_cont(o_totalprice, [0.25, 0.5, 0.75]) AS vs"
            " FROM orders GROUP BY 1)"
            " SELECT o_orderpriority,"
            " unnest([0.25::DOUBLE, 0.5::DOUBLE, 0.75::DOUBLE]) AS q,"
            " unnest(vs) AS value FROM a",
        "kg_species_list":
            f"SELECT DISTINCT '{NS}taxon/'||trim(species_number) AS species"
            f" FROM read_parquet('{fx}/tests.parquet')"
            f" WHERE {_sent('test_id')} IS NOT NULL"
            f" AND {_sent('test_cas')} IS NOT NULL"
            f" AND {_sent('species_number')} IS NOT NULL",
        "kg_chemicals_list":
            f"SELECT DISTINCT '{NS}cas/'||trim(test_cas) AS chemical"
            f" FROM read_parquet('{fx}/tests.parquet')"
            f" WHERE {_sent('test_id')} IS NOT NULL"
            f" AND {_sent('test_cas')} IS NOT NULL"
            f" AND {_sent('species_number')} IS NOT NULL",
        "kg_conversations":
            f"SELECT conv_id, count(*) AS n_turns,"
            f" string_agg(text, chr(31) ORDER BY turn_idx, ts) AS seq"
            f" FROM read_parquet('{fx}/transcripts.parquet') GROUP BY conv_id",
        "kg_build_structural": _structural_sql(fx),
        "kg_incremental_structural": _structural_sql(fx),
        "kg_canonical_structural": _structural_sql(fx),
        "kg_bgp_match":
            "WITH tr AS (" + _structural_sql(fx) + ")"
            " SELECT a.subj AS c, a.obj AS t, b.obj AS p"
            " FROM (SELECT * FROM tr WHERE pred ="
            " 'https://cfpub.epa.gov/ecotox/hasTurn') a"
            " LEFT JOIN (SELECT * FROM tr WHERE pred ="
            " 'https://cfpub.epa.gov/ecotox/precededBy') b"
            " ON a.obj = b.subj",
        "kg_ncbi_hierarchy": _ncbi_hierarchy_sql(fx),
        "kg_ncbi_names": _ncbi_names_sql(fx),
        "kg_sparql_service": _kg_sparql_service_sql(fx),
        "kg_sparql_arith": f"""
SELECT DISTINCT '{NS}test/'||trim(test_id) AS t,
       CAST(trim(study_duration_mean) AS DOUBLE) *
       CASE trim(study_duration_unit) WHEN 'd' THEN 24
            WHEN 'w' THEN 168 ELSE 1 END AS h
FROM read_parquet('{fx}/tests.parquet')
WHERE {_sent('test_id')} IS NOT NULL
  AND {_sent('test_cas')} IS NOT NULL
  AND {_sent('species_number')} IS NOT NULL
  AND {_sent('study_duration_mean')} IS NOT NULL
  AND {_sent('study_duration_unit')} IS NOT NULL
""",
        "kg_sparql_select_expr": f"""
WITH n AS ({_ncbi_names_sql(fx)}),
sci AS (SELECT DISTINCT subj AS t, obj AS nm FROM n
        WHERE pred = '{_ncbi_ns()}scientific_name'),
un AS (SELECT DISTINCT subj AS t, obj AS u FROM n
       WHERE pred = '{_ncbi_ns()}uniqueName')
SELECT DISTINCT sci.t AS t, upper(sci.nm) AS un,
       coalesce(un.u, '-') AS u
FROM sci LEFT JOIN un ON un.t = sci.t
""",
        "kg_divisions": _divisions_sql(fx),
        "kg_subgraph": _subgraph_sql(fx),
        "kg_ranks":
            f"SELECT DISTINCT subj FROM ({_ncbi_hierarchy_sql(fx)})"
            f" WHERE pred = '{RDF_TYPE}' AND obj = '{_ncbi_ns()}Rank'",
        "kg_rank_taxa":
            f"SELECT DISTINCT subj FROM ({_ncbi_hierarchy_sql(fx)})"
            f" WHERE pred = '{_ncbi_ns()}rank'"
            f" AND obj = '{_ncbi_ns()}rank/species'",
        "kg_ssd_members":
            f"SELECT DISTINCT subj FROM ({_ncbi_hierarchy_sql(fx)})"
            f" WHERE pred = '{RDFS_SUBCLASSOF}'"
            f" AND obj = '{_ncbi_ns()}taxon/990000'",
        "kg_which_features":
            f"SELECT DISTINCT pred FROM ({_chemicals_sql(fx)})"
            f" WHERE subj = '{NS}cas/50000'",
        "kg_chemical_names":
            f"WITH c AS ({_chemicals_sql(fx)})"
            f" SELECT DISTINCT l.subj AS chemical, l.obj AS name"
            f" FROM c l WHERE l.pred = '{RDFS_LABEL}' AND l.subj IN"
            f" (SELECT subj FROM c WHERE pred = '{RDF_TYPE}'"
            f"  AND obj = '{NS}Chemical')",
        "kg_class_hierarchy": _class_hierarchy_sql(fx),
        "kg_closure": _closure_sql(fx),
        "kg_siblings": _siblings_sql(fx),
        "kg_alt_labels": _alt_labels_sql(fx),
        "kg_convert_id":
            f"SELECT a.src AS src, b.dst AS dst,"
            f" least(a.score, b.score) AS score"
            f" FROM read_parquet('{fx}/sameas_pairs.parquet') a"
            f" JOIN read_parquet('{fx}/sameas_pairs.parquet') b"
            f" ON a.dst = b.src",
        "docs_ngram_jaccard": _ngram_jaccard_sql(),
        "docs_pii_scrub": _pii_scrub_sql(),
        "docs_split":
            f"WITH h AS (SELECT doc_id,"
            f" ({split_h} % 10000) AS b"
            f" FROM documents)"
            f" SELECT doc_id, CASE WHEN b < 9000 THEN 'train'"
            f" WHEN b < 9500 THEN 'val' ELSE 'test' END AS split FROM h",
        "dq_orders_checks":
            "WITH t AS (SELECT count(*) AS n FROM orders),"
            " u(chk, col, n, violations) AS ("
            " SELECT 'not_null', 'o_custkey', t.n,"
            "  (SELECT count(*) FROM orders WHERE o_custkey IS NULL)"
            "  FROM t"
            " UNION ALL SELECT 'in_range', 'o_totalprice', t.n,"
            "  (SELECT count(*) FROM orders WHERE o_totalprice < 0"
            "   OR o_totalprice > 450000) FROM t"
            " UNION ALL SELECT 'in_set', 'o_orderstatus', t.n,"
            "  (SELECT count(*) FROM orders WHERE o_orderstatus IS NOT"
            "   NULL AND o_orderstatus NOT IN ('O','F')) FROM t"
            " UNION ALL SELECT 'matches', 'o_orderpriority', t.n,"
            "  (SELECT count(*) FROM orders WHERE o_orderpriority IS NOT"
            "   NULL AND NOT regexp_matches(o_orderpriority, '^[1-5]-'))"
            "  FROM t"
            " UNION ALL SELECT 'unique', 'o_orderkey', t.n,"
            "  t.n - (SELECT count(*) FROM"
            "   (SELECT DISTINCT o_orderkey FROM orders)) FROM t"
            " UNION ALL SELECT 'foreign_key', 'o_custkey', t.n,"
            "  (SELECT count(*) FROM orders o WHERE NOT EXISTS"
            "   (SELECT 1 FROM customer c WHERE c.c_custkey ="
            "    o.o_custkey)) FROM t)"
            " SELECT chk, col, n, violations,"
            " round(violations / n::DOUBLE, 6) AS frac,"
            " violations = 0 AS passed FROM u",
        "dq_approx_unique": _dq_approx_unique_sql(),
        "dq_approx_fk": _dq_approx_fk_sql(),
        "docs_drift_psi":
            f"WITH h AS (SELECT n_chars,"
            f" ({split_h} % 10000) AS b FROM documents),"
            " s AS (SELECT n_chars, CASE WHEN b < 9000 THEN 'train'"
            "  WHEN b < 9500 THEN 'val' ELSE 'test' END AS split FROM h),"
            " binned AS (SELECT split,"
            "  (CASE WHEN n_chars >= 150 THEN 1 ELSE 0 END"
            "   + CASE WHEN n_chars >= 250 THEN 1 ELSE 0 END"
            "   + CASE WHEN n_chars >= 350 THEN 1 ELSE 0 END"
            "   + CASE WHEN n_chars >= 450 THEN 1 ELSE 0 END) AS bin"
            "  FROM s WHERE split IN ('train','test')),"
            " c AS (SELECT bin,"
            "  count(*) FILTER (split = 'train') AS nb,"
            "  count(*) FILTER (split = 'test') AS nc"
            "  FROM binned GROUP BY bin),"
            " bins AS (SELECT unnest(range(5)) AS bin),"
            " j AS (SELECT bins.bin, coalesce(c.nb, 0) AS n_base,"
            "  coalesce(c.nc, 0) AS n_cmp FROM bins LEFT JOIN c"
            "  ON bins.bin = c.bin),"
            " tot AS (SELECT sum(n_base) AS tb, sum(n_cmp) AS tc FROM j)"
            " SELECT j.bin::INTEGER AS bin, j.n_base, j.n_cmp,"
            " round(((j.n_base + 0.5) / (tot.tb + 2.5)"
            "  - (j.n_cmp + 0.5) / (tot.tc + 2.5))"
            "  * ln(((j.n_base + 0.5) / (tot.tb + 2.5))"
            "   / ((j.n_cmp + 0.5) / (tot.tc + 2.5))), 6) AS psi_term"
            " FROM j, tot",
        "docs_sample":
            f"WITH h AS (SELECT doc_id, lang,"
            f" ({sample_h} % 1000000) AS b"
            f" FROM documents)"
            f" SELECT doc_id, lang FROM h WHERE b < CASE lang"
            f" WHEN 'en' THEN 500000 WHEN 'de' THEN 1000000"
            f" WHEN 'fr' THEN 250000 WHEN 'es' THEN 100000"
            f" WHEN 'zh' THEN 50000 ELSE 0 END",
        "docs_source_cap":
            f"WITH h AS (SELECT doc_id, source,"
            f" ({cap_h} // 2) AS pri FROM documents),"
            f" r AS (SELECT doc_id, source, row_number() OVER"
            f" (PARTITION BY source ORDER BY pri, doc_id) AS rn FROM h)"
            f" SELECT doc_id, source FROM r WHERE rn <= 10",
        "docs_mix":
            f"WITH h AS (SELECT doc_id, source,"
            f" ({mix_h} // 2) AS pri FROM documents"
            f" WHERE source IN ('src0','src1','src2')),"
            f" r AS (SELECT doc_id, source, row_number() OVER"
            f" (PARTITION BY source ORDER BY pri, doc_id) AS rn FROM h)"
            f" SELECT doc_id, source FROM r WHERE rn <="
            f" CASE source WHEN 'src0' THEN 20 WHEN 'src1' THEN 12"
            f" ELSE 8 END",
        "events_retention":
            "WITH cohort AS (SELECT user_id,"
            " CAST(date_trunc('day', min(ts)) AS TIMESTAMP)"
            " AS cohort_day FROM events"
            " WHERE event_type = 'signup' GROUP BY user_id),"
            " cells AS (SELECT DISTINCT e.user_id, c.cohort_day,"
            " CAST(date_trunc('day', e.ts) AS TIMESTAMP) AS active_day"
            " FROM events e JOIN cohort c USING (user_id)"
            " WHERE CAST(date_trunc('day', e.ts) AS TIMESTAMP)"
            " >= c.cohort_day)"
            " SELECT cohort_day, active_day, count(*) AS n_users"
            " FROM cells GROUP BY cohort_day, active_day",
        "events_funnel":
            "WITH u AS (SELECT DISTINCT user_id FROM events),"
            " s1 AS (SELECT user_id, min(ts) AS t1 FROM events"
            " WHERE event_type = 'view' GROUP BY user_id),"
            " s2 AS (SELECT e.user_id, min(ts) AS t2 FROM events e"
            " JOIN s1 USING (user_id)"
            " WHERE event_type = 'click' AND ts > t1 GROUP BY e.user_id),"
            " s3 AS (SELECT e.user_id, min(ts) AS t3 FROM events e"
            " JOIN s2 USING (user_id)"
            " WHERE event_type = 'purchase' AND ts > t2"
            " GROUP BY e.user_id)"
            " SELECT u.user_id, CASE WHEN t3 IS NOT NULL THEN 3"
            " WHEN t2 IS NOT NULL THEN 2 WHEN t1 IS NOT NULL THEN 1"
            " ELSE 0 END AS stage FROM u"
            " LEFT JOIN s1 USING (user_id) LEFT JOIN s2 USING (user_id)"
            " LEFT JOIN s3 USING (user_id)",
        "docs_bigram_fluency":
            "WITH tk AS (SELECT doc_id,"
            " list_filter(string_split_regex(lower(coalesce(text, '')),"
            " '\\W+'), t -> t <> '') AS fl FROM documents),"
            " bg AS (SELECT doc_id, fl[g]||chr(31)||fl[g+1] AS b"
            " FROM (SELECT doc_id, fl,"
            " unnest(generate_series(1, len(fl)-1)) AS g"
            " FROM tk WHERE len(fl) >= 2)),"
            " c AS (SELECT b, count(*) AS cnt FROM bg GROUP BY b)"
            " SELECT doc_id, count(*) AS n_bigrams,"
            " CAST(sum(cnt) AS DOUBLE)/count(*) AS score"
            " FROM bg JOIN c USING (b) GROUP BY doc_id",
        "source_len_quantiles":
            "WITH v AS (SELECT source, CAST(n_chars AS DOUBLE) AS x"
            " FROM documents WHERE n_chars IS NOT NULL),"
            " b AS (SELECT source, LEAST(GREATEST(CAST("
            " FLOOR((x - 0.0) / 10.0) AS BIGINT), 0), 63) AS bin,"
            " COUNT(*) AS c FROM v GROUP BY 1, 2),"
            " cum AS (SELECT source, bin, SUM(c) OVER"
            " (PARTITION BY source ORDER BY bin) AS cc FROM b),"
            " n AS (SELECT source, COUNT(*) AS n FROM v GROUP BY source)"
            " SELECT cum.source, q, 10.0::DOUBLE * MIN(bin) AS est"
            " FROM cum JOIN n USING (source),"
            " (VALUES (0.5::DOUBLE), (0.9::DOUBLE)) qs(q)"
            " WHERE cc >= CEIL(q * n.n) GROUP BY cum.source, q",
        "docs_length_band":
            "WITH v AS (SELECT doc_id, n_chars,"
            " CAST(n_chars AS DOUBLE) AS x FROM documents"
            " WHERE n_chars IS NOT NULL),"
            " b AS (SELECT LEAST(GREATEST(CAST(FLOOR((x - 0.0) / 10.0)"
            " AS BIGINT), 0), 63) AS bin, COUNT(*) AS c FROM v"
            " GROUP BY 1),"
            " cum AS (SELECT bin, SUM(c) OVER (ORDER BY bin) AS cc"
            " FROM b), n AS (SELECT COUNT(*) AS n FROM v),"
            " blo AS (SELECT MIN(bin) AS bin FROM cum, n"
            " WHERE cc >= CEIL(0.05 * n)),"
            " bhi AS (SELECT MIN(bin) AS bin FROM cum, n"
            " WHERE cc >= CEIL(0.95 * n))"
            " SELECT doc_id, n_chars FROM v, blo, bhi"
            " WHERE LEAST(GREATEST(CAST(FLOOR((x - 0.0) / 10.0)"
            " AS BIGINT), 0), 63) BETWEEN blo.bin AND bhi.bin",
        "docs_token_ids":
            "WITH tk AS (SELECT doc_id,"
            " string_split_regex(lower(coalesce(text, '')), '\\W+') AS l"
            " FROM documents),"
            " pos AS (SELECT doc_id, g, l[g] AS tok"
            " FROM (SELECT doc_id, l,"
            " unnest(generate_series(1, len(l))) AS g FROM tk)"
            " WHERE l[g] <> ''),"
            " vc AS (SELECT tok AS token, count(*) AS cnt FROM pos"
            " GROUP BY tok),"
            " vocab AS (SELECT token, row_number() OVER"
            " (ORDER BY cnt DESC, token) AS id FROM vc"
            " QUALIFY id <= 500),"
            " enc AS (SELECT p.doc_id, p.g, coalesce(v.id, 0) AS tid"
            " FROM pos p LEFT JOIN vocab v ON p.tok = v.token),"
            " agg AS (SELECT doc_id, list(tid ORDER BY g) AS ids"
            " FROM enc GROUP BY doc_id)"
            " SELECT d.doc_id,"
            " coalesce(a.ids, CAST([] AS BIGINT[])) AS token_ids"
            " FROM documents d LEFT JOIN agg a USING (doc_id)",
        "docs_incremental_dedup":
            # Same shingle construction as _minhash_dedup_sql; the probe
            # is lossless on the fixture (every cross pair has J ≥ 0.96,
            # far above the 128-perm/16-band collision point at 0.8).
            "WITH tk AS (SELECT doc_id,"
            " string_split_regex(trim(lower(text),"
            " ' '||chr(9)||chr(10)||chr(13)), '[^a-z0-9]+') AS l"
            " FROM documents),"
            " sh AS (SELECT DISTINCT doc_id,"
            " l[g]||chr(31)||l[g+1]||chr(31)||l[g+2] AS s"
            " FROM (SELECT doc_id, l,"
            " unnest(generate_series(1, len(l)-2)) AS g"
            " FROM tk WHERE len(l) >= 3)"
            " UNION SELECT DISTINCT doc_id,"
            " list_aggregate(l, 'string_agg', chr(31)) AS s"
            " FROM tk WHERE len(l) < 3),"
            " sz AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),"
            " inter AS (SELECT x.doc_id AS new_id, y.doc_id AS dup_of,"
            " count(*) AS i FROM sh x JOIN sh y ON x.s = y.s"
            " WHERE x.doc_id % 5 = 0 AND y.doc_id % 5 <> 0 GROUP BY 1, 2)"
            " SELECT new_id, dup_of,"
            " CAST(i AS DOUBLE)/(sa.n + sb.n - i) AS jaccard"
            " FROM inter JOIN sz sa ON sa.doc_id = new_id"
            " JOIN sz sb ON sb.doc_id = dup_of"
            " WHERE CAST(i AS DOUBLE)/(sa.n + sb.n - i) >= 0.8",
        "docs_shuffle_shards":
            f"WITH h AS (SELECT doc_id, ({shuf_h}) AS hh FROM documents)"
            f" SELECT doc_id, (hh % 8)::BIGINT AS shard,"
            f" row_number() OVER (PARTITION BY (hh % 8)"
            f" ORDER BY (hh // 2), doc_id) - 1 AS pos FROM h",
        "lineitem_hist_quantiles":
            "WITH v AS (SELECT CAST(l_extendedprice AS DOUBLE) AS x"
            " FROM lineitem WHERE l_extendedprice IS NOT NULL),"
            " b AS (SELECT LEAST(GREATEST(CAST(FLOOR((x - 0.0) / 1000.0)"
            " AS BIGINT), 0), 127) AS bin, COUNT(*) AS c FROM v"
            " GROUP BY 1),"
            " cum AS (SELECT bin, SUM(c) OVER (ORDER BY bin) AS cc"
            " FROM b), n AS (SELECT COUNT(*) AS n FROM v)"
            " SELECT q, 1000.0::DOUBLE * MIN(bin) AS est FROM cum, n,"
            " (VALUES (0.1::DOUBLE), (0.25::DOUBLE), (0.5::DOUBLE),"
            " (0.75::DOUBLE), (0.9::DOUBLE), (0.99::DOUBLE)) qs(q)"
            " WHERE cc >= CEIL(q * n) GROUP BY q",
        "docs_contamination": _contamination_sql(),
        "docs_repetition":
            "WITH toks AS (SELECT doc_id,"
            " regexp_extract_all(lower(coalesce(text, '')), '[a-z0-9]+') AS l"
            " FROM documents),"
            " s AS (SELECT doc_id, len(l) AS n_tokens,"
            " len(list_distinct(l)) AS n_distinct,"
            " CASE WHEN len(l) = 0 THEN 0 ELSE"
            " list_max(list_transform(list_distinct(l),"
            " t -> len(list_filter(l, x -> x = t)))) END AS top FROM toks)"
            " SELECT doc_id, n_tokens, n_distinct,"
            " CASE WHEN n_tokens = 0 THEN 0.0 ELSE"
            " round_even((1.0 - n_distinct / n_tokens::DOUBLE)"
            " * 1e6, 0) / 1e6 END AS dup_frac,"
            " round_even((top / greatest(n_tokens, 1)::DOUBLE)"
            " * 1e6, 0) / 1e6 AS top_frac FROM s",
        "docs_url_domains":
            f"WITH aug AS (SELECT doc_id, {_PII_AUG_SQL} AS t0"
            f" FROM documents)"
            r" SELECT d AS domain, count(*) AS n FROM"
            r" (SELECT unnest(regexp_extract_all(t0,"
            r" 'https?://([^/\s]+)', 1)) AS d FROM aug) GROUP BY d",
        # factor literals are physical constants (1 ug = 0.001 mg, …),
        # independent of the engine's unit_conversion implementation
        "results_normalized": f"""
WITH r AS (
  SELECT {_sent('test_id')} AS test_id,
         regexp_replace({_sent('conc1_mean')}, '\\D', '', 'g') AS conc_value,
         {_sent('conc1_unit')} AS conc_unit
  FROM read_parquet('{fx}/results.parquet')
  WHERE {_sent('test_id')} IS NOT NULL AND {_sent('conc1_mean')} IS NOT NULL
    AND {_sent('conc1_unit')} IS NOT NULL
), rr AS (
  SELECT * FROM r WHERE length(conc_value) > 0
), f AS (
  SELECT * FROM (VALUES ('mg/L', 1.0), ('ug/L', 0.001),
                        ('ng/L', 0.000001), ('g/L', 1000.0)) AS t(u, factor)
)
SELECT rr.test_id, rr.conc_value, rr.conc_unit,
       CAST(rr.conc_value AS DOUBLE) * f.factor AS conc_mg_l
FROM rr LEFT JOIN f ON rr.conc_unit = f.u
""",
        "ann_ivf_topk":
            "SELECT query_id, vec_id, rank FROM ("
            " SELECT q.vec_id AS query_id, e.vec_id,"
            " row_number() OVER (PARTITION BY q.vec_id ORDER BY"
            " list_cosine_similarity(q.embedding, e.embedding) DESC, e.vec_id)"
            " AS rank"
            " FROM embeddings q CROSS JOIN embeddings e"
            " WHERE q.vec_id IN (0, 1, 2))"
            " WHERE rank <= 10",
        "emb_knn_join":
            "SELECT query_id, vec_id, rank FROM ("
            " SELECT q.vec_id AS query_id, e.vec_id,"
            " row_number() OVER (PARTITION BY q.vec_id ORDER BY"
            " list_cosine_similarity(q.embedding, e.embedding) DESC, e.vec_id)"
            " AS rank"
            " FROM embeddings q CROSS JOIN embeddings e"
            " WHERE q.vec_id <> e.vec_id)"
            " WHERE rank <= 5",
        "events_sessionized": """
WITH o AS (
  SELECT user_id, ts, event_id,
         CASE WHEN lag(ts) OVER w IS NULL
                OR ts - lag(ts) OVER w > INTERVAL 1800 SECONDS
              THEN 1 ELSE 0 END AS new_s
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS (
  SELECT user_id, ts,
         CAST(SUM(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
              ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
  FROM o
)
SELECT user_id, session_id, count(*) AS n_events,
       min(ts) AS ts_start, max(ts) AS ts_end
FROM s GROUP BY user_id, session_id
""",
        "kg_trait_lookup":
            f"SELECT 'https://eol.org/pages/'||trim(page_id) AS subj,"
            f" trim(value_uri) AS obj"
            f" FROM read_parquet('{fx}/traits.parquet')"
            f" WHERE trim(predicate) = '{_TRAIT_LOOKUP_PRED}'"
            f" AND regexp_matches(trim(value_uri), '{_URL_SQL}')",
        "shipping_priority": f"""
SELECT l.l_orderkey AS o_orderkey, o.o_orderdate,
       CAST(SUM(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100)
                AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
WHERE c.c_mktsegment = 'BUILDING'
  AND o.o_orderdate < TIMESTAMP '{_Q3_CUTOFF}'
  AND l.l_shipdate > TIMESTAMP '{_Q3_CUTOFF}'
GROUP BY l.l_orderkey, o.o_orderdate
ORDER BY revenue_cents DESC, o_orderkey
LIMIT 10
""",
    }
