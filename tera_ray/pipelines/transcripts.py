"""Flagship pipeline: transcript Parquet → knowledge-graph triples.

The graft's analog of the reference's aggregation build
(``tera/tests.py:10-15`` → ``tera/DataAggregation.py``): instead of
ECOTOX dump rows, the input is a multi-turn transcript table
(``conv_id, turn_idx, role, text, tool, ts`` — BASELINE.json
``input_hint``); triple emission mirrors the reference's test/result
emitters (``DataAggregation.py:410-456``) driven by in-text mention
detection against the same lexicons.

Stage layout (all streaming, no driver materialization):

- mention linking is a PURE ``map_batches`` over raw turn rows — no
  shuffle; plain tasks on warm workers.  The driver derives the
  lexicon and its deduplicated graph once per lexicon fingerprint per
  session and keeps their ``ray.put`` refs (:func:`_lexicon_refs`), so
  each worker deserializes the lexicon once per fingerprint, not once
  per build (:func:`_resolve_lexicon`).
- :func:`build_kg` resolves the input's Parquet files once on the
  driver and reads exactly those, in a block count derived from the
  footers' row count (:func:`read_transcripts`, :func:`read_blocks`).
  Its unique-turn contract check streams the same files' two key
  columns on the driver, so it starts no Ray Data execution.
- on :func:`build_kg`'s scoped dedup route the deduplicated lexicon
  graph rides inside the linker: the one batch holding the *owner*
  turn (the smallest turn-key hash) appends it, so
  ``build_kg(...).write_parquet`` is one Ray Data execution,
  ``ReadParquet`` → one fused ``MapBatches(LinkerStage)->Write``
  operator, with no union in front of the sink (:func:`_build`).
- turn-order facts (``precededBy``) are computed per-row from the dense
  ``turn_idx`` — order-faithful without a shuffle.
- conversation reconstruction (SURVEY K4) groups by ``conv_id`` and
  sorts by ``turn_idx`` within the group; hot conversations are split
  into turn-ranges (``range_size``) so one giant conversation cannot
  serialize on a single worker (north rule: skew-aware repartitioning).
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

import ray

from ..schema import (
    ECOTOX_NS,
    RDF_TYPE,
    RDF_VALUE,
    TRIPLE_LINEAGE_SCHEMA,
    UNIT_UNITS,
)
from ..stages.base import dedup_triples
from ..state.lexicon import Lexicon, tokenize
from ..units import unit_parser

TRANSCRIPT_GRAPH = "transcripts"
_TURN_KEYS = ("conv_id", "turn_idx")
_SPO = ("subj", "pred", "obj")
# A lexicon table of at least this many rows scales with the corpus:
# its graph is emitted distributed, not on the driver
# (_read_lexicon_tables).
LEXICON_BIG_ROWS = 100_000
_NUM_RE = re.compile(r"^\d+(\.\d+)?([eE]-?\d+)?$")


_LEXICON_CACHE: tuple[bytes, Lexicon] | None = None   # (ref id, lexicon)


def _resolve_lexicon(lexicon) -> Lexicon:
    """A Lexicon as is; a broadcast ref through a one-entry per-process
    cache keyed by its id, so a worker deserializes a lexicon once and
    holds at most one (ids are never reused in a session).  The driver
    broadcasts one ref per lexicon fingerprint per session
    (:func:`_lexicon_refs`), so repeated builds over the same lexicon
    tables find it resolved, fuzzy memo included."""
    global _LEXICON_CACHE
    if isinstance(lexicon, ray.ObjectRef):
        key = lexicon.binary()
        if _LEXICON_CACHE is None or _LEXICON_CACHE[0] != key:
            _LEXICON_CACHE = None       # free the old one before the fetch
            _LEXICON_CACHE = (key, ray.get(lexicon))
        lexicon = _LEXICON_CACHE[1]
    return lexicon


class LinkerStage:
    """Stateless mention linker (SURVEY T2/J4), run as plain tasks by
    :func:`link_transcripts`.  It holds the lexicon or its broadcast
    ref, resolved per process on first use (:func:`_resolve_lexicon`).
    ``__call__`` runs per Arrow batch and emits lineage-tagged triples:

    - ``turn rdf:type Turn``; ``conv hasTurn turn``;
      ``turn precededBy prev-turn`` (for ``turn_idx > 0``)
    - ``turn mentionsTaxon <taxon>`` / ``mentionsChemical <cas>`` per
      linked mention (exact span hit or blocked-fuzzy fallback)
    - per (endpoint, concentration[, effect]) co-mention: a result blank
      node mirroring ``results_func`` (``tera/DataAggregation.py:436-456``)
      with ``endpoint`` / ``effect`` edges and a concentration BNode
      carrying ``rdf:value`` + parsed ``unit:units``.

    ``carry=(owner, table_ref)`` appends the broadcast table once, to
    the output of the batch whose ``(conv_id, turn_idx)`` hash
    (:func:`~tera_ray.stages.base.hash_column`) equals ``owner``: with
    exactly one input row hashing to ``owner`` the table is emitted
    exactly once per execution (see :func:`_build`).
    """

    def __init__(self, lexicon, ns: str = ECOTOX_NS, graph: str = TRANSCRIPT_GRAPH,
                 fuzzy: bool = True, combine_keys: tuple | None = None,
                 combine_hash: bool = True, rowwise: bool = False,
                 carry: tuple | None = None):
        assert isinstance(lexicon, (Lexicon, ray.ObjectRef))
        self._lexicon = lexicon
        self.ns = ns
        self.graph = graph
        self.fuzzy = fuzzy
        # with combine_keys set, the A1 combiner (per-batch dedup, plus
        # the u64 row hash ``__h`` when combine_hash) runs INSIDE the
        # linker call — one operator instead of a second task stage
        # (hash mode feeds dedup_triples_hash(precombined=True); scoped
        # mode needs only the local dedup)
        self.combine_keys = tuple(combine_keys) if combine_keys else None
        self.combine_hash = combine_hash
        # rowwise=True keeps the original per-token Python scan — the
        # semantics reference for the vectorized path's equivalence
        # tests and A/B timings
        self.rowwise = rowwise
        self.carry = carry

    @property
    def lex(self) -> Lexicon:
        return _resolve_lexicon(self._lexicon)

    def _structural(self, batch: pa.Table, t_uri: pa.Array) -> list[pa.Table]:
        """Vectorized turn-structure triples (type / hasTurn /
        precededBy) — pure Arrow kernels, no per-row Python."""
        import pyarrow.compute as _pc

        from ..stages.base import cat

        ns, graph = self.ns, self.graph
        conv = batch["conv_id"].combine_chunks()
        tix = batch["turn_idx"].combine_chunks()
        n = len(conv)

        def part(s, p, o, mask=None):
            tbl = pa.table({
                "subj": s if not isinstance(s, str) else pa.array([s] * n),
                "pred": pa.array([p] * n, pa.string()),
                "obj": o if not isinstance(o, str) else pa.array([o] * n),
                "obj_is_literal": pa.array([False] * n, pa.bool_()),
                "graph": pa.array([graph] * n, pa.string()),
                "conv_id": conv,
                "turn_idx": tix,
            }, schema=TRIPLE_LINEAGE_SCHEMA)
            return tbl.filter(mask) if mask is not None else tbl

        c_uri = cat(ns + "conversation/", conv)
        prev_uri = cat(ns, "turn/", conv, "/",
                       _pc.subtract(tix, pa.scalar(1, pa.int32())).cast(pa.string()))
        return [
            part(t_uri, RDF_TYPE, ns + "Turn"),
            part(c_uri, ns + "hasTurn", t_uri),
            part(t_uri, ns + "precededBy", prev_uri,
                 mask=_pc.greater(tix, 0)),
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..stages.base import cat

        ns, graph = self.ns, self.graph
        conv = batch["conv_id"].combine_chunks()
        tix_arr = batch["turn_idx"].combine_chunks()
        t_uri_arr = cat(ns, "turn/", conv, "/", tix_arr.cast(pa.string()))
        parts = self._structural(batch, t_uri_arr)

        if self.rowwise:
            conv_ids = conv.to_pylist()
            turn_idxs = tix_arr.to_pylist()
            t_uris = t_uri_arr.to_pylist()

        subj, pred, obj, lit, l_conv, l_turn = [], [], [], [], [], []

        def emit(s, p, o, is_lit, cid, tix):
            subj.append(s)
            pred.append(p)
            obj.append(o)
            lit.append(is_lit)
            l_conv.append(cid)
            l_turn.append(tix)

        def emit_result(dc, endpoint, effect, value, unit_name):
            cid, tix, t_uri = conv_ids[dc], turn_idxs[dc], t_uris[dc]
            key = f"{cid}/{tix}"
            r_b = "_:r|" + key
            c_b = "_:c|" + key
            emit(r_b, ns + "endpoint", endpoint, False, cid, tix)
            if effect is not None:
                emit(r_b, ns + "effect", effect, False, cid, tix)
            emit(c_b, RDF_VALUE, value, True, cid, tix)
            if unit_name:
                emit(c_b, UNIT_UNITS,
                     "http://qudt.org/vocab/unit#" + unit_name, False, cid, tix)
            emit(r_b, ns + "concentration", c_b, False, cid, tix)
            emit(t_uri, ns + "hasResult", r_b, False, cid, tix)

        if self.rowwise:
            texts = batch["text"].to_pylist()
            for dc, text in enumerate(texts):
                if not text:
                    continue
                cid, tix, t_uri = conv_ids[dc], turn_idxs[dc], t_uris[dc]
                tokens = tokenize(text)
                matches = self.lex.match_tokens(tokens, fuzzy=self.fuzzy)
                endpoint = effect = None
                for _, _, uri, kind in matches:
                    if kind == "species":
                        emit(t_uri, ns + "mentionsTaxon", uri, False, cid, tix)
                    elif kind == "chemical":
                        emit(t_uri, ns + "mentionsChemical", uri, False, cid, tix)
                    elif kind == "endpoint" and endpoint is None:
                        endpoint = uri
                    elif kind == "effect" and effect is None:
                        effect = uri
                conc = self._find_concentration(tokens)
                if endpoint is not None and conc is not None:
                    emit_result(dc, endpoint, effect, conc[0], conc[1])
        else:
            # vectorized path: Arrow-kernel tokenization + candidate-mask
            # scan (state/lexicon.flat_token_arrays / Lexicon.match_flat),
            # then COLUMNAR triple assembly — mention and result triples
            # are built with take/cat kernels over the hit indices, no
            # per-triple Python appends; per-batch output proven
            # table-equal to the rowwise path in tests/test_transcripts.py
            from ..stages.base import cat as _cat
            from ..state.lexicon import flat_token_arrays

            orig, low, starts = flat_token_arrays(batch["text"])
            doc_ids, uris, kinds = self.lex.match_flat(
                orig, low, starts, fuzzy=self.fuzzy)
            mt, mc = ns + "mentionsTaxon", ns + "mentionsChemical"

            def col_part(s, p, o, is_lit, idx_arr, mask=None):
                m = len(o)
                tbl = pa.table({
                    "subj": s,
                    "pred": pa.array([p] * m, pa.string())
                    if isinstance(p, str) else p,
                    "obj": o,
                    "obj_is_literal": pa.array([is_lit] * m, pa.bool_()),
                    "graph": pa.array([graph] * m, pa.string()),
                    "conv_id": conv.take(idx_arr),
                    "turn_idx": tix_arr.take(idx_arr),
                }, schema=TRIPLE_LINEAGE_SCHEMA)
                return tbl.filter(mask) if mask is not None else tbl

            endpoint: dict[int, str] = {}
            effect: dict[int, str] = {}
            if doc_ids:
                kind_np = np.asarray(kinds)
                dc_np = np.asarray(doc_ids, np.int64)
                is_sp = kind_np == "species"
                is_ch = kind_np == "chemical"
                m_men = is_sp | is_ch
                if m_men.any():
                    midx = pa.array(dc_np[m_men])
                    parts.append(col_part(
                        t_uri_arr.take(midx),
                        pa.array(np.where(is_sp[m_men], mt, mc)
                                 .astype(object), pa.string()),
                        pa.array(np.asarray(uris, object)[m_men],
                                 pa.string()),
                        False, midx))
                for i in np.flatnonzero(~m_men).tolist():
                    (endpoint if kinds[i] == "endpoint"
                     else effect).setdefault(doc_ids[i], uris[i])
            if endpoint:
                res = list(self._concentrations_flat(orig, starts, endpoint))
                if res:
                    r_dc = [r[0] for r in res]
                    ridx = pa.array(r_dc, pa.int64())
                    key = _cat("", conv.take(ridx), "/",
                               tix_arr.take(ridx).cast(pa.string()))
                    r_b = _cat("_:r|", key)
                    c_b = _cat("_:c|", key)
                    eff = [effect.get(d) for d in r_dc]
                    eff_mask = pa.array([e is not None for e in eff])
                    parts.extend([
                        col_part(r_b, ns + "endpoint",
                                 pa.array([endpoint[d] for d in r_dc],
                                          pa.string()), False, ridx),
                        col_part(r_b, ns + "effect",
                                 pa.array(eff, pa.string()), False, ridx,
                                 mask=eff_mask),
                        col_part(c_b, RDF_VALUE,
                                 pa.array([r[1] for r in res], pa.string()),
                                 True, ridx),
                        col_part(c_b, UNIT_UNITS,
                                 pa.array(["http://qudt.org/vocab/unit#"
                                           + r[2] for r in res], pa.string()),
                                 False, ridx),
                        col_part(r_b, ns + "concentration", c_b, False, ridx),
                        col_part(t_uri_arr.take(ridx), ns + "hasResult",
                                 r_b, False, ridx),
                    ])

        n = len(subj)
        mention_tbl = pa.table(
            {
                "subj": pa.array(subj, pa.string()),
                "pred": pa.array(pred, pa.string()),
                "obj": pa.array(obj, pa.string()),
                "obj_is_literal": pa.array(lit, pa.bool_()),
                "graph": pa.array([graph] * n, pa.string()),
                "conv_id": pa.array(l_conv, pa.string()),
                "turn_idx": pa.array(l_turn, pa.int32()),
            },
            schema=TRIPLE_LINEAGE_SCHEMA,
        )
        out = pa.concat_tables(
            parts + ([mention_tbl] if n else []),
            promote_options="none")
        from ..stages.base import dedup_table, hash_column

        if self.combine_keys:
            out = dedup_table(out, self.combine_keys)
        if self.carry is not None:
            owner, table_ref = self.carry
            if (hash_column(batch, _TURN_KEYS)
                    .to_numpy() == owner).any():
                out = pa.concat_tables([out, ray.get(table_ref)],
                                       promote_options="none")
        if self.combine_keys and self.combine_hash:
            out = out.append_column(
                "__h", hash_column(out, self.combine_keys))
        return out

    def _find_concentration(self, tokens: list[str]):
        """First (number, parseable-unit) token pair — the transcript
        analog of the reference's digit-filtered concentration + parsed
        unit (``DataAggregation.py:447-453``)."""
        for i, tok in enumerate(tokens[:-1]):
            if _NUM_RE.match(tok):
                unit = unit_parser(tokens[i + 1])
                if unit:
                    return tok, unit
        return None

    def _concentrations_flat(self, orig: pa.Array, starts, want: dict):
        """Vectorized ``_find_concentration`` over the flat token arrays:
        one RE2 numeric mask for the whole batch, then a Python scan over
        only the numeric positions of docs in ``want`` (docs that have an
        endpoint mention — a result block is emitted only for those).
        Yields ``(doc, value, unit_name)``.  RE2's ``\\d`` is ASCII where
        Python's is Unicode — identical over the engine's numeric-token
        vocabulary."""
        num = pc.match_substring_regex(orig, r"^\d+(\.\d+)?([eE]-?\d+)?$")
        pos = np.flatnonzero(num.to_numpy(zero_copy_only=False))
        if pos.size == 0:
            return
        orig_np = orig.to_numpy(zero_copy_only=False)
        docs = np.searchsorted(starts, pos, side="right") - 1
        done = set()
        for p, dc in zip(pos.tolist(), docs.tolist()):
            if dc not in want or dc in done:
                continue
            if p + 1 < int(starts[dc + 1]):
                unit = unit_parser(orig_np[p + 1])
                if unit:
                    done.add(dc)
                    yield dc, orig_np[p], unit


def link_transcripts(ds, lexicon_ref, ns: str = ECOTOX_NS, fuzzy: bool = True,
                     batch_size: int = 4096,
                     combine_keys: tuple | None = None,
                     combine_hash: bool = True):
    """Transcript Dataset → lineage-tagged triple Dataset (no shuffle).

    A pure row map, run as plain tasks: no actor pool to start per
    build or to hold CPUs after it.  ``combine_keys`` fuses the A1
    combiner (per-batch dedup + ``__h`` row hash) into each call — see
    :class:`LinkerStage`."""
    return ds.map_batches(
        LinkerStage(lexicon_ref, ns=ns, fuzzy=fuzzy,
                    combine_keys=combine_keys, combine_hash=combine_hash),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def reconstruct_conversations(ds, range_size: int | None = None):
    """K4: stable turn ordering.  ``groupby(conv_id).map_groups(sort by
    (turn_idx, ts))``.  With ``range_size``, hot conversations are split
    into contiguous turn ranges (group key ``conv_id, turn_idx//range``)
    so the per-group batch stays bounded; ranges concatenate in order
    under a subsequent ``sort(['conv_id','turn_idx'])``.
    """

    from ..stages.base import _auto_buckets, hash_column

    # sized to the cluster (~16 reduce tasks/CPU, like every other
    # bucketed shuffle here) so one bucket ≈ corpus/num_buckets never
    # outgrows a single sort task at 100× data
    num_buckets = _auto_buckets(None)

    def _with_bucket(t: pa.Table, keys) -> pa.Table:
        import numpy as np

        h = hash_column(t, keys=keys).to_numpy(zero_copy_only=False)
        return t.append_column(
            "__b", pa.array((h % num_buckets).astype(np.int32)))

    # one task per hash BUCKET of the group key (per-conversation
    # map_groups calls would mean one Python call per conversation);
    # sorting the bucket by (group key, turn order) yields every
    # conversation's rows contiguous and turn-ordered
    def sort_bucket(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["__b"])
        idx = pc.sort_indices(
            t, sort_keys=[("conv_id", "ascending"),
                          ("turn_idx", "ascending"), ("ts", "ascending")]
        )
        return t.take(idx)

    if range_size:
        def add_range(t: pa.Table) -> pa.Table:
            rng = pc.divide(t["turn_idx"], range_size).cast(pa.int32())
            return _with_bucket(t.append_column("turn_range", rng),
                                ("conv_id", "turn_range"))

        def drop_range(t: pa.Table) -> pa.Table:
            return t.drop_columns(["turn_range"])

        from ..stages.base import bucketed_map_groups

        return bucketed_map_groups(
            ds.map_batches(add_range, batch_format="pyarrow"),
            "__b", sort_bucket).map_batches(drop_range,
                                            batch_format="pyarrow")
    from ..stages.base import bucketed_map_groups

    return bucketed_map_groups(
        ds.map_batches(lambda t: _with_bucket(t, ("conv_id",)),
                       batch_format="pyarrow"),
        "__b", sort_bucket)


def conversation_digests(ds):
    """Per-conversation (n_turns, ordered text digest) for the per-turn
    text-equality invariant: equal digests ⟺ every turn's text is intact
    and in stable order.  Groups are sorted internally, so the digest is
    permutation-invariant over input row order.
    """
    import hashlib

    from ..stages.base import _auto_buckets, hash_column

    num_buckets = _auto_buckets(None)  # cluster-sized, not hardcoded

    def bucketed(t: pa.Table) -> pa.Table:
        import numpy as np

        h = hash_column(t, keys=("conv_id",)).to_numpy(zero_copy_only=False)
        return t.append_column(
            "__b", pa.array((h % num_buckets).astype(np.int32)))

    def digest_bucket(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            t, sort_keys=[("conv_id", "ascending"),
                          ("turn_idx", "ascending"), ("ts", "ascending")]
        )
        t = t.take(idx)
        cids = t["conv_id"].to_pylist()
        texts = t["text"].to_pylist()
        out_c, out_n, out_h = [], [], []
        start = 0
        for i in range(1, len(cids) + 1):
            if i == len(cids) or cids[i] != cids[i - 1]:
                h = hashlib.sha1()
                for txt in texts[start:i]:
                    h.update((txt or "").encode("utf-8"))
                    h.update(b"\x1f")
                out_c.append(cids[start])
                out_n.append(i - start)
                out_h.append(h.hexdigest())
                start = i
        return pa.table({
            "conv_id": pa.array(out_c, pa.string()),
            "n_turns": pa.array(out_n, pa.int64()),
            "text_sha1": pa.array(out_h, pa.string()),
        })

    from ..stages.base import bucketed_map_groups

    return bucketed_map_groups(
        ds.map_batches(bucketed, batch_format="pyarrow"),
        "__b", digest_bucket)


def build_lexicon(data_dir: str):
    """The broadcast :class:`~tera_ray.state.lexicon.Lexicon` of
    ``data_dir``'s lexicon tables, from the session's lexicon memo
    (:func:`_lexicon_refs`): derived and ``ray.put`` once per lexicon
    fingerprint per session."""
    return _lexicon_refs(data_dir).lexicon


def _lift_lineage(t: pa.Table) -> pa.Table:
    n = t.num_rows
    return pa.table(
        {
            **{c: t[c] for c in t.schema.names},
            "conv_id": pa.nulls(n, pa.string()),
            "turn_idx": pa.nulls(n, pa.int32()),
        },
        schema=TRIPLE_LINEAGE_SCHEMA,
    )


def _lexicon_emitters():
    from ..stages import ecotox, taxonomy

    return [
        ("species", ecotox.emit_taxa),
        ("species", ecotox.emit_ecotox_hierarchy),
        ("species_synonyms", ecotox.emit_synonyms),
        ("chemicals", ecotox.emit_chemicals),
        ("tests", ecotox.emit_tests),
        ("results", ecotox.emit_results),
        ("taxonomy_nodes", taxonomy.emit_hierarchy),
        ("taxonomy_names", taxonomy.emit_names),
        ("divisions", taxonomy.emit_divisions),
    ]


def _read_lexicon_tables(data_dir: str, big_rows: int | None):
    """Split the lexicon tables present in ``data_dir`` by SOURCE SIZE,
    reading each driver-side table once: ``(tables, big)``.

    ``tables`` maps the name of each genuinely-small table (species,
    chemicals, taxonomy — bounded vocabularies) to its Arrow table.
    ``big`` is a ``[(path, emitter), ...]`` list for the tables of
    ``big_rows`` rows or more, whose row count scales with the corpus
    (tests/results grow with the fixture): driver-side emission of
    those serializes the head of every build (~2s per 2M turns — pure
    Amdahl floor), so their graphs are emitted by distributed
    ``read_parquet(path).map_batches(emitter)`` pipelines instead.
    ``big_rows=None`` keeps everything driver-side."""
    import os

    import pyarrow.parquet as pq

    tables, big, rows = {}, [], {}
    for name, fn in _lexicon_emitters():
        path = os.path.abspath(os.path.join(data_dir, name + ".parquet"))
        if not os.path.exists(path):
            continue
        if name not in rows:
            rows[name] = pq.ParquetFile(path).metadata.num_rows
        if big_rows is not None and rows[name] >= big_rows:
            big.append((path, fn))
        elif name not in tables:
            tables[name] = pq.read_table(path)
    return tables, big


def _small_lexicon_graph(tables: dict) -> pa.Table:
    """The lineage-lifted triples of the driver-side tables plus the
    static axioms, not deduplicated."""
    from ..stages import ecotox, taxonomy

    parts = [fn(tables[name]) for name, fn in _lexicon_emitters()
             if name in tables]
    parts.append(ecotox.ecotox_taxonomy_axioms())
    parts.append(taxonomy.static_axioms())
    return _lift_lineage(pa.concat_tables(parts, promote_options="none"))


def lexicon_sources(data_dir: str, big_rows: int | None = LEXICON_BIG_ROWS):
    """The lexicon graph split by source size (:func:`_read_lexicon_tables`):
    ``(small, big)``, the driver-side tables' triples as one Arrow table,
    not deduplicated, and the ``[(path, emitter), ...]`` list of the
    corpus-scaled tables."""
    tables, big = _read_lexicon_tables(data_dir, big_rows)
    return _small_lexicon_graph(tables), big


def _lexicon_from(data_dir: str, tables: dict) -> Lexicon:
    """``lexicon_from_tables`` over the species, synonym and chemical
    tables; one that :func:`_read_lexicon_tables` left corpus-scaled is
    read here, since the linker still needs its names."""
    import os

    import pyarrow.parquet as pq

    from ..sources import synthetic as syn
    from ..state.lexicon import lexicon_from_tables

    def table(name):
        if name in tables:
            return tables[name]
        p = os.path.join(data_dir, name + ".parquet")
        return pq.read_table(p) if os.path.exists(p) else None

    return lexicon_from_tables(
        species=table("species"),
        synonyms=table("species_synonyms"),
        chemicals=table("chemicals"),
        endpoints=syn.ENDPOINTS,
        effects=syn.EFFECTS,
    )


def _combine(t: pa.Table, keys) -> pa.Table:
    """The fused combiner: ``t`` deduplicated on ``keys`` with its
    ``__h`` row hash appended (the ``precombined=True`` contract of
    :func:`~tera_ray.stages.base.dedup_triples_hash`)."""
    from ..stages.base import dedup_table, hash_column

    t = dedup_table(t, keys)
    return t.append_column("__h", hash_column(t, keys))


def _derive_lexicon(data_dir: str, big_rows: int | None, keys=_SPO):
    """The lexicon memo's miss, with no Ray call: one read of each
    lexicon table gives ``(lexicon, graph, big)`` — the
    :class:`~tera_ray.state.lexicon.Lexicon`, the driver-side tables'
    graph deduplicated with its ``__h`` column (:func:`_combine`), and
    the corpus-scaled ``(path, emitter)`` list."""
    tables, big = _read_lexicon_tables(data_dir, big_rows)
    lex = _lexicon_from(data_dir, tables)
    return lex, _combine(_small_lexicon_graph(tables), keys), big


class _LexiconRefs(NamedTuple):
    lexicon: ray.ObjectRef     # the broadcast Lexicon
    graph_h: ray.ObjectRef     # deduplicated driver-side graph with __h
    graph: ray.ObjectRef       # the same without __h (carried or unioned)
    big: list                  # [(path, emitter)] of corpus-scaled tables


_LEXICON_MEMO: tuple | None = None      # (key, _LexiconRefs)


def _lexicon_refs(data_dir: str, big_rows: int | None = LEXICON_BIG_ROWS,
                  keys=_SPO) -> _LexiconRefs:
    """The derived lexicon of ``data_dir`` as object refs, kept in a
    one-entry driver-side memo.

    The key is the Ray connection (node and job id: a fresh local
    cluster gets a new node, a reconnect a new job, so a ref from a
    shut-down session is never served), the
    :func:`~tera_ray.state.checkpoint.input_fingerprint` (path, size,
    ``mtime_ns``) of the lexicon tables present — the rule checkpoint
    resume and ``lexicon_unchanged`` trust — ``big_rows`` and ``keys``.
    A miss runs :func:`_derive_lexicon` and broadcasts its results; a
    hit returns the same refs, so repeated builds skip the derivation
    and workers keep the Lexicon they resolved (:func:`_resolve_lexicon`
    caches by ref id).  The corpus-scaled tables' Datasets are built by
    each caller (:func:`_big_lexicon_parts`); they cost nothing until
    executed."""
    import os

    from ..state.checkpoint import input_fingerprint

    global _LEXICON_MEMO
    ctx = ray.get_runtime_context()
    paths = {os.path.abspath(os.path.join(data_dir, name + ".parquet"))
             for name, _ in _lexicon_emitters()}
    key = (ctx.get_node_id(), ctx.get_job_id(),
           input_fingerprint(*(p for p in paths if os.path.exists(p))),
           big_rows, tuple(keys))
    # one read of the global: a concurrent miss for another key may
    # replace the entry, but each caller returns the refs of its own key
    memo = _LEXICON_MEMO
    if memo is None or memo[0] != key:
        _LEXICON_MEMO = memo = None     # release the old refs first
        lex, graph_h, big = _derive_lexicon(data_dir, big_rows, keys)
        memo = _LEXICON_MEMO = (key, _LexiconRefs(
            ray.put(lex), ray.put(graph_h),
            ray.put(graph_h.drop_columns(["__h"])), big))
    return memo[1]


def _big_lexicon_parts(big: list, keys=None) -> list:
    """One lazy Dataset per corpus-scaled ``(path, emitter)``: the
    emitted, lineage-lifted triples, combined per batch
    (:func:`_combine`) when ``keys`` is given."""
    def lift_combine(t: pa.Table) -> pa.Table:
        return _combine(_lift_lineage(t), keys)

    return [ray.data.read_parquet(path)
            .map_batches(fn, batch_format="pyarrow")
            .map_batches(lift_combine if keys else _lift_lineage,
                         batch_format="pyarrow")
            for path, fn in big]


def lexicon_dataset(data_dir: str, big_rows: int | None = LEXICON_BIG_ROWS,
                    keys=_SPO,
                    driver_discover_limit: int = 50_000_000):
    """The DEDUPED lexicon-triple store as a Dataset, with
    corpus-scaled tables emitted distributed: small tables dedup in
    one driver batch; when big tables exist the whole lexicon
    partition goes through ``dedup_triples_hash`` (8 B/row
    exchange)."""
    return _dedup_lexicon(_lexicon_refs(data_dir, big_rows, keys), keys,
                          driver_discover_limit)


def _dedup_lexicon(refs: _LexiconRefs, keys, driver_discover_limit: int):
    """:func:`lexicon_dataset` over the memo's refs."""
    from ..stages.base import dedup_triples_hash

    if not refs.big:
        return ray.data.from_arrow_refs([refs.graph])
    ds = ray.data.from_arrow_refs([refs.graph_h])
    for p in _big_lexicon_parts(refs.big, keys):
        ds = ds.union(p)
    return dedup_triples_hash(ds, keys, precombined=True,
                              driver_discover_limit=driver_discover_limit)


def turn_keys_unique(transcripts, driver_limit: int = 50_000_000) -> bool:
    """Input-contract check for the scoped dedup pushdown: are the
    input's ``(conv_id, turn_idx)`` rows globally unique?

    Only the u64 row hash of the two key columns leaves the workers
    (8 B/row, column-pruned read).  Up to ``driver_limit`` rows the
    hashes are checked driver-side (a single ``np.sort``, ≤400 MB at
    the limit); above it, the same hash-bucketed duplicate discovery
    ``dedup_triples_hash`` uses — 8 B/row through the exchange either
    way.  A u64 collision between DISTINCT keys can only flip the
    answer to False (falling back to the full hash dedup — slower,
    never wrong); true duplicate keys always collide, so ``True`` is
    trustworthy.
    """
    unique, _ = _turn_key_contract(transcripts, driver_limit)
    return (_turn_keys_unique_distributed(transcripts) if unique is None
            else unique)


def _turn_key_contract(source, driver_limit: int = 50_000_000):
    """One hash pass over the input's turn keys: ``(unique, owner)``.

    ``source`` is a Ray Dataset (:func:`_turn_key_hashes`, a Ray Data
    execution of its own) or the input's ``pyarrow.dataset`` over its
    Parquet files (:func:`_parquet_turn_key_hashes`, read on the driver
    with no Ray Data execution).  ``unique`` is :func:`turn_keys_unique`'s
    answer.  ``owner`` is the smallest key hash when the keys are
    unique, else ``None`` (an empty input or a repeated key).  The
    owner row's batch is the one that carries the lexicon graph on the
    scoped route.  Above ``driver_limit`` rows the hashes never reach the
    driver: both are ``None``."""
    allh = (_parquet_turn_key_hashes(source, driver_limit)
            if isinstance(source, pads.Dataset)
            else _turn_key_hashes(source, driver_limit))
    if allh is None:
        return None, None
    unique = not bool((allh[1:] == allh[:-1]).any())
    return unique, (allh[0] if unique and len(allh) else None)


def _turn_keys_unique_distributed(transcripts) -> bool:
    """:func:`turn_keys_unique` above the driver limit."""
    from ..stages.base import hash_column

    def h(t: pa.Table) -> pa.Table:
        return pa.table({"__h": hash_column(t, _TURN_KEYS)})

    hs = transcripts.select_columns(list(_TURN_KEYS)).map_batches(
        h, batch_format="pyarrow")
    # driver-unsafe scale: distributed discovery over the hash column
    from ..stages.base import _auto_buckets, bucketed_map_groups

    nb = _auto_buckets(None)

    def bucket(t: pa.Table) -> pa.Table:
        b = pc.cast(pc.bit_wise_and(t["__h"], pa.scalar(nb - 1, pa.uint64())),
                    pa.int32())
        return t.append_column("__b", b)

    def dups(t: pa.Table) -> pa.Table:
        import polars as pl

        empty = pa.table({"__h": pa.array([], pa.uint64()),
                          "__b": pa.array([], pa.int32())})
        if t.num_rows == 0:
            return empty
        df = (pl.from_arrow(t.select(["__h", "__b"]))
              .group_by("__h", "__b").agg(pl.len().alias("__n"))
              .filter(pl.col("__n") >= 2).select("__h", "__b"))
        return df.to_arrow().cast(empty.schema) if df.height else empty

    dup = bucketed_map_groups(
        hs.map_batches(bucket, batch_format="pyarrow"), "__b", dups)
    return len(dup.take(1)) == 0


def build_kg(data_dir: str, fuzzy: bool = True, dedup: bool = True,
             batch_size: int = 4096,
             override_num_blocks: int | None = None,
             dedup_mode: str = "auto",
             driver_discover_limit: int = 50_000_000,
             big_rows: int | None = LEXICON_BIG_ROWS):
    """End-to-end KG construction over a fixture directory: transcripts →
    linked mention triples, unioned with the (driver-side) lexicon-table
    triples and static axioms, exact-deduped (SURVEY A1).  Returns a
    lazy Dataset.

    The input's Parquet files are resolved once on the driver
    (:func:`read_transcripts`), and the read takes
    :func:`read_blocks` blocks for their footer row count: one block
    per CPU up to ``_SMALL_READ_ROWS`` rows, else ``max(8, 4 * ncpu)``.
    On the 20k-turn ``kgbench`` input at 4 CPUs the read fell from
    0.43-0.46 s at 16 blocks to 0.12 s at 4; at 2M turns and 8 CPUs the
    build keeps the 32 blocks measured 44.3 s → 34.1 s against 16.  An
    explicit ``override_num_blocks`` wins.

    ``dedup_mode``:

    - ``"auto"`` (default, the judged path) — run the
      :func:`turn_keys_unique` input-contract check and take
      ``"scoped"`` when the input honors the unique-turn contract
      (``input_hint``: every ``(conv_id, turn_idx)`` appears once),
      else ``"hash"``.  The check can never wrongly approve the scoped
      pushdown — hash collisions only force the safe fallback.  It
      streams the two key columns of the same files on the driver and
      keeps only their u64 hashes (8 B/row), so the whole build is one
      Ray Data execution, read → ``MapBatches(LinkerStage)->Write``.
      Above ``driver_discover_limit`` rows (from the footers) it runs
      as a distributed Ray Data pass instead.
    - ``"hash"`` — exact dedup for ARBITRARY inputs where only
      8-byte row hashes cross the exchange
      (:func:`~tera_ray.stages.base.dedup_triples_hash`): combiner per
      batch, duplicate discovery on the hash projection, and a
      verification shuffle carrying ONLY colliding rows.  At the
      flagship's duplicate profile (dups are turn-scoped, so the
      combiner removes them all) the verification set is empty and the
      payload never shuffles — measured 142s → ~37s on the 20.5M-triple
      build at 32 CPUs.  Set-equal to ``"global"`` (asserted in tests).
    - ``"global"`` — the classic full-payload hash-shuffle sort dedup,
      kept as the A/B reference and the fallback for heavily-duplicated
      stores (``dedup_triples_hash`` itself falls back above its
      dup-set threshold).
    - ``"scoped"`` — dedup pushdown that ELIDES the shuffle entirely:
      every turn-graph triple embeds its turn id in ``subj`` (or the
      turn-derived blank-node id), so with unique ``(conv_id,
      turn_idx)`` input rows (the ``input_hint`` contract) a triple can
      only duplicate within the batch that produced it — a local
      ``dedup_table`` per batch is exactly equivalent to the global
      shuffle.  The shared lexicon graphs (whose triples DO repeat
      across source rows) are deduped driver-side when every lexicon
      table is bounded (below ``big_rows``), and the linker batch that
      holds the owner turn (the smallest turn-key hash, found by the
      same hash pass as the contract check) appends them once: the
      build is one fused link→write operator with no union
      (:func:`build_kg_from`, whose input may change between runs,
      unions them instead).  Corpus-scaled lexicon tables are emitted
      distributed and deduped by :func:`lexicon_dataset`, then
      unioned.  Set equality with
      ``"global"`` is asserted in ``tests/test_transcripts.py``.  Use
      for inputs that honor the unique-turn contract; measured 2×+ on
      the 20M-triple build (the shuffle removed only 0.3% duplicates).
    """
    import os

    transcripts, src = read_transcripts(
        os.path.join(data_dir, "transcripts.parquet"), override_num_blocks)
    return _build(transcripts, data_dir, fuzzy, dedup, batch_size,
                  dedup_mode, driver_discover_limit, big_rows, src=src)


# Inputs of up to this many rows read one block per CPU (read_blocks).
# Measured at 4 CPUs, in-process build_kg(...).write_parquet medians, 4
# blocks against 16: 20k turns 0.64 against 0.92 s (7 runs), 100k turns
# 2.08 against 2.43 s (5 runs); at 200k turns (4.12 against 4.04 s, 5
# runs) and 500k turns (7.78 against 8.25 s, 3 runs, spread up to
# 0.7 s) the count made no difference within the spread.
_SMALL_READ_ROWS = 100_000


def read_blocks(rows: int, ncpu: int) -> int:
    """Block count for a read of ``rows`` rows on ``ncpu`` CPUs: one
    block per CPU up to ``_SMALL_READ_ROWS`` rows, else
    ``max(8, 4 * ncpu)``.

    On a small input each extra block is a Ray Data fixed cost: on the
    20k-turn ``kgbench`` input at 4 CPUs the read's split into 16
    blocks took 0.43-0.46 s of elapsed time, against 0.12 s for 4.
    Larger inputs keep 4 blocks per CPU: the linker drains blocks in
    waves, and at 2 per CPU the last wave left a third of the CPUs idle
    on the 2M-turn build at 8 CPUs (44.3 s at 16 blocks, 34.1 s at 32).
    The one-per-CPU gain was measured at 4 CPUs only, so every input
    above ``_SMALL_READ_ROWS`` rows keeps the 4-per-CPU count on any
    CPU count."""
    ncpu = max(1, ncpu)
    return ncpu if rows <= _SMALL_READ_ROWS else max(8, 4 * ncpu)


def read_transcripts(path, override_num_blocks: int | None = None):
    """Open a transcript read: ``(dataset, src)``.

    The input's Parquet files (``path``: a file, a directory of shard
    files, or a list of either) are resolved once on the driver into
    ``src``, a ``pyarrow.dataset`` over exactly the files the Ray read
    gets, so a driver-side pass over ``src`` sees the same rows as the
    read.  The read takes :func:`read_blocks` blocks for the footers'
    row count unless ``override_num_blocks`` is given.  Read-time
    column pruning (SURVEY §7.4): the linker consumes only ``(conv_id,
    turn_idx, text)``; role/tool/ts never leave storage.  At the
    input_hint schema this drops about a third of the scanned bytes."""
    paths = [path] if isinstance(path, str) else list(path)
    files, fs = [], None
    for p in paths:
        d = pads.dataset(p, format="parquet")
        files += d.files
        fs = d.filesystem
    src = pads.dataset(files, format="parquet", filesystem=fs)
    if override_num_blocks is None:
        override_num_blocks = read_blocks(
            src.count_rows(), int(ray.cluster_resources().get("CPU", 4)))
    ds = ray.data.read_parquet(files, filesystem=fs,
                               columns=["conv_id", "turn_idx", "text"],
                               override_num_blocks=override_num_blocks)
    return ds, src


def build_kg_from(transcripts, data_dir: str, fuzzy: bool = True,
                  dedup: bool = True, batch_size: int = 4096,
                  dedup_mode: str = "hash",
                  driver_discover_limit: int = 50_000_000,
                  big_rows: int | None = LEXICON_BIG_ROWS):
    """:func:`build_kg` over an ALREADY-OPEN transcript Dataset — the
    entry point for filtered/partial builds and the incremental path
    (:func:`update_kg`); ``data_dir`` still supplies the lexicon
    tables.  ``driver_discover_limit`` forwards to
    :func:`~tera_ray.stages.base.dedup_triples_hash` (0 forces the
    distributed duplicate discovery — the scaling legs use it so the
    measured job keeps its exchange).  ``big_rows`` is the
    :func:`_read_lexicon_tables` threshold above which a lexicon table is
    emitted DISTRIBUTED instead of driver-side (None = all driver-side;
    tests lower it to exercise the distributed routing on small
    fixtures).

    ``dedup_mode="auto"`` checks the unique-turn contract on one run of
    ``transcripts`` and builds from another, so its scoped route is
    exact only when every run yields the same rows.  Unlike
    :func:`build_kg`, whose own read always does, this entry point
    never carries the lexicon graph inside a linker batch (that needs
    the owner turn in the build's run): it unions it, so an input whose
    rows change between runs (a ``limit`` over shuffled blocks, a
    random filter) still yields the whole lexicon graph."""
    return _build(transcripts, data_dir, fuzzy, dedup, batch_size,
                  dedup_mode, driver_discover_limit, big_rows)


def _build(transcripts, data_dir: str, fuzzy: bool, dedup: bool,
           batch_size: int, dedup_mode: str, driver_discover_limit: int,
           big_rows: int | None, src: pads.Dataset | None = None):
    """:func:`build_kg_from`; ``src`` is the driver-side view of the
    files :func:`build_kg` opened ``transcripts`` over, so each run
    yields the same rows, the contract check reads them on the driver,
    and the scoped route may carry the lexicon graph on the owner
    turn."""
    contract = None
    if dedup and dedup_mode == "auto":
        # contract-checked pushdown (see build_kg's dedup_mode docs):
        # one 2-column hash pass over the input, which also names the
        # scoped route's owner turn.  Over build_kg's own files it
        # runs on the driver, so the build stays one Ray Data
        # execution; a Dataset input gets a pass of its own (Datasets
        # re-execute from their source)
        contract = _turn_key_contract(
            transcripts if src is None else src, driver_discover_limit)
        unique = contract[0]
        if unique is None:
            unique = _turn_keys_unique_distributed(transcripts)
        dedup_mode = "scoped" if unique else "hash"
    # the session's lexicon memo: derived on the first build over these
    # lexicon tables, the same refs on every later one
    refs = _lexicon_refs(data_dir, big_rows)
    if dedup and dedup_mode == "hash":
        # fused-combiner flagship path: per-batch dedup + __h happen
        # inside the linker tasks (no separate combiner stage to
        # contend for CPUs); the driver-small lexicon table gets the
        # identical treatment before entering the union, while the
        # corpus-scaled tables (tests/results) are emitted DISTRIBUTED
        # (driver emission of those serialized ~2s per 2M turns at the
        # head of every build) — their cross-batch duplicate triples
        # are exactly what the hash discovery pass exists to catch
        from ..stages.base import dedup_triples_hash

        keys = _SPO
        triples = link_transcripts(
            transcripts, refs.lexicon, fuzzy=fuzzy,
            batch_size=batch_size, combine_keys=keys,
        )
        out = triples.union(ray.data.from_arrow_refs([refs.graph_h]))
        for part in _big_lexicon_parts(refs.big, keys):
            out = out.union(part)
        return dedup_triples_hash(out, keys, precombined=True,
                                  driver_discover_limit=driver_discover_limit)
    if dedup and dedup_mode == "scoped":
        # scoped = shuffle elided for the TURN-GRAPH triples under the
        # unique-turn input contract (their subjects embed the turn id,
        # so duplicates are batch-local; the per-batch dedup is fused
        # into the linker tasks).  The lexicon graphs CAN duplicate
        # across source rows, so they get a real dedup — but ONLY they.
        # Turn-graph and lexicon subjects are disjoint by construction
        # (turn//conversation URIs + turn-derived blank nodes vs
        # taxon/chemical/unit URIs), so dedup of the parts equals dedup
        # of the whole (set-equality with "global" asserted in
        # tests/test_transcripts.py).
        #
        # Bounded lexicon tables dedup driver-side in one batch, which
        # the owner turn's linker batch carries when build_kg opened the
        # read (one Ray Data operator from read to sink, so the linker
        # keeps every CPU instead of sharing the executor's reservations
        # with a union); other inputs union that batch.  A
        # CORPUS-SCALED table (tests/results analogs grow with the
        # fixture) emits DISTRIBUTED and the lexicon partition alone
        # goes through dedup_triples_hash — only 8 B/row cross its
        # exchange, and the turn-graph partition still never shuffles.
        keys = _SPO
        carry = None
        if src is not None and not refs.big:
            # an explicit "scoped" build runs the hash pass only here
            _, owner = contract or _turn_key_contract(
                src, driver_discover_limit)
            if owner is not None:
                carry = (owner, refs.graph)
        local = transcripts.map_batches(
            LinkerStage(refs.lexicon, fuzzy=fuzzy, combine_keys=keys,
                        combine_hash=False, carry=carry),
            batch_format="pyarrow", batch_size=batch_size)
        if carry is not None:
            return local
        return local.union(_dedup_lexicon(refs, keys,
                                          driver_discover_limit))
    # generic tail (global sort dedup / dedup=False): big lexicon tables
    # still emit distributed — driver-side emission is O(corpus) there
    # too, and the global dedup (or, for dedup=False, the caller's
    # stated no-dedup semantics) covers cross-part duplicates; the
    # driver-side part is the memo's graph, already deduplicated
    triples = link_transcripts(
        transcripts, refs.lexicon, fuzzy=fuzzy,
        batch_size=batch_size,
    )
    out = triples.union(ray.data.from_arrow_refs([refs.graph]))
    for part in _big_lexicon_parts(refs.big):
        out = out.union(part)
    if dedup:
        out = dedup_triples(
            out, mode="hash" if dedup_mode == "hash" else "sort")
    return out


def _turn_key_hashes(transcripts, driver_limit: int = 50_000_000):
    """Sorted u64 hashes of the shard's ``(conv_id, turn_idx)`` keys,
    or ``None`` above ``driver_limit`` rows (a shard that large should
    take the global anti-join anyway).  Shares
    :func:`turn_keys_unique`'s 8 B/row projection discipline."""
    from ..stages.base import hash_column

    def h(t: pa.Table) -> pa.Table:
        return pa.table({"__h": hash_column(t, _TURN_KEYS)})

    hs = transcripts.select_columns(list(_TURN_KEYS)).map_batches(
        h, batch_format="pyarrow")
    return _sorted_hashes(
        (b["__h"] for b in hs.iter_batches(batch_format="pyarrow",
                                           batch_size=None)),
        driver_limit)


def _parquet_turn_key_hashes(src: pads.Dataset,
                             driver_limit: int = 50_000_000):
    """:func:`_turn_key_hashes` over Parquet files, on the driver: the
    footers give the row count, then the two key columns stream batch
    by batch through the same :func:`~tera_ray.stages.base.hash_column`
    the linker tasks use, and only their u64 hashes are kept."""
    from ..stages.base import hash_column

    if src.count_rows() > driver_limit:
        return None
    return _sorted_hashes(
        (hash_column(b, _TURN_KEYS)
         for b in src.to_batches(columns=list(_TURN_KEYS))),
        driver_limit)


def _sorted_hashes(arrays, driver_limit: int):
    """The u64 hash arrays concatenated and sorted, or ``None`` once
    they pass ``driver_limit`` values."""
    chunks: list[np.ndarray] = []
    total = 0
    for a in arrays:
        chunks.append(a.to_numpy(zero_copy_only=False))
        total += len(a)
        if total > driver_limit:
            return None
    allh = (np.concatenate(chunks).astype(np.uint64, copy=False)
            if chunks else np.zeros(0, np.uint64))
    allh.sort()
    return allh


def _prev_overlaps_turns(prev_kg, sorted_hashes: np.ndarray) -> bool:
    """Does prev's transcript graph contain ANY of the new shard's
    ``(conv_id, turn_idx)`` keys?  One column-pruned filtered pass over
    prev's lineage columns against the broadcast sorted hash set; the
    streaming ``take(1)`` stops at the first overlapping block.  A u64
    collision can only report a FALSE overlap (forcing the safe global
    anti-join); a true re-delivered turn always collides — so ``False``
    is trustworthy evidence of disjointness."""
    from ..stages.base import hash_column

    if len(sorted_hashes) == 0:
        return False
    href = ray.put(sorted_hashes)

    def overlapping(t: pa.Table) -> pa.Table:
        d = ray.get(href)
        t = t.filter(pc.is_valid(t["conv_id"]))
        if t.num_rows == 0:
            return t.select(["conv_id"])
        h = hash_column(t, _TURN_KEYS).to_numpy(zero_copy_only=False)
        pos = np.searchsorted(d, h)
        m = (pos < len(d)) & (d[np.minimum(pos, len(d) - 1)] == h)
        return t.filter(pa.array(m)).select(["conv_id"])

    hits = (prev_kg.filter(expr=f"graph == '{TRANSCRIPT_GRAPH}'")
            .map_batches(overlapping, batch_format="pyarrow"))
    return len(hits.take(1)) > 0


def update_kg(prev_kg, new_transcripts, data_dir: str, fuzzy: bool = True,
              batch_size: int = 4096,
              num_buckets: int = 64, materialize_prev: bool = True,
              emit: str = "union", scope: str = "auto",
              prev_turns_disjoint: bool | None = None,
              shared_graph_limit: int = 1 << 28,
              lexicon_unchanged: bool = False):
    """Incremental KG maintenance — the 10^12-turn pipeline is never a
    one-shot build: link ONLY the new transcript shard, union the
    (idempotent) lexicon graphs, exact-anti-join the result against the
    EXISTING store on (subj, pred, obj), and return prev ∪ novel.

    Cost profile: the linker touches just the new shard; the one
    all-to-all is the anti-join co-group, whose right side contributes
    only its three key columns.  ``emit="novel"`` returns just the
    novel triples (the nightly-append artifact — write it as a new
    partition and leave prev on disk); ``emit="union"`` (default)
    returns the merged store, which necessarily re-emits every prev
    row.  The result is row-multiset identical
    to a full rebuild over old ∪ new turns (asserted in
    tests/test_transcripts.py) because build_kg's dedup keeps an
    arbitrary-but-unique representative per distinct triple and every
    emitted triple is a pure function of its turn.

    ``scope`` selects how novelty is established:

    - ``"auto"`` (default, contract-checked like ``build_kg``'s dedup
      mode): take the shuffle-free ``"turn_unique"`` path only when
      the new shard's ``(conv_id, turn_idx)`` keys are unique AND prev
      provably contains none of them — either attested by the caller
      (``prev_turns_disjoint=True``, e.g. from a checkpoint manifest's
      shard registry) or verified by one column-pruned probe of prev's
      transcript-graph lineage against the shard's broadcast key-hash
      set (:func:`_prev_overlaps_turns`; collisions only force the
      safe fallback).  Anything unprovable routes to ``"global"``.
    - ``"turn_unique"`` — trust the caller on both contracts.
    - ``"global"`` — the exact anti-join, valid for any input.

    Every turn-unique DISJOINTNESS failure degrades to global instead
    of raising.  A prev store whose shared (non-transcript) graphs
    exceed ``shared_graph_limit`` bytes keeps the turn-unique pushdown
    but switches the lexicon novelty check from the driver-side
    anti-join to a DISTRIBUTED one against ONLY prev's shared
    partition (the right side contributes key columns only) — the
    turn-graph portion of prev (the ~84% bulk) still never shuffles.
    ``lexicon_unchanged=True`` (caller-certified, e.g. by lexicon-table
    fingerprint in the checkpoint shard registry) skips the lexicon
    novelty check entirely — prev already holds those triples — making
    ``emit="novel"`` a pure O(new shard) job that never reads prev.

    At 100 TB, pair with ``state/checkpoint.write_stage``: write only
    the novel partition and manifest per shard; ``query/bloom`` can
    pre-prune the anti-join's left side when the novel fraction is
    high (a definite-miss skips the shuffle for that row).
    """
    from ..query.relational import multi_key_anti_join

    assert emit in ("novel", "union"), f"unknown emit={emit!r}"
    assert scope in ("auto", "global", "turn_unique"), \
        f"unknown scope={scope!r}"

    # prev_kg is consumed twice whenever the MERGED store is emitted
    # (read for the novelty check + re-emitted in the union); pin it
    # once unless the caller knows prev is already persisted.  With
    # emit="novel" each scope consumes prev exactly once — no pin.
    if materialize_prev and emit == "union":
        prev_kg = prev_kg.materialize()

    if scope == "auto":
        scope = "global"
        if prev_turns_disjoint is not False:
            hashes = _turn_key_hashes(new_transcripts)
            if hashes is not None and (
                    len(hashes) == 0
                    or not bool((hashes[1:] == hashes[:-1]).any())):
                if prev_turns_disjoint is True or \
                        not _prev_overlaps_turns(prev_kg, hashes):
                    scope = "turn_unique"

    refs = _lexicon_refs(data_dir)
    new_triples = link_transcripts(
        new_transcripts, refs.lexicon, fuzzy=fuzzy,
        batch_size=batch_size)

    if scope == "turn_unique":
        # Dedup-pushdown analog of build_kg(dedup_mode="scoped"), for
        # the anti-join: every turn-graph triple embeds its
        # (conv_id, turn_idx) in subj (or the turn-derived blank-node
        # id), so when shards partition the turn space (the input_hint
        # unique-turn contract, incl. no re-delivery — checked or
        # attested under scope="auto") a new shard's turn triples
        # CANNOT exist in prev — novel by construction, no prev
        # shuffle at all.  Only the shared lexicon/static graphs
        # repeat across shards; prev's copy of those is broadcast-
        # scale by definition, so the exact check is one filtered read
        # of prev + a driver-side anti-join of the (small) lexicon
        # table.  Cost: O(new shard) + one column-pruned filtered pass
        # over prev — the nightly path.
        from ..stages.base import dedup_table

        if lexicon_unchanged:
            # the caller certifies (e.g. by lexicon-table fingerprint,
            # state/checkpoint.update_kg_incremental) that prev was
            # built from the SAME lexicon tables — prev already holds
            # every lexicon/static triple this shard would contribute,
            # so novel = the shard's turn triples alone and prev is
            # never read at all: the true O(new shard) nightly path.
            turn_triples = new_triples.map_batches(
                lambda t: dedup_table(t), batch_format="pyarrow")
            if emit == "novel":
                return turn_triples
            return prev_kg.union(turn_triples)

        turn_triples = new_triples.map_batches(
            lambda t: dedup_table(t), batch_format="pyarrow")
        # the shard's OWN lexicon tables route like build_kg's (refs):
        # bounded → one driver batch; corpus-scaled → distributed
        # emission.  Stream prev's shared graphs with a running size
        # cap; a store whose lexicon graphs were built distributed
        # (dump scale) overflows it and the novelty check goes
        # distributed instead
        chunks, nbytes, over = [], 0, False
        if not refs.big:  # driver path only possible for bounded lexicons
            for b in (prev_kg
                      .filter(expr=f"graph != '{TRANSCRIPT_GRAPH}'")
                      .map_batches(
                          lambda t: t.select(["subj", "pred", "obj"]),
                          batch_format="pyarrow")
                      .iter_batches(batch_format="pyarrow",
                                    batch_size=None)):
                chunks.append(b)
                nbytes += b.nbytes
                if nbytes > shared_graph_limit:
                    over = True
                    break
        if not refs.big and not over:
            lex_tbl = ray.get(refs.graph)
            prev_shared = pa.concat_tables(
                chunks
                or [pa.table({"subj": pa.array([], pa.string()),
                              "pred": pa.array([], pa.string()),
                              "obj": pa.array([], pa.string())})])
            novel_lex_ds = ray.data.from_arrow(
                lex_tbl.join(prev_shared, keys=["subj", "pred", "obj"],
                             join_type="left anti")
                .select(lex_tbl.schema.names).cast(lex_tbl.schema))
        else:
            # dump-scale (either side): anti-join the shard's DEDUPED
            # lexicon dataset against ONLY prev's shared partition,
            # distributed (right side ships key columns only).  The
            # turn-graph bulk of prev still never shuffles — cost
            # O(new shard lexicon) + O(prev lexicon partition), never
            # O(prev) or O(corpus) driver-side.
            novel_lex_ds = multi_key_anti_join(
                lexicon_dataset(data_dir),
                prev_kg.filter(expr=f"graph != '{TRANSCRIPT_GRAPH}'"),
                keys=["subj", "pred", "obj"], num_buckets=num_buckets,
                left_schema=TRIPLE_LINEAGE_SCHEMA)
        novel = turn_triples.union(novel_lex_ds)
        if emit == "novel":
            return novel
        return prev_kg.union(novel)

    # global path: big lexicon tables emit distributed here too
    cand = new_triples.union(ray.data.from_arrow_refs([refs.graph]))
    for part in _big_lexicon_parts(refs.big):
        cand = cand.union(part)
    cand = dedup_triples(cand)
    novel = multi_key_anti_join(cand, prev_kg,
                                keys=["subj", "pred", "obj"],
                                num_buckets=num_buckets,
                                left_schema=TRIPLE_LINEAGE_SCHEMA)
    if emit == "novel":
        # the nightly-append mode: write ONLY this as the shard's new
        # partition (state/checkpoint.write_stage); prev stays on disk
        # untouched — the merged store is the directory union
        return novel
    return prev_kg.union(novel)


def canonicalize_kg(kg, sameas, threshold_score: float = 0.9,
                    broadcast: bool = True):
    """E2 tail: sameAs mapping → transitive canonical ids → KG rewrite.

    ``sameas``: (src, dst, score) Dataset (from fuzzy/consensus
    alignment or an ingested mapping file).  Pipeline:
    threshold → distributed union-find (A6) → canonical mapping
    (min member id) → join-rewrite of subj / non-literal obj (M19/J1)
    → exact dedup (A1).  ``broadcast=True`` ships the canonical map via
    ``ray.put`` (alias clusters are small relative to the store);
    ``broadcast=False`` takes the two-shuffle join path.
    """
    from ..stages.base import dedup_triples
    from ..state.linkage import (
        canonical_mapping,
        connected_components,
        rewrite_triples,
    )
    from ..state.mapping import threshold

    comp = connected_components(threshold(sameas, threshold_score))
    mapping = canonical_mapping(comp)
    rewritten = rewrite_triples(kg, mapping, broadcast=broadcast)
    # rewrite CREATES cross-batch duplicates (aliases collapsing onto one
    # canonical id) — mode="hash" still shuffles only the colliding rows
    return dedup_triples(rewritten, mode="hash")


def build_kg_canonical(data_dir: str, fuzzy: bool = True,
                       align_threshold: float = 90.0,
                       same_threshold: float = 0.9):
    """Full E1+E2 flagship: build the KG, align the NCBI-style taxonomy
    names against the ECOTOX-style species labels (J5 + J7 consensus),
    then canonicalize alias clusters through union-find and rewrite.

    The sameAs score scale is 0-100 (fuzzy ratio); ``same_threshold`` is
    applied after normalizing to 0-1.
    """
    import os

    import pyarrow.parquet as pq

    import ray.data

    from ..schema import NCBI_NS
    from ..stages.align import blocked_fuzzy_align, label_bags
    from ..stages.taxonomy import emit_names

    kg = build_kg(data_dir, fuzzy=fuzzy)

    names_path = os.path.join(data_dir, "taxonomy_names.parquet")
    if not os.path.exists(names_path):
        return kg
    names = ray.data.read_parquet(names_path).map_batches(
        emit_names, batch_format="pyarrow")
    ncbi_preds = (NCBI_NS + "scientific_name", NCBI_NS + "common_name",
                  NCBI_NS + "uniqueName")
    eco_preds = (ECOTOX_NS + "latinName",)
    cand = blocked_fuzzy_align(
        label_bags(names, ncbi_preds),
        label_bags(with_lineage_dropped(kg), eco_preds),
        threshold=align_threshold)

    def to_unit_scale(t):
        import pyarrow.compute as _pc
        return pa.table({"src": t["src"], "dst": t["dst"],
                         "score": _pc.divide(t["score"], 100.0)})

    sameas = cand.map_batches(to_unit_scale, batch_format="pyarrow")
    return canonicalize_kg(kg, sameas, threshold_score=same_threshold)


def with_lineage_dropped(ds):
    """Lineage-tagged triples → plain 5-col triples (for stages that
    expect the core schema)."""
    def drop(t: pa.Table) -> pa.Table:
        return t.drop_columns(
            [c for c in ("conv_id", "turn_idx") if c in t.schema.names])

    return ds.map_batches(drop, batch_format="pyarrow")
