"""Output checks computed apart from the engine.

Every expected result is derived with DuckDB from the generated input
tables (or, for the query results, from the store the engine wrote) and
compared as a set or multiset with ``EXCEPT ALL`` in both directions.
None of these functions imports ``tera_ray``.  Each returns a dict of
counts plus ``ok``.
"""

from __future__ import annotations

import os

import duckdb
import pyarrow as pa

from gen import NS, SENTINELS

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDF_VALUE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#value"
UNIT = "http://qudt.org/vocab/unit#"
MENTION_PREDS = {"species": NS + "mentionsTaxon",
                 "chemical": NS + "mentionsChemical"}
MIN_PR = 0.95

STAR_SPARQL = """
SELECT DISTINCT ?chemical ?species ?conc_value ?endpoint ?effect
                ?sd ?sd_unit WHERE {
    ?test rdf:type ns:Test ;
          ns:chemical ?chemical ;
          ns:species ?species ;
          ns:hasResult [
              ns:endpoint ?endpoint ;
              ns:effect ?effect ;
              ns:concentration [ rdf:value ?conc_value ;
                                 unit:units ?cu ] ] .
    OPTIONAL {
        ?test ns:studyDuration [ rdf:value ?sd ;
                                 unit:units ?sd_unit ] .
    }
}"""
JOIN_SPARQL = """
SELECT ?t ?s ?c WHERE { ?t ns:mentionsTaxon ?s ; ns:mentionsChemical ?c . }"""
GROUP_SPARQL = """
SELECT ?chemical (COUNT(?r) AS ?n) WHERE {
    ?t rdf:type ns:Test ; ns:chemical ?chemical ; ns:hasResult ?r .
} GROUP BY ?chemical"""
QUERIES = {"star": STAR_SPARQL, "join": JOIN_SPARQL, "group": GROUP_SPARQL}


def connect(store, data_dir: str) -> duckdb.DuckDBPyConnection:
    """A DuckDB connection with views ``store`` (the engine's output:
    a Parquet directory or an Arrow table) and ``transcripts``,
    ``truth``, ``tests``, ``results`` over the generated inputs."""
    con = duckdb.connect()
    con.execute("SET threads TO 2")
    if isinstance(store, pa.Table):
        con.register("store_arrow", store)
        con.execute("CREATE VIEW store AS SELECT subj, pred, obj, "
                    "obj_is_literal, graph FROM store_arrow")
    else:
        con.execute("CREATE VIEW store AS SELECT subj, pred, obj, "
                    "obj_is_literal, graph FROM read_parquet("
                    f"'{os.path.join(store, '**', '*.parquet')}')")
    tr = os.path.join(data_dir, "transcripts.parquet")
    if os.path.isdir(tr):
        tr = os.path.join(tr, "*.parquet")
    for name, path in [("transcripts", tr)] + [
            (n, os.path.join(data_dir, n + ".parquet"))
            for n in ("truth", "tests", "results")]:
        con.execute(f"CREATE VIEW {name} AS SELECT * FROM "
                    f"read_parquet('{path}')")
    return con


def _diff(con, got_sql: str, want_sql: str) -> dict:
    """Multiset difference both ways; ``ok`` when both are empty."""
    missing = con.execute(f"SELECT count(*) FROM (({want_sql}) EXCEPT ALL "
                          f"({got_sql}))").fetchone()[0]
    extra = con.execute(f"SELECT count(*) FROM (({got_sql}) EXCEPT ALL "
                        f"({want_sql}))").fetchone()[0]
    want = con.execute(f"SELECT count(*) FROM ({want_sql})").fetchone()[0]
    return {"ok": missing == 0 and extra == 0 and want > 0,
            "expected": want, "missing": missing, "extra": extra}


def structural(con) -> dict:
    """Turn triples (``rdf:type Turn``, ``hasTurn``, ``precededBy``) in
    the store equal the ones the transcript rows imply."""
    turn = f"'{NS}turn/' || conv_id || '/' || CAST(turn_idx AS VARCHAR)"
    want = f"""
        SELECT {turn} AS s, '{RDF_TYPE}' AS p, '{NS}Turn' AS o
          FROM transcripts
        UNION ALL
        SELECT '{NS}conversation/' || conv_id, '{NS}hasTurn', {turn}
          FROM transcripts
        UNION ALL
        SELECT {turn}, '{NS}precededBy', '{NS}turn/' || conv_id || '/'
               || CAST(turn_idx - 1 AS VARCHAR)
          FROM transcripts WHERE turn_idx > 0"""
    got = f"""
        SELECT subj, pred, obj FROM store
         WHERE (pred = '{RDF_TYPE}' AND obj = '{NS}Turn')
            OR pred IN ('{NS}hasTurn', '{NS}precededBy')"""
    return _diff(con, got, want)


def no_duplicates(con) -> dict:
    rows, distinct = con.execute(
        "SELECT count(*), (SELECT count(*) FROM (SELECT DISTINCT subj, "
        "pred, obj FROM store)) FROM store").fetchone()
    return {"ok": rows == distinct and rows > 0, "rows": rows,
            "duplicates": rows - distinct}


def linking(con) -> dict:
    """Mention precision / recall per entity kind against the planted
    truth: a hit is a ``(turn, predicate, entity)`` triple."""
    out = {"ok": True}
    for kind, pred in MENTION_PREDS.items():
        truth = (f"SELECT DISTINCT '{NS}turn/' || conv_id || '/' || "
                 f"CAST(turn_idx AS VARCHAR) AS s, uri AS o FROM truth "
                 f"WHERE kind = '{kind}'")
        got = f"SELECT DISTINCT subj AS s, obj AS o FROM store " \
              f"WHERE pred = '{pred}'"
        n_truth, n_got, tp = con.execute(
            f"SELECT (SELECT count(*) FROM ({truth})), "
            f"(SELECT count(*) FROM ({got})), "
            f"(SELECT count(*) FROM (({truth}) INTERSECT ({got})))"
        ).fetchone()
        p = tp / n_got if n_got else 0.0
        r = tp / n_truth if n_truth else 0.0
        out[kind] = {"planted": n_truth, "linked": n_got,
                     "precision": round(p, 4), "recall": round(r, 4)}
        out["ok"] = out["ok"] and p >= MIN_PR and r >= MIN_PR
    return out


def store_checks(con) -> dict:
    """The checks every written store gets."""
    res = {"structural": structural(con), "no_duplicates": no_duplicates(con),
           "linking": linking(con)}
    res["ok"] = all(v["ok"] for v in res.values())
    return res


def _sents() -> str:
    return ", ".join(f"'{s}'" for s in SENTINELS)


def star_sql() -> str:
    """The flagship star SELECT over the input ``tests``/``results``
    tables: a test binds when its ids are present, a result when every
    column is present and its value keeps a digit; the optional study
    duration binds when its value and unit are present.  Units map by
    their fixed QUDT names."""
    s = _sents()
    return f"""
WITH t AS (
  SELECT test_id, test_cas, species_number FROM tests
  WHERE test_id NOT IN ({s}) AND test_cas NOT IN ({s})
    AND species_number NOT IN ({s})
), sd AS (
  SELECT x.test_id, x.study_duration_mean AS sd,
         '{UNIT}' || m.u AS sd_unit
  FROM tests x
  JOIN (VALUES ('h', 'Hour'), ('d', 'Day'), ('w', 'Week')) m(k, u)
    ON x.study_duration_unit = m.k
  WHERE x.study_duration_mean NOT IN ({s})
), r AS (
  SELECT test_id, endpoint, conc1_mean, effect FROM results
  WHERE test_id NOT IN ({s}) AND endpoint NOT IN ({s})
    AND conc1_mean NOT IN ({s}) AND conc1_unit NOT IN ({s})
    AND effect NOT IN ({s})
    AND length(regexp_replace(conc1_mean, '\\D', '', 'g')) > 0
)
SELECT DISTINCT '{NS}cas/' || t.test_cas AS chemical,
       '{NS}taxon/' || t.species_number AS species,
       regexp_replace(r.conc1_mean, '\\D', '', 'g') AS conc_value,
       '{NS}endpoint/' || r.endpoint AS endpoint,
       '{NS}effect/' || r.effect AS effect,
       sd.sd AS sd, sd.sd_unit AS sd_unit
FROM r JOIN t USING (test_id) LEFT JOIN sd ON sd.test_id = t.test_id"""


def join_sql() -> str:
    return f"""
SELECT a.subj AS t, a.obj AS s, b.obj AS c
FROM store a JOIN store b ON a.subj = b.subj
WHERE a.pred = '{NS}mentionsTaxon' AND b.pred = '{NS}mentionsChemical'"""


def group_sql() -> str:
    return f"""
SELECT c.obj AS chemical, count(*) AS n
FROM store ty JOIN store c ON ty.subj = c.subj
              JOIN store r ON ty.subj = r.subj
WHERE ty.pred = '{RDF_TYPE}' AND ty.obj = '{NS}Test'
  AND c.pred = '{NS}chemical' AND r.pred = '{NS}hasResult'
GROUP BY c.obj"""


_EXPECTED = {"star": star_sql, "join": join_sql, "group": group_sql}
_COLUMNS = {"star": ["chemical", "species", "conc_value", "endpoint",
                     "effect", "sd", "sd_unit"],
            "join": ["t", "s", "c"], "group": ["chemical", "n"]}


def query_result(con, name: str, got: pa.Table) -> dict:
    """Compare the engine's answer to query ``name`` with DuckDB's."""
    cols = _COLUMNS[name]
    if got is None or sorted(got.column_names) != sorted(cols):
        return {"ok": False, "columns": None if got is None
                else got.column_names}
    con.register("got_" + name, got)
    sel = ", ".join(f"CAST({c} AS {'BIGINT' if c == 'n' else 'VARCHAR'})"
                    for c in cols)
    res = _diff(con, f"SELECT {sel} FROM got_{name}",
                f"SELECT {sel} FROM ({_EXPECTED[name]()})")
    con.unregister("got_" + name)
    return res


def same_triples(con, other: pa.Table) -> dict:
    """The store equals ``other`` as a set of ``(s, p, o, literal,
    graph)`` rows, with equal row counts."""
    con.register("other_arrow", other)
    cols = "subj, pred, obj, obj_is_literal, graph"
    res = _diff(con, f"SELECT {cols} FROM store",
                f"SELECT {cols} FROM other_arrow")
    con.unregister("other_arrow")
    return res


def redelivery(fresh: bool, again: dict, novel_rows: int,
               merged_rows: int) -> dict:
    """Shard ingest bookkeeping: every new shard was ingested, the
    re-delivered shard reports ``skipped`` with no rows, and the merged
    store holds exactly the rows the shard ingests reported."""
    ok = (fresh and bool(again.get("skipped"))
          and again.get("novel_rows") == 0 and novel_rows == merged_rows)
    return {"ok": ok, "skipped": again.get("skipped"),
            "novel_rows": novel_rows, "merged_rows": merged_rows}
