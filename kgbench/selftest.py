"""Show that every oracle passes on real engine output and fails on a
deliberately corrupted copy of it.

    python3 kgbench/selftest.py

Run from the repository root (under a minute on 4 CPUs).  Builds a
small store, runs the three SPARQL queries and a two-shard ingest, then
for each oracle checks the real output and one or more corruptions: a
triple dropped, a triple duplicated, a value changed.  Prints one line
per case and exits 0 only if every oracle accepted the real output and
rejected every corruption.
"""

from __future__ import annotations

import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pyarrow as pa  # noqa: E402
import pyarrow.compute as pc  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

import gen  # noqa: E402
import harness  # noqa: E402
import oracles  # noqa: E402

TURNS = 1_000


def _drop(t: pa.Table, mask) -> pa.Table:
    """``t`` without the first row where ``mask`` holds."""
    i = pc.index(mask, True).as_py()
    return pa.concat_tables([t.slice(0, i), t.slice(i + 1)])


def _dup(t: pa.Table, i: int = 0) -> pa.Table:
    return pa.concat_tables([t, t.slice(i, 1)])


def _replace(t: pa.Table, col: str, every: int, value) -> pa.Table:
    """Set ``col`` to ``value`` on every ``every``-th row."""
    idx = pa.array([i % every == 0 for i in range(t.num_rows)])
    new = pc.if_else(idx, pa.scalar(value, t[col].type), t[col])
    return t.set_column(t.schema.get_field_index(col), col, new)


def _store_case(data: str, table: pa.Table, check) -> bool:
    con = oracles.connect(table, data)
    try:
        return check(con)["ok"]
    finally:
        con.close()


def main() -> int:
    import ray.data

    from workloads import _collect

    root = os.getcwd()
    work = os.path.join(root, ".kgbench", f"selftest-{os.getpid()}")
    cases: list[tuple[str, str, bool, bool]] = []
    try:
        harness.import_engine(root)
        from tera_ray.pipelines.transcripts import build_kg
        from tera_ray.query.sparql import sparql_select
        from tera_ray.state.checkpoint import merged_kg, update_kg_incremental

        with harness.ray_session(work):
            data = os.path.join(work, "data")
            gen.generate(data, 7, TURNS, "default", transcript_files=2)
            store_dir = os.path.join(work, "store")
            build_kg(data).write_parquet(store_dir)
            store = pq.read_table(store_dir)
            answers = {q: _collect(sparql_select(
                ray.data.read_parquet(store_dir), text))
                for q, text in oracles.QUERIES.items()}
            kg = os.path.join(work, "kg")
            shards = sorted(os.path.join(data, "transcripts.parquet", f)
                            for f in os.listdir(os.path.join(
                                data, "transcripts.parquet")))
            novel = sum(update_kg_incremental(kg, data, s)["novel_rows"]
                        for s in shards)
            again = update_kg_incremental(kg, data, shards[0])
            merged = _collect(merged_kg(kg))

        def case(oracle, what, got_ok, expect):
            cases.append((oracle, what, got_ok, expect))

        turn_type = pc.equal(store["obj"], oracles.NS + "Turn")
        prec = pc.equal(store["pred"], oracles.NS + "precededBy")
        taxon = pc.equal(store["pred"], oracles.MENTION_PREDS["species"])
        case("structural", "engine store",
             _store_case(data, store, oracles.structural), True)
        case("structural", "one rdf:type Turn dropped",
             _store_case(data, _drop(store, turn_type),
                         oracles.structural), False)
        case("structural", "one precededBy duplicated",
             _store_case(data, _dup(store, pc.index(prec, True).as_py()),
                         oracles.structural), False)
        case("no_duplicates", "engine store",
             _store_case(data, store, oracles.no_duplicates), True)
        case("no_duplicates", "one triple duplicated",
             _store_case(data, _dup(store), oracles.no_duplicates), False)
        case("linking", "engine store",
             _store_case(data, store, oracles.linking), True)
        # P/R >= 0.95 tolerates a single wrong link by design: corrupt
        # one mentionsTaxon object in ten
        mentions = store.filter(taxon)
        wrong = _replace(mentions, "obj", 10, oracles.NS + "taxon/0")
        case("linking", "1 in 10 taxon links wrong",
             _store_case(data, pa.concat_tables(
                 [store.filter(pc.invert(taxon)), wrong]),
                 oracles.linking), False)
        case("linking", "1 in 10 taxon links dropped",
             _store_case(data, pa.concat_tables(
                 [store.filter(pc.invert(taxon)),
                  mentions.filter(pa.array(
                      [i % 10 != 0 for i in range(mentions.num_rows)]))]),
                 oracles.linking), False)

        con = oracles.connect(store_dir, data)
        try:
            for q, got in answers.items():
                case(q, "engine answer",
                     oracles.query_result(con, q, got)["ok"], True)
                case(q, "one row dropped", oracles.query_result(
                    con, q, got.slice(1))["ok"], False)
                case(q, "one row duplicated", oracles.query_result(
                    con, q, _dup(got))["ok"], False)
            group = answers["group"]
            case("group", "one count off by one", oracles.query_result(
                con, "group", group.set_column(
                    group.schema.get_field_index("n"), "n",
                    pc.add(group["n"], pa.array(
                        [1] + [0] * (group.num_rows - 1),
                        group["n"].type))))["ok"], False)
        finally:
            con.close()

        con = oracles.connect(merged, data)
        try:
            case("one_shot", "engine merged store",
                 oracles.same_triples(con, store)["ok"], True)
            case("one_shot", "one-shot store with a triple dropped",
                 oracles.same_triples(con, store.slice(1))["ok"], False)
            case("one_shot", "one-shot store with a triple duplicated",
                 oracles.same_triples(con, _dup(store))["ok"], False)
        finally:
            con.close()
        case("redelivery", "engine ingest",
             oracles.redelivery(True, again, novel, merged.num_rows)["ok"],
             True)
        case("redelivery", "re-delivery not skipped",
             oracles.redelivery(True, {"skipped": False, "novel_rows": 5},
                                novel, merged.num_rows)["ok"], False)
        case("redelivery", "merged store one row short",
             oracles.redelivery(True, again, novel,
                                merged.num_rows - 1)["ok"], False)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    bad = 0
    for oracle, what, got_ok, expect in cases:
        good = got_ok == expect
        bad += not good
        print(f"{'ok  ' if good else 'FAIL'} {oracle:14s} "
              f"{'accepts' if got_ok else 'rejects'} {what}")
    print(f"{len(cases) - bad}/{len(cases)} cases as expected")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
