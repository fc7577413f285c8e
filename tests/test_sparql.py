"""SPARQL-SELECT front-end (SURVEY F5 + T4): parser coverage on a
hand-built store, and the reference's verbatim flagship query string
(`tera/DataAccess.py:977-994`) against the ecotox emitter store,
cross-checked with the engine's endpoint star join."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray
import ray.data

from tera_ray.query.sparql import (
    DEFAULT_NS,
    SparqlError,
    SparqlUnsupported,
    prefixes,
    sparql_ask,
    sparql_construct,
    sparql_describe,
    sparql_select,
)
from tera_ray.schema import ECOTOX_NS, RDF

NS = "http://ex.org/"


def store():
    rows = [
        # two typed things with labels
        (NS + "t1", RDF + "type", NS + "Test"),
        (NS + "t2", RDF + "type", NS + "Test"),
        (NS + "t1", NS + "label", "alpha"),
        (NS + "t2", NS + "label", "beta"),
        # t1 has a nested measurement bnode; t2 does not
        (NS + "t1", NS + "measure", "_:m1"),
        ("_:m1", RDF + "value", "42"),
        ("_:m1", NS + "unit", NS + "mg"),
        # an extra edge for predicate/object list coverage
        (NS + "t1", NS + "tag", NS + "x"),
        (NS + "t1", NS + "tag", NS + "y"),
    ]
    t = pa.table({
        "subj": pa.array([r[0] for r in rows], pa.string()),
        "pred": pa.array([r[1] for r in rows], pa.string()),
        "obj": pa.array([r[2] for r in rows], pa.string()),
    })
    return ray.data.from_arrow(t)


def rows(ds, cols):
    out = []
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        out.extend(zip(*[b[c].to_pylist() for c in cols]))
    return sorted(out, key=lambda r: tuple(str(x) for x in r))


def rows_ordered(ds, cols):
    """Like :func:`rows` but preserving the dataset's own order (for
    ORDER BY assertions)."""
    out = []
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        out.extend(zip(*[b[c].to_pylist() for c in cols]))
    return out


PFX = f"PREFIX ex: <{NS}>\nPREFIX rdf: <{RDF}>\n"


@pytest.mark.usefixtures("ray_session")
class TestSparqlSelect:
    def test_basic_bgp_and_prefixes(self):
        out = sparql_select(store(), PFX + """
            SELECT ?s ?l WHERE { ?s rdf:type ex:Test ; ex:label ?l . }
        """)
        assert rows(out, ["s", "l"]) == [(NS + "t1", "alpha"),
                                         (NS + "t2", "beta")]

    def test_a_keyword_and_object_list(self):
        out = sparql_select(store(), PFX + """
            SELECT ?s WHERE { ?s a ex:Test . ?s ex:tag ex:x , ex:y . }
        """)
        assert rows(out, ["s"]) == [(NS + "t1",)]

    def test_bnode_property_list(self):
        out = sparql_select(store(), PFX + """
            SELECT ?s ?v ?u WHERE {
                ?s ex:measure [ rdf:value ?v ; ex:unit ?u ] .
            }
        """)
        assert rows(out, ["s", "v", "u"]) == [(NS + "t1", "42", NS + "mg")]

    def test_optional_group_left_join(self):
        out = sparql_select(store(), PFX + """
            SELECT ?s ?v WHERE {
                ?s a ex:Test .
                OPTIONAL { ?s ex:measure [ rdf:value ?v ] . }
            }
        """)
        assert rows(out, ["s", "v"]) == [(NS + "t1", "42"), (NS + "t2", None)]

    def test_filter_isuri_strstarts_and_or(self):
        q = PFX + """
            SELECT ?s ?o WHERE {
                ?s ex:label ?o
                FILTER (isURI(?s) && STRSTARTS(str(?s), str(ex:)))
            }
        """
        assert len(rows(sparql_select(store(), q), ["s", "o"])) == 2
        q2 = PFX + """
            SELECT ?s ?o { ?s ex:label ?o FILTER (?o = "alpha" || ?o = "beta") }
        """
        assert len(rows(sparql_select(store(), q2), ["s", "o"])) == 2
        q3 = PFX + 'SELECT ?s { ?s ex:label ?o FILTER (?o != "alpha") }'
        assert rows(sparql_select(store(), q3), ["s"]) == [(NS + "t2",)]

    def test_filter_isliteral_and_regex(self):
        q = PFX + """
            SELECT ?o WHERE { ?s ex:label ?o FILTER (isLiteral(?o)) }
        """
        assert len(rows(sparql_select(store(), q), ["o"])) == 2
        q2 = PFX + 'SELECT ?o { ?s ?p ?o FILTER (regex(?o, "^al")) }'
        assert rows(sparql_select(store(), q2), ["o"]) == [("alpha",)]
        # blank-node ids are not URIs (rdflib parity)
        q3 = PFX + 'SELECT ?o { ?s ex:measure ?o FILTER (isURI(?o)) }'
        assert rows(sparql_select(store(), q3), ["o"]) == []

    def test_select_star_distinct_limit(self):
        q = PFX + "SELECT * WHERE { ?s ex:tag ?t . }"
        assert len(rows(sparql_select(store(), q), ["s", "t"])) == 2
        q2 = PFX + "SELECT DISTINCT ?s WHERE { ?s ex:tag ?t . }"
        assert rows(sparql_select(store(), q2), ["s"]) == [(NS + "t1",)]
        q3 = PFX + "SELECT ?s WHERE { ?s ex:tag ?t . } LIMIT 1"
        assert sparql_select(store(), q3).count() == 1

    def test_errors(self):
        # GRAPH (constant or ?var) needs the lineage column
        with pytest.raises(SparqlError, match="lineage"):
            sparql_select(store(), PFX + "SELECT ?s WHERE "
                          "{ GRAPH ?g { ?s ?p ?o } }")
        with pytest.raises(SparqlError):
            sparql_select(store(), PFX + "SELECT ?s WHERE { ?s ux:label ?o }")
        with pytest.raises(SparqlError):
            sparql_select(store(), PFX + "SELECT ?nope WHERE { ?s ?p ?o }")

    def test_union_standalone_and_joined(self):
        # standalone UNION: label bindings from both shapes, null-padded
        q = PFX + """
            SELECT ?s ?l ?u WHERE {
                { ?s ex:label ?l } UNION { ?s ex:unit ?u }
            }
        """
        assert rows(sparql_select(store(), q), ["s", "l", "u"]) == [
            ("_:m1", None, NS + "mg"),
            (NS + "t1", "alpha", None),
            (NS + "t2", "beta", None),
        ]
        # UNION joined to a surrounding pattern on ?s
        q2 = PFX + """
            SELECT ?s ?v WHERE {
                ?s a ex:Test .
                { ?s ex:label ?v } UNION { ?s ex:tag ?v }
            }
        """
        assert rows(sparql_select(store(), q2), ["s", "v"]) == [
            (NS + "t1", "alpha"), (NS + "t1", NS + "x"),
            (NS + "t1", NS + "y"), (NS + "t2", "beta")]

    def test_values_clause(self):
        q = PFX + """
            SELECT ?s WHERE { ?s ex:label ?l . VALUES ?l { "alpha" "nope" } }
        """
        assert rows(sparql_select(store(), q), ["s"]) == [(NS + "t1",)]
        # multi-var tuple form
        q2 = PFX + """
            SELECT ?s ?l WHERE {
                ?s ex:label ?l .
                VALUES (?s ?l) { (ex:t1 "alpha") (ex:t2 "nope") }
            }
        """
        assert rows(sparql_select(store(), q2), ["s", "l"]) == [
            (NS + "t1", "alpha")]

    def test_aggregates_group_by(self):
        q = PFX + """
            SELECT ?s (COUNT(?t) AS ?n) WHERE { ?s ex:tag ?t }
            GROUP BY ?s
        """
        assert rows(sparql_select(store(), q), ["s", "n"]) == [
            (NS + "t1", 2)]
        # global aggregates: COUNT(*) + numeric SUM; lexical MIN
        q2 = PFX + """
            SELECT (COUNT(*) AS ?n) (SUM(?v) AS ?sum)
            WHERE { ?x rdf:value ?v }
        """
        assert rows(sparql_select(store(), q2), ["n", "sum"]) == [(1, 42.0)]
        q2b = PFX + "SELECT (MIN(?l) AS ?m) WHERE { ?y ex:label ?l }"
        assert rows(sparql_select(store(), q2b), ["m"]) == [("alpha",)]
        # COUNT(DISTINCT ?v)
        q3 = PFX + """
            SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ex:tag ?t }
        """
        assert rows(sparql_select(store(), q3), ["n"]) == [(1,)]

    def test_explain(self):
        from tera_ray.query.sparql import sparql_explain

        p = sparql_explain(PFX + """
            SELECT DISTINCT ?s ?l WHERE {
                ?s a ex:Test ; ex:label ?l .
                OPTIONAL { ?s ex:measure ?m }
            } LIMIT 5
        """)
        assert p["form"] == "SELECT" and p["distinct"]
        assert p["limit"] == 5
        assert len(p["patterns_in_join_order"]) == 2
        assert p["narrowable"] and len(p["narrowed_predicates"]) == 3
        assert p["blocks"]["optionals"] == 1
        assert p["co_group_shuffles_upper_bound"] == 2
        # negated sets / zero-length paths defeat narrowing
        p2 = sparql_explain(PFX + "SELECT ?s ?o { ?s !ex:label ?o }")
        assert not p2["narrowable"]
        p3 = sparql_explain(PFX + "SELECT ?s ?o { ?s ex:sub* ?o }")
        assert not p3["narrowable"]

    def test_construct_where_shorthand(self):
        # CONSTRUCT WHERE { … }: the pattern block is its own template
        out = sparql_construct(store(), PFX +
                               "CONSTRUCT WHERE { ?s ex:label ?l }")
        got = rows(out, ["subj", "pred", "obj"])
        assert got == [(NS + "t1", NS + "label", "alpha"),
                       (NS + "t2", NS + "label", "beta")]

    def test_bound_and_negation(self):
        # BOUND(?m): t1 has a measure, t2 does not (OPTIONAL null)
        q = PFX + """
            SELECT ?s WHERE {
                ?s a ex:Test OPTIONAL { ?s ex:measure ?m }
                FILTER (BOUND(?m))
            }
        """
        assert rows(sparql_select(store(), q), ["s"]) == [(NS + "t1",)]
        # the classic OPTIONAL-negation idiom: !BOUND
        qn = PFX + """
            SELECT ?s WHERE {
                ?s a ex:Test OPTIONAL { ?s ex:measure ?m }
                FILTER (!BOUND(?m))
            }
        """
        assert rows(sparql_select(store(), qn), ["s"]) == [(NS + "t2",)]
        # unary ! over a builtin
        qb = PFX + 'SELECT ?l { ?s ex:label ?l FILTER (!CONTAINS(?l, "lph")) }'
        assert rows(sparql_select(store(), qb), ["l"]) == [("beta",)]

    def test_filter_in(self):
        q = PFX + ('SELECT ?l { ?s ex:label ?l '
                   'FILTER (?l IN ("alpha", "nope")) }')
        assert rows(sparql_select(store(), q), ["l"]) == [("alpha",)]
        qn = PFX + ('SELECT ?l { ?s ex:label ?l '
                    'FILTER (?l NOT IN ("alpha")) }')
        assert rows(sparql_select(store(), qn), ["l"]) == [("beta",)]
        # unbound var is an ERROR in (NOT) IN → row drops either way
        qo = PFX + """
            SELECT ?s WHERE {
                ?s a ex:Test OPTIONAL { ?s ex:measure ?m }
                FILTER (?m NOT IN ("zzz"))
            }
        """
        assert rows(sparql_select(store(), qo), ["s"]) == [(NS + "t1",)]

    def test_sparql_update(self):
        from tera_ray.query.sparql import sparql_update

        def mk():
            return ray.data.from_arrow(pa.table({
                "subj": pa.array(["a", "a", "b"], pa.string()),
                "pred": pa.array([NS + "p", NS + "q", NS + "p"],
                                 pa.string()),
                "obj": pa.array(["1", "2", "3"], pa.string()),
            }))

        def trips(ds):
            return sorted(tuple(r.values()) for r in ds.take_all())

        # INSERT DATA is a set-insert: the duplicate is not re-added
        r = sparql_update(mk(), PFX + (
            'INSERT DATA { <c> ex:p "9" . <a> ex:p "1" }'))
        assert trips(r) == [("a", NS + "p", "1"), ("a", NS + "q", "2"),
                            ("b", NS + "p", "3"), ("c", NS + "p", "9")]
        # DELETE DATA drops the exact ground triple
        r = sparql_update(mk(), PFX + 'DELETE DATA { <a> ex:q "2" }')
        assert trips(r) == [("a", NS + "p", "1"), ("b", NS + "p", "3")]
        # DELETE WHERE: the pattern block is its own template
        r = sparql_update(mk(), PFX + "DELETE WHERE { ?s ex:p ?o }")
        assert trips(r) == [("a", NS + "q", "2")]
        # DELETE { } INSERT { } WHERE { }: predicate rename
        r = sparql_update(mk(), PFX + (
            "DELETE { ?s ex:p ?o } INSERT { ?s ex:r ?o } "
            "WHERE { ?s ex:p ?o }"))
        assert trips(r) == [("a", NS + "q", "2"), ("a", NS + "r", "1"),
                            ("b", NS + "r", "3")]
        # variables are illegal in DATA blocks
        with pytest.raises(SparqlError):
            sparql_update(mk(), PFX + "INSERT DATA { ?s ex:p \"1\" }")
        # ';'-separated operations apply sequentially: each op's WHERE
        # sees the previous op's writes (spec §3.1)
        seq = PFX + ('INSERT DATA { <c> ex:p "9" } ; '
                     "DELETE WHERE { ?s ex:q ?o } ; "
                     "INSERT { ?s ex:seen ?o } WHERE { ?s ex:p ?o } ;")
        r = sparql_update(mk(), seq)
        assert trips(r) == [
            ("a", NS + "p", "1"), ("a", NS + "seen", "1"),
            ("b", NS + "p", "3"), ("b", NS + "seen", "3"),
            ("c", NS + "p", "9"), ("c", NS + "seen", "9")]

    def test_ground_patterns(self):
        """All-constant patterns are spec-legal existence gates (r2
        ADVICE): ground DELETE WHERE, ground ASK, ground gate inside a
        larger BGP, and ground property paths."""
        from tera_ray.query.sparql import sparql_update

        st = ray.data.from_arrow(pa.table({
            "subj": pa.array(["a", "a", "b", "c"], pa.string()),
            "pred": pa.array(["p", "q", "p", "p"], pa.string()),
            "obj": pa.array(["b", "c", "c", "a"], pa.string()),
        }))
        r = sparql_update(st, "DELETE WHERE { <a> <p> <b> }")
        assert sorted(tuple(x.values()) for x in r.take_all()) == [
            ("a", "q", "c"), ("b", "p", "c"), ("c", "p", "a")]
        # absent ground triple → zero solutions → no-op
        assert sparql_update(st, "DELETE WHERE { <z> <p> <b> }").count() == 4
        assert sparql_ask(st, "ASK { <a> <p> <b> }")
        assert not sparql_ask(st, "ASK { <a> <p> <zz> }")
        # ground gate inside a BGP with variables
        got = rows(sparql_select(
            st, "SELECT ?x WHERE { <a> <p> <b> . ?x <p> <c> }"), ["x"])
        assert got == [("b",)]
        gated = sparql_select(
            st, "SELECT ?x WHERE { <a> <p> <zz> . ?x <p> <c> }")
        assert rows(gated, ["x"]) == []
        # ground paths: a→b→c→a is a p-cycle; zero-length always holds
        assert sparql_ask(st, "ASK { <a> <p>+ <a> }")
        assert not sparql_ask(st, "ASK { <b> <q>+ <a> }")
        assert sparql_ask(st, "ASK { <nope> <p>* <nope> }")

    def test_filter_in_numeric_column(self):
        """IN / NOT IN over a numeric binding column (aggregate alias)
        casts the value set instead of raising an Arrow type error."""
        q = PFX + ("SELECT ?s (COUNT(?t) AS ?n) WHERE { ?s ex:tag ?t } "
                   "GROUP BY ?s HAVING (?n IN (2, 99))")
        assert rows(sparql_select(store(), q), ["s", "n"]) == [
            (NS + "t1", 2)]
        qn = PFX + ("SELECT ?s (COUNT(?t) AS ?n) WHERE { ?s ex:tag ?t } "
                    "GROUP BY ?s HAVING (?n NOT IN (2))")
        assert rows(sparql_select(store(), qn), ["s", "n"]) == []

    def test_aggregate_empty_implicit_group(self):
        """Aggregates without GROUP BY over zero solutions return ONE
        implicit-group row (spec §11): COUNT/SUM/AVG = 0, MIN unbound,
        GROUP_CONCAT = ''."""
        q = PFX + ("SELECT (COUNT(?o) AS ?n) (SUM(?o) AS ?s) "
                   "(MIN(?o) AS ?m) WHERE { ?x ex:absent ?o }")
        assert rows(sparql_select(store(), q), ["n", "s", "m"]) == [
            (0, 0.0, None)]
        qc = PFX + ("SELECT (GROUP_CONCAT(?o) AS ?c) "
                    "WHERE { ?x ex:absent ?o }")
        assert rows(sparql_select(store(), qc), ["c"]) == [("",)]
        # non-empty global aggregates are unchanged
        qn = PFX + "SELECT (COUNT(?t) AS ?n) WHERE { ?s ex:tag ?t }"
        assert rows(sparql_select(store(), qn), ["n"]) == [(2,)]

    def test_negated_property_set(self):
        rows_in = [("a", NS + "p", "1"), ("a", NS + "q", "2"),
                   ("b", NS + "p", "3")]
        store3 = ray.data.from_arrow(pa.table({
            "subj": pa.array([r[0] for r in rows_in], pa.string()),
            "pred": pa.array([r[1] for r in rows_in], pa.string()),
            "obj": pa.array([r[2] for r in rows_in], pa.string()),
        }))
        got = rows(sparql_select(store3, PFX +
                                 "SELECT ?s ?o WHERE { ?s !ex:p ?o }"),
                   ["s", "o"])
        assert got == [("a", "2")]
        # multi-member set: complement of everything matches nothing
        got2 = rows(sparql_select(store3, PFX +
                                  "SELECT ?s ?o { ?s !(ex:p | ex:q) ?o }"),
                    ["s", "o"])
        assert got2 == []
        # joins with a plain pattern on the shared variable
        got3 = rows(sparql_select(store3, PFX +
                                  "SELECT ?o ?x { ?s !ex:q ?o . "
                                  "?s ex:q ?x }"), ["o", "x"])
        assert got3 == [("1", "2")]
        with pytest.raises(SparqlUnsupported):
            sparql_select(store3, PFX + "SELECT ?s { ?s !ex:p+ ?o }")

    def test_group_concat(self):
        rows_in = [("t1", "b"), ("t1", "a"), ("t2", "z"), ("t1", "a")]
        tags = ray.data.from_arrow(pa.table({
            "subj": pa.array([r[0] for r in rows_in], pa.string()),
            "pred": pa.array([NS + "tag"] * 4, pa.string()),
            "obj": pa.array([r[1] for r in rows_in], pa.string()),
        }))
        # bag semantics + deterministic ascending value order
        q = PFX + ('SELECT ?s (GROUP_CONCAT(?t ; SEPARATOR="|") AS ?ts) '
                   'WHERE { ?s ex:tag ?t } GROUP BY ?s')
        assert rows(sparql_select(tags, q), ["s", "ts"]) == [
            ("t1", "a|a|b"), ("t2", "z")]
        # DISTINCT dedups before the concat
        qd = PFX + ('SELECT ?s (GROUP_CONCAT(DISTINCT ?t ; SEPARATOR=",") '
                    'AS ?ts) WHERE { ?s ex:tag ?t } GROUP BY ?s')
        assert rows(sparql_select(tags, qd), ["s", "ts"]) == [
            ("t1", "a,b"), ("t2", "z")]
        # global (no GROUP BY) with the spec default " " separator
        qg = PFX + "SELECT (GROUP_CONCAT(?t) AS ?ts) WHERE { ?s ex:tag ?t }"
        assert rows(sparql_select(tags, qg), ["ts"]) == [("a a b z",)]
        with pytest.raises(SparqlUnsupported):
            sparql_select(tags, PFX + (
                "SELECT ?s (GROUP_CONCAT(?t) AS ?ts) (COUNT(?t) AS ?n) "
                "WHERE { ?s ex:tag ?t } GROUP BY ?s"))

    def test_property_path_plus(self):
        rows_in = [
            (NS + "a", NS + "sub", NS + "b"),
            (NS + "b", NS + "sub", NS + "c"),
            (NS + "c", NS + "sub", NS + "d"),
            (NS + "a", NS + "label", "A"),
        ]
        chain = ray.data.from_arrow(pa.table({
            "subj": pa.array([r[0] for r in rows_in], pa.string()),
            "pred": pa.array([r[1] for r in rows_in], pa.string()),
            "obj": pa.array([r[2] for r in rows_in], pa.string()),
        }))
        got = rows(sparql_select(chain, PFX + """
            SELECT ?s ?o WHERE { ?s ex:sub+ ?o }
        """), ["s", "o"])
        assert len(got) == 6  # a->{b,c,d}, b->{c,d}, c->{d}
        assert (NS + "a", NS + "d") in got
        # constant-anchored forms use the seeded broadcast BFS
        fwd = rows(sparql_select(chain, PFX + f"""
            SELECT ?o WHERE {{ <{NS}b> ex:sub+ ?o }}
        """), ["o"])
        assert fwd == [(NS + "c",), (NS + "d",)]
        back = rows(sparql_select(chain, PFX + f"""
            SELECT ?s WHERE {{ ?s ex:sub+ <{NS}d> }}
        """), ["s"])
        assert back == [(NS + "a",), (NS + "b",), (NS + "c",)]
        # path joined with a plain pattern
        j = rows(sparql_select(chain, PFX + """
            SELECT ?l ?o WHERE { ?s ex:label ?l . ?s ex:sub+ ?o }
        """), ["l", "o"])
        assert j == [("A", NS + "b"), ("A", NS + "c"), ("A", NS + "d")]

    def test_property_path_zero_length(self):
        rows_in = [
            (NS + "a", NS + "sub", NS + "b"),
            (NS + "b", NS + "sub", NS + "c"),
            (NS + "a", NS + "label", "A"),
        ]
        chain = ray.data.from_arrow(pa.table({
            "subj": pa.array([r[0] for r in rows_in], pa.string()),
            "pred": pa.array([r[1] for r in rows_in], pa.string()),
            "obj": pa.array([r[2] for r in rows_in], pa.string()),
        }))
        # graph nodes = {a, b, c, "A"} (subjects ∪ objects, full store)
        nodes = {NS + "a", NS + "b", NS + "c", "A"}
        # ?s sub* ?o — closure ∪ identity over ALL nodes (§9.3)
        got = set(rows(sparql_select(chain, PFX + """
            SELECT ?s ?o WHERE { ?s ex:sub* ?o }
        """), ["s", "o"]))
        closure = {(NS + "a", NS + "b"), (NS + "a", NS + "c"),
                   (NS + "b", NS + "c")}
        assert got == closure | {(n, n) for n in nodes}
        # ?s sub? ?o — direct edges ∪ identity
        got_q = set(rows(sparql_select(chain, PFX + """
            SELECT ?s ?o WHERE { ?s ex:sub? ?o }
        """), ["s", "o"]))
        direct = {(NS + "a", NS + "b"), (NS + "b", NS + "c")}
        assert got_q == direct | {(n, n) for n in nodes}
        # anchored: the constant end always matches itself
        fwd = rows(sparql_select(chain, PFX + f"""
            SELECT ?o WHERE {{ <{NS}b> ex:sub* ?o }}
        """), ["o"])
        assert fwd == [(NS + "b",), (NS + "c",)]
        one = rows(sparql_select(chain, PFX + f"""
            SELECT ?o WHERE {{ <{NS}a> ex:sub? ?o }}
        """), ["o"])
        assert one == [(NS + "a",), (NS + "b",)]
        back = rows(sparql_select(chain, PFX + f"""
            SELECT ?s WHERE {{ ?s ex:sub* <{NS}c> }}
        """), ["s"])
        assert back == [(NS + "a",), (NS + "b",), (NS + "c",)]
        # ?x sub* ?x — identity makes this every graph node
        self_s = set(rows(sparql_select(chain, PFX + """
            SELECT ?x WHERE { ?x ex:sub* ?x }
        """), ["x"]))
        assert self_s == {(n,) for n in nodes}
        # star path joined with a plain pattern: label reachable via sub*
        j = rows(sparql_select(chain, PFX + """
            SELECT ?s ?l WHERE { ?s ex:sub* ?m . ?m ex:label ?l }
        """), ["s", "l"])
        assert j == [(NS + "a", "A")]

    def test_zero_length_domain_scoping(self):
        """A var-var */? path whose end variable is bound by a plain
        pattern in the same group scopes its identity domain to that
        pattern's values (kg._zl_provider) — same §9.3 solutions on
        the bound domain, full-store node enumeration skipped, and
        predicate narrowing stays ENABLED for the query."""
        from tera_ray.query.sparql import sparql_explain

        rows_in = [
            (NS + "a", RDF + "type", NS + "T"),
            (NS + "d", RDF + "type", NS + "T"),   # no sub edges at all
            (NS + "a", NS + "sub", NS + "b"),
            (NS + "b", NS + "sub", NS + "c"),
            (NS + "z", NS + "other", NS + "w"),   # store nodes ∉ domain
        ]
        st = ray.data.from_arrow(pa.table({
            "subj": pa.array([r[0] for r in rows_in], pa.string()),
            "pred": pa.array([r[1] for r in rows_in], pa.string()),
            "obj": pa.array([r[2] for r in rows_in], pa.string()),
        }))
        q = PFX + """
            SELECT ?x ?y WHERE { ?x rdf:type ex:T . ?x ex:sub* ?y }
        """
        # plan surface: narrowable despite the * path, domain scoped
        p = sparql_explain(q)
        assert p["narrowable"]
        assert NS + "sub" in p["narrowed_predicates"]
        assert p["zero_length_domains"] == [{
            "pattern": ("?x", ("*", NS + "sub"), "?y"),
            "identity_domain": "pattern-scoped:?x",
        }]
        # solutions: d has NO sub edges but zero-length still binds
        # (d, d) — proves the identity domain is the provider's value
        # set, not the path predicate's subgraph
        got = set(rows(sparql_select(st, q), ["x", "y"]))
        assert got == {(NS + "a", NS + "a"), (NS + "a", NS + "b"),
                       (NS + "a", NS + "c"), (NS + "d", NS + "d")}
        # zero-or-one variant through the same hatch
        got_q = set(rows(sparql_select(st, PFX + """
            SELECT ?x ?y WHERE { ?x rdf:type ex:T . ?x ex:sub? ?y }
        """), ["x", "y"]))
        assert got_q == {(NS + "a", NS + "a"), (NS + "a", NS + "b"),
                         (NS + "d", NS + "d")}
        # unbound var-var path keeps the spec's full-store domain
        p2 = sparql_explain(PFX + "SELECT ?s ?o { ?s ex:sub* ?o }")
        assert not p2["narrowable"]
        assert (p2["zero_length_domains"][0]["identity_domain"]
                == "full-store")
        got_full = set(rows(sparql_select(st, PFX + """
            SELECT ?s ?o WHERE { ?s ex:sub* ?o }
        """), ["s", "o"]))
        nodes = {NS + n for n in ("a", "b", "c", "d", "z", "w", "T")}
        closure = {(NS + "a", NS + "b"), (NS + "a", NS + "c"),
                   (NS + "b", NS + "c")}
        assert got_full == closure | {(n, n) for n in nodes}

    def test_optional_fusion_semantics(self):
        """OPTIONAL-group shuffle fusion (_FUSE_OPTIONALS): a
        single-shared-var multi-pattern OPTIONAL rides the required
        fold's multijoin — identical solutions to the unfused plan,
        including null-filled unmatched rows; a TWO-shared-var group
        stays on the post left-join path either way."""
        import tera_ray.query.sparql as S

        rows_in = [
            (NS + "t1", RDF + "type", NS + "T"),
            (NS + "t2", RDF + "type", NS + "T"),
            (NS + "t1", NS + "m", "_:m1"),
            ("_:m1", RDF + "value", "7"),
            ("_:m1", NS + "unit", NS + "days"),
            # t2 has NO measurement → null sd/sdu
        ]
        st = ray.data.from_arrow(pa.table({
            "subj": pa.array([r[0] for r in rows_in], pa.string()),
            "pred": pa.array([r[1] for r in rows_in], pa.string()),
            "obj": pa.array([r[2] for r in rows_in], pa.string()),
        }))
        q = PFX + """
            SELECT ?x ?sd ?sdu WHERE {
                ?x rdf:type ex:T .
                OPTIONAL { ?x ex:m ?n . ?n rdf:value ?sd .
                           ?n ex:unit ?sdu }
            }
        """
        expect = [(NS + "t1", "7", NS + "days"), (NS + "t2", None, None)]
        assert S._FUSE_OPTIONALS          # fused is the default plan
        got_fused = rows(sparql_select(st, q), ["x", "sd", "sdu"])
        try:
            S._FUSE_OPTIONALS = False
            got_unfused = rows(sparql_select(st, q), ["x", "sd", "sdu"])
        finally:
            S._FUSE_OPTIONALS = True
        assert got_fused == got_unfused == expect

    def test_service_offline_federation(self):
        """SERVICE [SILENT] <iri> { … } evaluates against the Dataset
        registered for the IRI (offline federation — the S4-style
        by-design endpoint replacement) and joins on shared vars;
        SILENT over an unregistered IRI is the spec's one-empty-
        solution no-op; non-SILENT raises; ?var endpoints unsupported."""
        from tera_ray.query.sparql import (
            register_service,
            sparql_explain,
            unregister_service,
        )

        def mk(rows_in):
            return ray.data.from_arrow(pa.table({
                "subj": pa.array([r[0] for r in rows_in], pa.string()),
                "pred": pa.array([r[1] for r in rows_in], pa.string()),
                "obj": pa.array([r[2] for r in rows_in], pa.string()),
            }))

        main = mk([(NS + "a", NS + "label", "A"),
                   (NS + "b", NS + "label", "B")])
        svc = mk([(NS + "a", NS + "sameAs", "http://other/a1")])
        iri = "http://svc.example/sparql"
        register_service(iri, svc)
        try:
            q = PFX + f"""
                SELECT ?x ?l ?y WHERE {{
                    ?x ex:label ?l .
                    SERVICE <{iri}> {{ ?x ex:sameAs ?y }}
                }}
            """
            assert rows(sparql_select(main, q), ["x", "l", "y"]) == [
                (NS + "a", "A", "http://other/a1")]
            p = sparql_explain(q)
            assert p["blocks"]["services"] == 1
            # the service block's patterns scan a DIFFERENT store, so
            # they don't defeat the main store's predicate narrowing
            assert p["narrowable"]
            assert p["narrowed_predicates"] == [NS + "label"]
        finally:
            unregister_service(iri)
        silent = PFX + """
            SELECT ?x ?l WHERE {
                ?x ex:label ?l .
                SERVICE SILENT <http://nope/> { ?x ex:sameAs ?y }
            }
        """
        assert rows(sparql_select(main, silent), ["x", "l"]) == [
            (NS + "a", "A"), (NS + "b", "B")]
        with pytest.raises(SparqlError, match="not registered"):
            sparql_select(main,
                          silent.replace("SERVICE SILENT", "SERVICE"))
        with pytest.raises(SparqlUnsupported, match="variable endpoint"):
            sparql_select(main, PFX + """
                SELECT ?x WHERE { ?x ex:label ?l .
                                  SERVICE ?ep { ?x ex:sameAs ?y } }
            """)

    def test_having_and_comparisons(self):
        q = PFX + """
            SELECT ?s (COUNT(?t) AS ?n) WHERE { ?s ex:tag ?t }
            GROUP BY ?s HAVING (?n >= 2)
        """
        assert rows(sparql_select(store(), q), ["s", "n"]) == [
            (NS + "t1", 2)]
        q1 = PFX + """
            SELECT ?s (COUNT(?t) AS ?n) WHERE { ?s ?p ?t }
            GROUP BY ?s HAVING (?n > 3)
        """
        assert rows(sparql_select(store(), q1), ["s", "n"]) == [
            (NS + "t1", 5)]
        # lexical comparison on string bindings
        q2 = PFX + 'SELECT ?l { ?s ex:label ?l FILTER (?l < "b") }'
        assert rows(sparql_select(store(), q2), ["l"]) == [("alpha",)]
        # var-to-var comparison
        q3 = PFX + 'SELECT ?s { ?s ex:label ?l FILTER (?s > ?l) }'
        assert len(rows(sparql_select(store(), q3), ["s"])) == 2
        with pytest.raises(SparqlError):
            sparql_select(store(), PFX +
                          'SELECT ?l {?s ex:label ?l} HAVING (?l = "x")')

    def test_inverse_and_sequence_paths(self):
        # inverse: ^measure from the measurement node back to the test
        q = PFX + """
            SELECT ?t WHERE { ?m ^ex:measure ?t }
        """
        assert rows(sparql_select(store(), q), ["t"]) == [(NS + "t1",)]
        # sequence: measure / value in one step chain
        q2 = PFX + """
            SELECT ?s ?v WHERE { ?s ex:measure / rdf:value ?v }
        """
        assert rows(sparql_select(store(), q2), ["s", "v"]) == [
            (NS + "t1", "42")]
        # sequence with an inverse hop: label of the test owning ?m
        q3 = PFX + """
            SELECT ?m ?l WHERE { ?m ^ex:measure / ex:label ?l }
        """
        assert rows(sparql_select(store(), q3), ["m", "l"]) == [
            ("_:m1", "alpha")]

    def test_small_builtins(self):
        # isBlank / CONTAINS / STRENDS
        q = PFX + "SELECT ?o { ?s ex:measure ?o FILTER (isBlank(?o)) }"
        assert rows(sparql_select(store(), q), ["o"]) == [("_:m1",)]
        q2 = PFX + 'SELECT ?l { ?s ex:label ?l FILTER (CONTAINS(?l, "lph")) }'
        assert rows(sparql_select(store(), q2), ["l"]) == [("alpha",)]
        q3 = PFX + ('SELECT ?l { ?s ex:label ?l '
                    'FILTER (STRENDS(str(?l), "ta")) }')
        assert rows(sparql_select(store(), q3), ["l"]) == [("beta",)]
        # SAMPLE: deterministic (minimum) representative per group
        q4 = PFX + """
            SELECT ?s (SAMPLE(?t) AS ?one) WHERE { ?s ex:tag ?t }
            GROUP BY ?s
        """
        assert rows(sparql_select(store(), q4), ["s", "one"]) == [
            (NS + "t1", NS + "x")]

    def test_subquery(self):
        # aggregate in a subquery joined back to the outer pattern
        q = PFX + """
            SELECT ?s ?l ?n WHERE {
                ?s ex:label ?l .
                { SELECT ?s (COUNT(?t) AS ?n) WHERE { ?s ex:tag ?t }
                  GROUP BY ?s }
            }
        """
        assert rows(sparql_select(store(), q), ["s", "l", "n"]) == [
            (NS + "t1", "alpha", 2)]
        # subquery as the whole WHERE block
        q2 = PFX + """
            SELECT ?n WHERE {
                { SELECT (COUNT(*) AS ?n) WHERE { ?s ex:tag ?t } }
            }
        """
        assert rows(sparql_select(store(), q2), ["n"]) == [(2,)]
        # subquery LIMIT applies inside, before the outer join
        q3 = PFX + """
            SELECT ?s ?l WHERE {
                ?s ex:label ?l .
                { SELECT ?s WHERE { ?s a ex:Test } ORDER BY ?s LIMIT 1 }
            }
        """
        assert rows(sparql_select(store(), q3), ["s", "l"]) == [
            (NS + "t1", "alpha")]

    def test_path_alternation(self):
        # label | unit values across both shapes (rewrites to UNION)
        q = PFX + """
            SELECT ?s ?v WHERE { ?s ex:label | ex:unit ?v }
        """
        assert rows(sparql_select(store(), q), ["s", "v"]) == [
            ("_:m1", NS + "mg"), (NS + "t1", "alpha"), (NS + "t2", "beta")]
        # alternation joined with another pattern; branch may be a chain
        q2 = PFX + """
            SELECT ?s ?v WHERE {
                ?s a ex:Test .
                ?s ex:label | ex:measure / rdf:value ?v
            }
        """
        assert rows(sparql_select(store(), q2), ["s", "v"]) == [
            (NS + "t1", "42"), (NS + "t1", "alpha"), (NS + "t2", "beta")]

    def test_minus_and_exists(self):
        # MINUS: tests WITHOUT a measurement
        q = PFX + """
            SELECT ?s WHERE { ?s a ex:Test MINUS { ?s ex:measure ?m } }
        """
        assert rows(sparql_select(store(), q), ["s"]) == [(NS + "t2",)]
        # FILTER NOT EXISTS: same shape, same answer on plain BGPs
        q2 = PFX + """
            SELECT ?s WHERE { ?s a ex:Test
                              FILTER NOT EXISTS { ?s ex:measure ?m } }
        """
        assert rows(sparql_select(store(), q2), ["s"]) == [(NS + "t2",)]
        # FILTER EXISTS: semi-join, no duplication from multiple tags
        q3 = PFX + """
            SELECT ?s WHERE { ?s a ex:Test
                              FILTER EXISTS { ?s ex:tag ?t } }
        """
        assert rows(sparql_select(store(), q3), ["s"]) == [(NS + "t1",)]
        # MINUS with disjoint domain removes nothing (SPARQL semantics)
        q4 = PFX + """
            SELECT ?s WHERE { ?s a ex:Test MINUS { ?x ex:nope ?y } }
        """
        assert len(rows(sparql_select(store(), q4), ["s"])) == 2

    def test_bind_expressions(self):
        q = PFX + """
            SELECT ?s ?u ?n WHERE {
                ?s ex:label ?l .
                BIND(UCASE(?l) AS ?u)
                BIND(STRLEN(?l) AS ?n)
            }
        """
        got = rows(sparql_select(store(), q), ["s", "u", "n"])
        assert got == [(NS + "t1", "ALPHA", 5), (NS + "t2", "BETA", 4)]
        # CONCAT + IRI + constant; BIND feeding a FILTER
        q2 = PFX + f"""
            SELECT ?tag WHERE {{
                ?s ex:label ?l .
                BIND(CONCAT(?l, "-", "x") AS ?tag)
                FILTER (?tag = "alpha-x")
            }}
        """
        assert rows(sparql_select(store(), q2), ["tag"]) == [("alpha-x",)]
        # STRAFTER / STRBEFORE / SUBSTR / REPLACE
        q3 = PFX + """
            SELECT ?a ?b ?c ?r WHERE {
                ?s ex:label ?l FILTER (?l = "alpha")
                BIND(STRAFTER(?l, "al") AS ?a)
                BIND(STRBEFORE(?l, "ph") AS ?b)
                BIND(SUBSTR(?l, 2, 3) AS ?c)
                BIND(REPLACE(?l, "a", "o") AS ?r)
            }
        """
        assert rows(sparql_select(store(), q3), ["a", "b", "c", "r"]) == [
            ("pha", "al", "lph", "olpho")]
        # absent needle -> empty string (SPARQL STRAFTER semantics)
        q4 = PFX + """
            SELECT ?a { ?s ex:label ?l FILTER (?l = "beta")
                        BIND(STRAFTER(?l, "zz") AS ?a) }
        """
        assert rows(sparql_select(store(), q4), ["a"]) == [("",)]
        with pytest.raises(SparqlUnsupported):
            sparql_select(store(), PFX + """
                SELECT ?a { ?s ex:label ?l . ?s ex:tag ?t
                            BIND(STRAFTER(?l, ?t) AS ?a) }
            """)
        with pytest.raises(SparqlError):
            sparql_select(store(), PFX +
                          "SELECT ?a { ?s ex:label ?l"
                          " BIND(UCASE(?nope) AS ?a) }")

    def test_ask_and_describe(self):
        assert sparql_ask(store(), PFX +
                          'ASK { ?s ex:label "alpha" }') is True
        assert sparql_ask(store(), PFX +
                          'ASK { ?s ex:label "nope" }') is False
        # ASK with FILTER + WHERE keyword optional
        assert sparql_ask(store(), PFX + """
            ASK WHERE { ?s ex:label ?l FILTER (?l = "beta") }
        """) is True
        d = rows(sparql_describe(store(), PFX + "DESCRIBE ex:t2"),
                 ["subj", "pred", "obj"])
        assert d == [(NS + "t2", NS + "label", "beta"),
                     (NS + "t2", RDF + "type", NS + "Test")]
        # DESCRIBE ?var WHERE: bindings evaluated, then the same
        # subject-or-object one-hop filter
        dv = rows(sparql_describe(store(), PFX +
                                  "DESCRIBE ?x WHERE { ?x a ex:Test . "
                                  '?x ex:label "beta" }'),
                  ["subj", "pred", "obj"])
        assert dv == [(NS + "t2", NS + "label", "beta"),
                      (NS + "t2", RDF + "type", NS + "Test")]
        # zero bindings → empty (typed) description
        assert rows(sparql_describe(store(), PFX +
                                    'DESCRIBE ?x WHERE { ?x ex:label '
                                    '"nope" }'),
                    ["subj", "pred", "obj"]) == []
        # wrong entry point gets a pointer to the right one
        with pytest.raises(SparqlError, match="sparql_ask"):
            sparql_select(store(), PFX + "ASK { ?s ?p ?o }")

    def test_graph_block(self):
        rows_in = [
            (NS + "a", NS + "p", NS + "b", "g1"),
            (NS + "a", NS + "p", NS + "c", "g2"),
            (NS + "a", NS + "label", "A", "g1"),
        ]
        st = ray.data.from_arrow(pa.table({
            "subj": pa.array([r[0] for r in rows_in], pa.string()),
            "pred": pa.array([r[1] for r in rows_in], pa.string()),
            "obj": pa.array([r[2] for r in rows_in], pa.string()),
            "graph": pa.array([r[3] for r in rows_in], pa.string()),
        }))
        # standalone GRAPH block
        got = rows(sparql_select(st, PFX + """
            SELECT ?o WHERE { GRAPH "g1" { ?s ex:p ?o } }
        """), ["o"])
        assert got == [(NS + "b",)]
        # GRAPH joined with an unscoped pattern
        got2 = rows(sparql_select(st, PFX + """
            SELECT ?l ?o WHERE {
                ?s ex:label ?l .
                GRAPH "g2" { ?s ex:p ?o }
            }
        """), ["l", "o"])
        assert got2 == [("A", NS + "c")]
        # variable graph name: one evaluation per distinct tag,
        # ?g bound to the tag
        got3 = rows(sparql_select(st, PFX + """
            SELECT ?g ?o WHERE { GRAPH ?g { ?s ex:p ?o } }
        """), ["g", "o"])
        assert got3 == [("g1", NS + "b"), ("g2", NS + "c")]
        # GRAPH ?g joined with an unscoped pattern + aggregate
        got4 = rows(sparql_select(st, PFX + """
            SELECT ?g (COUNT(?s) AS ?n) WHERE { GRAPH ?g { ?s ?p ?o } }
            GROUP BY ?g
        """), ["g", "n"])
        assert got4 == [("g1", 2), ("g2", 1)]

    def test_nested_optional_depth_one(self):
        """OPTIONAL { A OPTIONAL { B } } = LeftJoin(main,
        LeftJoin(A, B)): inner misses keep the outer binding; outer
        misses null both."""
        st = ray.data.from_arrow(pa.table({
            "subj": pa.array([NS + "a", NS + "x", NS + "a", NS + "b"]),
            "pred": pa.array([NS + "p", NS + "p", NS + "label",
                              NS + "tag"]),
            "obj": pa.array([NS + "b", NS + "y", "A", "T"]),
        }))
        got = rows(sparql_select(st, PFX + """
            SELECT ?s ?l ?t WHERE { ?s ex:p ?o
                OPTIONAL { ?s ex:label ?l OPTIONAL { ?s ex:tag ?t } } }
        """), ["s", "l", "t"])
        assert got == [(NS + "a", "A", None), (NS + "x", None, None)]
        # inner bound through the outer's var chain
        got2 = rows(sparql_select(st, PFX + """
            SELECT ?s ?l WHERE { ?s ex:p ?o
                OPTIONAL { ?o ex:tag ?l OPTIONAL { ?l ex:zz ?t } } }
        """), ["s", "l"])
        assert got2 == [(NS + "a", "T"), (NS + "x", None)]

    def test_nested_optional_arbitrary_depth(self):
        """Depth-3 OPTIONAL chain = recursive bottom-up LeftJoin fold
        (SPARQL 1.1 §18.2): a miss at any level nulls that level and
        everything below it, keeping the levels above."""
        subj = [NS + "a", NS + "c", NS + "x",
                NS + "a", NS + "c", NS + "a", NS + "a"]
        pred = [NS + "p", NS + "p", NS + "p",
                NS + "label", NS + "label", NS + "tag", NS + "zz"]
        obj = [NS + "b", NS + "d", NS + "y", "A", "C", "T", "Z"]
        st = ray.data.from_arrow(pa.table({
            "subj": pa.array(subj), "pred": pa.array(pred),
            "obj": pa.array(obj)}))
        got = rows(sparql_select(st, PFX + """
            SELECT ?s ?l ?t ?z WHERE { ?s ex:p ?o
                OPTIONAL { ?s ex:label ?l
                    OPTIONAL { ?s ex:tag ?t
                        OPTIONAL { ?s ex:zz ?z } } } }
        """), ["s", "l", "t", "z"])
        assert got == [(NS + "a", "A", "T", "Z"),
                       (NS + "c", "C", None, None),
                       (NS + "x", None, None, None)]
        # two sibling children under one outer OPTIONAL
        got2 = rows(sparql_select(st, PFX + """
            SELECT ?s ?l ?t ?z WHERE { ?s ex:p ?o
                OPTIONAL { ?s ex:label ?l
                    OPTIONAL { ?s ex:tag ?t }
                    OPTIONAL { ?s ex:zz ?z } } }
        """), ["s", "l", "t", "z"])
        assert got2 == got

    def test_optional_unbound_join_fails_loud(self):
        """A join keyed on a variable bound only under an OPTIONAL
        (possibly null) cannot express SPARQL compatibility semantics
        with an equality join — the engine must refuse, not mis-join."""
        st = ray.data.from_arrow(pa.table({
            "subj": pa.array([NS + "a", NS + "a", NS + "b"]),
            "pred": pa.array([NS + "p", NS + "label", NS + "tag"]),
            "obj": pa.array([NS + "b", NS + "A", "T"]),
        }))
        # flat: second OPTIONAL keys on ?l introduced by the first
        with pytest.raises(SparqlError, match="possibly-unbound"):
            sparql_select(st, PFX + """
                SELECT ?s WHERE { ?s ex:p ?o
                    OPTIONAL { ?s ex:label ?l }
                    OPTIONAL { ?l ex:tag ?t } }
            """)
        # nested: composite shares an inner-OPTIONAL var with a
        # required pattern (the ADVICE r4 compatibility-join case)
        with pytest.raises(SparqlError, match="possibly-unbound"):
            sparql_select(st, PFX + """
                SELECT ?s WHERE { ?s ex:p ?o . ?s ex:tag ?t
                    OPTIONAL { ?s ex:label ?l
                        OPTIONAL { ?s ex:tag ?t } } }
            """)

    def test_filter_inside_optional_is_leftjoin_condition(self):
        """FILTER scoped inside OPTIONAL is the LeftJoin condition
        (SPARQL 1.1 §18.2.2.2): a row failing the condition keeps its
        outer bindings with the optional vars NULL — NOT dropped (the
        difference from join-then-filter).  The filter may reference
        only the group's own vars; outer references fail loud, and
        [NOT] EXISTS inside OPTIONAL stays unsupported."""
        st = ray.data.from_arrow(pa.table({
            "subj": pa.array([NS + "a", NS + "b", NS + "a", NS + "b",
                              NS + "a"]),
            "pred": pa.array([NS + "p", NS + "p", NS + "label",
                              NS + "label", NS + "tag"]),
            "obj": pa.array([NS + "x", NS + "y", "Alpha", "beta", "T"]),
        }))
        got = rows(sparql_select(st, PFX + """
            SELECT ?s ?l WHERE { ?s ex:p ?o
                OPTIONAL { ?s ex:label ?l
                           FILTER(STRSTARTS(str(?l), "A")) } }
        """), ["s", "l"])
        assert got == [(NS + "a", "Alpha"), (NS + "b", None)]
        # filter composes with a nested child OPTIONAL (group scoping:
        # the condition applies to the node's composite)
        got2 = rows(sparql_select(st, PFX + """
            SELECT ?s ?l ?t WHERE { ?s ex:p ?o
                OPTIONAL { ?s ex:label ?l
                           FILTER(STRSTARTS(str(?l), "A"))
                           OPTIONAL { ?s ex:tag ?t } } }
        """), ["s", "l", "t"])
        assert got2 == [(NS + "a", "Alpha", "T"),
                        (NS + "b", None, None)]
        with pytest.raises(SparqlError, match="outside the group"):
            sparql_select(st, PFX + """
                SELECT ?s WHERE { ?s ex:p ?o
                    OPTIONAL { ?s ex:label ?l
                               FILTER(STRSTARTS(str(?o), "x")) } }
            """)
        with pytest.raises(SparqlError, match="EXISTS inside OPTIONAL"):
            sparql_select(st, PFX + """
                SELECT ?s WHERE { ?s ex:p ?o
                    OPTIONAL { ?s ex:label ?l
                        FILTER NOT EXISTS { ?s ex:tag ?t } } }
            """)

    def test_select_expressions_and_value_fns(self):
        """Round-5 conformance widening: (expr AS ?x) projections,
        IF / COALESCE value functions, ORDER BY over an expression
        (hidden bind, dropped from output), bare nested groups
        (inlined, filters keep group scope), query-level trailing
        VALUES, and sameTerm (string identity on this store)."""
        st = ray.data.from_arrow(pa.table({
            "subj": pa.array([NS + "a", NS + "b", NS + "a"]),
            "pred": pa.array([NS + "p", NS + "p", NS + "label"]),
            "obj": pa.array(["30", "7", "Alpha"]),
        }))
        assert rows(sparql_select(st, PFX + """
            SELECT (UCASE(?l) AS ?u) WHERE { ?s ex:label ?l }
        """), ["u"]) == [("ALPHA",)]
        # IF: lexical compare — "30" < "5" lexically, "7" > "5"
        assert rows(sparql_select(st, PFX + """
            SELECT ?s ?c WHERE { ?s ex:p ?o
                BIND(IF(?o > "5", "hi", "lo") AS ?c) }
        """), ["s", "c"]) == [(NS + "a", "lo"), (NS + "b", "hi")]
        # COALESCE over an OPTIONAL var
        assert rows(sparql_select(st, PFX + """
            SELECT ?s ?c WHERE { ?s ex:p ?o
                OPTIONAL { ?s ex:label ?l }
                BIND(COALESCE(?l, "none") AS ?c) }
        """), ["s", "c"]) == [(NS + "a", "Alpha"), (NS + "b", "none")]
        # ORDER BY DESC(STRLEN(?o)): "30" (len 2) before "7" (len 1);
        # the hidden sort column must NOT appear in the output
        ordered = rows_ordered(sparql_select(st, PFX + """
            SELECT ?o WHERE { ?s ex:p ?o } ORDER BY DESC(STRLEN(?o))
        """), ["o"])
        assert ordered == [("30",), ("7",)]
        got = sparql_select(st, PFX + """
            SELECT * WHERE { ?s ex:p ?o } ORDER BY STRLEN(?o)
        """).take_all()
        assert set(got[0].keys()) == {"s", "o"}
        # bare nested group inlines; its FILTER keeps group scope
        assert rows(sparql_select(st, PFX + """
            SELECT ?s WHERE { { ?s ex:p ?o FILTER(?o > "5") } }
        """), ["s"]) == [(NS + "b",)]
        # trailing query-level VALUES
        assert rows(sparql_select(st, PFX + """
            SELECT ?s WHERE { ?s ex:p ?o } VALUES ?s { ex:a }
        """), ["s"]) == [(NS + "a",)]
        # sameTerm == string equality on the plain-string store
        assert rows(sparql_select(st, PFX + """
            SELECT ?s WHERE { ?s ex:p ?o FILTER(sameTerm(?o, "7")) }
        """), ["s"]) == [(NS + "b",)]

    def test_arithmetic_expressions(self):
        """Infix + - * / in BIND / select expressions / ORDER BY with
        the usual precedence and parens; operands coerce leniently to
        float64 (non-numeric string → null; division by zero → null —
        SPARQL expression-error semantics, never a kernel crash)."""
        st = ray.data.from_arrow(pa.table({
            "subj": pa.array([NS + "a", NS + "b", NS + "a"]),
            "pred": pa.array([NS + "p", NS + "p", NS + "label"]),
            "obj": pa.array(["30", "7", "Alpha"]),
        }))
        assert rows(sparql_select(st, PFX + """
            SELECT ?s ?n WHERE { ?s ex:p ?o BIND(?o + 2 * 5 AS ?n) }
        """), ["s", "n"]) == [(NS + "a", 40.0), (NS + "b", 17.0)]
        assert rows(sparql_select(st, PFX + """
            SELECT ?n WHERE { ?s ex:p ?o BIND((?o + 2) * 5 AS ?n) }
        """), ["n"]) == [(160.0,), (45.0,)]   # rows() sorts stringly
        # error semantics: / 0 and a non-numeric operand both null
        assert rows(sparql_select(st, PFX + """
            SELECT ?n WHERE { ?s ex:p ?o BIND(?o / 0 AS ?n) }
        """), ["n"]) == [(None,), (None,)]
        assert rows(sparql_select(st, PFX + """
            SELECT ?n WHERE { ?s ex:label ?l BIND(?l * 2 AS ?n) }
        """), ["n"]) == [(None,)]
        # subtraction with and without a space before the minus
        for q in ("BIND(?o - 1 AS ?n)", "BIND(?o -1 AS ?n)"):
            assert rows(sparql_select(st, PFX + f"""
                SELECT ?n WHERE {{ ?s ex:p ?o {q} }}
            """), ["n"]) == [(29.0,), (6.0,)]   # string-key sort
        # numeric FILTER over the float alias
        assert rows(sparql_select(st, PFX + """
            SELECT ?s WHERE { ?s ex:p ?o BIND(?o * 2 AS ?n)
                              FILTER(?n > 20) }
        """), ["s"]) == [(NS + "a",)]
        # ORDER BY a bracketted arithmetic expression: NUMERIC order
        # ("7" before "30"), not lexical
        assert rows_ordered(sparql_select(st, PFX + """
            SELECT ?o WHERE { ?s ex:p ?o } ORDER BY (?o * 1)
        """), ["o"]) == [("7",), ("30",)]
        # arithmetic over a typed function result
        assert rows(sparql_select(st, PFX + """
            SELECT ?n WHERE { ?s ex:label ?l
                BIND(STRLEN(?l) + 10 AS ?n) }
        """), ["n"]) == [(15.0,)]
        # STR of a numeric expression takes its lexical form (a truthful
        # string vtype — CONCAT/IF over it must not see a float column)
        assert rows(sparql_select(st, PFX + """
            SELECT ?n WHERE { ?s ex:p ?o
                BIND(CONCAT(STR(?o + 1), "x") AS ?n) }
        """), ["n"]) == [("31x",), ("8x",)]
        # DESC over an expression (var followed by an operator)
        assert rows_ordered(sparql_select(st, PFX + """
            SELECT ?o WHERE { ?s ex:p ?o } ORDER BY DESC(?o * 1)
        """), ["o"]) == [("30",), ("7",)]
        # absorbed negative literal keeps multiplicative precedence:
        # ?o -1 * 2 == ?o - (1 * 2)
        assert rows(sparql_select(st, PFX + """
            SELECT ?n WHERE { ?s ex:p ?o BIND(?o -1 * 2 AS ?n) }
        """), ["n"]) == [(28.0,), (5.0,)]
        assert rows(sparql_select(st, PFX + """
            SELECT ?n WHERE { ?s ex:p ?o BIND(-?o AS ?n) }
        """), ["n"]) == [(-30.0,), (-7.0,)]
        # arithmetic directly inside FILTER comparisons: documented
        # fail-loud exclusion (BIND it first)
        for q in ("FILTER(?o + 1 > 2)", "FILTER(?o > 10 - 5)"):
            with pytest.raises(SparqlError, match="BIND the expression"):
                sparql_select(st, PFX + f"""
                    SELECT ?s WHERE {{ ?s ex:p ?o {q} }}
                """)

    def test_conformance_widening_edge_cases(self):
        """Second-review regressions on the round-5 widening: bare-
        group filter scoping, IF error-drop on non-numeric strings,
        trailing VALUES over a BIND alias, DISTINCT + ORDER-BY-expr
        determinism guard, ORDER-BY-expr + GROUP BY fail-loud."""
        st = ray.data.from_arrow(pa.table({
            "subj": pa.array([NS + "a", NS + "b", NS + "a"]),
            "pred": pa.array([NS + "p", NS + "p", NS + "label"]),
            "obj": pa.array(["30", "7", "Alpha"]),
        }))
        # bare nested group: a FILTER referencing an OUTER var would
        # see the outer binding after inlining (SPARQL scoping forbids
        # it) — fail loud, never silently mis-scope
        with pytest.raises(SparqlError, match="outside the group"):
            sparql_select(st, PFX + """
                SELECT ?s WHERE { ?s ex:label ?v .
                    { ?s ex:p ?o FILTER(?v = "Alpha") } }
            """)
        # IF with a numeric side and a NON-numeric string value: the
        # comparison nulls (error-drop) and the else branch is taken,
        # never an ArrowInvalid crash
        got = rows(sparql_select(st, PFX + """
            SELECT ?s ?c WHERE { ?s ex:label ?o
                BIND(IF(STRLEN(?o) > ?o, "gt", "le") AS ?c) }
        """), ["s", "c"])
        assert got == [(NS + "a", "le")]
        # trailing VALUES constrains a BIND alias (applied after BINDs)
        got2 = rows(sparql_select(st, PFX + """
            SELECT ?u WHERE { ?s ex:p ?o BIND(UCASE(?o) AS ?u) }
            VALUES ?u { "30" }
        """), ["u"])
        assert got2 == [("30",)]
        # DISTINCT + ORDER BY expr over a PROJECTED var: deterministic
        got3 = rows_ordered(sparql_select(st, PFX + """
            SELECT DISTINCT ?o WHERE { ?s ex:p ?o }
            ORDER BY DESC(STRLEN(?o))
        """), ["o"])
        assert got3 == [("30",), ("7",)]
        # …over a NON-projected var: order would be arbitrary → loud
        with pytest.raises(SparqlError, match="nondeterministic"):
            sparql_select(st, PFX + """
                SELECT DISTINCT ?s WHERE { ?s ex:p ?o }
                ORDER BY STRLEN(?o)
            """)
        # ORDER BY expr + GROUP BY: computed pre-aggregation → loud
        with pytest.raises(SparqlError, match="GROUP BY"):
            sparql_select(st, PFX + """
                SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ex:p ?o }
                GROUP BY ?s ORDER BY DESC(STRLEN(?s))
            """)

    def test_trailing_values_over_nullable_bind_alias_fails_loud(self):
        """A BIND alias is null where its expression errors; SPARQL
        would join that solution with every VALUES row, the equality
        join would drop it — so such a row fails loud (surfacing through
        the Ray task that met it), while bound rows keep the exact
        join."""
        st = ray.data.from_arrow(pa.table({
            "subj": pa.array([NS + "a", NS + "b", NS + "c"]),
            "pred": pa.array([NS + "p"] * 3),
            "obj": pa.array(["30", "7", "n/a"]),
        }))
        q = PFX + """
            SELECT ?s ?h WHERE { ?s ex:p ?v %s BIND(?v * 24 AS ?h) }
            VALUES ?h { 720 %s }
        """
        for vals in ("", "168"):
            with pytest.raises(Exception,
                               match="unbound in some solutions"):
                rows(sparql_select(st, q % ("", vals)), ["s", "h"])
        # the unbound row filtered out first: the exact join stands
        got = rows(sparql_select(st, q % ('FILTER(?v != "n/a")', "")),
                   ["s", "h"])
        assert got == [(NS + "a", 720.0)]

    def test_union_padded_var_never_a_join_key(self):
        """A var null-padded by a UNION branch that does not bind it is
        possibly unbound — an OPTIONAL (or later UNION) keying on it
        must fail loud, not silently equality-join nulls (SPARQL
        compatibility: unbound joins with anything)."""
        st = ray.data.from_arrow(pa.table({
            "subj": pa.array([NS + "s1", NS + "s2", NS + "s1",
                              NS + "s2", NS + "ax", NS + "by"]),
            "pred": pa.array([NS + "p", NS + "p", NS + "a", NS + "b",
                              NS + "c", NS + "c"]),
            "obj": pa.array([NS + "o1", NS + "o2", NS + "ax",
                             NS + "by", "T1", "T2"]),
        }))
        with pytest.raises(SparqlError, match="possibly-unbound"):
            sparql_select(st, PFX + """
                SELECT * WHERE { ?s ex:p ?o .
                    { ?s ex:a ?x } UNION { ?s ex:b ?y }
                    OPTIONAL { ?x ex:c ?t } }
            """)
        # keying on a var bound by EVERY branch stays supported
        got = rows(sparql_select(st, PFX + """
            SELECT ?s ?t WHERE { ?s ex:p ?o .
                { ?s ex:a ?x } UNION { ?s ex:b ?x }
                OPTIONAL { ?x ex:c ?t } }
        """), ["s", "t"])
        assert got == [(NS + "s1", "T1"), (NS + "s2", "T2")]

    def test_bind_inside_optional(self):
        """BIND inside OPTIONAL = group-scoped Extend: the alias
        computes over the optional relation and goes NULL when the
        group misses; composes with a group FILTER on the alias
        (bind-then-filter order per the algebra)."""
        st = ray.data.from_arrow(pa.table({
            "subj": pa.array([NS + "a", NS + "b", NS + "a", NS + "c",
                              NS + "c"]),
            "pred": pa.array([NS + "p", NS + "p", NS + "label",
                              NS + "p", NS + "label"]),
            "obj": pa.array([NS + "x", NS + "y", "Alpha", NS + "z",
                             "be"]),
        }))
        got = rows(sparql_select(st, PFX + """
            SELECT ?s ?u WHERE { ?s ex:p ?o
                OPTIONAL { ?s ex:label ?l BIND(UCASE(?l) AS ?u) } }
        """), ["s", "u"])
        assert got == [(NS + "a", "ALPHA"), (NS + "b", None),
                       (NS + "c", "BE")]
        # alias feeds a group FILTER: short labels fail the condition,
        # their rows keep outer bindings with null alias
        got2 = rows(sparql_select(st, PFX + """
            SELECT ?s ?n WHERE { ?s ex:p ?o
                OPTIONAL { ?s ex:label ?l BIND(STRLEN(?l) AS ?n)
                           FILTER(?n > 3) } }
        """), ["s", "n"])
        assert got2 == [(NS + "a", 5), (NS + "b", None),
                        (NS + "c", None)]
        # dependency outside the group fails loud
        with pytest.raises(SparqlError, match="unbound variables"):
            sparql_select(st, PFX + """
                SELECT ?s WHERE { ?s ex:p ?o
                    OPTIONAL { ?s ex:label ?l
                               BIND(UCASE(?zz) AS ?u) } }
            """)

    def test_filter_inside_union_branch(self):
        """A FILTER inside a UNION branch scopes that branch only
        (algebra: Union(…, Filter(e, P), …)): the filtered branch
        contributes its passing rows, the other branch is unaffected."""
        st = ray.data.from_arrow(pa.table({
            "subj": pa.array([NS + "a", NS + "b", NS + "c"]),
            "pred": pa.array([NS + "label", NS + "label", NS + "tag"]),
            "obj": pa.array(["Alpha", "beta", "Tau"]),
        }))
        got = rows(sparql_select(st, PFX + """
            SELECT ?s ?v WHERE {
                { ?s ex:label ?v FILTER(STRSTARTS(str(?v), "A")) }
                UNION { ?s ex:tag ?v }
            }
        """), ["s", "v"])
        assert got == [(NS + "a", "Alpha"), (NS + "c", "Tau")]
        # filter referencing the OTHER branch's var fails loud
        with pytest.raises(SparqlError, match="outside the group"):
            sparql_select(st, PFX + """
                SELECT ?s WHERE {
                    { ?s ex:label ?v FILTER(STRSTARTS(str(?w), "T")) }
                    UNION { ?s ex:tag ?w }
                }
            """)

    def test_filter_value_functions(self):
        """STRLEN/UCASE/LCASE in comparison position."""
        st = ray.data.from_arrow(pa.table({
            "subj": pa.array([NS + "a", NS + "b"]),
            "pred": pa.array([NS + "label"] * 2),
            "obj": pa.array(["Alpha", "be"]),
        }))
        assert rows(sparql_select(st, PFX + """
            SELECT ?s WHERE { ?s ex:label ?l FILTER(STRLEN(?l) > 3) }
        """), ["s"]) == [(NS + "a",)]
        assert rows(sparql_select(st, PFX + """
            SELECT ?s WHERE { ?s ex:label ?l FILTER(LCASE(?l) = "alpha") }
        """), ["s"]) == [(NS + "a",)]
        assert rows(sparql_select(st, PFX + """
            SELECT ?s WHERE { ?s ex:label ?l FILTER(UCASE(?l) = "BE") }
        """), ["s"]) == [(NS + "b",)]
        # fractional comparand keeps its fraction (no int truncation):
        # < 2.5 must include the length-2 string
        assert rows(sparql_select(st, PFX + """
            SELECT ?s WHERE { ?s ex:label ?l FILTER(STRLEN(?l) < 2.5) }
        """), ["s"]) == [(NS + "b",)]
        # non-numeric comparand fails loud at parse time
        with pytest.raises(SparqlError, match="numeric"):
            sparql_select(st, PFX + """
                SELECT ?s WHERE { ?s ex:label ?l
                    FILTER(STRLEN(?l) < "abc") }
            """)

    def test_sequence_path_with_prefixed_names(self):
        """`ex:p/ex:q` must lex as a sequence path, not one prefixed
        name with '/' in the local part (SPARQL PN_LOCAL has no
        unescaped slash); inverse binds tighter than sequence."""
        st = ray.data.from_arrow(pa.table({
            "subj": pa.array([NS + "a", NS + "b", NS + "x"]),
            "pred": pa.array([NS + "p", NS + "q", NS + "p"]),
            "obj": pa.array([NS + "b", NS + "c", NS + "b"]),
        }))
        got = rows(sparql_select(st, PFX + """
            SELECT ?x ?y WHERE { ?x ex:p/ex:q ?y }
        """), ["x", "y"])
        assert got == [(NS + "a", NS + "c"), (NS + "x", NS + "c")]
        # (^p)/q from b: backwards over p to {a,x}, then q -> nothing
        got2 = rows(sparql_select(st, PFX + """
            SELECT ?x ?y WHERE { ?x ^ex:p/ex:q ?y }
        """), ["x", "y"])
        assert got2 == []

    def test_order_by_optional_var_null_safe(self):
        """ORDER BY on an OPTIONAL (nullable) var must not crash Ray's
        sort sampling; spec ordering: unbound lowest (first ascending,
        last descending)."""
        st = ray.data.from_arrow(pa.table({
            "subj": pa.array([NS + "a", NS + "b", NS + "a"]),
            "pred": pa.array([NS + "p", NS + "p", NS + "label"]),
            "obj": pa.array([NS + "b", NS + "c", "A"]),
        }))
        q = PFX + """
            SELECT ?s ?l WHERE { ?s ex:p ?o
                OPTIONAL { ?s ex:label ?l } } ORDER BY %s(?l)
        """
        asc = rows_ordered(sparql_select(st, q % "ASC"), ["s", "l"])
        assert asc == [(NS + "b", None), (NS + "a", "A")]
        desc = rows_ordered(sparql_select(st, q % "DESC"), ["s", "l"])
        assert desc == [(NS + "a", "A"), (NS + "b", None)]

    def test_values_undef_wildcard(self):
        """SPARQL spec: an UNDEF cell is a per-column wildcard — the
        inline row constrains only its defined columns, and a solution
        compatible with k inline rows appears k times (Join
        multiplicity)."""
        st = ray.data.from_arrow(pa.table({
            "subj": pa.array([NS + "a", NS + "b"]),
            "pred": pa.array([NS + "p"] * 2),
            "obj": pa.array([NS + "b", NS + "c"]),
        }))
        # (ex:a) and (UNDEF): a's solution matches both rows -> twice
        got = rows(sparql_select(st, PFX + """
            SELECT ?s ?o WHERE { ?s ex:p ?o .
                VALUES (?s) { (ex:a) (UNDEF) } }
        """), ["s", "o"])
        assert got == [(NS + "a", NS + "b"), (NS + "a", NS + "b"),
                       (NS + "b", NS + "c")]
        # partial masks: each row constrains only its defined column
        got2 = rows(sparql_select(st, PFX + """
            SELECT ?s ?o WHERE { ?s ex:p ?o .
                VALUES (?s ?o) { (ex:a UNDEF) (UNDEF ex:c) } }
        """), ["s", "o"])
        assert got2 == [(NS + "a", NS + "b"), (NS + "b", NS + "c")]

    def test_graph_var_tag_fanout_bounded(self, monkeypatch):
        """An adversarial store with per-row graph names must fail loud
        on GRAPH ?g instead of launching one sequential sub-plan per
        tag (verdict r03 item 5)."""
        from tera_ray.query import sparql as sparql_mod

        n = 10
        st = ray.data.from_arrow(pa.table({
            "subj": pa.array([NS + f"s{i}" for i in range(n)], pa.string()),
            "pred": pa.array([NS + "p"] * n, pa.string()),
            "obj": pa.array([NS + f"o{i}" for i in range(n)], pa.string()),
            "graph": pa.array([f"tag{i}" for i in range(n)], pa.string()),
        }))
        q = PFX + "SELECT ?g ?o WHERE { GRAPH ?g { ?s ex:p ?o } }"
        monkeypatch.setattr(sparql_mod, "GRAPH_VAR_MAX_TAGS", 4)
        with pytest.raises(SparqlError, match="GRAPH_VAR_MAX_TAGS"):
            sparql_select(st, q).materialize()
        # raising the bound makes the same query legal again
        monkeypatch.setattr(sparql_mod, "GRAPH_VAR_MAX_TAGS", 64)
        got = rows(sparql_select(st, q), ["g", "o"])
        assert len(got) == n

    def test_construct(self):
        # rewrite label edges into a new vocabulary + a type assertion
        out = sparql_construct(store(), PFX + """
            CONSTRUCT {
                ?s ex:name ?l .
                ?s a ex:Named .
            } WHERE { ?s ex:label ?l }
        """)
        got = rows(out, ["subj", "pred", "obj"])
        assert (NS + "t1", NS + "name", "alpha") in got
        assert (NS + "t2", NS + "name", "beta") in got
        assert (NS + "t1", "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                NS + "Named") in got
        assert len(got) == 4
        # dedup: template emitting the same triple per solution collapses
        out2 = sparql_construct(store(), PFX + """
            CONSTRUCT { ex:x ex:seen "yes" } WHERE { ?s ex:label ?l }
        """)
        assert rows(out2, ["subj", "pred", "obj"]) == [
            (NS + "x", NS + "seen", "yes")]
        # unbound OPTIONAL template var drops that pattern's triple only
        out3 = sparql_construct(store(), PFX + """
            CONSTRUCT { ?s ex:val ?v . ?s ex:tagged "t" }
            WHERE { ?s a ex:Test .
                    OPTIONAL { ?s ex:measure [ rdf:value ?v ] } }
        """)
        got3 = rows(out3, ["subj", "pred", "obj"])
        assert (NS + "t1", NS + "val", "42") in got3
        assert (NS + "t2", NS + "tagged", "t") in got3
        assert not any(p == NS + "val" and s == NS + "t2"
                       for s, p, o in got3)
        with pytest.raises(SparqlError):
            sparql_construct(store(), PFX +
                             "CONSTRUCT { ?s ex:p ?nope } WHERE "
                             "{ ?s ex:label ?l }")

    def test_order_by_limit(self):
        q = PFX + """
            SELECT ?s ?l WHERE { ?s ex:label ?l } ORDER BY DESC(?l) LIMIT 1
        """
        out = sparql_select(store(), q)
        got = [tuple(r.values()) for r in out.take_all()]
        assert got == [(NS + "t2", "beta")]
        # OFFSET: skip the first solution of the ordered sequence
        q2 = PFX + """
            SELECT ?l WHERE { ?s ex:label ?l } ORDER BY ?l OFFSET 1
        """
        got2 = [tuple(r.values()) for r in
                sparql_select(store(), q2).take_all()]
        assert got2 == [("beta",)]
        # OFFSET + LIMIT window
        q3 = PFX + """
            SELECT ?v WHERE { ?s ?p ?v FILTER (isLiteral(?v)) }
            ORDER BY ?v LIMIT 1 OFFSET 1
        """
        got3 = [tuple(r.values()) for r in
                sparql_select(store(), q3).take_all()]
        assert got3 == [("alpha",)]

    def test_prefixes_helper_matches_reference_format(self):
        s = prefixes({"ex": NS})
        assert s == f"PREFIX\tex:\t<{NS}>\n"
        assert "ns" in DEFAULT_NS and DEFAULT_NS["ns"] == ECOTOX_NS

    def test_reference_flagship_query_verbatim(self, fixtures_t1):
        """The exact SELECT string from tera/DataAccess.py:977-994 (with
        the reference's default prefixes preloaded) over the ecotox
        emitter store must agree with the engine's endpoint star join."""
        from tera_ray.query.kg import endpoint_star_join
        from tera_ray.stages.base import dedup_triples
        from tera_ray.stages.ecotox import emit_results, emit_tests

        tests = ray.data.read_parquet(
            os.path.join(fixtures_t1, "tests.parquet")).map_batches(
            emit_tests, batch_format="pyarrow")
        results = ray.data.read_parquet(
            os.path.join(fixtures_t1, "results.parquet")).map_batches(
            emit_results, batch_format="pyarrow")
        triples = dedup_triples(tests.union(results))

        q = """
            SELECT DISTINCT ?c ?s ?cc ?cu ?ep ?ef ?sd ?sdu WHERE {
                ?test rdf:type ns:Test ;
                  ns:chemical ?c ;
                   ns:species ?s ;
                   ns:hasResult [
                   ns:endpoint ?ep ;
                   ns:effect ?ef ;
                   ns:concentration [rdf:value ?cc ;
                                        unit:units ?cu] ] .

                OPTIONAL {
                    ?test ns:studyDuration [rdf:value ?sd ;
                                            unit:units ?sdu] .
                }
            }"""
        got = set(rows(sparql_select(triples, q),
                       ["c", "s", "cc", "cu", "ep", "ef", "sd", "sdu"]))

        star = endpoint_star_join(triples)
        want = set(zip(star["chemical"].to_pylist(),
                       star["species"].to_pylist(),
                       star["conc_value"].to_pylist(),
                       star["conc_unit"].to_pylist(),
                       star["endpoint"].to_pylist(),
                       star["effect"].to_pylist(),
                       star["sd"].to_pylist(),
                       star["sd_unit"].to_pylist()))
        assert got == want and len(got) > 100
