"""SPARQL-SELECT front-end over the triple Dataset (SURVEY F5 + T4).

The reference's entire access layer speaks SPARQL strings
(``tera/DataAccess.py`` — e.g. the flagship endpoint query at
``:977-994`` and the compounds scan at ``:650-654``), with PREFIX
headers built by ``tera/utils.py:319-335``.  This module parses the
query-shape subset those call sites actually use and compiles it onto
the engine's distributed BGP matcher (:func:`tera_ray.query.kg.
bgp_match` — constant-filter scans folded through co-group shuffles),
so a reference user can run their existing query strings unchanged:

- ``PREFIX`` headers + the reference's default namespaces
  (``DataAccess.py:71-80``) preloaded as :data:`DEFAULT_NS`
- ``SELECT [DISTINCT] ?v … | *`` and ``LIMIT n``
- ``WHERE { … }`` (the ``WHERE`` keyword itself optional, as in
  ``DataAccess.py:650``) with ``.``-separated triple patterns,
  ``;`` predicate lists, ``,`` object lists, ``a`` for ``rdf:type``,
  and ``[ … ]`` blank-node property lists (flattened to fresh
  internal variables, e.g. the nested concentration BNode)
- ``OPTIONAL { … }`` groups — each group is matched as its own
  sub-BGP and LEFT-joined to the required bindings on the shared
  variables (one co-group shuffle per group), which is exact SPARQL
  left-join semantics, including nested OPTIONAL to arbitrary depth
  (a recursive bottom-up LeftJoin fold, SPARQL 1.1 §18.2; every
  OPTIONAL join keys only on certainly-bound variables — sharing a
  possibly-unbound variable fails loud rather than mis-joining, as
  a null-rejecting equality join cannot express compatibility
  semantics), group-scoped ``FILTER`` inside OPTIONAL (the LeftJoin
  condition, §18.2.2.2 — a failing row keeps its outer bindings with
  the optional vars null; the expression may reference only the
  group's own variables, outer references fail loud) and group-scoped
  ``BIND`` inside OPTIONAL (Extend over the node's composite; the
  alias nulls when the group misses and may feed the group FILTER)
- ``FILTER`` with ``BOUND(?v)`` (+ the ``!BOUND`` OPTIONAL-negation
  idiom), unary ``!``, ``?v [NOT] IN (…)`` (vectorized set test;
  unbound = error-drop), ``isURI``/``isLiteral``/``isBlank``,
  ``STRSTARTS``/``STRENDS``/``CONTAINS`` ``(str(?v), …)``,
  ``regex(?v, "re")``, ``STRLEN``/``UCASE``/``LCASE`` in comparison
  position, ``=`` / ``!=`` / ``<`` / ``>`` / ``<=`` / ``>=``
  (type-aware: numeric columns compare numerically, strings lexically;
  var-to-var allowed), ``&&`` / ``||`` — compiled to vectorized Arrow
  kernels applied to the binding relation; ``HAVING (…)`` applies the
  same machinery after the aggregation
- ``{ … } UNION { … }`` chains — branches match as independent
  sub-BGPs (each may carry branch-scoped ``FILTER``s:
  ``Union(…, Filter(e, P), …)``), null-pad to the block's variable
  superset and stream-union (no shuffle); the block joins the
  surrounding patterns on the shared variables
- ``VALUES`` — single bound variable compiles to a vectorized
  ``is_in`` mask; multi-variable tuples join as a driver-tiny inline
  table; ``UNDEF`` is the spec's per-column wildcard (rows group by
  their defined-column mask and join on just those columns, join
  multiplicities preserved)
- aggregate select expressions ``(COUNT(*)/COUNT(?v)/COUNT(DISTINCT
  ?v)/SUM/MIN/MAX/AVG/SAMPLE(?v) AS ?alias)`` with ``GROUP BY`` — a
  combiner-first distributed groupby (``relational.grouped_agg``);
  SUM/AVG drop non-numeric bindings (SPARQL error-drop), MIN/MAX
  compare lexically on the string store; ``GROUP_CONCAT([DISTINCT]
  ?v ; SEPARATOR="…")`` (sole aggregate, ≤1 group variable) runs on
  the K4 ``ordered_group_concat`` shuffle with deterministic
  ascending value order
- ``ORDER BY ?v / ASC(?v) / DESC(?v)`` (distributed sort), ``LIMIT``
  and ``OFFSET`` (a ``split_at_indices`` stream slice)
- property paths: ``pred+`` (one-or-more — the semi-naive distributed
  transitive closure, or a seeded broadcast-frontier BFS when one end
  is constant), ``pred*`` (zero-or-more — the closure unioned with
  identity pairs over the full store's node set per SPARQL 1.1 §9.3;
  an anchored constant end always matches itself; when another plain
  pattern in the same group already binds an end variable, the
  identity domain is scoped to that pattern's values — join-
  equivalent, skips the full-store node enumeration, and keeps
  predicate narrowing enabled for the query), ``pred?``
  (zero-or-one — direct edges plus the same zero-length identity),
  ``^pred`` (inverse — direction swap), and sequences
  ``p1 / p2`` (fresh-variable chain rewrite; whitespace around ``/``
  required, since ``/`` inside a prefixed name belongs to the name),
  and alternation ``p1 | p2`` (rewrites to a UNION block; branches may
  themselves be chains); negated property sets ``!pred`` /
  ``!(p1 | p2)`` scan the complement (they defeat predicate
  narrowing — the store scan stays full; no inverse members or
  modifiers on a negated set)
- ``MINUS { … }`` and ``FILTER [NOT] EXISTS { … }`` — one co-group
  anti-/semi-join per block on the shared variables
- ``GRAPH <name> { … }`` — scopes a sub-BGP to the store's ``graph``
  lineage column (an engine extension: graph names are the emitters'
  plain graph tags such as ``"ecotox_chemicals"``, not IRIs; quote
  them as literals); ``GRAPH ?g { … }`` evaluates the block once per
  DISTINCT tag (tags are few by construction — one per emitter) and
  unions the per-tag solutions with ``?g`` bound
- ``BIND(expr AS ?v)`` with vectorized string expressions — CONCAT,
  STR/IRI/URI (identity on the string store), UCASE, LCASE, STRLEN,
  STRAFTER, STRBEFORE, REPLACE, SUBSTR, COALESCE (null-skipping),
  IF(cmp, then, else), and infix ARITHMETIC ``+ - * /`` with
  precedence and parens (lenient float64 coercion: non-numeric
  operand or division by zero → null, SPARQL expression-error
  semantics) — applied before FILTERs so the BIND-then-FILTER
  shape works; the same expressions serve as non-aggregate SELECT
  expressions (``(expr AS ?x)``) and ORDER BY conditions
  (``ORDER BY DESC(STRLEN(?o))`` — hidden bind, dropped from output);
  bare nested groups ``{ { … } }`` inline; a query-level trailing
  ``VALUES`` joins the WHERE result after its BINDs and before the
  solution modifiers (aggregation, DISTINCT, ORDER BY, LIMIT); a
  solution where a VALUES variable that is a BIND alias is unbound
  fails loud (a compatibility join, see below);
  ``sameTerm`` = string
  equality on this plain-string store
- ``{ SELECT … }`` subqueries — evaluated bottom-up to their own
  projected relation (aggregation / DISTINCT / ORDER / LIMIT apply
  inside) and joined to the surrounding bindings on the shared
  variables
- ``CONSTRUCT { template } WHERE { … }`` via :func:`sparql_construct`
  (a NEW dedup'd triple Dataset), ``ASK`` via :func:`sparql_ask`,
  ``DESCRIBE <iri>`` / ``DESCRIBE ?v WHERE { … }`` via
  :func:`sparql_describe` (the variable form collects the bounded
  DISTINCT binding set and broadcasts it into the one-pass filter)
- SPARQL 1.1 UPDATE via :func:`sparql_update` (returns the NEW store —
  Datasets are immutable): ``INSERT DATA`` / ``DELETE DATA`` (ground
  triples, one broadcast-filtered scan, no shuffle), ``DELETE WHERE``,
  and ``DELETE {} INSERT {} WHERE {}`` (bindings evaluated once
  against the per-operation store; bag-delete, set-insert via a
  composite-key anti-join); ``;``-separated operation sequences apply
  left to right, each seeing its predecessors' writes (spec §3.1)

``SERVICE [SILENT] <iri> { … }`` federates OFFLINE: the sub-BGP
evaluates against the triple Dataset registered for the IRI via
:func:`register_service` (the same by-design replacement as the S4
endpoint source — no network in this engine), with its own narrowing
pass, joining the surrounding bindings on the shared variables.
``SILENT`` over an unregistered IRI yields the spec's single empty
solution (a join no-op); non-SILENT raises.  Variable endpoints
(``SERVICE ?ep``) are unsupported.

``isURI`` note: the engine's term columns are plain strings, so
``isURI(?v)`` is compiled as an IRI-scheme prefix test
(``scheme://…``) — equivalent over this KG, where every non-literal
term is an absolute http(s) IRI or a ``_:`` blank id (blank ids are
NOT URIs, matching rdflib).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc

from ..schema import ECOTOX_NS, OWL, RDF, RDFS, SKOS, UNIT

__all__ = ["sparql_select", "sparql_construct", "sparql_ask",
           "sparql_describe", "sparql_update", "sparql_explain",
           "prefixes", "DEFAULT_NS", "SparqlError", "SparqlUnsupported"]


def prefixes(init_ns: dict) -> str:
    """Format a namespace dict as SPARQL PREFIX headers — behavioral
    parity with the reference's ``utils.prefixes``
    (``tera/utils.py:319-335``), including the tab separators."""
    q = ""
    for k, i in init_ns.items():
        q += "PREFIX\t" + k + ":\t" + "<" + str(i) + ">\n"
    return q


#: the reference's default namespaces (``DataAccess.py:71-80``) with the
#: engine's store namespace bound to ``ns:``
#: OPTIONAL-group shuffle fusion (see _eval_where) — module switch so
#: deployments can A/B the plan shape; semantics are identical.
_FUSE_OPTIONALS = True

#: SERVICE endpoint registry (offline federation): the sandbox has no
#: network, so SERVICE <iri> { … } resolves against a triple Dataset
#: registered under that IRI — the same by-design replacement as the
#: S4 endpoint source (reference `utils.query_endpoint`,
#: `tera/utils.py:257-296`, which the engine replaces with precomputed
#: mapping stores).  SERVICE SILENT over an unregistered IRI follows
#: the spec's failure contract (one empty solution — a no-op join);
#: non-SILENT raises.
_SERVICE_REGISTRY: dict = {}

#: ``GRAPH ?g { … }`` evaluates its block once per distinct lineage tag
#: (sequential plans, driver-held tag list) — fine for emitter-tagged
#: stores where tags ≈ #emitters, unbounded for an adversarial store
#: with per-row graph names.  Above this bound the engine fails loud
#: instead of launching thousands of sequential sub-plans; raise it
#: deliberately for a store known to carry many legitimate tags.
GRAPH_VAR_MAX_TAGS = 64


def register_service(iri: str, triples) -> None:
    """Register a triple Dataset as the store behind ``SERVICE <iri>``."""
    _SERVICE_REGISTRY[iri] = triples


def unregister_service(iri: str) -> None:
    _SERVICE_REGISTRY.pop(iri, None)

DEFAULT_NS = {
    "rdf": RDF,
    "rdfs": RDFS,
    "owl": OWL,
    "skos": SKOS,
    "unit": UNIT,
    "ns": ECOTOX_NS,
    "mesh": "http://id.nlm.nih.gov/mesh/",
    "obo": "http://purl.obolibrary.org/obo/",
    "pubchem": "http://rdf.ncbi.nlm.nih.gov/pubchem/vocabulary#",
    "compound": "http://rdf.ncbi.nlm.nih.gov/pubchem/compound/",
}


def _chunked(c):
    return c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c


class SparqlError(ValueError):
    pass


class SparqlUnsupported(SparqlError):
    pass


_TOKEN = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<uri><[^<>\s]*>)
      | (?P<var>\?\w+)
      | (?P<lit>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
      | (?P<pname>[A-Za-z_][\w-]*:[\w.#-]*)   # no '/' in local names
                                              # (SPARQL PN_LOCAL), so
                                              # ex:p/ex:q lexes as a
                                              # sequence path
      | (?P<num>-?\d+(?:\.\d+)?)
      | (?P<word>[A-Za-z_]\w*)
      | (?P<punct>&&|\|\||!=|<=|>=|[{}\[\];,.()=*+/^<>|?!-])
    """,
    re.X,
)

_UNSUPPORTED: set = set()

_AGG_FNS = {"COUNT", "SUM", "MIN", "MAX", "AVG", "SAMPLE", "GROUP_CONCAT"}


def _tokenize(q: str) -> list[tuple[str, str]]:
    out, i = [], 0
    while i < len(q):
        m = _TOKEN.match(q, i)
        if m is None:
            raise SparqlError(f"cannot tokenize at: {q[i:i+30]!r}")
        i = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        out.append((kind, m.group()))
    return out


@dataclass
class _Agg:
    fn: str                     # count | sum | min | max | avg | ...
    var: str | None             # None = COUNT(*)
    distinct: bool
    alias: str
    sep: str = " "              # GROUP_CONCAT separator (spec default)


@dataclass
class _Query:
    select: list[str]           # variable names without '?' ([] = *)
    distinct: bool
    patterns: list[tuple]       # required (s, p, o)
    optionals: list[list[tuple]]  # one sub-BGP per OPTIONAL group
    # nested OPTIONAL trees: (outer patterns, [child nodes]) where each
    # child node is itself (patterns, [grandchild nodes]) — evaluated
    # bottom-up as LeftJoin(main, LeftJoin(outer, LeftJoin(child, …)))
    # to arbitrary depth (SPARQL 1.1 §18.2 LeftJoin algebra)
    nested_optionals: list = field(default_factory=list)
    filters: list = field(default_factory=list)  # compiled mask fns
    limit: int | None = None
    offset: int = 0
    unions: list = field(default_factory=list)   # blocks: [branch BGPs]
    values: list = field(default_factory=list)   # (vars, rows) clauses
    # query-level trailing VALUES (grammar ValuesClause): joins the
    # FULL where result, i.e. applied AFTER BINDs (may constrain a
    # bind alias) — unlike in-group values, which precede them
    post_values: list = field(default_factory=list)
    graphs: list = field(default_factory=list)   # (graph name, patterns)
    services: list = field(default_factory=list)  # (iri, silent, patterns)
    binds: list = field(default_factory=list)    # (col fn, alias, deps)
    minuses: list = field(default_factory=list)  # MINUS sub-BGPs
    exists: list = field(default_factory=list)   # (negated, sub-BGP)
    having: list = field(default_factory=list)   # post-agg mask fns
    subqueries: list = field(default_factory=list)  # nested _Query
    aggs: list = field(default_factory=list)     # _Agg select items
    group_by: list = field(default_factory=list)
    order_by: list = field(default_factory=list)  # (var, descending)


class _Parser:
    def __init__(self, tokens, ns: dict):
        self.toks = tokens
        self.i = 0
        self.ns = dict(ns)
        self.bnode_n = 0

    # --- token helpers ---
    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("eof", "")

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, value: str):
        kind, v = self.next()
        if v != value:
            raise SparqlError(f"expected {value!r}, got {v!r}")

    def kw(self, word: str) -> bool:
        kind, v = self.peek()
        if kind == "word" and v.upper() == word:
            self.i += 1
            return True
        return False

    # --- terms ---
    def term(self) -> str:
        """One RDF term → the engine's string form (URIs/blank ids as-is,
        literals unquoted) or a ``?var`` marker for bgp_match."""
        kind, v = self.next()
        if kind == "uri":
            return v[1:-1]
        if kind == "var":
            return v
        if kind == "lit":
            s = re.sub(r"\\(.)", r"\1", v[1:-1])
            # swallow optional @lang / ^^type tags (values are stored plain)
            if self.peek()[1] == "@" or self.peek()[1] == "^^":
                self.next(), self.next()
            return s
        if kind == "num":
            return v
        if kind == "pname":
            pfx, _, local = v.partition(":")
            if pfx not in self.ns:
                raise SparqlError(f"unknown prefix {pfx!r} in {v!r}")
            return self.ns[pfx] + local
        if kind == "word" and v == "a":
            return RDF + "type"
        raise SparqlError(f"expected a term, got {v!r}")

    def fresh_bnode_var(self) -> str:
        self.bnode_n += 1
        return f"?__b{self.bnode_n}"

    # --- grammar ---
    def parse_prologue(self) -> None:
        while self.kw("PREFIX"):
            kind, v = self.next()
            if kind != "pname" or not v.endswith(":"):
                # pname token captures 'rdf:' (empty local part)
                pfx = v.rstrip(":")
            else:
                pfx = v[:-1]
            kind2, uri = self.next()
            if kind2 != "uri":
                raise SparqlError(f"PREFIX {pfx}: expects <uri>, got {uri!r}")
            self.ns[pfx] = uri[1:-1]

    def parse(self) -> _Query:
        self.parse_prologue()
        q = self.select_query()
        kind, v = self.peek()
        if kind != "eof":
            raise (SparqlUnsupported(f"unsupported construct {v!r}")
                   if v.upper() in _UNSUPPORTED
                   else SparqlError(f"unexpected trailing {v!r}"))
        return q

    def select_query(self) -> _Query:
        """``SELECT … [solution modifiers]`` — the recursive unit
        shared by the top level and ``{ SELECT … }`` subqueries."""
        if not self.kw("SELECT"):
            kind, v = self.peek()
            if v.upper() in ("CONSTRUCT", "ASK", "DESCRIBE"):
                raise SparqlError(
                    f"{v.upper()} query — use sparql_{v.lower()}()")
            raise (SparqlUnsupported(f"unsupported query form {v!r}")
                   if v.upper() in _UNSUPPORTED
                   else SparqlError(f"expected SELECT, got {v!r}"))
        distinct = self.kw("DISTINCT")
        self.kw("REDUCED")
        select: list[str] = []
        aggs: list[_Agg] = []
        sel_binds: list = []
        while True:
            kind, v = self.peek()
            if kind == "var":
                select.append(self.next()[1][1:])
            elif v == "*":
                self.next()
                select = []
                break
            elif v == "(":
                nxt = (self.toks[self.i + 1]
                       if self.i + 1 < len(self.toks) else ("eof", ""))
                if nxt[0] == "word" and nxt[1].upper() in _AGG_FNS:
                    aggs.append(self.agg_item())
                    select.append(aggs[-1].alias)
                else:
                    # non-aggregate select expression:
                    # (expr AS ?alias) — desugared to a BIND
                    self.next()
                    fn, deps, vtype = self.value_expr()
                    if not self.kw("AS"):
                        raise SparqlError(
                            "select expression needs AS ?alias")
                    alias = self._var_name()
                    self.expect(")")
                    sel_binds.append((fn, alias, deps, vtype))
                    select.append(alias)
            else:
                break
        self.kw("WHERE")
        (patterns, optionals, nested_opts, filters, unions, values,
         graphs, services, binds, minuses, exists,
         subqueries) = self.group()
        if sel_binds:
            binds = binds + sel_binds
        group_by: list[str] = []
        order_by: list[tuple[str, bool]] = []
        if self.kw("GROUP"):
            if not self.kw("BY"):
                raise SparqlError("GROUP must be followed by BY")
            while self.peek()[0] == "var":
                group_by.append(self.next()[1][1:])
            if not group_by:
                raise SparqlError("empty GROUP BY")
        having: list = []
        while self.kw("HAVING") or (having and self.peek()[1] == "("):
            having.append(self.filter_expr())
        if self.kw("ORDER"):
            if not self.kw("BY"):
                raise SparqlError("ORDER must be followed by BY")
            while True:
                kind, v = self.peek()
                if kind == "var":
                    order_by.append((self.next()[1][1:], False))
                elif kind == "word" and v.upper() in ("ASC", "DESC"):
                    desc = self.next()[1].upper() == "DESC"
                    self.expect("(")
                    nxt = (self.toks[self.i + 1]
                           if self.i + 1 < len(self.toks)
                           else ("eof", ""))
                    if self.peek()[0] == "var" and nxt[1] == ")":
                        # plain DESC(?v): sort the existing column
                        order_by.append((self._var_name(), desc))
                    else:
                        # ORDER BY [ASC|DESC](expr): desugar to a
                        # hidden BIND sorted on, then dropped — a var
                        # followed by anything but ')' starts an
                        # expression (e.g. DESC(?o * 1))
                        fn, deps, vtype = self.value_expr()
                        alias = f"__ord{len(order_by)}"
                        binds = binds + [(fn, alias, deps, vtype)]
                        order_by.append((alias, desc))
                    self.expect(")")
                elif (kind == "word" and v.upper() in self._BIND_FNS) \
                        or v == "(":
                    # bare expression / bracketted expression
                    fn, deps, vtype = self.value_expr()
                    alias = f"__ord{len(order_by)}"
                    binds = binds + [(fn, alias, deps, vtype)]
                    order_by.append((alias, False))
                else:
                    break
            if not order_by:
                raise SparqlError("empty ORDER BY")
        limit = None
        offset = 0
        # LIMIT/OFFSET in either order, as the grammar allows
        while True:
            if self.kw("LIMIT"):
                limit = int(self.next()[1])
            elif self.kw("OFFSET"):
                offset = int(self.next()[1])
            else:
                break
        # query-level trailing VALUES (grammar: ValuesClause after the
        # solution modifiers): joins the full where result, so it is
        # applied AFTER BINDs (it may constrain a bind alias)
        post_values: list = []
        if self.kw("VALUES"):
            post_values.append(self.values_clause())
        return _Query(select=select, distinct=distinct, patterns=patterns,
                      post_values=post_values,
                      optionals=optionals, nested_optionals=nested_opts, filters=filters, limit=limit,
                      unions=unions, values=values, graphs=graphs,
                      services=services, binds=binds, minuses=minuses,
                      exists=exists, subqueries=subqueries, aggs=aggs,
                      group_by=group_by, order_by=order_by, having=having,
                      offset=offset)

    def template_block(self, what: str) -> list[tuple]:
        """``{ s p o . … }`` triple template (no paths, no bnodes)."""
        template: list[tuple] = []
        self.expect("{")
        while self.peek()[1] != "}":
            if self.peek()[1] == "[":
                raise SparqlUnsupported(
                    f"blank nodes in a {what} template")
            for pat in self.triple_statement():
                if isinstance(pat[1], tuple):
                    raise SparqlError(
                        f"property path in a {what} template")
                template.append(pat)
            if self.peek()[1] == ".":
                self.next()
        self.next()
        if not template:
            raise SparqlError(f"empty {what} template")
        return template

    def parse_update_op(self):
        """ONE SPARQL UPDATE operation → ``(delete_template,
        insert_template, where _Query | None)``; does NOT consume the
        trailing ``;``/eof (the executor loops over ``;``-separated
        operations).  ``INSERT DATA`` / ``DELETE DATA`` return ground
        templates with ``where=None``; ``DELETE WHERE { … }`` uses its
        pattern block as both."""
        delete_t = insert_t = None
        if self.kw("INSERT"):
            if self.kw("DATA"):
                t = self.template_block("INSERT DATA")
                return None, self._ground(t, "INSERT DATA"), None
            insert_t = self.template_block("INSERT")
        elif self.kw("DELETE"):
            if self.kw("DATA"):
                t = self.template_block("DELETE DATA")
                return self._ground(t, "DELETE DATA"), None, None
            if self.peek()[1] != "{" and self.kw("WHERE"):
                # DELETE WHERE { … }: the pattern block is the template
                delete_t = self.template_block("DELETE WHERE")
                q = _Query(select=[], distinct=False, patterns=delete_t,
                           optionals=[])
                return delete_t, None, q
            delete_t = self.template_block("DELETE")
            if self.kw("INSERT"):
                insert_t = self.template_block("INSERT")
        else:
            raise SparqlError(
                f"expected INSERT or DELETE, got {self.peek()[1]!r}")
        if not self.kw("WHERE"):
            raise SparqlError("UPDATE with a template needs WHERE { … }")
        (patterns, optionals, nested_opts, filters, unions, values,
         graphs, services, binds, minuses, exists,
         subqueries) = self.group()
        q = _Query(select=[], distinct=False, patterns=patterns,
                   optionals=optionals, nested_optionals=nested_opts, filters=filters,
                   unions=unions, values=values, graphs=graphs,
                   services=services, binds=binds, minuses=minuses,
                   exists=exists, subqueries=subqueries)
        return delete_t, insert_t, q

    def _ground(self, template: list[tuple], what: str) -> list[tuple]:
        for pat in template:
            for term in pat:
                if isinstance(term, str) and term.startswith("?"):
                    raise SparqlError(
                        f"variable {term} in a {what} block "
                        "(ground triples only)")
        return template

    def _expect_eof(self) -> None:
        kind, v = self.peek()
        if kind != "eof":
            raise (SparqlUnsupported(f"unsupported construct {v!r}")
                   if v.upper() in _UNSUPPORTED
                   else SparqlError(f"unexpected trailing {v!r}"))

    def parse_construct(self):
        """``CONSTRUCT { template } WHERE { … }`` → (template patterns,
        WHERE as a ``_Query``)."""
        self.parse_prologue()
        if not self.kw("CONSTRUCT"):
            raise SparqlError(f"expected CONSTRUCT, got {self.peek()[1]!r}")
        if self.peek()[1] != "{":
            # CONSTRUCT WHERE { … } shorthand (spec §10.2.3): the plain
            # pattern block is its own template
            if not self.kw("WHERE"):
                raise SparqlError(
                    f"expected {{ or WHERE, got {self.peek()[1]!r}")
            template = self.template_block("CONSTRUCT WHERE")
            q = _Query(select=[], distinct=False, patterns=template,
                       optionals=[])
            self._expect_eof()
            return template, q
        template = self.template_block("CONSTRUCT")
        self.kw("WHERE")
        (patterns, optionals, nested_opts, filters, unions, values,
         graphs, services, binds, minuses, exists,
         subqueries) = self.group()
        kind, v = self.peek()
        if kind != "eof":
            raise (SparqlUnsupported(f"unsupported construct {v!r}")
                   if v.upper() in _UNSUPPORTED | _AGG_FNS
                       or v.upper() in ("GROUP", "ORDER", "LIMIT")
                   else SparqlError(f"unexpected trailing {v!r}"))
        q = _Query(select=[], distinct=False, patterns=patterns,
                   optionals=optionals, nested_optionals=nested_opts, filters=filters,
                   unions=unions, values=values, graphs=graphs,
                   services=services, binds=binds, minuses=minuses,
                   exists=exists, subqueries=subqueries)
        return template, q

    def agg_item(self) -> _Agg:
        """``(COUNT(*) AS ?n)`` / ``(SUM(?v) AS ?s)`` / ``(COUNT(DISTINCT
        ?v) AS ?n)`` select expression."""
        self.expect("(")
        kind, v = self.next()
        fn = v.upper() if kind == "word" else ""
        if fn not in _AGG_FNS:
            raise SparqlUnsupported(f"unsupported select expression {v!r}")
        self.expect("(")
        distinct = self.kw("DISTINCT")
        kind, v = self.peek()
        if v == "*":
            self.next()
            var = None
            if fn != "COUNT":
                raise SparqlError(f"{fn}(*) is not valid SPARQL")
        else:
            var = self._var_name()
        sep = " "                           # SPARQL default separator
        if fn == "GROUP_CONCAT" and self.peek()[1] == ";":
            self.next()
            if not self.kw("SEPARATOR"):
                raise SparqlError("expected SEPARATOR after ';' in "
                                  "GROUP_CONCAT")
            self.expect("=")
            kind, v = self.next()
            if kind != "lit":
                raise SparqlError("SEPARATOR expects a string literal")
            sep = re.sub(r"\\(.)", r"\1", v[1:-1])
        self.expect(")")
        if not self.kw("AS"):
            raise SparqlError("aggregate select expression needs AS ?alias")
        alias = self._var_name()
        self.expect(")")
        if distinct and fn not in ("COUNT", "GROUP_CONCAT"):
            raise SparqlUnsupported(f"{fn}(DISTINCT …)")
        return _Agg(fn=fn.lower(), var=var, distinct=distinct, alias=alias,
                    sep=sep)

    def group(self, in_optional: bool = False):
        """``{ … }`` → (patterns, optional groups, nested-optional
        trees, filter fns, union blocks, values clauses, …)."""
        self.expect("{")
        patterns: list[tuple] = []
        optionals: list[list[tuple]] = []
        nested: list[tuple[list[tuple], list[list[tuple]]]] = []
        filters: list = []
        unions: list[list[list[tuple]]] = []
        values: list[tuple[list[str], list[tuple]]] = []
        graphs: list[tuple[str, list[tuple]]] = []
        services: list[tuple[str, bool, list[tuple]]] = []
        binds: list = []
        minuses: list[list[tuple]] = []
        exists: list[tuple[bool, list[tuple]]] = []
        subqueries: list[_Query] = []
        while True:
            kind, v = self.peek()
            if v == "}":
                self.next()
                return (patterns, optionals, nested, filters, unions,
                        values, graphs, services, binds, minuses,
                        exists, subqueries)
            if kind == "word" and v.upper() in _UNSUPPORTED:
                raise SparqlUnsupported(f"unsupported construct {v!r}")
            if v == "{":
                if in_optional:
                    raise SparqlUnsupported("group pattern inside OPTIONAL")
                nxt = (self.toks[self.i + 1]
                       if self.i + 1 < len(self.toks) else ("eof", ""))
                if nxt[0] == "word" and nxt[1].upper() == "SELECT":
                    self.next()                 # consume '{'
                    subqueries.append(self.select_query())
                    self.expect("}")
                else:
                    blk = self.union_block()
                    if len(blk) == 1:
                        # bare nested group: a GroupGraphPattern with
                        # no UNION inlines into the enclosing group.
                        # Its FILTERs keep group scope: they may
                        # reference only the group's OWN vars (probed
                        # here — an outer-var reference would see the
                        # outer binding after inlining, which SPARQL
                        # scoping forbids), making outer application
                        # equivalent on the joined relation.
                        br, brf = blk[0]
                        br_vars = sorted({
                            v[1:] for p in br for v in p
                            if isinstance(v, str) and v.startswith("?")})
                        for fn in brf:
                            _probe_group_filter(fn, br_vars, {},
                                                "a nested group")
                        patterns.extend(br)
                        filters.extend(brf)
                    else:
                        unions.append(blk)
            elif self.kw("OPTIONAL"):
                sub = self.group(in_optional=True)
                inner_p = sub[0]
                # child OPTIONAL nodes: the sub-group's plain optionals
                # become leaf nodes, its nested ones are already nodes —
                # the tree recurses to arbitrary depth
                children = [(g, [], [], []) for g in sub[1]] + list(sub[2])
                ofilters = list(sub[3])
                obinds = list(sub[8])
                if any(sub[4:8]) or any(sub[9:]):
                    raise SparqlUnsupported(
                        "OPTIONAL containing UNION/VALUES/GRAPH/"
                        "SERVICE/MINUS")
                if not inner_p:
                    raise SparqlUnsupported(
                        "OPTIONAL with no required triple patterns")
                if children or ofilters or obinds:
                    # nested OPTIONAL tree: evaluated bottom-up as a
                    # recursive LeftJoin fold (group-scoped BINDs
                    # extend, FILTERs are the LeftJoin condition),
                    # then left-joined to main
                    nested.append((inner_p, children, ofilters, obinds))
                else:
                    optionals.append(inner_p)
            elif self.kw("GRAPH"):
                if in_optional:
                    raise SparqlUnsupported("GRAPH inside OPTIONAL/UNION")
                gname = self.term()         # constant tag or ?var
                sub = self.group(in_optional=True)
                graphs.append((gname, self._plain_sub(sub, "GRAPH")))
            elif self.kw("SERVICE"):
                if in_optional:
                    raise SparqlUnsupported("SERVICE inside OPTIONAL/UNION")
                silent = self.kw("SILENT")
                sname = self.term()
                if sname.startswith("?"):
                    raise SparqlUnsupported(
                        "SERVICE with a variable endpoint")
                sub = self.group(in_optional=True)
                services.append((sname, silent,
                                 self._plain_sub(sub, "SERVICE")))
            elif self.kw("MINUS"):
                if in_optional:
                    raise SparqlUnsupported("MINUS inside OPTIONAL")
                minuses.append(self._plain_sub(
                    self.group(in_optional=True), "MINUS"))
            elif self.kw("FILTER"):
                # plain FILTER inside OPTIONAL is the LeftJoin
                # condition (SPARQL 1.1 §18.2.2.2) — parsed here, the
                # OPTIONAL branch consumes it; [NOT] EXISTS stays
                # disallowed inside sub-groups (would recurse further)
                if self.kw("NOT"):
                    if in_optional:
                        raise SparqlUnsupported(
                            "NOT EXISTS inside OPTIONAL/UNION")
                    if not self.kw("EXISTS"):
                        raise SparqlError("expected EXISTS after NOT")
                    exists.append((True, self._plain_sub(
                        self.group(in_optional=True), "NOT EXISTS")))
                elif self.kw("EXISTS"):
                    if in_optional:
                        raise SparqlUnsupported(
                            "EXISTS inside OPTIONAL/UNION")
                    exists.append((False, self._plain_sub(
                        self.group(in_optional=True), "EXISTS")))
                else:
                    filters.append(self.filter_expr())
            elif self.kw("VALUES"):
                if in_optional:
                    raise SparqlUnsupported("VALUES inside OPTIONAL")
                values.append(self.values_clause())
            elif self.kw("BIND"):
                # inside OPTIONAL this is the group-scoped Extend
                # (consumed by the OPTIONAL branch); inside any OTHER
                # sub-group the enclosing construct rejects it
                self.expect("(")
                fn, deps, vtype = self.value_expr()
                if not self.kw("AS"):
                    raise SparqlError("BIND needs (expr AS ?var)")
                alias = self._var_name()
                self.expect(")")
                binds.append((fn, alias, deps, vtype))
            else:
                patterns.extend(self.triple_statement(
                    unions=None if in_optional else unions))
            # statement separator (optional before '}')
            if self.peek()[1] == ".":
                self.next()

    @staticmethod
    def _plain_sub(sub, ctx: str) -> list[tuple]:
        """A nested group that must be a plain BGP (no further
        structure)."""
        sub_p = sub[0]
        if any(sub[1:]):
            raise SparqlUnsupported(
                f"{ctx} containing OPTIONAL/FILTER/UNION/VALUES/GRAPH/"
                "SERVICE/BIND/MINUS")
        return sub_p

    def union_block(self) -> list[tuple[list[tuple], list]]:
        """``{ BGP } UNION { BGP } [UNION …]`` → list of
        ``(branch BGP, branch filters)``.  A FILTER inside a branch
        scopes that branch (SPARQL group scoping: the algebra is
        ``Union(…, Filter(e, P), …)``) — applied to the branch relation
        before the stream-union.  No nested OPTIONAL/UNION inside
        branches."""
        branches = []
        while True:
            sub = self.group(in_optional=True)
            if any(sub[1:3]) or any(sub[4:]):
                raise SparqlUnsupported(
                    "UNION branch containing OPTIONAL/UNION/VALUES/"
                    "GRAPH/SERVICE/BIND/MINUS")
            if not sub[0]:
                raise SparqlError("empty UNION branch")
            branches.append((sub[0], list(sub[3])))
            if not self.kw("UNION"):
                break
        return branches

    def values_clause(self) -> tuple[list[str], list[tuple]]:
        """``VALUES ?v { "a" "b" }`` or ``VALUES (?a ?b) { (1 2) … }``;
        ``UNDEF`` → null."""
        vars_: list[str] = []
        kind, v = self.peek()
        paren = v == "("
        if paren:
            self.next()
            while self.peek()[0] == "var":
                vars_.append(self._var_name())
            self.expect(")")
        else:
            vars_.append(self._var_name())
        if not vars_:
            raise SparqlError("VALUES needs at least one variable")
        self.expect("{")
        rows: list[tuple] = []

        def one_term():
            if self.peek()[0] == "word" and self.peek()[1].upper() == "UNDEF":
                self.next()
                return None
            return self.term()

        while self.peek()[1] != "}":
            if paren:
                self.expect("(")
                row = tuple(one_term() for _ in vars_)
                self.expect(")")
            else:
                row = (one_term(),)
            rows.append(row)
        self.expect("}")
        return vars_, rows

    def triple_statement(self, unions=None) -> list[tuple]:
        out: list[tuple] = []
        kind, v = self.peek()
        if v == "[":
            subj = self.bnode_props(out)
        else:
            subj = self.term()
        self.pred_obj_list(subj, out, unions)
        return out

    def path_step(self):
        """One path step: ``[^]term[+]`` → (inverse, pred-or-path)."""
        inv = False
        if self.peek()[1] == "^":
            self.next()
            inv = True
        if self.peek()[1] == "!":           # negated property set
            self.next()
            if inv:
                raise SparqlUnsupported(
                    "inverse of a negated property set")
            if self.peek()[1] == "(":
                self.next()
                negs = [self.term()]
                while self.peek()[1] == "|":
                    self.next()
                    if self.peek()[1] == "^":
                        raise SparqlUnsupported(
                            "inverse member in a negated property set")
                    negs.append(self.term())
                self.expect(")")
            else:
                negs = [self.term()]
            if any(p.startswith("?") for p in negs):
                raise SparqlError("variable in a negated property set")
            if self.peek()[1] in ("+", "*", "?"):
                raise SparqlUnsupported(
                    "path modifier on a negated property set")
            return False, ("!", tuple(sorted(set(negs))))
        pred = self.term()
        if pred.startswith("?") is False and not pred:
            raise SparqlError("empty predicate")
        if self.peek()[1] in ("+", "*", "?"):   # one-or-more / zero-or-
            mod = self.next()[1]                # more / zero-or-one
            if pred.startswith("?"):
                raise SparqlError(
                    "property-path modifier on a variable predicate")
            pred = (mod, pred)
        if inv and isinstance(pred, str) and pred.startswith("?"):
            raise SparqlError("inverse path on a variable predicate")
        return inv, pred

    def path_pred(self):
        """A predicate path: ``step (/ step)*`` — sequences rewrite to
        fresh-variable chains at emit time (tokenizer note: ``/`` inside
        a prefixed name belongs to the name, so sequence steps need
        whitespace around the ``/``)."""
        steps = [self.path_step()]
        while self.peek()[1] == "/":
            self.next()
            steps.append(self.path_step())
        return steps

    def emit_path(self, subj: str, steps, obj, out: list) -> None:
        """Emit the pattern chain for ``subj <steps> obj`` (fresh
        variable per sequence hop; ``^`` swaps a hop's direction)."""
        cur = subj
        for i, (inv, pred) in enumerate(steps):
            nxt = obj if i == len(steps) - 1 else self.fresh_bnode_var()
            out.append((nxt, pred, cur) if inv else (cur, pred, nxt))
            cur = nxt

    def pred_obj_list(self, subj: str, out: list, unions=None) -> None:
        while True:
            paths = [self.path_pred()]
            while self.peek()[1] == "|":    # alternation → UNION block
                self.next()
                paths.append(self.path_pred())
            if len(paths) > 1 and unions is None:
                raise SparqlUnsupported(
                    "path alternation inside a bnode property list")

            def emit(obj):
                if len(paths) == 1:
                    self.emit_path(subj, paths[0], obj, out)
                    return
                branches = []
                for steps in paths:
                    br: list[tuple] = []
                    self.emit_path(subj, steps, obj, br)
                    branches.append((br, []))   # alternation: no filters
                unions.append(branches)

            while True:
                kind, v = self.peek()
                if v == "[":
                    # link the bnode var BEFORE its inner patterns so the
                    # BGP fold always has a shared variable
                    inner: list[tuple] = []
                    obj = self.bnode_props(inner)
                    emit(obj)
                    out.extend(inner)
                else:
                    emit(self.term())
                if self.peek()[1] == ",":
                    self.next()
                    continue
                break
            if self.peek()[1] == ";":
                self.next()
                # a dangling ';' before '.' or '}' is legal SPARQL
                if self.peek()[1] in (".", "}", "]"):
                    return
                continue
            return

    def bnode_props(self, out: list) -> str:
        """``[ pred obj ; … ]`` → fresh variable bound by its patterns."""
        self.expect("[")
        var = self.fresh_bnode_var()
        self.pred_obj_list(var, out)
        self.expect("]")
        return var

    # --- BIND value expressions → vectorized column closures ---
    _BIND_FNS = {"CONCAT", "STR", "IRI", "URI", "UCASE", "LCASE",
                 "STRLEN", "STRAFTER", "STRBEFORE", "REPLACE", "SUBSTR",
                 "COALESCE", "IF"}
    _CMP_OPS = {"=": pc.equal, "!=": pc.not_equal, "<": pc.less,
                ">": pc.greater, "<=": pc.less_equal,
                ">=": pc.greater_equal}

    def _if_expr(self):
        """``IF(a <op> b, then, else)`` — the condition is one
        comparison (string compare lexical; numeric when both sides
        are numeric-typed, e.g. STRLEN); an error/unbound condition
        selects the else branch (null → False, SPARQL error-drop)."""
        self.expect("(")
        la, ld, lt = self.value_expr()
        kind, op = self.next()
        if op not in self._CMP_OPS:
            raise SparqlUnsupported(
                f"IF condition must be a comparison, got {op!r}")
        ra, rd, rt = self.value_expr()
        self.expect(",")
        ta, td, tt = self.value_expr()
        self.expect(",")
        ea, ed, et = self.value_expr()
        self.expect(")")
        if tt != et:
            raise SparqlUnsupported(
                "IF branches must have the same type")
        numeric = (pa.types.is_integer(lt) or pa.types.is_floating(lt)
                   or pa.types.is_integer(rt) or pa.types.is_floating(rt))
        cmp_fn = self._CMP_OPS[op]

        def fn(t: pa.Table) -> pa.Array:
            l, r = la(t), ra(t)
            if numeric:
                # lenient: a non-numeric STRING value becomes null →
                # the comparison is null → else branch (error-drop),
                # never an ArrowInvalid crash inside a Ray task
                l = _lenient_float(l)
                r = _lenient_float(r)
            cond = pc.fill_null(cmp_fn(l, r), False)
            return pc.if_else(cond, ta(t), ea(t))

        return fn, ld + rd + td + ed, tt

    def value_expr(self):
        """One BIND value expression → (table→Array closure, dep vars,
        result type).

        String kernels (the store is string-typed): CONCAT, STR /
        IRI / URI (identity on this store), UCASE, LCASE, STRLEN
        (int64), STRAFTER, STRBEFORE (empty string when the needle is
        absent, per SPARQL), REPLACE (RE2 regex; use ``\\1`` capture
        refs), SUBSTR (1-based, constant positions), COALESCE,
        IF(cmp, then, else) — plus infix ARITHMETIC ``+ - * /`` with
        the usual precedence and parenthesized subexpressions
        (operands coerce leniently to float64: a non-numeric string
        value → null → the row error-drops downstream; division by
        zero → null per SPARQL's error semantics).  All compile to
        pyarrow.compute kernels — no Python per row."""
        fn, deps, vt = self._value_mult()
        while True:
            kind, v = self.peek()
            if v in ("+", "-"):
                self.next()
                rfn, rdeps, _rt = self._value_mult()
                fn = self._arith(fn, rfn, v)
            elif kind == "num" and v.startswith("-"):
                # '?a -1' lexes the minus into the number: treat a
                # negative numeric literal after an operand as
                # subtraction of its magnitude — and keep parsing the
                # MULTIPLICATIVE level on that magnitude so
                # '?a -1 * 2' means ?a - (1 * 2), as the grammar says
                self.next()
                mag = v[1:]

                def rfn(t: pa.Table, mag=mag) -> pa.Array:
                    return pa.repeat(pa.scalar(mag, pa.string()),
                                     t.num_rows)

                rdeps: list = []
                while self.peek()[1] in ("*", "/"):
                    op2 = self.next()[1]
                    pfn, pdeps, _pt = self._value_primary()
                    rfn = self._arith(rfn, pfn, op2)
                    rdeps = rdeps + pdeps
                fn = self._arith(fn, rfn, "-")
            else:
                return fn, deps, vt
            deps = deps + rdeps
            vt = pa.float64()

    def _value_mult(self):
        fn, deps, vt = self._value_primary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            rfn, rdeps, _rt = self._value_primary()
            fn = self._arith(fn, rfn, op)
            deps = deps + rdeps
            vt = pa.float64()
        return fn, deps, vt

    @staticmethod
    def _arith(lf, rf, op: str):
        kern = {"+": pc.add, "-": pc.subtract, "*": pc.multiply,
                "/": pc.divide}[op]

        def fn(t: pa.Table, lf=lf, rf=rf, kern=kern, op=op) -> pa.Array:
            l = _lenient_float(lf(t))
            r = _lenient_float(rf(t))
            if op == "/":
                # SPARQL: division by zero is an expression ERROR →
                # null (error-drop), not a kernel exception
                r = pc.if_else(pc.equal(r, 0.0),
                               pa.scalar(None, pa.float64()), r)
            return kern(l, r)

        return fn

    def _value_primary(self):
        kind, v = self.peek()
        if v == "(":
            self.next()
            fn, deps, vt = self.value_expr()
            self.expect(")")
            return fn, deps, vt
        if v == "-":
            # unary minus (SPARQL UnaryExpression): 0 - primary
            self.next()
            pfn, deps, _pt = self._value_primary()

            def neg(t: pa.Table, pfn=pfn) -> pa.Array:
                return pc.negate(_lenient_float(pfn(t)))

            return neg, deps, pa.float64()
        if kind == "word" and v.upper() == "IF":
            self.next()
            return self._if_expr()
        if kind == "word" and v.upper() in self._BIND_FNS:
            fname = self.next()[1].upper()
            self.expect("(")
            args, arg_deps = [], []
            while True:
                a, d, _vt = self.value_expr()
                args.append((a, _vt))
                arg_deps.append(d)
                if self.peek()[1] == ",":
                    self.next()
                    continue
                break
            self.expect(")")
            # needle / position arguments compile to Arrow scalars, so
            # they must be constants
            const_from = {"STRAFTER": 1, "STRBEFORE": 1, "REPLACE": 1,
                          "SUBSTR": 1}.get(fname)
            if const_from is not None:
                for d in arg_deps[const_from:]:
                    if d:
                        raise SparqlUnsupported(
                            f"non-constant argument to {fname}")
            deps = [x for d in arg_deps for x in d]
            if fname == "STRLEN":
                vtype = pa.int64()
            elif fname == "COALESCE":
                if len({str(vt) for _, vt in args}) > 1:
                    raise SparqlUnsupported(
                        "COALESCE arguments must share one type")
                vtype = args[0][1]      # the common type carries
            else:
                vtype = pa.string()
            return self._compile_fn(fname, [a for a, _ in args]), deps, vtype
        if kind == "var":
            name = self._var_name()
            return (lambda t, name=name: _chunked(t[name])), [name], \
                pa.string()
        const = self.term()

        def const_col(t: pa.Table, const=const) -> pa.Array:
            return pa.repeat(pa.scalar(const, pa.string()), t.num_rows)

        return const_col, [], pa.string()

    @staticmethod
    def _compile_fn(fname: str, args: list):
        n = len(args)

        def need(k):
            if n != k:
                raise SparqlError(f"{fname} takes {k} argument(s), got {n}")

        if fname == "CONCAT":
            if n < 1:
                raise SparqlError("CONCAT needs at least one argument")
            # numeric (arithmetic/STRLEN) args take their lexical form
            return lambda t: pc.binary_join_element_wise(
                *[pc.cast(a(t), pa.string()) for a in args], "")
        if fname == "COALESCE":
            if n < 1:
                raise SparqlError("COALESCE needs at least one argument")
            # SPARQL: first argument that evaluates without error /
            # unbound — null-skipping, exactly Arrow's coalesce
            return lambda t: pc.coalesce(*[a(t) for a in args])
        if fname in ("STR", "IRI", "URI"):
            need(1)
            # identity on the string store; a NUMERIC-typed argument
            # (arithmetic, STRLEN) casts to its lexical form so the
            # declared string vtype is truthful downstream
            return lambda t: pc.cast(args[0](t), pa.string())
        if fname == "UCASE":
            need(1)
            return lambda t: pc.utf8_upper(args[0](t))
        if fname == "LCASE":
            need(1)
            return lambda t: pc.utf8_lower(args[0](t))
        if fname == "STRLEN":
            need(1)
            return lambda t: pc.cast(pc.utf8_length(args[0](t)), pa.int64())
        if fname in ("STRAFTER", "STRBEFORE"):
            need(2)

            def fn(t, after=fname == "STRAFTER"):
                s, sub = args[0](t), args[1](t)
                sub0 = sub[0].as_py() if len(sub) else ""
                esc = re.escape(sub0)
                pat = (f"(?s)^.*?{esc}" if after else f"(?s){esc}.*$")
                hit = pc.match_substring(s, sub0)
                cut = pc.replace_substring_regex(
                    s, pat, "", max_replacements=1)
                return pc.if_else(pc.fill_null(hit, False), cut,
                                  pa.scalar("", pa.string()))

            return fn
        if fname == "REPLACE":
            need(3)

            def fn(t):
                s = args[0](t)
                pat = args[1](t)[0].as_py()
                rep = args[2](t)[0].as_py()
                return pc.replace_substring_regex(s, pat, rep)

            return fn
        if fname == "SUBSTR":
            if n not in (2, 3):
                raise SparqlError("SUBSTR takes 2 or 3 arguments")

            def fn(t):
                s = args[0](t)
                start = int(args[1](t)[0].as_py()) - 1
                if n == 3:
                    stop = start + int(args[2](t)[0].as_py())
                    return pc.utf8_slice_codeunits(s, start, stop)
                return pc.utf8_slice_codeunits(s, start)

            return fn
        raise SparqlUnsupported(f"BIND function {fname!r}")

    # --- FILTER expressions → vectorized mask closures ---
    def filter_expr(self):
        self.expect("(")
        fn = self._or_expr()
        self.expect(")")
        return fn

    def _or_expr(self):
        fn = self._and_expr()
        while self.peek()[1] == "||":
            self.next()
            a, b = fn, self._and_expr()
            fn = (lambda a, b: lambda t: pc.or_kleene(a(t), b(t)))(a, b)
        return fn

    def _and_expr(self):
        fn = self._primary()
        while self.peek()[1] == "&&":
            self.next()
            a, b = fn, self._primary()
            fn = (lambda a, b: lambda t: pc.and_kleene(a(t), b(t)))(a, b)
        return fn

    def _var_name(self) -> str:
        kind, v = self.next()
        if kind != "var":
            raise SparqlError(f"expected a variable, got {v!r}")
        return v[1:]

    def _str_arg(self) -> str:
        """A string-valued argument: literal, ``str(term)`` or term."""
        kind, v = self.peek()
        if kind == "word" and v == "str":
            self.next()
            self.expect("(")
            s = self.term()
            self.expect(")")
            return s
        return self.term()

    def _primary(self):
        kind, v = self.peek()
        if v == "!":                        # unary negation (Kleene:
            self.next()                     # !null stays null → dropped)
            inner = self._primary()
            return (lambda f: lambda t: pc.invert(f(t)))(inner)
        if v == "(":
            self.next()
            fn = self._or_expr()
            self.expect(")")
            return fn
        if kind == "word":
            word = v
            low = word.lower()
            if low == "bound":
                self.next(), self.expect("(")
                var = self._var_name()
                self.expect(")")
                return (lambda var: lambda t: pc.is_valid(t[var]))(var)
            if low in ("isuri", "isiri"):
                self.next(), self.expect("(")
                var = self._strip_str_of_var()
                self.expect(")")
                return lambda t: pc.match_substring_regex(
                    t[var], r"^[A-Za-z][A-Za-z0-9+.-]*://")
            if low == "isliteral":
                self.next(), self.expect("(")
                var = self._strip_str_of_var()
                self.expect(")")
                return lambda t: pc.invert(pc.or_kleene(
                    pc.match_substring_regex(
                        t[var], r"^[A-Za-z][A-Za-z0-9+.-]*://"),
                    pc.starts_with(t[var], "_:")))
            if low in ("strstarts", "strends", "contains"):
                self.next(), self.expect("(")
                var = self._strip_str_of_var()
                self.expect(",")
                needle = self._str_arg()
                self.expect(")")
                kernel = {"strstarts": pc.starts_with,
                          "strends": pc.ends_with,
                          "contains": pc.match_substring}[low]
                return lambda t, k=kernel, n=needle: k(t[var], n)
            if low == "isblank":
                self.next(), self.expect("(")
                var = self._strip_str_of_var()
                self.expect(")")
                return lambda t: pc.starts_with(t[var], "_:")
            if low == "regex":
                self.next(), self.expect("(")
                var = self._strip_str_of_var()
                self.expect(",")
                pat = self.term()
                self.expect(")")
                return lambda t: pc.match_substring_regex(t[var], pat)
            if low in ("strlen", "ucase", "lcase"):
                # value function in comparison position:
                # STRLEN(?v) <op> n / UCASE|LCASE(?v) <op> "lit"
                self.next(), self.expect("(")
                var = self._strip_str_of_var()
                self.expect(")")
                op = self.next()[1]
                cmps = self._CMP_OPS
                if op not in cmps:
                    raise SparqlUnsupported(
                        f"{word} must be followed by a comparison")
                val = self.term()
                if low == "strlen":
                    # float64 comparison so a fractional comparand
                    # (STRLEN(?v) < 2.5) keeps its fraction instead of
                    # silently truncating; non-numeric fails loud here
                    try:
                        num = float(val)
                    except (TypeError, ValueError):
                        raise SparqlUnsupported(
                            f"STRLEN comparison needs a numeric "
                            f"literal, got {val!r}") from None

                    def lenfn(t: pa.Table, var=var, num=num,
                              op=op) -> pa.Array:
                        return cmps[op](
                            pc.cast(pc.utf8_length(t[var]), pa.float64()),
                            pa.scalar(num, pa.float64()))

                    return lenfn

                def valfn(t: pa.Table, var=var, val=val, op=op,
                          low=low) -> pa.Array:
                    kern = pc.utf8_upper if low == "ucase" else pc.utf8_lower
                    return cmps[op](kern(t[var]), pa.scalar(val, pa.string()))

                return valfn
            if low == "sameterm":
                # plain-string store: term identity IS string equality.
                # var-ness is captured at PARSE time so a literal that
                # happens to start with '?' is never misread as a var
                self.next(), self.expect("(")

                def arg():
                    if self.peek()[0] == "var":
                        return True, self._var_name()
                    return False, self.term()

                a = arg()
                self.expect(",")
                b = arg()
                self.expect(")")

                def stfn(t: pa.Table, a=a, b=b) -> pa.Array:
                    def side(is_var, x):
                        return t[x] if is_var else pa.scalar(
                            x, pa.string())
                    return pc.equal(side(*a), side(*b))

                return stfn
            raise SparqlUnsupported(f"unsupported FILTER function {word!r}")
        if kind == "var":
            var = self._var_name()
            nk, nv = self.peek()
            if nv in ("+", "-", "*", "/"):
                raise SparqlUnsupported(
                    "arithmetic inside a FILTER comparison — BIND the "
                    "expression to a variable first "
                    "(BIND(?x + … AS ?y) FILTER(?y …))")
            neg_in = False
            if nk == "word" and nv.upper() == "NOT":
                self.next()
                if not self.kw("IN"):
                    raise SparqlError("expected IN after NOT in FILTER")
                neg_in = True
            if neg_in or (nk == "word" and self.kw("IN")):
                self.expect("(")
                vals = []
                if self.peek()[1] != ")":
                    vals.append(self.term())
                    while self.peek()[1] == ",":
                        self.next()
                        vals.append(self.term())
                self.expect(")")
                uniq = sorted(set(vals))

                def inset(t: pa.Table, var=var, uniq=uniq,
                          neg=neg_in) -> pa.Array:
                    c = t[var]
                    typ = c.type
                    # type-aware (mirrors the comparison operators):
                    # ?v may be a numeric binding (aggregate alias,
                    # STRLEN bind, subquery result) — cast the VALUE
                    # SET to the column's kind, dropping members that
                    # don't parse (a type-mismatched IN member is a
                    # SPARQL type error on every row → never matches)
                    if pa.types.is_integer(typ) or pa.types.is_floating(typ):
                        num = []
                        for v in uniq:
                            try:
                                num.append(float(v))
                            except (TypeError, ValueError):
                                pass
                        c = pc.cast(c, pa.float64())
                        vset = pa.array(num, pa.float64())
                    else:
                        vset = pa.array(uniq, pa.string())
                    m = pc.is_in(c, value_set=vset)
                    if neg:
                        m = pc.invert(m)
                    # unbound ?v is an ERROR in SPARQL IN/NOT IN → the
                    # row drops either way (is_in maps null to False,
                    # which NOT IN would otherwise wrongly keep)
                    return pc.and_(m, pc.is_valid(t[var]))

                return inset
            op = self.next()[1]
            ops = self._CMP_OPS
            if op not in ops:
                raise SparqlUnsupported(f"unsupported FILTER operator {op!r}")
            val = self.term()
            if self.peek()[1] in ("+", "-", "*", "/"):
                raise SparqlUnsupported(
                    "arithmetic inside a FILTER comparison — BIND the "
                    "expression to a variable first "
                    "(BIND(?x + … AS ?y) FILTER(… ?y))")

            def cmp(t: pa.Table, var=var, val=val, op=op) -> pa.Array:
                # type-aware: numeric columns (aggregate aliases,
                # STRLEN binds) compare numerically, strings lexically
                c = t[var]
                if isinstance(val, str) and val.startswith("?"):
                    return ops[op](c, t[val[1:]])
                typ = c.type
                if pa.types.is_integer(typ) or pa.types.is_floating(typ):
                    return ops[op](pc.cast(c, pa.float64()),
                                   pa.scalar(float(val), pa.float64()))
                return ops[op](c, pa.scalar(val, pa.string()))

            return cmp
        raise SparqlError(f"cannot parse FILTER at {v!r}")

    def _strip_str_of_var(self) -> str:
        """``?v`` or ``str(?v)`` → the variable name."""
        kind, v = self.peek()
        if kind == "word" and v == "str":
            self.next()
            self.expect("(")
            name = self._var_name()
            self.expect(")")
            return name
        return self._var_name()


def _pattern_vars(p) -> set[str]:
    return {t[1:] for t in p if isinstance(t, str) and t.startswith("?")}


def _connect_order(patterns: list[tuple]) -> list[tuple]:
    """Greedy connectivity ordering so bgp_match's left-to-right fold
    always joins on a shared variable (user queries may interleave
    disconnected-then-connected patterns); raises on a true cartesian
    product, same as bgp_match would."""
    if len(patterns) <= 1:
        return list(patterns)
    # ground (variable-free) patterns are existence gates, not join
    # participants — they never make a BGP cartesian (bgp_match splits
    # them out before its fold); order them first so the gate decides
    # before any shuffle runs
    ground = [p for p in patterns if not _pattern_vars(p)]
    rest = [p for p in patterns if _pattern_vars(p)]
    if not rest:
        return list(patterns)
    out = [rest.pop(0)]
    bound = set(_pattern_vars(out[0]))
    while rest:
        for i, p in enumerate(rest):
            if _pattern_vars(p) & bound:
                bound |= _pattern_vars(p)
                out.append(rest.pop(i))
                break
        else:
            raise SparqlError(
                f"cartesian BGP product (no shared variable): {rest[0]}")
    return ground + out


def _shared_vars(have: list[str], group: list[tuple]) -> list[str]:
    g_vars = []
    for p in group:
        for term in p:
            if isinstance(term, str) and term.startswith("?"):
                name = term[1:]
                if name in have and name not in g_vars:
                    g_vars.append(name)
    return g_vars


def _resolve_ns(init_ns: dict | None) -> dict:
    ns = dict(DEFAULT_NS)
    if init_ns:
        ns.update(init_ns)
    return ns


def sparql_select(triples, query: str, num_buckets: int = 64,
                  init_ns: dict | None = None):
    """Run a SPARQL SELECT string against a triple Dataset; returns a
    Dataset with one column per selected variable (see module docs for
    the supported subset).  ``init_ns`` extends/overrides
    :data:`DEFAULT_NS`; PREFIX headers in the query override both."""
    from ..stages.base import dedup_triples

    ast = _Parser(_tokenize(query), _resolve_ns(init_ns)).parse()
    out, _, _ = _run_query(triples, ast, num_buckets)
    return out


def sparql_explain(query: str, init_ns: dict | None = None) -> dict:
    """Compile a SELECT query WITHOUT executing it and return the
    logical plan: the rewritten required patterns in join order (paths
    appear as ``(mod, pred)`` tuples, bnode property lists as fresh
    ``?__b*`` variables), whether the one-pass predicate narrowing
    applies (and to which predicate set), the feature blocks in play,
    and an upper bound on co-group shuffles (star-sibling batching can
    only reduce it).  Debug/planning surface — no Ray session needed."""
    from .kg import _zl_provider

    ast = _Parser(_tokenize(query), _resolve_ns(init_ns)).parse()
    ordered = _connect_order(ast.patterns) if ast.patterns else []
    narrowable, flat_preds = _narrow_plan(ast)
    preds = set(flat_preds)
    # zero-length-path identity domains: pattern-scoped (escape hatch,
    # kg._zl_provider) vs the spec's full-store node enumeration
    zl_domains = []
    for grp in _collect_groups(ast):
        for p in grp:
            pr = p[1]
            if not (isinstance(pr, tuple) and pr[0] in ("*", "?")):
                continue
            isv = [isinstance(t, str) and t.startswith("?")
                   for t in (p[0], p[2])]
            if not all(isv):
                dom = "anchored-constant"
            else:
                prov = _zl_provider(p, grp)
                dom = (f"pattern-scoped:{prov[0]}" if prov is not None
                       else "full-store")
            zl_domains.append({"pattern": p, "identity_domain": dom})
    join_shuffles = max(0, len(ordered) - 1)
    def _n_opt_nodes(nodes) -> int:
        return sum(1 + _n_opt_nodes(c) for _, c, _f, _b in nodes)

    extra = (len(ast.optionals) + sum(len(b) for b in ast.unions)
             + len(ast.graphs) + len(ast.minuses) + len(ast.exists)
             + len(ast.subqueries)
             + _n_opt_nodes(ast.nested_optionals))
    return {
        "form": "SELECT",
        "select": list(ast.select),
        "distinct": ast.distinct,
        "patterns_in_join_order": ordered,
        "narrowable": narrowable,
        "narrowed_predicates": sorted(preds) if narrowable else [],
        "zero_length_domains": zl_domains,
        "blocks": {
            "optionals": len(ast.optionals),
            "union_branches": sum(len(b) for b in ast.unions),
            "graphs": len(ast.graphs),
            "services": len(ast.services),
            "minus": len(ast.minuses),
            "exists": len(ast.exists),
            "values": len(ast.values),
            "binds": len(ast.binds),
            "subqueries": len(ast.subqueries),
            "filters": len(ast.filters),
        },
        "aggregates": [(a.fn, a.var, a.alias) for a in ast.aggs],
        "group_by": list(ast.group_by),
        "order_by": list(ast.order_by),
        "limit": ast.limit,
        "offset": ast.offset,
        "co_group_shuffles_upper_bound": join_shuffles + extra,
    }


def _run_query(triples, ast: _Query, num_buckets: int,
               narrow: bool = True):
    """Evaluate a (possibly nested) SELECT: WHERE block + solution
    modifiers.  Returns (Dataset, projected var list)."""
    from ..stages.base import dedup_triples

    out, have, types = _eval_where(triples, ast, num_buckets,
                                   narrow=narrow)

    if ast.aggs or ast.group_by:
        out, have = _aggregate(out, have, ast)
        for a in ast.aggs:
            types[a.alias] = (pa.int64() if a.fn == "count"
                              else pa.float64() if a.fn in ("sum", "avg")
                              else pa.string())
        for fn in ast.having:
            out = out.map_batches(_masker(fn), batch_format="pyarrow")
    elif ast.having:
        raise SparqlError("HAVING without GROUP BY / aggregates")

    select = ast.select or [v for v in have
                            if not v.startswith(("__b", "__ord"))]
    missing = [v for v in select if v not in have]
    if missing:
        raise SparqlError(f"SELECT variables not bound in WHERE: {missing}")
    # hidden ORDER-BY-expression columns ride through projection and
    # DISTINCT, feed the sort, and are dropped with the sort helpers
    lost = [v for v, _ in ast.order_by
            if v.startswith("__ord") and v not in have]
    if lost:
        raise SparqlUnsupported(
            "ORDER BY expression with GROUP BY / aggregates is not "
            "supported (the expression is computed before grouping)")
    hidden = [v for v, _ in ast.order_by
              if v.startswith("__ord") and v in have and v not in select]
    if ast.distinct and hidden:
        # after DISTINCT keeps one arbitrary row per projected tuple,
        # the hidden sort key is deterministic only if its expression
        # depends solely on projected vars
        bind_deps = {a: d for _, a, d, _vt in ast.binds}
        bad = [h for h in hidden
               if not set(bind_deps.get(h, ())) <= set(select)]
        if bad:
            raise SparqlUnsupported(
                "ORDER BY expression over non-projected variables "
                "with DISTINCT (order would be nondeterministic)")
    out = out.map_batches(_projector(select + hidden),
                          batch_format="pyarrow")
    if ast.distinct:
        # hash mode: only 8-byte row hashes cross the DISTINCT exchange
        # (binding rows are wide string tuples; the payload stays put)
        out = dedup_triples(out, keys=tuple(select), mode="hash")
    if ast.order_by:
        bad = [v for v, _ in ast.order_by
               if v not in select and v not in hidden]
        if bad:
            raise SparqlError(f"ORDER BY variables not in SELECT: {bad}")
        # OPTIONAL vars can be unbound (null), and Ray's sort sampling
        # can't compare None with values — sort on a (validity flag,
        # null-filled value) pair per key instead: spec ordering
        # (unbound lowest — first ascending, last descending) falls out
        # of the flag sharing the key's direction.
        ob = list(ast.order_by)

        def _sortable(t: pa.Table, _ob=ob) -> pa.Table:
            for v, _ in _ob:
                col = t[v]
                col = col.combine_chunks() if isinstance(
                    col, pa.ChunkedArray) else col
                t = t.append_column(
                    "__nn_" + v, pc.cast(pc.is_valid(col), pa.int8()))
                if pa.types.is_null(col.type):
                    filled = pa.array([""] * t.num_rows, pa.string())
                elif pa.types.is_string(col.type) or \
                        pa.types.is_large_string(col.type):
                    filled = pc.fill_null(col, "")
                else:
                    filled = pc.fill_null(col, pa.scalar(0).cast(col.type))
                t = t.append_column("__sv_" + v, filled)
            return t

        skeys, sdesc = [], []
        for v, d in ob:
            skeys += ["__nn_" + v, "__sv_" + v]
            sdesc += [d, d]
        helper = [c for v, _ in ob
                  for c in ("__nn_" + v, "__sv_" + v)] + hidden
        out = (out.map_batches(_sortable, batch_format="pyarrow")
               .sort(skeys, descending=sdesc)
               .map_batches(lambda t, _h=helper: t.drop_columns(_h),
                            batch_format="pyarrow"))
    if ast.offset:
        # solution-sequence slice: split_at_indices drops the first
        # `offset` rows of the (ORDER-BY-sorted) stream without a
        # driver collect
        out = out.split_at_indices([ast.offset])[1]
    if ast.limit is not None:
        out = out.limit(ast.limit)
    return out, select, {v: types.get(v, pa.string()) for v in select}


def sparql_construct(triples, query: str, num_buckets: int = 64,
                     init_ns: dict | None = None):
    """Run a SPARQL CONSTRUCT string against a triple Dataset; returns
    a NEW triple Dataset ``(subj, pred, obj)`` — the KG-rewriting
    surface (ontology mapping, view materialization).  The template is
    instantiated once per WHERE solution (vectorized: one column take +
    constant-repeat per template slot), solutions with an unbound
    (null) template variable emit nothing for that pattern (SPARQL
    semantics), and the result is deduplicated — CONSTRUCT produces a
    GRAPH, i.e. a set."""
    from ..stages.base import dedup_triples

    template, ast = _Parser(_tokenize(query),
                            _resolve_ns(init_ns)).parse_construct()
    out, have, _ = _eval_where(triples, ast, num_buckets)
    emitted = _instantiate(out, have, template, "CONSTRUCT")
    return dedup_triples(emitted, num_buckets=num_buckets, mode="hash")


def _instantiate(out, have: list[str], template: list[tuple], what: str):
    """Instantiate a triple template once per binding-relation solution
    (vectorized: one column take + constant-repeat per template slot);
    solutions with an unbound (null) template variable emit nothing
    for that pattern (SPARQL semantics).  Returns a bag — callers
    dedup."""
    tvars = {t[1:] for pat in template for t in pat
             if isinstance(t, str) and t.startswith("?")}
    missing = sorted(tvars - set(have))
    if missing:
        raise SparqlError(
            f"{what} template variables not bound in WHERE: {missing}"
            " (blank-node templates are not supported)")

    def emit(t: pa.Table) -> pa.Table:
        n = t.num_rows

        def col(term):
            if isinstance(term, str) and term.startswith("?"):
                c = t[term[1:]]
                return c.combine_chunks() if isinstance(
                    c, pa.ChunkedArray) else c
            return pa.repeat(pa.scalar(term, pa.string()), n)

        tabs = []
        for s, p, o in template:
            tt = pa.table({"subj": col(s), "pred": col(p), "obj": col(o)})
            mask = pc.and_(pc.and_(pc.is_valid(tt["subj"]),
                                   pc.is_valid(tt["pred"])),
                           pc.is_valid(tt["obj"]))
            tabs.append(tt.filter(mask))
        return pa.concat_tables(tabs)

    return out.map_batches(emit, batch_format="pyarrow")


def sparql_ask(triples, query: str, num_buckets: int = 64,
               init_ns: dict | None = None) -> bool:
    """Run a SPARQL ASK string: True iff the WHERE block has at least
    one solution.  Short-circuits through ``limit(1)`` — only the first
    surviving binding is pulled."""
    p = _Parser(_tokenize(query), _resolve_ns(init_ns))
    p.parse_prologue()
    if not p.kw("ASK"):
        raise SparqlError(f"expected ASK, got {p.peek()[1]!r}")
    p.kw("WHERE")
    (patterns, optionals, nested_opts, filters, unions, values,
     graphs, services, binds, minuses, exists, subqueries) = p.group()
    kind, v = p.peek()
    if kind != "eof":
        raise SparqlError(f"unexpected trailing {v!r}")
    ast = _Query(select=[], distinct=False, patterns=patterns,
                 optionals=optionals, nested_optionals=nested_opts, filters=filters, unions=unions,
                 values=values, graphs=graphs, services=services,
                 binds=binds, minuses=minuses, exists=exists,
                 subqueries=subqueries)
    out, _, _ = _eval_where(triples, ast, num_buckets)
    return out.limit(1).count() > 0


def sparql_describe(triples, query: str, num_buckets: int = 64,
                    init_ns: dict | None = None, max_resources: int = 100_000):
    """Run a SPARQL DESCRIBE: the one-hop description — every store
    triple whose subject OR object is one of the described resources
    (a flat approximation of the concise bounded description; BNode
    closure is a ``construct_subgraph`` call away).

    Two forms: explicit IRIs (``DESCRIBE <a> <b>``), and
    ``DESCRIBE ?v WHERE { … }`` — the WHERE bindings are evaluated
    distributed, the DISTINCT ``?v`` values are collected (bounded by
    ``max_resources`` — the same driver-held broadcast-set assumption
    as the anchored-path BFS; raises past the bound) and broadcast into
    the same one-pass filter."""
    from ..stages.base import dedup_triples

    p = _Parser(_tokenize(query), _resolve_ns(init_ns))
    p.parse_prologue()
    if not p.kw("DESCRIBE"):
        raise SparqlError(f"expected DESCRIBE, got {p.peek()[1]!r}")
    uris: list[str] = []
    var = None
    while p.peek()[0] in ("uri", "pname", "var"):
        kind, _ = p.peek()
        if kind == "var":
            if var is not None or uris:
                raise SparqlUnsupported(
                    "DESCRIBE with more than one variable/IRI mix")
            var = p.next()[1][1:]
        else:
            uris.append(p.term())
    kind, v = p.peek()
    if var is not None:
        if not (p.kw("WHERE") or p.peek()[1] == "{"):
            raise SparqlError("DESCRIBE ?var needs a WHERE pattern")
        (patterns, optionals, nested_opts, filters, unions, values,
         graphs, services, binds, minuses, exists,
         subqueries) = p.group()
        kind, v = p.peek()
        if kind != "eof":
            raise SparqlError(f"unexpected trailing {v!r}")
        ast = _Query(select=[var], distinct=True, patterns=patterns,
                     optionals=optionals, nested_optionals=nested_opts, filters=filters, unions=unions,
                     values=values, graphs=graphs, services=services,
                     binds=binds, minuses=minuses, exists=exists,
                     subqueries=subqueries)
        out, have, _ = _eval_where(triples, ast, num_buckets)
        if var not in have:
            raise SparqlError(f"DESCRIBE variable ?{var} not bound")
        vals = dedup_triples(
            out.map_batches(lambda t, v=var: t.select([v]),
                            batch_format="pyarrow"),
            keys=(var,), num_buckets=num_buckets)
        for b in vals.iter_batches(batch_format="pyarrow",
                                   batch_size=None):
            uris.extend(x for x in b[var].to_pylist() if x is not None)
            if len(uris) > max_resources:
                raise SparqlError(
                    f"DESCRIBE ?{var} binds more than {max_resources} "
                    "resources; add constraints or raise max_resources")
    elif kind == "var" or v.upper() == "WHERE" or v == "{":
        raise SparqlUnsupported("DESCRIBE with a WHERE pattern")
    elif kind != "eof":
        raise SparqlError(f"unexpected trailing {v!r}")
    if var is None and not uris:
        raise SparqlError("DESCRIBE needs at least one IRI or variable")
    if not uris:                            # ?var form, zero bindings
        import ray.data

        return ray.data.from_arrow(pa.table(
            {c: pa.array([], pa.string())
             for c in ("subj", "pred", "obj")}))
    uset = pa.array(sorted(set(uris)), pa.string())

    def pick(t: pa.Table) -> pa.Table:
        m = pc.or_(pc.is_in(t["subj"], value_set=uset),
                   pc.is_in(t["obj"], value_set=uset))
        return t.filter(m).select(["subj", "pred", "obj"])

    return triples.map_batches(pick, batch_format="pyarrow")


def sparql_update(triples, update: str, num_buckets: int = 64,
                  init_ns: dict | None = None):
    """Run one SPARQL 1.1 UPDATE operation against a triple Dataset and
    return the NEW store (Datasets are immutable — the functional
    equivalent of a graph-store mutation, like the engine's
    incremental-KG surface).  Supported forms::

        INSERT DATA { ground triples }
        DELETE DATA { ground triples }
        DELETE WHERE { patterns }
        DELETE { template } WHERE { … }
        INSERT { template } WHERE { … }
        DELETE { template } INSERT { template } WHERE { … }

    Semantics: the WHERE bindings are evaluated ONCE against the
    pre-update store; deletes apply before inserts (spec §3.1.3).
    Deleting removes EVERY copy of a matching triple; inserting is
    set-insert (a triple already present is not duplicated — enforced
    by a composite-key anti-join of the inserts against the store, the
    one unavoidable co-group shuffle of the update; the tiny ``DATA``
    forms instead use one broadcast-filtered scan, no shuffle).
    Output columns are ``(subj, pred, obj)``."""
    _SPO = ["subj", "pred", "obj"]
    store = triples.map_batches(lambda t: t.select(_SPO),
                                batch_format="pyarrow")
    p = _Parser(_tokenize(update), _resolve_ns(init_ns))
    p.parse_prologue()
    while True:                             # ';'-separated operations
        delete_t, insert_t, ast = p.parse_update_op()
        store = _apply_update_op(store, delete_t, insert_t, ast,
                                 num_buckets)
        kind, v = p.peek()
        if v == ";":
            p.next()
            if p.peek()[0] == "eof":        # trailing ';' is legal
                break
            continue
        if kind != "eof":
            raise SparqlError(f"unexpected trailing {v!r}")
        break
    return store


def _apply_update_op(store, delete_t, insert_t, ast, num_buckets: int):
    """Apply one parsed UPDATE operation to an SPO store Dataset; the
    WHERE (if any) evaluates against the store AS OF this operation —
    ``;``-sequences see each predecessor's writes (spec §3.1)."""
    import ray.data

    from ..query.relational import multi_key_anti_join
    from ..stages.base import dedup_triples

    _SPO = ["subj", "pred", "obj"]
    spo_schema = pa.schema([(c, pa.string()) for c in _SPO])

    def ground_table(tmpl) -> pa.Table:
        return pa.table({
            "subj": pa.array([p[0] for p in tmpl], pa.string()),
            "pred": pa.array([p[1] for p in tmpl], pa.string()),
            "obj": pa.array([p[2] for p in tmpl], pa.string()),
        })

    def key_arr(tbl: pa.Table) -> pa.Array:
        from ..stages.base import cat

        return cat(tbl["subj"].combine_chunks(), "\x1f",
                   tbl["pred"].combine_chunks(), "\x1f",
                   tbl["obj"].combine_chunks())

    if ast is None:                         # ground DATA forms
        if delete_t:
            dset = pa.compute.unique(key_arr(ground_table(delete_t)))

            def drop(t: pa.Table) -> pa.Table:
                return t.filter(pc.invert(
                    pc.is_in(key_arr(t), value_set=dset)))

            return store.map_batches(drop, batch_format="pyarrow")
        ins = ground_table(insert_t)
        ins = ins.take(pc.sort_indices(key_arr(ins)))
        ins = ins.filter(_first_of_run(key_arr(ins)))  # in-batch dedup
        iset = key_arr(ins)

        def present(t: pa.Table) -> pa.Table:
            k = key_arr(t)
            return pa.table({"k": pc.unique(k.filter(
                pc.is_in(k, value_set=iset)))})

        seen: set = set()
        for b in store.map_batches(present,
                                   batch_format="pyarrow").iter_batches(
                batch_format="pyarrow", batch_size=None):
            seen.update(b["k"].to_pylist())
        missing = ins.filter(pc.invert(pc.is_in(
            key_arr(ins), value_set=pa.array(sorted(seen), pa.string()))))
        return store.union(ray.data.from_arrow(missing))

    out, have, _ = _eval_where(store, ast, num_buckets)
    if delete_t:
        dels = dedup_triples(_instantiate(out, have, delete_t, "DELETE"),
                             num_buckets=num_buckets, mode="hash")
        store = multi_key_anti_join(store, dels, keys=_SPO,
                                    num_buckets=num_buckets,
                                    left_schema=spo_schema)
    if insert_t:
        ins = dedup_triples(_instantiate(out, have, insert_t, "INSERT"),
                            num_buckets=num_buckets, mode="hash")
        fresh = multi_key_anti_join(ins, store, keys=_SPO,
                                    num_buckets=num_buckets,
                                    left_schema=spo_schema)
        store = store.union(fresh)
    return store


def _first_of_run(sorted_keys: pa.Array) -> pa.Array:
    """Boolean mask keeping the first row of each equal-key run in a
    SORTED key array (tiny driver-side dedup for ground templates)."""
    import numpy as np

    n = len(sorted_keys)
    if n == 0:
        return pa.array([], pa.bool_())
    eq = pc.equal(sorted_keys.slice(1), sorted_keys.slice(0, n - 1))
    keep = np.ones(n, bool)
    keep[1:] = pc.invert(eq).to_numpy(zero_copy_only=False)
    return pa.array(keep)


def _collect_groups(ast: _Query) -> list[list]:
    """Pattern GROUPS as bgp_match will see them (one call per group):
    required patterns, each OPTIONAL group, each UNION branch, each
    GRAPH block, each MINUS / EXISTS group, subqueries recursively.
    Zero-length-path domain scoping (kg._zl_provider) resolves within
    a group, so narrowability must be judged per group."""
    groups = [list(ast.patterns)] if ast.patterns else []
    groups += [list(g) for g in ast.optionals]

    def _opt_nodes(nodes):
        for pats, children, _filters, _binds in nodes:
            yield list(pats)
            yield from _opt_nodes(children)

    groups += list(_opt_nodes(ast.nested_optionals))
    groups += [list(br) for blk in ast.unions for br, _bf in blk]
    groups += [list(ps) for _, ps in ast.graphs]
    groups += [list(g) for g in ast.minuses]
    groups += [list(g) for _, g in ast.exists]
    # SERVICE groups are EXCLUDED: they scan a different (registered)
    # store, so they neither contribute to nor defeat the main store's
    # predicate narrowing; their own bgp_match narrows independently.
    for sub in ast.subqueries:
        groups += _collect_groups(sub)
    return groups


def _narrow_plan(ast: _Query) -> tuple[bool, list[str]]:
    """Whether the one-pass predicate narrowing applies, and the
    constant-predicate list it would keep.

    Narrowing needs every pattern's predicate to be a known constant.
    Shapes that defeat it: variable predicates; negated property sets
    (a complement can match any predicate); and var-var zero-length
    paths ("*" / "?" bind every node of the FULL store, SPARQL 1.1
    §9.3 — narrowing would shrink that domain) UNLESS a plain pattern
    in the same group binds one of the path's end variables, in which
    case the identity domain is pattern-scoped (kg._zl_provider) and
    the full store is never enumerated.  Anchored zero-length paths
    never read the full store and are always narrowable."""
    from .kg import _zl_provider

    def _isv(t) -> bool:
        return isinstance(t, str) and t.startswith("?")

    flat_preds: list[str] = []
    narrowable = True
    for grp in _collect_groups(ast):
        for p in grp:
            pr = p[1]
            if isinstance(pr, tuple):
                if pr[0] == "!":
                    narrowable = False
                else:
                    flat_preds.append(pr[1])
                    if (pr[0] in ("*", "?") and _isv(p[0]) and _isv(p[2])
                            and _zl_provider(p, grp) is None):
                        narrowable = False
            elif pr.startswith("?"):
                narrowable = False
            else:
                flat_preds.append(pr)
    return narrowable, flat_preds


def _uses_graph(ast: _Query) -> bool:
    return bool(ast.graphs) or any(_uses_graph(q) for q in ast.subqueries)


def _eval_where(triples, ast: _Query, num_buckets: int,
                narrow: bool = True):
    """Evaluate the WHERE block (BGP + UNION + OPTIONAL + VALUES +
    FILTER) to a binding relation; returns (Dataset, bound var list)."""
    from .kg import bgp_match

    if not (ast.patterns or ast.unions or ast.graphs or ast.subqueries
            or ast.services):
        raise SparqlError("empty WHERE block")

    # ONE narrowing pass over the store for the WHOLE query (required
    # patterns + every OPTIONAL group + every UNION branch + every
    # GRAPH block + every subquery): each bgp_match pattern scan
    # re-reads its input, so narrow+materialize here and disable
    # bgp_match's own pass — a lazy store's upstream lineage executes
    # exactly once per query.  Subqueries re-enter with narrow=False.
    if narrow:
        keep = (["subj", "pred", "obj"]
                + (["graph"] if _uses_graph(ast) else []))
        if _uses_graph(ast):
            from ..stages.base import schema_of as _schema_of

            if "graph" not in _schema_of(triples).names:
                raise SparqlError(
                    "GRAPH block over a store without a 'graph' "
                    "lineage column")
        narrowable, flat_preds = _narrow_plan(ast)
        if narrowable:
            pset = pa.array(sorted(set(flat_preds)), pa.string())

            def _narrow(t: pa.Table) -> pa.Table:
                return t.filter(
                    pc.is_in(t["pred"], value_set=pset)).select(keep)

            triples = triples.map_batches(_narrow, batch_format="pyarrow")
        triples = triples.materialize()
        # materialize() DROPS empty blocks: a store whose narrow pass
        # matched nothing (or an empty input) comes back with ZERO
        # blocks and no schema, which would crash every downstream
        # schema-dependent join — re-seat it as a typed empty relation
        if triples.schema(fetch_if_missing=False) is None:
            import ray.data

            triples = ray.data.from_arrow(pa.table(
                {c: pa.array([], pa.string()) for c in keep}))

    types: dict = {}    # non-string binding columns (string is default)

    # OPTIONAL fusion: when the WHERE block is pure BGP+OPTIONAL (no
    # UNION/GRAPH/MINUS/EXISTS/subquery re-ordering concerns), an
    # OPTIONAL group sharing exactly ONE variable with the required
    # patterns pre-evaluates to a relation that rides the star-sibling
    # multijoin keyed on that variable as a "left" part — the flagship
    # query's studyDuration block stops paying its own full-result
    # left-join shuffle (the hand star's sdt fusion, query/kg.py).
    post_optionals = list(ast.optionals)
    fused: list = []
    if (_FUSE_OPTIONALS and ast.patterns
            and not (ast.unions or ast.subqueries or ast.graphs
                     or ast.services or ast.minuses or ast.exists)):
        req_vars = list(dict.fromkeys(
            v[1:] for p in ast.patterns for v in p
            if isinstance(v, str) and v.startswith("?")))
        post_optionals = []
        for gi, group in enumerate(ast.optionals):
            g_vars = list(dict.fromkeys(
                v[1:] for p in group for v in p
                if isinstance(v, str) and v.startswith("?")))
            shared = [v for v in g_vars if v in req_vars]
            other = {v[1:] for gj, g2 in enumerate(ast.optionals)
                     if gj != gi for p in g2 for v in p
                     if isinstance(v, str) and v.startswith("?")}
            cross = [v for v in g_vars
                     if v in other and v not in req_vars]
            if len(shared) == 1 and not cross:
                sub = bgp_match(triples, _connect_order(group),
                                num_buckets=num_buckets, narrow=False)
                fused.append((sub, g_vars, shared[0]))
            else:
                post_optionals.append(group)

    if ast.patterns:
        out = bgp_match(triples, _connect_order(ast.patterns),
                        num_buckets=num_buckets, narrow=False,
                        optional_relations=fused)
        have = [v[1:] for p in ast.patterns for v in p
                if isinstance(v, str) and v.startswith("?")]
        have = list(dict.fromkeys(have))
        for _, g_vars, rshared in fused:
            have += [v for v in g_vars if v != rshared]
    else:
        out, have = None, []

    # Variables that can be NULL in the binding relation: introduced
    # only under an OPTIONAL, null-padded by a UNION branch that does
    # not bind them, or projected from a subquery that binds them
    # non-certainly.  SPARQL compatibility treats an unbound var as
    # joinable with ANY value (§18.2 "compatible mappings"), which a
    # null-rejecting equality join cannot express — so every join
    # below keys only on variables certainly bound on both sides and
    # fails loud when a possibly-unbound variable is shared.
    maybe: set[str] = {v for _, g_vars, rs in fused
                       for v in g_vars if v != rs}

    def _unbound_guard(unsafe: list[str], ctx: str) -> None:
        if unsafe:
            raise SparqlUnsupported(
                f"{ctx} joins on possibly-unbound variable(s) "
                f"{unsafe} (bound only under an OPTIONAL / a subset "
                "of UNION branches) — SPARQL compatibility-join "
                "semantics are not supported by the equality join; "
                "restructure the query so shared variables are bound "
                "by required patterns")

    # UNION blocks: each branch is its own sub-BGP; branches align to
    # the block's variable superset (missing vars null-padded) and
    # stream-union WITHOUT a shuffle; a block joins to the required
    # bindings on the shared variables (one co-group shuffle) — exact
    # SPARQL join(…, union(…)) semantics for non-nested blocks
    for block in ast.unions:
        blk_vars = list(dict.fromkeys(
            v[1:] for br, _bf in block for p in br for v in p
            if isinstance(v, str) and v.startswith("?")))
        parts = []
        for br, br_filters in block:
            b = bgp_match(triples, _connect_order(br),
                          num_buckets=num_buckets, narrow=False)
            br_vars = {v[1:] for p in br for v in p
                       if isinstance(v, str) and v.startswith("?")}
            # branch-scoped FILTER: Union(…, Filter(e, P), …) — applied
            # to the branch relation before padding/union; may only
            # reference the branch's own (all certainly bound) vars
            for fn in br_filters:
                _probe_group_filter(fn, sorted(br_vars), types,
                                    "UNION branch")
                b = b.map_batches(_masker(fn), batch_format="pyarrow")
            parts.append(b.map_batches(
                _align_cols(blk_vars, br_vars), batch_format="pyarrow"))
        ub = parts[0]
        for p in parts[1:]:
            ub = ub.union(p)
        # a var absent from ANY branch is null-padded there — possibly
        # unbound in the block's relation
        all_br_vars = [
            {v[1:] for p in br for v in p
             if isinstance(v, str) and v.startswith("?")}
            for br, _bf in block]
        blk_maybe = {v for v in blk_vars
                     if any(v not in bv for bv in all_br_vars)}
        if out is None:
            out, have = ub, list(blk_vars)
            maybe |= blk_maybe
            continue
        shared = [v for v in blk_vars if v in have]
        if not shared:
            raise SparqlError("UNION block shares no variable with the "
                              "preceding patterns")
        _unbound_guard([v for v in shared
                        if v in maybe or v in blk_maybe], "UNION block")
        out, have = _join_on_vars(out, have, ub, blk_vars, shared,
                                  num_buckets, how="inner", types=types)
        maybe |= blk_maybe

    # Subqueries: evaluated bottom-up to their own projected relation
    # (with their own aggregation / DISTINCT / LIMIT), then joined to
    # the surrounding bindings on the shared variables — standard
    # SPARQL 1.1 subquery semantics for var-disjoint-safe plans
    for subq in ast.subqueries:
        sub_out, sub_vars, sub_types = _run_query(triples, subq,
                                                  num_buckets,
                                                  narrow=False)
        types.update(sub_types)
        # certainly-bound subquery vars: those from its own required
        # patterns (conservative — projections of its OPTIONAL/UNION/
        # BIND structure may be null and must not become join keys)
        sq_certain = {v[1:] for p in subq.patterns for v in p
                      if isinstance(v, str) and v.startswith("?")}
        sq_maybe = {v for v in sub_vars if v not in sq_certain}
        if out is None:
            out, have = sub_out, list(sub_vars)
            maybe |= sq_maybe
            continue
        shared = [v for v in sub_vars if v in have]
        if not shared:
            raise SparqlError("subquery shares no variable with the "
                              "surrounding patterns")
        _unbound_guard([v for v in shared
                        if v in maybe or v in sq_maybe], "subquery")
        out, have = _join_on_vars(out, have, sub_out, list(sub_vars),
                                  shared, num_buckets, how="inner",
                                  types=types)
        maybe |= sq_maybe

    # GRAPH blocks: the store's ``graph`` lineage column scopes the
    # sub-BGP (an engine extension: graph names are the emitters' plain
    # graph tags, not IRIs).  Filter once per block, match, then join
    # the surrounding bindings on the shared variables.  A VARIABLE
    # graph name (``GRAPH ?g { … }``) evaluates the block once per
    # DISTINCT tag — lineage tags are few by construction (one per
    # emitter), so the tag list is driver-held — and unions the
    # per-tag solutions with ``?g`` bound to the tag.
    for gname, gpats in ast.graphs:
        if gname.startswith("?"):
            from ..stages.base import dedup_triples as _dd

            gvar = gname[1:]
            tags_ds = _dd(triples.map_batches(
                lambda t: pa.table({"g": t["graph"]}),
                batch_format="pyarrow"), keys=("g",),
                num_buckets=min(16, num_buckets))
            tags = sorted(r["g"] for r in tags_ds.take_all()
                          if r["g"] is not None)
            if len(tags) > GRAPH_VAR_MAX_TAGS:
                raise SparqlError(
                    f"GRAPH ?{gvar}: store has {len(tags)} distinct graph "
                    f"tags (> GRAPH_VAR_MAX_TAGS={GRAPH_VAR_MAX_TAGS}); a "
                    "per-tag plan would launch that many sequential "
                    "sub-queries — raise tera_ray.query.sparql."
                    "GRAPH_VAR_MAX_TAGS if the tag count is intentional")
            sub = None
            g_vars = list(dict.fromkeys(
                [v[1:] for p in gpats for v in p
                 if isinstance(v, str) and v.startswith("?")] + [gvar]))
            for tag in tags:
                gset = pa.scalar(tag, pa.string())

                def _gfilter(t: pa.Table, gset=gset) -> pa.Table:
                    return t.filter(pc.equal(t["graph"], gset)).select(
                        ["subj", "pred", "obj"])

                one = bgp_match(triples.map_batches(_gfilter,
                                                    batch_format="pyarrow"),
                                _connect_order(gpats),
                                num_buckets=num_buckets, narrow=False)

                def _tag_col(t: pa.Table, tag=tag) -> pa.Table:
                    return t.append_column(
                        gvar, pa.repeat(pa.scalar(tag, pa.string()),
                                        t.num_rows))

                one = one.map_batches(_tag_col, batch_format="pyarrow")
                sub = one if sub is None else sub.union(one)
            if sub is None:                 # store with no graph tags
                import ray.data

                sub = ray.data.from_arrow(pa.table(
                    {v: pa.array([], pa.string()) for v in g_vars}))
        else:
            gset = pa.scalar(gname, pa.string())

            def _gfilter(t: pa.Table, gset=gset) -> pa.Table:
                return t.filter(pc.equal(t["graph"], gset)).select(
                    ["subj", "pred", "obj"])

            gstore = triples.map_batches(_gfilter, batch_format="pyarrow")
            sub = bgp_match(gstore, _connect_order(gpats),
                            num_buckets=num_buckets, narrow=False)
            g_vars = list(dict.fromkeys(
                v[1:] for p in gpats for v in p
                if isinstance(v, str) and v.startswith("?")))
        if out is None:
            out, have = sub, g_vars
            continue
        shared = [v for v in g_vars if v in have]
        if not shared:
            raise SparqlError("GRAPH block shares no variable with the "
                              "preceding patterns")
        _unbound_guard([v for v in shared if v in maybe], "GRAPH block")
        out, have = _join_on_vars(out, have, sub, g_vars, shared,
                                  num_buckets, how="inner", types=types)

    # SERVICE blocks: the sub-BGP evaluates against the Dataset
    # registered for the IRI (offline federation — see
    # register_service) with its OWN narrowing pass, then joins the
    # surrounding bindings on the shared variables.  SILENT over an
    # unregistered IRI = the spec's one-empty-solution failure result,
    # i.e. a join no-op.
    for sname, silent, spats in ast.services:
        svc = _SERVICE_REGISTRY.get(sname)
        if svc is None:
            if silent:
                continue
            raise SparqlError(
                f"SERVICE endpoint not registered: <{sname}> (offline "
                "engine — register a triple Dataset via "
                "tera_ray.query.sparql.register_service)")
        sub = bgp_match(svc, _connect_order(spats),
                        num_buckets=num_buckets, narrow=True)
        s_vars = list(dict.fromkeys(
            v[1:] for p in spats for v in p
            if isinstance(v, str) and v.startswith("?")))
        if out is None:
            out, have = sub, s_vars
            continue
        shared = [v for v in s_vars if v in have]
        if not shared:
            raise SparqlError("SERVICE block shares no variable with "
                              "the surrounding patterns")
        _unbound_guard([v for v in shared if v in maybe],
                       "SERVICE block")
        out, have = _join_on_vars(out, have, sub, s_vars, shared,
                                  num_buckets, how="inner", types=types)

    for group in post_optionals:
        shared = _shared_vars(have, group)
        if not shared:
            raise SparqlError("OPTIONAL group shares no variable with "
                              "the required patterns")
        _unbound_guard([v for v in shared if v in maybe], "OPTIONAL")
        sub = bgp_match(triples, _connect_order(group),
                        num_buckets=num_buckets, narrow=False)
        g_vars = list(dict.fromkeys(
            v[1:] for p in group for v in p
            if isinstance(v, str) and v.startswith("?")))
        out, have = _join_on_vars(out, have, sub, g_vars, shared,
                                  num_buckets, how="left", types=types)
        maybe.update(v for v in g_vars if v not in shared)

    # nested OPTIONAL trees: each node evaluates bottom-up —
    # LeftJoin(node BGP, child composite) per child — then the
    # composite left-joins onto the main bindings (SPARQL 1.1 §18.2
    # LeftJoin algebra, arbitrary depth).  ``certain`` tracks the vars
    # bound by a node's own required patterns; vars introduced under a
    # child OPTIONAL may be null and are never join keys.
    def _eval_opt_tree(pats, children, ofilters, obinds):
        sub = bgp_match(triples, _connect_order(pats),
                        num_buckets=num_buckets, narrow=False)
        sub_vars = list(dict.fromkeys(
            v[1:] for p in pats for v in p
            if isinstance(v, str) and v.startswith("?")))
        certain = set(sub_vars)
        for cpats, cchildren, cfilters, cbinds in children:
            csub, c_vars, c_certain = _eval_opt_tree(
                cpats, cchildren, cfilters, cbinds)
            shared = [v for v in c_vars if v in sub_vars]
            if not shared:
                raise SparqlError("nested OPTIONAL shares no variable "
                                  "with its enclosing OPTIONAL")
            _unbound_guard([v for v in shared
                            if v not in certain or v not in c_certain],
                           "nested OPTIONAL")
            sub, sub_vars = _join_on_vars(sub, sub_vars, csub, c_vars,
                                          shared, num_buckets,
                                          how="left", types=types)
        # group-scoped BIND = Extend over the node's composite; the
        # alias is certainly bound only when every dependency is
        for fn, alias, deps, vtype in obinds:
            if alias in sub_vars:
                raise SparqlError(
                    f"BIND alias ?{alias} is already bound")
            missing = [d for d in deps if d not in sub_vars]
            if missing:
                raise SparqlError(
                    f"BIND references unbound variables: {missing}")

            def _obinder(t: pa.Table, fn=fn, alias=alias) -> pa.Table:
                return t.append_column(alias, fn(t))

            sub = sub.map_batches(_obinder, batch_format="pyarrow")
            sub_vars = sub_vars + [alias]
            if all(d in certain for d in deps):
                certain.add(alias)
            if not pa.types.is_string(vtype):
                types[alias] = vtype
        # group-scoped FILTER = the LeftJoin condition: applied to the
        # node's COMPOSITE (own BGP + children + binds, SPARQL group
        # scoping) before the join to the enclosing side — equivalent
        # to the spec's LeftJoin(Ω1, Ω2, expr) because every var shared
        # with the outer side is certainly bound AND join-equal (the
        # unbound-guard above)
        for fn in ofilters:
            _probe_group_filter(fn, sub_vars, types, "OPTIONAL")
            sub = sub.map_batches(_masker(fn), batch_format="pyarrow")
        return sub, sub_vars, certain

    for outer_pats, inner_nodes, node_filters, node_binds \
            in ast.nested_optionals:
        sub, sub_vars, certain = _eval_opt_tree(
            outer_pats, inner_nodes, node_filters, node_binds)
        shared = [v for v in sub_vars if v in have]
        if not shared:
            raise SparqlError("OPTIONAL group shares no variable with "
                              "the required patterns")
        _unbound_guard([v for v in shared
                        if v in maybe or v not in certain], "OPTIONAL")
        out, have = _join_on_vars(out, have, sub, sub_vars, shared,
                                  num_buckets, how="left", types=types)
        maybe.update(v for v in sub_vars if v not in shared)

    # MINUS / FILTER [NOT] EXISTS: the negation family, compiled to
    # one co-group anti-/semi-join per block on the shared variables.
    # MINUS with NO shared variables removes nothing (SPARQL: disjoint
    # domains are incompatible); EXISTS/NOT EXISTS with no shared
    # variables degenerate to a global emptiness test via ASK-style
    # limit(1) — rejected instead as certainly-unintended.
    for kind, negated, gpats in (
            [("minus", True, g) for g in ast.minuses]
            + [("exists", neg, g) for neg, g in ast.exists]):
        g_vars = list(dict.fromkeys(
            v[1:] for p in gpats for v in p
            if isinstance(v, str) and v.startswith("?")))
        shared = [v for v in g_vars if v in have]
        if not shared:
            if kind == "minus":
                continue  # MINUS with disjoint domain: no-op (SPARQL)
            raise SparqlError(
                "EXISTS block shares no variable with the outer pattern")
        _unbound_guard([v for v in shared if v in maybe],
                       "MINUS" if kind == "minus" else "EXISTS")
        sub = bgp_match(triples, _connect_order(gpats),
                        num_buckets=num_buckets, narrow=False)
        out = _semi_anti(out, have, sub, shared, num_buckets,
                         anti=negated, types=types)

    # VALUES: single bound variable with distinct non-UNDEF rows →
    # vectorized is_in mask (no shuffle); otherwise the inline rows
    # are GROUPED BY their defined-column mask and each group joins on
    # just its defined columns — SPARQL's per-column wildcard UNDEF
    # with join multiplicities preserved (a solution compatible with k
    # inline rows appears k times, per the algebra's Join).
    def _apply_values(out, v_vars, v_rows):
        unbound = [v for v in v_vars if v not in have]
        if unbound:
            raise SparqlUnsupported(
                f"VALUES variables not bound by the graph pattern: "
                f"{unbound} (cross-product VALUES)")
        _unbound_guard([v for v in v_vars if v in maybe], "VALUES")
        aliases = [v for v in v_vars if v in bind_aliases]
        if aliases:
            # a BIND alias is null where its expression errors (or reads
            # an unbound input); SPARQL would join such a solution with
            # every VALUES row, the equality join would drop it
            def _bound(t: pa.Table, _a=tuple(aliases)) -> pa.Table:
                unbound = [a for a in _a if t[a].null_count]
                if unbound:
                    raise SparqlUnsupported(
                        f"VALUES joins on BIND alias(es) {unbound} that "
                        "are unbound in some solutions — SPARQL "
                        "compatibility-join semantics are not supported "
                        "by the equality join; FILTER(BOUND(?alias)) "
                        "before the VALUES if those rows should go")
                return t

            out = out.map_batches(_bound, batch_format="pyarrow")
        if (len(v_vars) == 1 and all(r[0] is not None for r in v_rows)
                and len({r[0] for r in v_rows}) == len(v_rows)):
            vals = pa.array(sorted({r[0] for r in v_rows}), pa.string())
            name = v_vars[0]

            def _vmask(t: pa.Table, name=name, vals=vals) -> pa.Table:
                return t.filter(pc.fill_null(
                    pc.is_in(t[name], value_set=vals), False))

            return out.map_batches(_vmask, batch_format="pyarrow")
        import ray.data

        groups: dict[tuple, list] = {}
        for r in v_rows:
            mask = tuple(i for i, x in enumerate(r) if x is not None)
            groups.setdefault(mask, []).append(r)
        base = out.materialize() if len(groups) > 1 else out
        sel = list(have)

        def _align(t: pa.Table, _c=sel) -> pa.Table:
            return t.select(_c)

        parts = []
        for mask, rows_g in groups.items():
            if not mask:
                # all-UNDEF row(s): each admits every solution as-is
                for _ in rows_g:
                    parts.append(base.map_batches(
                        _align, batch_format="pyarrow"))
                continue
            cols = [v_vars[i] for i in mask]
            vt = pa.table({v_vars[i]: pa.array(
                [r[i] for r in rows_g], pa.string()) for i in mask})
            joined, _ = _join_on_vars(base, have,
                                      ray.data.from_arrow(vt), cols,
                                      cols, num_buckets, how="inner",
                                      types=types)
            parts.append(joined.map_batches(_align,
                                            batch_format="pyarrow"))
        out = parts[0]
        for p in parts[1:]:
            out = out.union(p)
        return out

    bind_aliases: set[str] = set()     # filled by the BIND pass below
    for v_vars, v_rows in ast.values:
        out = _apply_values(out, v_vars, v_rows)

    # BIND: derived columns, applied before FILTERs so filters can
    # reference them (the common BIND-then-FILTER shape)
    for fn, alias, deps, vtype in ast.binds:
        if alias in have:
            raise SparqlError(f"BIND alias ?{alias} is already bound")
        missing = [d for d in deps if d not in have]
        if missing:
            raise SparqlError(f"BIND references unbound variables: "
                              f"{missing}")

        def _binder(t: pa.Table, fn=fn, alias=alias) -> pa.Table:
            return t.append_column(alias, fn(t))

        out = out.map_batches(_binder, batch_format="pyarrow")
        have = have + [alias]
        bind_aliases.add(alias)
        if not pa.types.is_string(vtype):
            types[alias] = vtype

    for fn in ast.filters:
        out = out.map_batches(_masker(fn), batch_format="pyarrow")

    # query-level trailing VALUES: joins the FULL where result (after
    # BINDs — it may constrain a bind alias, grammar ValuesClause)
    for v_vars, v_rows in ast.post_values:
        out = _apply_values(out, v_vars, v_rows)
    return out, have, types


def _semi_anti(left, l_vars: list[str], right, shared: list[str],
               num_buckets: int, anti: bool, types: dict | None = None):
    """Semi-join (EXISTS) / anti-join (NOT EXISTS, MINUS) of the
    binding relation against a sub-BGP on the shared variables — ONE
    hash-bucket co-group via ``relational.multi_key_anti_join``; the
    semi form dedups the right side first so matches never duplicate
    left rows."""
    from ..query.relational import multi_key_anti_join
    from ..stages.base import dedup_triples

    types = types or {}
    proj = _projector(shared)
    right = right.map_batches(proj, batch_format="pyarrow")
    if anti:
        lsch = pa.schema([(v, types.get(v, pa.string()))
                          for v in l_vars])
        return multi_key_anti_join(left, right, keys=shared,
                                   num_buckets=num_buckets,
                                   left_schema=lsch)
    right = dedup_triples(right, keys=tuple(shared),
                          num_buckets=num_buckets)
    joined, _ = _join_on_vars(left, list(l_vars), right,
                              list(shared), shared, num_buckets,
                              how="inner", types=types)
    return joined


def _align_cols(all_vars: list[str], present: set[str]):
    """Project a branch's bindings to the block's variable superset,
    null-padding absent variables (string-typed)."""
    def f(t: pa.Table) -> pa.Table:
        cols = {}
        for v in all_vars:
            cols[v] = (t[v] if v in present
                       else pa.nulls(t.num_rows, pa.string()))
        return pa.table(cols)
    return f


def _join_on_vars(left, l_vars: list[str], right, r_vars: list[str],
                  shared: list[str], num_buckets: int, how: str,
                  types: dict | None = None):
    """Join two binding relations on their shared variables via ONE
    composite-key co-group shuffle (``relational.hash_join``); returns
    (joined, merged var list).  ``how="left"`` = SPARQL OPTIONAL,
    ``"inner"`` = join with a UNION block / VALUES table / subquery.

    ``types`` maps non-string columns (aggregate aliases, STRLEN
    binds); everything else is string.  Static schemas are passed to
    the join so a lazy side is never schema-probed — a probe would
    re-execute its upstream lineage, and an EMPTY intermediate relation
    (zero blocks after Ray drops empties) would probe to None."""
    from ..query.relational import hash_join
    from ..stages.base import cat

    types = types or {}

    def typ(v):
        return types.get(v, pa.string())

    def keyed(t: pa.Table) -> pa.Table:
        parts: list = []
        for i, v in enumerate(shared):
            if i:
                parts.append("\x1f")
            c = t[v]
            if not pa.types.is_string(c.type):
                c = pc.cast(c, pa.string())
            parts.append(c)
        return t.append_column("__k", cat(*parts))

    new_cols = [v for v in r_vars if v not in l_vars]

    def proj(t: pa.Table) -> pa.Table:
        return t.select(["__k"] + new_cols)

    l = left.map_batches(keyed, batch_format="pyarrow")
    r = right.map_batches(keyed, batch_format="pyarrow").map_batches(
        proj, batch_format="pyarrow")
    lsch = pa.schema([(v, typ(v)) for v in l_vars]
                     + [("__k", pa.string())])
    rsch = pa.schema([("__k", pa.string())]
                     + [(v, typ(v)) for v in new_cols])
    out = hash_join(l, r, on="__k", how=how, num_buckets=num_buckets,
                    left_schema=lsch, right_schema=rsch).map_batches(
        _drop_key, batch_format="pyarrow")
    return out, l_vars + new_cols


def _aggregate(out, have: list[str], ast: _Query):
    """GROUP BY + aggregate select expressions on the binding relation
    (combiner-first distributed groupby via ``relational.grouped_agg``).

    Store terms are plain strings, so SUM/AVG cast to float64 (non-
    numeric bindings become null and are excluded, matching SPARQL's
    error-drop semantics) while MIN/MAX compare lexically.  COUNT(?v)
    counts bound values only; COUNT(DISTINCT ?v) dedups (keys, v)
    first and must be the only aggregate in the query."""
    from ..query.relational import grouped_agg
    from ..stages.base import dedup_triples

    keys = list(ast.group_by)
    bad = [v for v in keys if v not in have]
    if bad:
        raise SparqlError(f"GROUP BY variables not bound: {bad}")
    for a in ast.aggs:
        if a.var is not None and a.var not in have:
            raise SparqlError(f"aggregate over unbound variable ?{a.var}")
    plain = [s for s in ast.select if s not in {a.alias for a in ast.aggs}]
    bad = [v for v in plain if v not in keys]
    if bad:
        raise SparqlError(f"SELECT variables not in GROUP BY: {bad}")

    if any(a.fn == "group_concat" for a in ast.aggs):
        return _group_concat_agg(out, keys, ast)

    distinct_aggs = [a for a in ast.aggs if a.distinct]
    if distinct_aggs and len(ast.aggs) > 1:
        raise SparqlUnsupported(
            "COUNT(DISTINCT …) mixed with other aggregates")

    global_agg = not keys
    if global_agg:
        keys = ["__g"]

    def prep(t: pa.Table) -> pa.Table:
        cols = {k: t[k] for k in keys if k != "__g"}
        if global_agg:
            cols["__g"] = pa.nulls(t.num_rows, pa.int8())
        for a in ast.aggs:
            if a.fn == "count" and a.var is None:
                continue  # grouped_agg counts rows via __ones
            if a.fn == "count":
                cols[f"__v_{a.alias}"] = pc.cast(
                    pc.is_valid(t[a.var]), pa.int64())
            elif a.fn in ("sum", "avg"):
                s = t[a.var]
                num = pc.match_substring_regex(
                    s, r"^-?\d+(\.\d+)?([eE][+-]?\d+)?$")
                cols[f"__v_{a.alias}"] = pc.cast(
                    pc.if_else(pc.fill_null(num, False), s,
                               pa.scalar(None, pa.string())),
                    pa.float64())
            else:  # min / max / sample — lexical on the string store
                cols[f"__v_{a.alias}"] = t[a.var]
        return pa.table(cols) if cols else t.select(keys)

    if distinct_aggs:
        a = distinct_aggs[0]
        ded = dedup_triples(out, keys=tuple(dict.fromkeys(
            (keys if not global_agg else []) + [a.var])))
        ded = ded.map_batches(prep, batch_format="pyarrow")
        spec = [(f"__v_{a.alias}", "sum", a.alias)]
        res = grouped_agg(ded, keys, spec)
    else:
        prepped = out.map_batches(prep, batch_format="pyarrow")
        spec = []
        for a in ast.aggs:
            if a.fn == "count" and a.var is None:
                spec.append((keys[0], "count", a.alias))
            elif a.fn == "count":
                spec.append((f"__v_{a.alias}", "sum", a.alias))
            elif a.fn == "sample":
                # deterministic representative: the minimum (SPARQL
                # leaves SAMPLE implementation-defined; min is stable
                # across runs and cluster sizes)
                spec.append((f"__v_{a.alias}", "min", a.alias))
            else:
                spec.append((f"__v_{a.alias}", a.fn, a.alias))
        res = grouped_agg(prepped, keys, spec)
    if global_agg:
        res = res.map_batches(lambda t: t.drop_columns(["__g"]),
                              batch_format="pyarrow")
        keys = []
        # SPARQL 1.1 §11: with no GROUP BY, zero solutions still form
        # ONE implicit group — COUNT = 0, SUM = 0, AVG = 0 (all
        # spec-defined on the empty sequence), MIN/MAX/SAMPLE unbound.
        # The grouped path has nothing to group, so synthesize the row.
        res = res.materialize()              # ≤ 1 row by construction
        if res.count() == 0:
            import ray.data

            cols = {}
            for a in ast.aggs:
                if a.fn == "count":
                    cols[a.alias] = pa.array([0], pa.int64())
                elif a.fn in ("sum", "avg"):
                    cols[a.alias] = pa.array([0.0], pa.float64())
                else:                        # min / max / sample
                    cols[a.alias] = pa.array([None], pa.string())
            res = ray.data.from_arrow(pa.table(cols))
    return res, keys + [a.alias for a in ast.aggs]


def _group_concat_agg(out, keys: list[str], ast: _Query):
    """``GROUP_CONCAT([DISTINCT] ?v ; SEPARATOR="…")`` — compiled onto
    the engine's K4 machinery (:func:`~tera_ray.query.relational.
    ordered_group_concat`: one bucketed shuffle, vectorized polars
    ``str.join`` per bucket).  SPARQL leaves concatenation order
    implementation-defined; this engine sorts values ascending so the
    result is deterministic across runs and cluster sizes (mirror
    oracles with ``string_agg(v, sep ORDER BY v)``).  Unbound values
    are skipped (SQL ``string_agg`` NULL semantics); a group with no
    bound values is dropped — except the GLOBAL (no GROUP BY) form,
    whose implicit group yields one ``""`` row even over zero
    solutions (spec §11).  Must be the only aggregate and group on
    at most one variable."""
    from ..query.relational import ordered_group_concat
    from ..stages.base import dedup_triples

    if len(ast.aggs) > 1:
        raise SparqlUnsupported("GROUP_CONCAT mixed with other aggregates")
    kvars = list(keys)
    if len(kvars) > 1:
        raise SparqlUnsupported(
            "GROUP_CONCAT with more than one GROUP BY variable")
    a = ast.aggs[0]
    key = kvars[0] if kvars else "__g"

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[a.var]))
        cols = {a.var: t[a.var]}
        cols[key] = (t[key] if kvars
                     else pa.nulls(t.num_rows, pa.string()).fill_null(""))
        return pa.table(cols)

    src = out.map_batches(prep, batch_format="pyarrow")
    if a.distinct:
        src = dedup_triples(src, keys=(key, a.var))
    res = ordered_group_concat(src, key=key,
                               order=[(a.var, "ascending")],
                               value_col=a.var, sep=a.sep,
                               out_names=(key, "__n", a.alias))
    drop = ["__n"] + ([] if kvars else [key])
    res = res.map_batches(lambda t: t.drop_columns(drop),
                          batch_format="pyarrow")
    if not kvars:
        # implicit group over zero solutions (or all-unbound values):
        # GROUP_CONCAT of the empty sequence is "" — one row, not zero
        res = res.materialize()              # ≤ 1 row by construction
        if res.count() == 0:
            import ray.data

            res = ray.data.from_arrow(pa.table(
                {a.alias: pa.array([""], pa.string())}))
    return res, kvars + [a.alias]


def _drop_key(t: pa.Table) -> pa.Table:
    return t.drop_columns(["__k"])


_NUM_RE = r"^\s*[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\s*$"


def _lenient_float(col) -> "pa.Array":
    """Cast to float64 with SPARQL error-drop semantics: a non-numeric
    STRING value becomes null (→ null comparison → row drops / else
    branch) instead of raising ArrowInvalid inside a Ray task; numeric
    columns cast directly."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type) or pa.types.is_floating(col.type):
        return pc.cast(col, pa.float64())
    ok = pc.fill_null(pc.match_substring_regex(col, _NUM_RE), False)
    safe = pc.if_else(ok, col, pa.scalar("0", pa.string()))
    vals = pc.cast(safe, pa.float64())
    return pc.if_else(ok, vals, pa.scalar(None, pa.float64()))


def _probe_group_filter(fn, group_vars, types: dict, ctx: str) -> None:
    """Plan-time guard for a group-scoped FILTER (OPTIONAL / UNION
    branch): the expression may reference only the group's own
    variables — probed against a typed EMPTY relation so an outer
    reference fails loud here instead of as a KeyError inside a Ray
    task."""
    empty = pa.table({v: pa.array([], types.get(v, pa.string()))
                      for v in group_vars})
    try:
        fn(empty)
    except KeyError as e:
        raise SparqlUnsupported(
            f"FILTER inside {ctx} references a variable outside "
            f"the group: {e}") from None


def _masker(fn):
    def f(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        m = fn(t)
        # SPARQL FILTER drops error/unbound rows: null mask → False
        return t.filter(pc.fill_null(m, False))
    return f


def _projector(cols):
    def f(t: pa.Table) -> pa.Table:
        return t.select(cols)
    return f
