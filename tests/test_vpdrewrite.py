import pytest

from vpdgate import engine, linkage, queryir, relstore
from vpdgate.errors import (NoChainError, UnknownColumnError, UnknownTableError,
                            UnsupportedFeatureError)
from vpdgate.queryir import InRange, InSubquery, Select, Union, evaluate, parse_query, render_query
from vpdgate.sessionctx import open_session
from vpdgate.timeutil import parse_timestamp
from vpdgate.vpdrewrite import (
    HEAD_OF_OU_POLICY,
    Branch,
    Privilege,
    VpdDefinition,
    entails,
    expand_supervisor,
    infer_closure,
    infer_privileges,
    materialize,
    rewrite,
)

from conftest import MEXICO_CITY

Q = "select * from object"


def oids(rows):
    return sorted(set(rows.column("object.oid")))


def test_rewrite_mobile_matches_golden(fixture_dataset, parker_mobile, golden_dir):
    v = rewrite(parse_query(Q), parker_mobile, fixture_dataset)
    assert v.location_dependent and v.time_dependent
    assert render_query(v.query) + "\n" == (golden_dir / "vpd_mobile.sql").read_text()


def test_rewrite_wired_matches_golden(fixture_dataset, parker_wired, golden_dir):
    v = rewrite(parse_query(Q), parker_wired, fixture_dataset)
    assert not v.location_dependent and not v.time_dependent
    assert not any(isinstance(p, InRange) for p in v.query.where)
    assert render_query(v.query) + "\n" == (golden_dir / "vpd_wired.sql").read_text()


def test_rewrite_keeps_user_condition_last(fixture_dataset, parker_wired, golden_dir):
    v = rewrite(parse_query("select * from object where object.name = 'Gold'"),
                parker_wired, fixture_dataset)
    golden = (golden_dir / "vpd_wired_with_condition.sql").read_text()
    assert render_query(v.query) + "\n" == golden
    assert oids(materialize(v, fixture_dataset, parker_wired)) == ["o002"]


def test_rewrite_shape_is_context_pure(fixture_dataset, parker_mobile):
    a = rewrite(parse_query(Q), parker_mobile, fixture_dataset)
    b = rewrite(parse_query(Q), parker_mobile, fixture_dataset)
    assert a.query == b.query and a.provenance == b.provenance


def test_materialize_parker(fixture_dataset, parker_mobile):
    v = rewrite(parse_query(Q), parker_mobile, fixture_dataset)
    assert oids(materialize(v, fixture_dataset, parker_mobile)) == \
        ["o001", "o002", "o003", "o004"]


def test_materialize_specialty(fixture_dataset, parker_mobile):
    v = rewrite(parse_query(Q), parker_mobile, fixture_dataset, mode="specialty")
    assert oids(materialize(v, fixture_dataset, parker_mobile)) == ["o001"]


def test_materialize_direct_peter(fixture_dataset):
    ctx = open_session("Peter", None, None, fixture_dataset)
    v = rewrite(parse_query(Q), ctx, fixture_dataset, mode="direct")
    assert isinstance(v.query, Union)
    assert oids(materialize(v, fixture_dataset, ctx)) == ["o005"]


def test_materialize_empty_dataset():
    from vpdgate.relstore import load_dataset
    d = load_dataset('{"subject": [{"id": "s1", "name": "A", "title": "T", "dept": "X"}]}')
    ctx = open_session("A", None, None, d)
    v = rewrite(parse_query(Q), ctx, d)
    assert len(materialize(v, d, ctx)) == 0


def test_restriction_never_adds_rows(fixture_dataset, parker_mobile):
    v = rewrite(parse_query(Q), parker_mobile, fixture_dataset)
    unrestricted = evaluate(parse_query(Q), fixture_dataset, parker_mobile)
    restricted = materialize(v, fixture_dataset, parker_mobile)
    assert restricted.schema == unrestricted.schema
    assert restricted.as_set() <= unrestricted.as_set()


def test_expand_supervisor_chris(fixture_dataset, chris_wired, golden_dir):
    base = rewrite(parse_query(Q), chris_wired, fixture_dataset)
    v = expand_supervisor("Chris", base, fixture_dataset)
    assert oids(materialize(v, fixture_dataset, chris_wired)) == \
        ["o001", "o002", "o003", "o004", "o005"]
    assert render_query(v.closed_query) + "\n" == \
        (golden_dir / "vpd_supervisor_closed.sql").read_text()
    union_rows = materialize(v, fixture_dataset, chris_wired)
    closed_rows = evaluate(v.closed_query, fixture_dataset, chris_wired)
    assert union_rows.as_set() == closed_rows.as_set()


def test_expand_supervisor_leaf_is_identity(fixture_dataset, parker_mobile):
    base = rewrite(parse_query(Q), parker_mobile, fixture_dataset)
    assert expand_supervisor("Parker", base, fixture_dataset) is base


def test_expand_supervisor_charles_covers_chris(fixture_dataset, chris_wired):
    charles = open_session("Charles", None, None, fixture_dataset)
    vb = expand_supervisor("Charles",
                           rewrite(parse_query(Q), charles, fixture_dataset),
                           fixture_dataset)
    va = expand_supervisor("Chris",
                           rewrite(parse_query(Q), chris_wired, fixture_dataset),
                           fixture_dataset)
    chris_rows = set(oids(materialize(va, fixture_dataset, chris_wired)))
    charles_rows = set(oids(materialize(vb, fixture_dataset, charles)))
    assert chris_rows <= charles_rows
    # The multi-level closed form nests one subquery per hierarchy level.
    closed = render_query(vb.closed_query)
    assert closed.count("SELECT sub_ou FROM org_hierarchy") == 3  # 1 + 2 nested


def test_expand_supervisor_drops_known_invalid(fixture_dataset, chris_wired):
    from vpdgate.timeutil import parse_timestamp
    off = open_session("Parker", (19.4326, -99.1332),
                       parse_timestamp("2010-08-20T12:00:00Z"), fixture_dataset)
    base = rewrite(parse_query(Q), chris_wired, fixture_dataset)
    v = expand_supervisor("Chris", base, fixture_dataset, contexts={"Parker": off})
    assert any(p.startswith("dropped-invalid:Parker") for p in v.provenance)
    # Bob still covers t1, Alice covers t5: the set is unchanged here.
    assert oids(materialize(v, fixture_dataset, chris_wired)) == \
        ["o001", "o002", "o003", "o004", "o005"]


def test_entails_vacuous(fixture_dataset, parker_mobile):
    v = rewrite(parse_query(Q), parker_mobile, fixture_dataset)
    assert entails((), v, fixture_dataset, parker_mobile) == (True, None)


def test_entails_head_of_ou_for_chris(fixture_dataset, chris_wired):
    base = rewrite(parse_query(Q), chris_wired, fixture_dataset)
    v = expand_supervisor("Chris", base, fixture_dataset)
    ok, witness = entails((HEAD_OF_OU_POLICY,), v, fixture_dataset, chris_wired)
    assert ok and witness is None


def test_entails_flags_leak_with_witness(fixture_dataset):
    # A branch with no chain predicates leaks an object Adam cannot reach by
    # any linkage.
    adam = open_session("Adam", None, None, fixture_dataset)
    leak = parse_query("SELECT object.* FROM subject, object WHERE subject.name = "
                       "sys_context:session_user AND object.oid = 'o005'")
    identity, *user = leak.where
    branch = Branch(projection=leak.projection, tables=leak.tables, gates=(),
                    identity=identity, chain=(), user=tuple(user))
    v = VpdDefinition(subject="Adam", location_dependent=False, time_dependent=False,
                      given_provenance=("hand-built",), branches=(branch,))
    assert v.query == leak
    ok, witness = entails((HEAD_OF_OU_POLICY,), v, fixture_dataset, adam)
    assert not ok
    assert "o005" in witness


def test_infer_privileges_write_implies_read():
    closure = infer_privileges({Privilege("write", "+")})
    assert closure == {Privilege("write", "+"), Privilege("read", "+")}


def test_infer_privileges_trivial_cases():
    assert infer_privileges({Privilege("read", "+")}) == {Privilege("read", "+")}
    assert infer_privileges(set()) == frozenset()


def test_infer_closure_one_pass():
    _, passes = infer_closure({Privilege("write", "+")})
    assert passes == 1


def test_system_privilege_scope():
    p = Privilege("grant", "+", scope="system")
    assert p.scope == "system"
    # System privileges are recognized but the rule set never fires on them.
    closure = infer_privileges({p})
    assert closure == {p}
    with pytest.raises(ValueError):
        Privilege("read", "?")


def test_rewrite_with_alias_requalifies(fixture_dataset, parker_wired):
    v = rewrite(parse_query("select o.name from object o where o.oid = 'o001'"),
                parker_wired, fixture_dataset)
    text = render_query(v.query)
    assert "object.name" in text and " o." not in text
    rows = materialize(v, fixture_dataset, parker_wired)
    assert rows.rows == (("Furniture",),)


def test_closed_form_subquery_targets_org_hierarchy(fixture_dataset, chris_wired):
    base = rewrite(parse_query(Q), chris_wired, fixture_dataset)
    v = expand_supervisor("Chris", base, fixture_dataset)
    branches = []
    q = v.closed_query
    while isinstance(q, Union):
        branches.append(q.right)
        q = q.left
    branches.append(q)
    membership = [p for b in branches if isinstance(b, Select)
                  for p in b.where if isinstance(p, InSubquery)]
    assert len(membership) == 1
    assert membership[0].a == queryir.ColumnRef("subject", "dept")


def _org_chain_dataset(levels: int):
    """One subject per unit of an org_hierarchy chain u0 -> u1 -> ... -> u<levels>."""
    return relstore.load_dataset({
        "subject": [{"id": f"s{k:05d}", "name": f"S{k}", "dept": f"u{k}"}
                    for k in range(levels + 1)],
        "org_hierarchy": [{"ou": f"u{k}", "sub_ou": f"u{k + 1}"} for k in range(levels)]})


@pytest.mark.parametrize("levels", [3, 1500])
def test_closed_form_levels_share_the_level_above(levels):
    """Level k's membership subquery wraps level k-1's Select itself, so a
    chain of L levels builds L Selects, not L**2."""
    d = _org_chain_dataset(levels)
    ctx = open_session("S0", None, None, d)
    v = expand_supervisor("S0", rewrite(parse_query("select * from subject"), ctx, d), d)
    selects = queryir.union_branches(v.closed_query)
    assert len(selects) == levels + 1  # the own branch, then one per level
    previous = None
    for b in selects[1:]:
        (membership,) = [p for p in b.where if isinstance(p, InSubquery)]
        assert membership.a == queryir.ColumnRef("subject", "dept")
        level = membership.query
        assert level.tables == (queryir.TableRef("org_hierarchy"),)
        (ou,) = level.where
        if previous is None:
            assert ou == queryir.ColEqConst(queryir.ColumnRef(None, "ou"), "u0")
        else:
            assert ou.a == queryir.ColumnRef(None, "ou") and ou.query is previous
        previous = level
    if levels < 10:
        rows = evaluate(v.closed_query, d, ctx)
        assert sorted(rows.column("subject.name")) == [f"S{k}" for k in range(levels + 1)]


def test_rewrite_unreachable_target_raises(fixture_dataset, parker_wired):
    from vpdgate.errors import NoChainError
    with pytest.raises(NoChainError):
        rewrite(parse_query("select * from carrier"), parker_wired, fixture_dataset)


def test_union_equals_closed_form_on_random_datasets():
    import random
    from randgen import random_dataset
    from vpdgate.sessionctx import open_session

    checked = 0
    for seed in range(40):
        d = random_dataset(random.Random(seed))
        for s in d.subjects:
            if not linkage.subordinates(s.name, d):
                continue
            ctx = open_session(s.name, None, None, d, session_id=f"u-{s.id}")
            v = expand_supervisor(s.name,
                                  rewrite(parse_query(Q), ctx, d), d)
            union_rows = evaluate(v.query, d, ctx)
            closed_rows = evaluate(v.closed_query, d, ctx)
            assert union_rows.sorted_rows() == closed_rows.sorted_rows(), (seed, s.name)
            checked += 1
    assert checked > 10


def test_rewrite_shape_ignores_reported_values(fixture_dataset, parker_mobile):
    from vpdgate.timeutil import parse_timestamp
    elsewhere = open_session("Parker", (48.0, -100.0),
                             parse_timestamp("2010-09-01T00:00:00Z"), fixture_dataset)
    a = rewrite(parse_query(Q), parker_mobile, fixture_dataset)
    b = rewrite(parse_query(Q), elsewhere, fixture_dataset)
    assert a.query == b.query  # only bound keys shape the AST, not their values


def test_rewrite_subject_table_shows_own_row(fixture_dataset, parker_wired):
    # A request against the subject table itself needs no chain: the
    # session predicate alone restricts it to the requester's own row.
    v = rewrite(parse_query("select * from subject"), parker_wired, fixture_dataset)
    assert render_query(v.query) == \
        "SELECT subject.* FROM subject WHERE subject.name = sys_context:session_user"
    rows = materialize(v, fixture_dataset, parker_wired)
    assert rows.rows == (("s04", "Parker", "Driver", "Furniture", "Trucking"),)


def test_rewrite_org_hierarchy_target(fixture_dataset, parker_wired, chris_wired):
    q = parse_query("select * from org_hierarchy")
    v = rewrite(q, parker_wired, fixture_dataset)
    assert len(materialize(v, fixture_dataset, parker_wired)) == 0  # leaf dept
    v = rewrite(q, chris_wired, fixture_dataset)
    rows = materialize(v, fixture_dataset, chris_wired)
    assert rows.rows == (("Delivery", "Trucking"),)


# A column the rewrite names is resolved once, in its Select's FROM scope
# (queryir._Scope), when the shape's template is built or the request's
# conditions are qualified. So a VPD that would name a column its table
# lacks is never built, and a granted request, a refused one and explain
# all raise the same error.

def _parker_at(d, where):
    point = {"on-route": (39.4731, -98.0592), "off-route": MEXICO_CITY}[where]
    return open_session("Parker", point, parse_timestamp("2010-08-20T12:00:00Z"), d)


def _every_path_raises(d, ctx, text, mode, error, message):
    for request in (engine.run_query, engine.explain):
        with pytest.raises(error) as raised:
            request(d, ctx, text, chain_mode=mode)
        assert type(raised.value) is error and str(raised.value) == message


@pytest.mark.parametrize("where", ["on-route", "off-route"])
@pytest.mark.parametrize("mode, target, column", [
    ("direct", "carrier", "sender"), ("direct", "assignment", "sender"),
    ("specialty", "carrier", "name"), ("specialty", "assignment", "name")])
def test_a_chain_column_the_target_lacks_fails_whatever_the_verdict(
        fixture_dataset, where, mode, target, column):
    _every_path_raises(fixture_dataset, _parker_at(fixture_dataset, where),
                       f"select * from {target}", mode, UnknownColumnError,
                       f"no column {column!r} in {target!r}")


@pytest.mark.parametrize("where", ["on-route", "off-route"])
@pytest.mark.parametrize("mode", linkage.CHAIN_MODES)
def test_a_user_column_the_table_lacks_fails_whatever_the_verdict(fixture_dataset, where, mode):
    _every_path_raises(fixture_dataset, _parker_at(fixture_dataset, where),
                       "select * from object o where o.nosuch = 'x'", mode,
                       UnknownColumnError, "no column 'nosuch' in 'o'")


@pytest.mark.parametrize("where", ["on-route", "off-route"])
@pytest.mark.parametrize("text", ["select * from object o where x.oid = 'x'",
                                  "select x.oid from object o"])
def test_an_unknown_qualifier_is_an_unknown_table(fixture_dataset, where, text):
    _every_path_raises(fixture_dataset, _parker_at(fixture_dataset, where), text, "workflow",
                       UnknownTableError, "column x.oid references 'x', which is not in FROM")


@pytest.mark.parametrize("mode", linkage.CHAIN_MODES)
def test_a_binding_named_twice_is_refused_as_the_evaluator_refuses_it(fixture_dataset, mode):
    text = "select * from object o, carrier o"
    with pytest.raises(UnknownTableError, match="duplicate table binding 'o'"):
        evaluate(parse_query(text), fixture_dataset)
    _every_path_raises(fixture_dataset, _parker_at(fixture_dataset, "off-route"), text, mode,
                       UnknownTableError, "duplicate table binding 'o'")


def test_the_rewrite_refuses_in_order_self_join_then_chain_then_scope(fixture_dataset,
                                                                         parker_wired):
    d = fixture_dataset
    with pytest.raises(UnsupportedFeatureError, match="self-joins cannot be rewritten"):
        rewrite(parse_query("select * from nosuch a, nosuch b"), parker_wired, d)
    with pytest.raises(NoChainError):
        rewrite(parse_query("select * from nosuch where x = 1"), parker_wired, d)
    for mode in ("specialty", "direct"):
        with pytest.raises(UnknownTableError, match="unknown table: 'nosuch'"):
            rewrite(parse_query("select * from nosuch where x = 1"), parker_wired, d, mode)
