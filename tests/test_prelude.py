from tunav.driver import RunConfig, verify_program
from tunav.prelude import load_prelude
from tunav.resolve import module_of, order_tasks, resolve_program


def test_prelude_parses_and_resolves():
    asts = load_prelude()
    assert [a.module for a in asts] == [
        "prelude::core", "prelude::seq", "prelude::set", "prelude::map",
        "prelude::multiset"]
    program, registry = resolve_program(asts)
    assert registry.default_group == "prelude::core::group_default"


def test_default_group_membership():
    _, registry = resolve_program(load_prelude())
    default = set(registry.groups["prelude::core::group_default"])
    for name in ("axiom_seq_add_len", "axiom_seq_push_len",
                 "axiom_seq_push_index_same", "axiom_seq_push_index_diff",
                 "axiom_seq_add_index_left", "axiom_seq_add_index_right",
                 "axiom_seq_len_nonneg"):
        assert f"prelude::seq::{name}" in default
    # axioms only
    assert all(registry.facts[f] == "axiom" for f in default)


def test_group_seq_properties_membership():
    _, registry = resolve_program(load_prelude())
    group = set(registry.groups["prelude::seq::group_seq_properties"])
    assert "prelude::seq::lemma_seq_contains_after_push" in group
    assert "prelude::seq::axiom_seq_contains_intro" in group
    assert "prelude::seq::axiom_seq_contains_elim" in group


def test_prelude_self_verifies():
    # every prelude broadcast lemma (non-axiom) verifies through the engine
    run = verify_program([], RunConfig())
    lemma_tasks = [t for t in run.program.proof_fns()
                   if module_of(t).startswith("prelude::")]
    assert lemma_tasks, "prelude ships proven lemmas"
    for t in lemma_tasks:
        assert run.results[t].passed, f"{t}: {run.results[t].status}"


def test_prelude_layering_no_cycles():
    program, registry = resolve_program(load_prelude())
    order = order_tasks(program, registry)  # CycleError would raise
    assert set(order.tasks) == set(program.proof_fns())


def test_group_counts():
    _, registry = resolve_program(load_prelude())
    assert set(registry.groups) == {
        "prelude::core::group_default",
        "prelude::seq::group_seq_properties",
        "prelude::set::group_set_properties",
        "prelude::map::group_map_properties",
        "prelude::multiset::group_multiset_properties",
    }
    assert len(registry.groups["prelude::core::group_default"]) == 18
    assert len(registry.groups["prelude::seq::group_seq_properties"]) == 4
