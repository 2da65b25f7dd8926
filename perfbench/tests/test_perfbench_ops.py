"""Op lists: a pure function of the seed, quiet by construction."""

from collections import Counter
from dataclasses import fields

import pytest

from perfbench import ops as opkinds
from perfbench.ops import WORKLOADS, Op, dump_ops, hot_set
from perfbench.stats import apportion

PASSES = 2


def plan(constants, name, seed):
    return WORKLOADS[name].build(constants, seed, PASSES)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(constants, name):
    first = [dump_ops(ops) for ops in plan(constants, name, 7)]
    again = [dump_ops(ops) for ops in plan(constants, name, 7)]
    other = [dump_ops(ops) for ops in plan(constants, name, 8)]
    assert first == again
    assert first != other
    assert len(first) == PASSES + 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_seed_runs_the_same_passes_in_another_order(constants, name):
    def passes(seed):
        # List 0 is the warm-up; the timed lists together are the run.
        return sorted(dump_ops(ops) for ops in plan(constants, name, seed)[1:])

    # Delay seeds included: virtual time is then the same for every seed.
    assert passes(7) == passes(8)
    assert plan(constants, name, 7)[0] == plan(constants, name, 8)[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_the_passes_of_a_run_are_one_script_repeated(constants, name):
    hot = set(hot_set(constants))

    def shape(ops):
        # Text-unique queries are the one thing that differs between passes.
        return [
            (
                op.kind,
                op.tenant,
                op.timed,
                op.args,
                None if op.kind == opkinds.READ and op.text not in hot else op.text,
            )
            for op in ops
        ]

    warm_up, *timed = plan(constants, name, 7)
    assert all(shape(ops) == shape(warm_up) for ops in timed)


@pytest.mark.parametrize("name", ["adhoc_unique", "serve_socket"])
def test_unique_texts_never_repeat(constants, name):
    hot = set(hot_set(constants))
    unique = [
        op.text
        for ops in plan(constants, name, 7)
        for op in ops
        if op.text not in hot
    ]
    assert unique and len(unique) == len(set(unique))


def test_the_program_never_sees_a_workload_name(constants):
    assert [field.name for field in fields(Op)] == [
        "kind", "text", "seed", "tenant", "timed", "args",
    ]
    for name in WORKLOADS:
        for ops in plan(constants, name, 7):
            for op in ops:
                handed_over = f"{op.kind} {op.text} {op.tenant} {op.args}"
                assert not any(workload in handed_over for workload in WORKLOADS)


def test_hot_set_shares_are_zipf_and_exact(constants):
    ops = plan(constants, "hot_repeat", 7)[1]
    counts = Counter(op.text for op in ops)
    ranked = [counts[text] for text in hot_set(constants)]
    assert sum(ranked) == 400 and len(ranked) == 12
    assert ranked == sorted(ranked, reverse=True)
    assert ranked[0] == pytest.approx(400 / sum(1 / r for r in range(1, 13)), abs=1)


def test_apportion_is_exact():
    assert apportion([1, 1, 1], 10) == [4, 3, 3]
    assert sum(apportion([1 / r for r in range(1, 13)], 226)) == 226


def test_grid_pass_is_five_refreshed_rounds_of_forty_cells(constants):
    ops = plan(constants, "grid_refresh", 7)[1]
    timed = [op for op in ops if op.timed]
    assert len(timed) == 200 and all(op.kind == opkinds.READ for op in timed)
    refresh = len(opkinds.refresh_ops(constants))
    for start in range(0, len(ops), refresh + 40):
        block = ops[start : start + refresh + 40]
        assert not any(op.timed for op in block[:refresh])
        cells = {(op.tenant, op.text) for op in block[refresh:]}
        assert len(cells) == 40


def test_churn_pass_is_valid_and_net_zero(constants):
    for ops in plan(constants, "design_churn", 7):
        assert len(ops) == 300
        kinds = Counter(op.kind for op in ops)
        assert kinds[opkinds.READ] == 226
        assert kinds[opkinds.DROP_INDEX] == kinds[opkinds.CREATE_INDEX] == 7
        present: set = set()  # sentinel rows / triples in place
        dropped: set = set()
        for op in ops:
            if op.kind == opkinds.SQL:
                key = (op.tenant, op.text.split()[2])
                if op.text.startswith("INSERT"):
                    assert key not in present
                    present.add(key)
                else:
                    assert op.text.split()[2] == key[1] and key in present
                    present.remove(key)
            elif op.kind == opkinds.RDF_ADD:
                assert "kegg" not in present
                present.add("kegg")
            elif op.kind == opkinds.RDF_REMOVE:
                present.remove("kegg")
            elif op.kind == opkinds.DROP_INDEX:
                table, index = op.args
                assert (op.tenant, index) not in dropped
                dropped.add((op.tenant, index))
            elif op.kind == opkinds.CREATE_INDEX:
                table, column = op.args
                dropped.remove((op.tenant, f"ix_{table}_{column}"))
        assert not present and not dropped
