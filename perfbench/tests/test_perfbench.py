"""Smoke and negative tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Failed  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(WORKLOADS)


def units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def run_main(capsys, workload, trace, seed=3):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
            "--trace", str(trace)]
    assert run.main(argv, small=True) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


def assert_printed(lines, result, expected_units):
    assert result["failed"] == 0 and result["correct"] is True
    assert result["attempted"] >= 1
    assert f"fail_ratio 0.0 failed/attempted (0/{result['attempted']})" in lines
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected_units
    for name, unit in expected_units.items():
        pattern = re.compile(rf"{re.escape(name)} \S+ {re.escape(unit)}")
        assert any(pattern.fullmatch(line) for line in lines), name


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert units("end_to_end") == run.END_TO_END_UNITS
    assert units("per_layer") == tracer.per_layer_units()


def test_check_names_match_the_registry():
    import tftflip.checks

    assert tuple(c.name for c in tftflip.checks.SUITES) == tracer.CHECK_NAMES


def test_smoke_end_to_end_all_workloads(capsys):
    lines, _ = run_main(capsys, "all", trace=0)
    starts = [i for i, line in enumerate(lines) if line.startswith("# workload=")]
    assert [lines[i].split()[1] for i in starts] == [f"workload={w}" for w in WORKLOADS]
    for begin, end in zip(starts, starts[1:] + [len(lines)]):
        block = lines[begin:end]
        result = json.loads(block[-1])
        assert_printed(block, result, units("end_to_end"))
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not list(run.RESULTS.glob("tmp-*")), "export directory left behind"


@pytest.mark.parametrize("workload", NAMES)
def test_traced_calls_repeat_for_a_seed(capsys, workload):
    lines, first = run_main(capsys, workload, trace=1)
    assert_printed(lines, first, units("per_layer"))
    _, second = run_main(capsys, workload, trace=1)

    def calls(result):
        return {k: m["value"] for k, m in result["metrics"].items() if k.endswith(".calls")}

    assert calls(first) == calls(second)
    assert any(calls(first).values())
    spans = json.loads((run.RESULTS / f"spans-{workload}-seed3.json").read_text())
    assert spans["spans"] and all(s[5] >= s[4] for s in spans["spans"])


def test_sampler_takes_out_the_probes_and_scales_each_stretch():
    sampler = speed.Sampler()
    # probes at [0, 1], [5, 6] and [10, 11]; the middle one ran at half
    # the reference speed, the others at the reference speed
    sampler.starts, sampler.ends = [0.0, 5.0, 10.0], [1.0, 6.0, 11.0]
    ref = speed.REF_S
    sampler.loops = [ref, 2 * ref, ref]
    raw, scaled = sampler.measure(0.5, 10.5)
    assert raw == pytest.approx(8.0)  # 1-5 and 6-10
    assert scaled == pytest.approx(8.0 / 1.5)
    assert sampler.measure(2.0, 3.0) == pytest.approx((1.0, 1.0 / 1.5))


def test_sampled_loop_probes_during_long_operations(tmp_path):
    w = WORKLOADS["cli-graph"]()
    pkg, plan = run.set_up(w, 5, tmp_path, small=True)
    loop = run.run_loop(w, pkg, plan, rounds=1, sampled=True)
    assert loop.failed == 0
    assert len(loop.probes) >= 2 and len(loop.scaled) == len(loop.latencies)
    walls = [e - s for s, e in zip(loop.starts, loop.ends)]
    assert all(0 < t <= wall for t, wall in zip(loop.latencies, walls))
    assert all(t > 0 for t in loop.scaled)


# -- negative tests: every checker rejects a corrupted answer ---------


def corrupt_cli(op, out):
    status, text = out
    if op.kind == "verify":
        return status, text.replace(" ok ", " FAIL ", 1)
    if op.kind == "distance":
        return status, text.replace("(formula=bfs)", "")
    if op.kind == "diameter":
        d, word = text.split()
        return status, f"{int(d) + 1} {word}\n"
    if op.kind == "count":
        return status, text.replace("CTFT=", "CTFT=1")
    if op.kind == "antipode":
        return status, ",".join(map(str, op.data)) + "\n"
    # drop the first vertex from the export file
    path = Path(op.data)
    if op.kind == "graph-json":
        doc = json.loads(path.read_text())
        doc["vertices"] = doc["vertices"][1:]
        path.write_text(json.dumps(doc))
    else:
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
    return out


PAIR_CORRUPTIONS = {
    "d_sr": lambda v: v + 1,
    "d_ra": lambda v: v - 1,
    "meet": lambda v: tuple(1 - e for e in v[:-1]) + v[-1:],
    "join": lambda v: v[:-1] + (v[-1] + 1,),
    "order": lambda v: (False,) + v[1:],
    "lengths": lambda v: (v[0] + 1,) + v[1:],
    "dual_dual": lambda v: v[:-1] + (v[-1] + 1,),
    "twice": lambda v: v[:-1] + [v[0][:-1] + (v[0][-1] + 1,)],
}


def first_op_of_each_kind(plan):
    ops = {}
    for op in [op for ops_ in plan.rounds for op in ops_]:
        ops.setdefault((op.kind, op.n), op)
    return list(ops.values())


@pytest.mark.parametrize("workload", NAMES)
def test_checkers_reject_corrupted_answers(workload, tmp_path):
    w = WORKLOADS[workload]()
    pkg, plan = run.set_up(w, 5, tmp_path, small=True)
    tried = 0
    for op in first_op_of_each_kind(plan):
        good = w.execute(pkg, op)
        assert run.checked(w, pkg, op, good), op
        assert not run.checked(w, pkg, op, Failed(RuntimeError("boom")))
        if workload == "closed-forms":
            for field, spoil in PAIR_CORRUPTIONS.items():
                bad = dict(good, **{field: spoil(good[field])})
                assert not run.checked(w, pkg, op, bad), (op, field)
                tried += 1
        else:
            assert not run.checked(w, pkg, op, corrupt_cli(op, good)), op
            assert not run.checked(w, pkg, op, (1, good[1])), op
            tried += 1
    assert tried >= {"verify": 1, "cli-graph": 6, "closed-forms": 16}[workload]


@pytest.mark.parametrize("workload", NAMES)
def test_a_wrong_program_fails_every_operation(workload, tmp_path):
    class Broken(WORKLOADS[workload]):
        def execute(self, pkg, op):
            out = super().execute(pkg, op)
            if workload == "closed-forms":
                return dict(out, d_ra=out["d_ra"] + 1)
            return corrupt_cli(op, out)

    w = Broken()
    pkg, plan = run.set_up(WORKLOADS[workload](), 5, tmp_path, small=True)
    loop = run.run_loop(w, pkg, plan, rounds=1)
    assert loop.failed == len(loop.latencies) > 0
