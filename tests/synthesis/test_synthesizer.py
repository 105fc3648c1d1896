"""End-to-end synthesis tests: the paper's headline per-command results.

Each test checks that synthesis discovers the combiner the paper
reports in Table 10 (or the failure in Table 9) for that command.
"""

import pytest

from repro.core.dsl.ast import (
    Back,
    Add,
    Concat,
    First,
    Merge,
    Rerun,
    Second,
    Stitch,
    Stitch2,
)
from repro.core.synthesis import (
    INSUFFICIENT_INPUTS,
    NO_COMBINER,
    synthesize,
)
from repro.shell import Command
from repro.unixsim import ExecContext


def _primary_ops(result):
    return {type(c.op) for c in result.survivors}


class TestRecOpCommands:
    def test_wc_l_gets_back_add(self, fast_config):
        r = synthesize(Command(["wc", "-l"]), fast_config)
        assert r.ok
        assert r.combiner.primary.op == Back("\n", Add())
        assert sum(r.search_space) == 2700  # digit output -> one delimiter

    def test_grep_c_gets_back_add(self, fast_config):
        r = synthesize(Command(["grep", "-c", "^[A-Z]"]), fast_config)
        assert r.ok
        assert r.combiner.primary.op == Back("\n", Add())

    def test_tr_lowercase_gets_concat(self, fast_config):
        r = synthesize(Command(["tr", "A-Z", "a-z"]), fast_config)
        assert r.ok
        assert isinstance(r.combiner.primary.op, Concat)

    def test_grep_gets_concat(self, fast_config):
        r = synthesize(Command(["grep", "x"]), fast_config)
        assert r.ok
        assert isinstance(r.combiner.primary.op, Concat)

    def test_cut_gets_concat(self, fast_config):
        r = synthesize(Command(["cut", "-d", ",", "-f", "1"]), fast_config)
        assert r.ok
        assert isinstance(r.combiner.primary.op, Concat)

    def test_sed_substitute_gets_concat(self, fast_config):
        r = synthesize(Command(["sed", "s/a/b/"]), fast_config)
        assert r.ok
        assert isinstance(r.combiner.primary.op, Concat)

    def test_head_n1_selection_combiners(self, fast_config):
        r = synthesize(Command(["head", "-n", "1"]), fast_config)
        assert r.ok
        ops = _primary_ops(r)
        assert First in ops and Second in ops

    def test_tail_n1_selection_combiners(self, fast_config):
        r = synthesize(Command(["tail", "-n", "1"]), fast_config)
        assert r.ok
        # tail -n 1 keeps the *second* operand: (first b a) / (second a b)
        swaps = {(type(c.op), c.swapped) for c in r.survivors}
        assert (First, True) in swaps or (Second, False) in swaps


class TestStructOpCommands:
    def test_uniq_gets_stitch(self, fast_config):
        r = synthesize(Command(["uniq"]), fast_config)
        assert r.ok
        assert isinstance(r.combiner.primary.op, Stitch)

    def test_uniq_c_gets_stitch2_add_first(self, fast_config):
        r = synthesize(Command(["uniq", "-c"]), fast_config)
        assert r.ok
        op = r.combiner.primary.op
        assert isinstance(op, Stitch2)
        assert op.delim == " "
        assert isinstance(op.head, Add)


class TestRunOpCommands:
    def test_sort_gets_merge(self, fast_config):
        r = synthesize(Command(["sort"]), fast_config)
        assert r.ok
        assert isinstance(r.combiner.primary.op, Merge)
        assert {type(c.op) for c in r.survivors} == {Merge, Rerun}

    def test_sort_rn_merge_carries_flags(self, fast_config):
        r = synthesize(Command(["sort", "-rn"]), fast_config)
        assert r.ok
        op = r.combiner.primary.op
        assert isinstance(op, Merge)
        assert op.flags == "-rn"

    def test_sed_quit_gets_rerun(self, fast_config):
        r = synthesize(Command(["sed", "100q"]), fast_config)
        assert r.ok
        assert isinstance(r.combiner.primary.op, Rerun)

    def test_tr_cs_tokenizer_gets_rerun(self, fast_config):
        r = synthesize(Command(["tr", "-cs", "A-Za-z", "\\n"]), fast_config)
        assert r.ok
        assert isinstance(r.combiner.primary.op, Rerun)
        assert sum(r.search_space) == 2700


class TestUnsupportedCommands:
    """The paper's Table 9."""

    @pytest.mark.parametrize("argv", [
        ["sed", "1d"], ["sed", "2d"], ["tail", "+2"], ["tail", "+3"],
    ])
    def test_no_combiner_exists(self, argv, fast_config):
        r = synthesize(Command(argv), fast_config)
        assert r.status == NO_COMBINER
        assert not r.ok

    def test_awk_equality_insufficient_inputs(self, fast_config):
        r = synthesize(Command(["awk", "$1 == 2 {print $2, $3}"]), fast_config)
        assert r.status == INSUFFICIENT_INPUTS


class TestResultMetadata:
    def test_synthesis_counts_executions(self, fast_config):
        cmd = Command(["sort"])
        r = synthesize(cmd, fast_config)
        assert r.executions > 0

    def test_outputs_are_streams_flag(self, fast_config):
        r = synthesize(Command(["tr", "-d", "\\n"]), fast_config)
        assert r.ok
        assert not r.outputs_are_streams  # Theorem 5 precondition violated

    def test_sorted_input_mode_detected(self, fast_config):
        ctx = ExecContext(fs={"d.txt": "alpha\nbeta\n"})
        r = synthesize(Command(["comm", "-23", "-", "d.txt"], context=ctx),
                       fast_config)
        assert r.input_mode == "sorted"
        assert r.ok

    def test_filename_mode_for_xargs(self, fast_config):
        r = synthesize(Command(["xargs", "cat"]), fast_config)
        assert r.input_mode == "filenames"
        assert r.ok
        assert isinstance(r.combiner.primary.op, Concat)


_SEED_ZERO_PROBE = """
import json
from repro.core.synthesis import SynthesisConfig, synthesize
from repro.shell import Command

config = SynthesisConfig(max_rounds=6, patience=2, seed=0)
out = []
for argv in (["sort"], ["uniq", "-c"]):
    r = synthesize(Command(argv), config)
    out.append([r.executions, r.rounds,
                [c.pretty() for c in r.combiner.combiners]])
print(json.dumps(out))
"""


def test_seed_zero_is_the_same_in_every_process():
    """``seed=0`` — the JobRequest default — derives a per-command seed;
    it must not come from ``hash()``, which differs per interpreter, or
    two daemons synthesize the same command differently."""
    import json
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    outcomes = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _SEED_ZERO_PROBE],
                              env=env, capture_output=True, text=True,
                              timeout=300, check=True)
        outcomes.append(json.loads(proc.stdout))
    assert outcomes[0] == outcomes[1]
    assert all(executions > 0 for executions, _rounds, _comb in outcomes[0])
