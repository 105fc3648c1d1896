"""StageRunner engine tests."""

import pytest

from repro.parallel import PROCESSES, SERIAL, StageRunner, THREADS
from repro.shell import Command
from repro.unixsim import ExecContext

CHUNKS = ["b\na\n", "d\nc\n", "f\ne\n"]


def _map(runner, command, chunks):
    futures = [runner.submit_timed(command, c) for c in chunks]
    return [f.result()[0] for f in futures]


@pytest.mark.parametrize("engine", [SERIAL, THREADS, PROCESSES])
def test_outputs_in_order(engine):
    with StageRunner(engine=engine, max_workers=3) as runner:
        outs = _map(runner, Command(["sort"]), CHUNKS)
    assert outs == ["a\nb\n", "c\nd\n", "e\nf\n"]


def test_serial_runner_spins_up_no_pool():
    runner = StageRunner(engine=SERIAL, max_workers=4)
    future = runner.submit_timed(Command(["sort"]), "b\na\n")
    assert future.done()  # ran inline
    out, t0, t1 = future.result()
    assert out == "a\nb\n" and t0 <= t1
    assert runner._pool is None
    runner.close()


def test_process_workers_see_virtual_fs():
    ctx = ExecContext(fs={"f1": "y\nx\n", "f2": "z\n"})
    cmd = Command(["xargs", "cat"], context=ctx)
    with StageRunner(engine=PROCESSES, max_workers=2, context=ctx) as runner:
        outs = _map(runner, cmd, ["f1\n", "f2\n"])
    assert outs == ["y\nx\n", "z\n"]


def test_unknown_engine_rejected():
    with pytest.raises(ValueError):
        StageRunner(engine="gpu")


def test_pool_reused_across_stages():
    runner = StageRunner(engine=THREADS, max_workers=2)
    _map(runner, Command(["sort"]), CHUNKS)
    pool1 = runner._pool
    _map(runner, Command(["uniq"]), CHUNKS)
    assert runner._pool is pool1
    runner.close()
    assert runner._pool is None
