"""Worker pool: result order, worker count, errors across the process
boundary, and byte-identical artifacts at any CPU count; and the blocks
that split one large computation over threads, alone or in lockstep.

The CPU count is faked through os.sched_getaffinity, so no test starts more
than three worker processes or four threads."""

import concurrent.futures
import dataclasses
import functools
import inspect
import os
import pickle
import sys
import threading
import time
from concurrent.futures import process

import numpy as np
import pytest

from walkforge import _pool, baselines, cli, errors, nets, pipeline
from walkforge.forest import ForestConfig, fit_forest


def allow_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def blas_threads(monkeypatch, openblas=None, omp=None):
    """Set or clear the BLAS thread variables that run_blocks reads."""
    for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)


BIG = 1 << 30  # work well above the split threshold


def blocks_of(n, work=BIG):
    """The (lo, hi, thread) of each block run_blocks runs, in block order."""
    seen = []
    lock = threading.Lock()

    def record(lo, hi):
        with lock:
            seen.append((lo, hi, threading.get_ident()))

    _pool.run_blocks(record, n, work)
    return sorted(seen)


class TestRunBlocks:
    def test_blocks_cover_the_range_one_per_cpu(self, monkeypatch):
        allow_cpus(monkeypatch, 2)
        blas_threads(monkeypatch, openblas="1")
        seen = blocks_of(10)
        assert [(lo, hi) for lo, hi, _ in seen] == [(0, 5), (5, 10)]
        assert seen[0][2] == threading.get_ident()  # the first block runs here
        assert seen[1][2] != threading.get_ident()

    @pytest.mark.parametrize("cpus, openblas, omp, blocks", [
        (1, "1", None, 1),     # one CPU
        (2, None, None, 1),    # unset: OpenBLAS already runs a thread per CPU
        (2, "2", None, 1),     # each BLAS call already takes both CPUs
        (2, "0", None, 1),     # 0 means OpenBLAS's default, a thread per CPU
        (2, "x", None, 1),     # unreadable counts as unset
        (2, None, "1", 2),     # OMP_NUM_THREADS when OPENBLAS_NUM_THREADS is unset
        (2, "2", "1", 1),      # OPENBLAS_NUM_THREADS wins
        (4, "2", None, 2),
        (3, "1", None, 3),
    ])
    def test_block_count_is_cpus_over_blas_threads(self, monkeypatch, cpus, openblas, omp,
                                                  blocks):
        allow_cpus(monkeypatch, cpus)
        blas_threads(monkeypatch, openblas, omp)
        assert len(blocks_of(12)) == blocks

    def test_each_block_gets_at_least_2_to_the_23_of_work(self, monkeypatch):
        # a thread must pay for itself, and no block of a product may fall
        # under OpenBLAS's small-matrix size
        allow_cpus(monkeypatch, 8)
        blas_threads(monkeypatch, openblas="1")
        assert len(blocks_of(12, work=(1 << 24) - 1)) == 1
        assert len(blocks_of(12, work=1 << 24)) == 2
        assert len(blocks_of(12, work=3 << 23)) == 3
        assert len(blocks_of(12, work=BIG)) == 6

    @pytest.mark.parametrize("n, blocks", [(1, 1), (2, 1), (3, 1), (4, 2), (5, 2), (8, 4)])
    def test_no_block_holds_one_row(self, monkeypatch, n, blocks):
        allow_cpus(monkeypatch, 4)
        blas_threads(monkeypatch, openblas="1")
        seen = blocks_of(n)
        assert len(seen) == blocks
        assert blocks == 1 or all(hi - lo >= 2 for lo, hi, _ in seen)

    def test_one_block_inside_a_run_tasks_worker(self, monkeypatch):
        allow_cpus(monkeypatch, 2)
        blas_threads(monkeypatch, openblas="1")
        inside = _pool.run_tasks(lambda _: [(lo, hi) for lo, hi, _ in blocks_of(10)], range(2))
        assert inside == [[(0, 10)], [(0, 10)]]
        assert len(blocks_of(10)) == 2  # the same call splits in the main process

    def test_first_failure_in_block_order_is_raised_after_every_block(self, monkeypatch):
        allow_cpus(monkeypatch, 3)
        blas_threads(monkeypatch, openblas="1")
        finished = []

        def fn(lo, hi):
            if lo == 4:  # block 2
                time.sleep(0.1)  # block 3 fails first in time
                raise errors.NumericError("training loss became non-finite at epoch 2")
            if lo == 8:
                raise errors.NumericError("training loss became non-finite at epoch 3")
            time.sleep(0.2)
            finished.append(lo)

        before = threading.active_count()
        with pytest.raises(errors.NumericError, match="non-finite at epoch 2"):
            _pool.run_blocks(fn, 12, BIG)
        assert finished == [0]
        assert threading.active_count() == before

    def test_no_thread_outlives_the_call(self, monkeypatch):
        allow_cpus(monkeypatch, 4)
        blas_threads(monkeypatch, openblas="1")
        before = threading.active_count()
        assert len(blocks_of(40)) == 4
        assert threading.active_count() == before

    def test_aligned_bounds_are_multiples_of_the_alignment(self, monkeypatch):
        allow_cpus(monkeypatch, 3)
        blas_threads(monkeypatch, openblas="1")
        seen = []
        _pool.run_blocks(lambda lo, hi: seen.append((lo, hi)), 1000, BIG, 8)
        assert sorted(seen) == [(0, 328), (328, 664), (664, 1000)]
        # each block holds at least two groups of 8; the rest joins the last
        seen.clear()
        _pool.run_blocks(lambda lo, hi: seen.append((lo, hi)), 40, BIG, 8)
        assert sorted(seen) == [(0, 16), (16, 40)]
        _pool.run_blocks(lambda lo, hi: seen.append((lo, hi)), 31, BIG, 8)
        assert seen[-1] == (0, 31)


def in_lockstep(n, steps, fail=None, timeout=10.0):
    """Run a lockstep loop in which each block's step t writes its part of
    row t as the mean of the whole row t - 1 plus its own column index;
    fail(lo, t) may raise. Returns (the rows, the caller's exception or
    None, the blocks seen), after at most `timeout` seconds."""
    rows = np.zeros((steps, n))
    seen, result = [], []

    def loop(lo, hi, wait):
        seen.append((lo, hi))
        for t in range(steps):
            if fail is not None:
                fail(lo, t)
            if t:
                wait()  # every block has written row t - 1
            rows[t, lo:hi] = (rows[t - 1].mean() if t else 0.0) + np.arange(lo, hi)

    def call():
        try:
            _pool.run_lockstep(loop, n, BIG, 8)
            result.append(None)
        except BaseException as exc:
            result.append(exc)

    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout)
    assert not caller.is_alive(), "a block is still waiting at the barrier"
    return rows, result[0], sorted(seen)


def serial_rows(n, steps):
    rows = np.zeros((steps, n))
    for t in range(steps):
        rows[t] = (rows[t - 1].mean() if t else 0.0) + np.arange(n)
    return rows


class TestRunLockstep:
    def test_every_step_reads_what_every_block_wrote_before_it(self, monkeypatch):
        # more blocks than cores and a short switch interval, to interleave
        # the threads as often as they can be
        allow_cpus(monkeypatch, 4)
        blas_threads(monkeypatch, openblas="1")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rows, exc, seen = in_lockstep(64, 200)
        finally:
            sys.setswitchinterval(interval)
        assert exc is None and seen == [(0, 16), (16, 32), (32, 48), (48, 64)]
        assert rows.tobytes() == serial_rows(64, 200).tobytes()

    def test_a_failing_block_leaves_no_block_waiting(self, monkeypatch):
        allow_cpus(monkeypatch, 3)
        blas_threads(monkeypatch, openblas="1")

        def fail(lo, t):
            if lo == 16 and t == 3:  # block 1, mid-loop
                raise errors.NumericError("non-finite activation in lstm layer")

        before = threading.active_count()
        _, exc, seen = in_lockstep(48, 10, fail)
        assert isinstance(exc, errors.NumericError) and len(seen) == 3
        assert threading.active_count() == before

    def test_first_failure_in_block_order_is_raised(self, monkeypatch):
        allow_cpus(monkeypatch, 3)
        blas_threads(monkeypatch, openblas="1")

        # both fail in step 0, before any wait: once a block has failed, a
        # block's next wait raises BrokenBarrierError, even one that the
        # barrier had released but that had not yet woken
        def fail(lo, t):
            if t == 0 and lo == 16:  # block 1
                time.sleep(0.1)  # block 2 fails first in time
                raise errors.NumericError("non-finite activation in lstm layer (block 1)")
            if t == 0 and lo == 32:
                raise errors.NumericError("non-finite activation in lstm layer (block 2)")

        _, exc, _ = in_lockstep(48, 10, fail)
        # block 0 waits at the broken barrier; its BrokenBarrierError is not raised
        assert isinstance(exc, errors.NumericError) and "(block 1)" in str(exc)

    def test_a_failing_thread_start_leaves_no_block_waiting(self, monkeypatch):
        allow_cpus(monkeypatch, 3)
        blas_threads(monkeypatch, openblas="1")
        start = threading.Thread.start
        started = []

        def start_once(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_once)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            _pool.run_lockstep(lambda lo, hi, wait: wait(), 48, BIG, 8)
        assert not started[0].is_alive() and threading.active_count() == before

    def test_no_thread_outlives_the_call(self, monkeypatch):
        allow_cpus(monkeypatch, 4)
        blas_threads(monkeypatch, openblas="1")
        before = threading.active_count()
        _, exc, seen = in_lockstep(64, 5)
        assert exc is None and len(seen) == 4
        assert threading.active_count() == before

    def test_one_block_inside_a_run_tasks_worker(self, monkeypatch):
        allow_cpus(monkeypatch, 2)
        blas_threads(monkeypatch, openblas="1")

        def task(_):
            seen = []
            _pool.run_lockstep(lambda lo, hi, wait: seen.append((lo, hi)) or wait(), 64, BIG, 8)
            return seen

        assert _pool.run_tasks(task, range(2)) == [[(0, 64)], [(0, 64)]]
        assert len(in_lockstep(64, 3)[2]) == 2  # the same call splits in the main process


class TestRunTasks:
    def test_one_cpu_runs_every_task_in_this_process(self, monkeypatch):
        allow_cpus(monkeypatch, 1)
        assert _pool.run_tasks(lambda _: os.getpid(), range(3)) == [os.getpid()] * 3

    def test_workers_never_outnumber_tasks(self, monkeypatch):
        allow_cpus(monkeypatch, 64)
        sizes = []

        class Recording(process.ProcessPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        pids = _pool.run_tasks(lambda _: os.getpid(), range(3))
        assert sizes == [3]
        assert len(pids) == 3
        assert os.getpid() not in pids

    @pytest.mark.parametrize("cpus, tasks, workers",
                             [(64, 3, 3), (2, 10, 2), (1, 10, 1), (8, 1, 1), (8, 0, 1)])
    def test_worker_count(self, monkeypatch, cpus, tasks, workers):
        allow_cpus(monkeypatch, cpus)
        assert _pool.worker_count(tasks) == workers

    def test_results_in_task_order_from_a_closure(self, monkeypatch):
        allow_cpus(monkeypatch, 2)
        table = np.arange(10.0) ** 2  # reaches the workers by fork, not by pickle
        assert _pool.run_tasks(lambda i: float(table[i]), range(10)) == list(table)

    def test_first_failure_in_task_order_is_raised(self, monkeypatch):
        allow_cpus(monkeypatch, 2)

        def task(i):
            if i == 1:
                time.sleep(0.2)  # task 3 fails first in time
            if i in (1, 3):
                raise errors.NumericError(f"training loss became non-finite at epoch {i}")
            return i

        with pytest.raises(errors.NumericError, match="non-finite at epoch 1"):
            _pool.run_tasks(task, range(4))

    def test_no_tasks(self):
        assert _pool.run_tasks(lambda i: i, []) == []


def counting_wrapper(fn, calls):
    """A span-tracer-style wrapper: records each call in this process."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls.append(os.getpid())
        return fn(*args, **kwargs)
    return wrapper


class TestObservedRunsSerially:
    """Forked work is invisible to observers of this process, so the pool
    stands down while there is one."""

    def test_wrapped_walkforge_function(self, monkeypatch):
        allow_cpus(monkeypatch, 2)
        monkeypatch.setattr(nets, "train", counting_wrapper(nets.train, []))
        assert _pool.worker_count(3) == 1
        assert _pool.run_tasks(lambda _: os.getpid(), range(3)) == [os.getpid()] * 3

    def test_wrapper_from_outside_walkforge_is_ignored(self, monkeypatch):
        allow_cpus(monkeypatch, 2)
        monkeypatch.setattr(nets, "np_sort", functools.lru_cache()(np.sort), raising=False)
        assert _pool.worker_count(3) == 2

    def test_profile_hook(self, monkeypatch):
        allow_cpus(monkeypatch, 2)
        sys.setprofile(lambda frame, event, arg: None)
        try:
            count = _pool.worker_count(3)
        finally:
            sys.setprofile(None)
        assert count == 1
        assert _pool.worker_count(3) == 2

    def test_wrapper_sees_every_fit_of_a_run(self, tmp_path, monkeypatch, capsys):
        allow_cpus(monkeypatch, 2)
        calls = []
        monkeypatch.setattr(baselines, "fit_svr", counting_wrapper(baselines.fit_svr, calls))
        assert cli.main(["pipeline", *run_flags(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert calls == [os.getpid()] * 2  # one SVR fit per batch, both seen here


def sample_errors():
    """One instance of every error class, built from its message."""
    return [cls("message") for cls in vars(errors).values()
            if inspect.isclass(cls) and issubclass(cls, errors.WalkforgeError)]


# Faults that once had a class of their own, keyed by that class's name, each
# as its raise site builds it now: the family with the message it formatted.
FORMER_LEAVES = {
    "BadArtifact": errors.DataError("run/net.bin: truncated: no container header"),
    "ColumnMismatch": errors.DataError("shape (4, 3) does not fit 2 columns"),
    "DimensionMismatch": errors.DataError("expected 6 features, got 5"),
    "DivergedLoss": errors.NumericError("training loss became non-finite at epoch 3"),
    "DuplicateDate": errors.DataError("duplicate date 2017-03-01"),
    "EmptyFile": errors.DataError("no data rows in raw.csv"),
    "EmptyGroup": errors.DataError("no batch metrics to aggregate"),
    "EmptyRange": errors.DataError("row range selects no rows"),
    "GapTooLong": errors.DataError(
        "column 'tweets' has a 4-day gap starting 2017-03-01, fill cap is 3"),
    "InvalidConfig": errors.ConfigError("fill cap must be >= 0, got -1"),
    "InvalidSpec": errors.ConfigError("window must be >= 2, got 1"),
    "KTooLarge": errors.ConfigError("cannot take top 9 of 6 ranked features"),
    "LeadingNaN": errors.DataError("column 'volume' starts with a missing value"),
    "LengthMismatch": errors.DataError("length mismatch: 5 vs 4"),
    "MissingColumn": errors.DataError("missing required column 'close'"),
    "NonFiniteActivation": errors.NumericError("non-finite activation in lstm layer"),
    "NonFiniteInput": errors.DataError("inputs contain non-finite values"),
    "OhlcViolation": errors.DataError(
        "price columns violate low <= open,close <= high > 0: row 2"),
    "RangeTooShort": errors.DataError("range of 3 rows is shorter than 8"),
    "SeriesTooShort": errors.DataError(
        "series has 20 rows, feature expansion needs at least 56"),
    "ShapeMismatch": errors.DataError("bad training shapes (4, 7, 3) / (5,)"),
    "StaleCache": errors.DataError("backward needs a cache from a train-mode forward pass"),
    "TooShort": errors.DataError("100 rows cannot hold one train+test batch of 140"),
    "ZeroActual": errors.DataError(
        "actual value at position 2 is zero, relative error undefined"),
    "ZeroDenominator": errors.DataError(
        "rate of change undefined at row 56: base value is zero"),
}


class TestErrorPickling:
    @pytest.mark.parametrize("err", [
        *(pytest.param(e, id=type(e).__name__) for e in sample_errors()),
        *(pytest.param(e, id=name) for name, e in FORMER_LEAVES.items()),
    ])
    def test_round_trip_keeps_type_message_and_fields(self, err):
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert str(back) == str(err)
        assert back.__dict__ == err.__dict__

    def test_every_class_is_sampled(self):
        # one class per exit code, plus their base
        families = {errors.WalkforgeError, errors.ConfigError, errors.DataError,
                    errors.NumericError}
        assert {type(e) for e in sample_errors()} == families

    def test_worker_error_matches_serial_error(self, tmp_path, monkeypatch, capsys):
        def diverge(net, inputs, targets, config):
            # the seed names the fit
            raise errors.NumericError(f"training loss became non-finite at epoch {config.seed}")

        monkeypatch.setattr(nets, "train", diverge)  # the fork carries the patch
        seen = []
        for cpus in (1, 2):
            allow_cpus(monkeypatch, cpus)
            code = cli.main(["pipeline", *run_flags(tmp_path / f"cpus{cpus}")])
            seen.append((code, capsys.readouterr().err))
        assert seen[0] == seen[1]
        assert seen[0][0] == 4
        assert "non-finite at epoch" in seen[0][1]


def forest_bytes(forest):
    return [getattr(tree, f.name).tobytes()
            for tree in forest.trees for f in dataclasses.fields(tree)]


class TestForestWorkers:
    def test_trees_byte_identical_at_any_worker_count(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(120, 6))
        y = x[:, 0] - 2.0 * x[:, 4] + 0.1 * rng.normal(size=120)
        config = ForestConfig(seed=11, n_trees=5, min_samples_leaf=2)
        grown = []
        for cpus in (1, 2, 3):
            allow_cpus(monkeypatch, cpus)
            grown.append(forest_bytes(fit_forest(x, y, config)))
        assert grown[0] == grown[1] == grown[2]


def run_flags(out):
    """A small all-model run: 2 batches, 3 trees, 8 fits."""
    return ["--out", str(out), "--seed", "5", "--synthetic", "200",
            "--windows", "3,7", "--trees", "3", "--k", "4", "--train-len", "100",
            "--test-len", "40", "--stride", "60", "--lookback", "3", "--model", "all",
            "--epochs", "2", "--h1", "2", "--h2", "3", "--svr-max-iter", "500"]


def artifact_bytes(out):
    found = {}
    for root, _, files in os.walk(out):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                found[os.path.relpath(path, out)] = f.read()
    return found


class TestPipelineWorkers:
    def test_artifacts_byte_identical_on_one_and_two_cpus(self, tmp_path, monkeypatch, capsys):
        runs = []
        for cpus in (1, 2):
            allow_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}"
            assert cli.main(["pipeline", *run_flags(out)]) == 0
            runs.append(artifact_bytes(out))
        capsys.readouterr()
        assert runs[0] == runs[1]
        names = set(runs[0])
        assert {"importance.csv", "selection.json", "report.json",
                "predictions.csv"} <= names
        assert sum(n.startswith("models") for n in names) == 8
        assert sum(n.startswith("losses") for n in names) == 4


class TestSplitFits:
    """A one-batch net run has one fit, so the pool has one task; at these
    widths that fit splits its products, time loops and Adam over threads
    (a step's recurrent product, 32 x 512 x 2048, is above 2^24)."""

    @pytest.mark.parametrize("model", ["lstm", "proposed"])
    def test_artifacts_byte_identical_on_one_and_two_cpus(self, tmp_path, monkeypatch,
                                                           capsys, model):
        blas_threads(monkeypatch, openblas="1")
        counts = []
        block_count = _pool._block_count

        def recording(n, work):  # not functools.wraps: no observer
            counts.append(block_count(n, work))
            return counts[-1]

        monkeypatch.setattr(_pool, "_block_count", recording)
        runs = []
        for cpus in (1, 2):
            allow_cpus(monkeypatch, cpus)
            counts.clear()
            out = tmp_path / f"cpus{cpus}"
            assert cli.main(["pipeline", "--out", str(out), "--seed", "5",
                             "--synthetic", "200", "--windows", "3,7", "--trees", "2",
                             "--k", "4", "--train-len", "60", "--test-len", "20",
                             "--stride", "200", "--lookback", "7", "--model", model,
                             "--epochs", "1", "--h1", "512", "--h2", "512"]) == 0
            runs.append({name: (out / name).read_bytes() for name in
                         (f"models/{model}_b0.bin", "metrics.json", "report.json")})
            assert max(counts) == cpus
        capsys.readouterr()
        assert runs[0] == runs[1]


class TestEvaluateWorkers:
    """evaluate's (batch, model) predictions run on the pool."""

    def test_scores_byte_identical_and_predicted_in_workers(self, tmp_path, monkeypatch,
                                                             capsys):
        out = tmp_path / "out"
        allow_cpus(monkeypatch, 1)
        assert cli.main(["pipeline", *run_flags(out)]) == 0
        pids_file = tmp_path / "pids"
        predict = pipeline._predict

        def recording(model_name, path, sample_sets):  # not functools.wraps: no observer
            with open(pids_file, "a") as f:
                f.write(f"{os.getpid()}\n")
            return predict(model_name, path, sample_sets)

        monkeypatch.setattr(pipeline, "_predict", recording)
        scores, pids = [], []
        for cpus in (1, 2):
            allow_cpus(monkeypatch, cpus)
            pids_file.write_text("")
            assert cli.main(["evaluate", *run_flags(out)]) == 0
            scores.append({name: (out / name).read_bytes()
                           for name in ("metrics.json", "predictions.csv")})
            pids.append(set(pids_file.read_text().split()))
        capsys.readouterr()
        assert scores[0] == scores[1]
        assert pids[0] == {str(os.getpid())}
        assert pids[1] and str(os.getpid()) not in pids[1]

    def test_missing_checkpoint_fails_alike_on_one_and_two_cpus(self, tmp_path,
                                                                 monkeypatch, capsys):
        out = tmp_path / "out"
        allow_cpus(monkeypatch, 1)
        assert cli.main(["pipeline", *run_flags(out)]) == 0
        (out / "models" / "svr_b1.bin").unlink()
        (out / "models" / "lstm_b1.bin").unlink()
        capsys.readouterr()
        seen = []
        for cpus in (1, 2):
            allow_cpus(monkeypatch, cpus)
            code = cli.main(["evaluate", *run_flags(out)])
            seen.append((code, capsys.readouterr().err))
        assert seen[0] == seen[1]
        assert seen[0][0] == 3
        assert "svr_b1.bin" in seen[0][1]  # the first missing one in task order
