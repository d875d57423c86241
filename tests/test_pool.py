"""Tests for the chain pool: where chains run, the pool's size and
lifetime, and how a chain's failure or a worker's death reaches the caller."""

import concurrent.futures
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import restore_blas_threads, set_blas_threads, spot_input

from smfdenoise import pool, sampler
from smfdenoise.model import HyperParams, SamplerNumericalError
from smfdenoise.pool import run_chains, run_jobs
from smfdenoise.sampler import HIGMRF, IGMRF, denoise


needs_proc = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="reads process states in /proc")


def kill_idle_worker_and_wait():
    """SIGKILL one idle worker of this process's pool and wait until the
    pool has seen it: a pool that loses a worker terminates and joins the
    others, so every worker is gone then."""
    workers = [p.pid for p in multiprocessing.active_children()]
    os.kill(workers[0], signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while any(Path(f"/proc/{pid}").exists() for pid in workers):
        assert time.monotonic() < deadline
        time.sleep(0.01)


class TestRunChains:
    """``run_chains`` runs two chains or more on the process's warm fork
    pool, each worker on one BLAS thread; ``higmrf`` chains build the pool,
    ``igmrf`` chains only use it.  One chain, chains on one CPU, and every
    chain where ``fork`` is not offered, run in this process."""

    @pytest.fixture
    def probe(self, monkeypatch):
        """Stand in for ``denoise``: each chain reports its seed, its process
        and the BLAS thread counts it runs on, one per OpenBLAS."""
        def denoise(y, hp, variant):
            threads = set_blas_threads(1)  # returns the counts in force
            restore_blas_threads(threads)
            return hp.seed, os.getpid(), threads
        monkeypatch.setattr(sampler, "denoise", denoise)

    @pytest.fixture
    def fake_pool(self, monkeypatch):
        """Record each pool's size, start method, initializer and its
        arguments, and run its chains in this process, so that no worker
        starts."""
        pools = []

        class Executor:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                pools.append((max_workers, mp_context.get_start_method(), initializer, initargs))

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait, cancel_futures):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
        return pools

    def test_chains_match_denoise_seed_by_seed(self):
        y = spot_input()
        hp = HyperParams(n_iter=10, burn_in=5, seed=4)
        for variant in (IGMRF, HIGMRF):
            got = run_chains(y, hp, variant, 3)
            for c, res in enumerate(got):
                want = denoise(y, HyperParams(n_iter=10, burn_in=5, seed=4 + c), variant)
                np.testing.assert_array_equal(res.posterior_mean.data, want.posterior_mean.data)
                np.testing.assert_array_equal(res.final_mask.data, want.final_mask.data)
                np.testing.assert_array_equal(res.theta_trace, want.theta_trace)
                np.testing.assert_array_equal(res.gamma_trace, want.gamma_trace)
                # pickled back from a worker, yet read-only as a serial result is
                assert not res.posterior_mean.data.flags.writeable
                assert not res.final_mask.data.flags.writeable

    def check_workers_on_one_blas_thread(self, variant):
        callers = set_blas_threads(2)
        try:
            got = run_chains(None, HyperParams(seed=7), variant, 3)
            assert [seed for seed, _, _ in got] == [7, 8, 9]
            assert os.getpid() not in {pid for _, pid, _ in got}
            ones = [1] * len(sampler._blas_setters)
            assert [threads for _, _, threads in got] == [ones] * 3
            # the parent's counts are as they were
            assert set_blas_threads(2) == [2] * len(ones)
        finally:
            restore_blas_threads(callers)

    def test_higmrf_chains_run_in_workers_on_one_blas_thread(self, probe):
        self.check_workers_on_one_blas_thread(HIGMRF)

    def test_igmrf_chains_run_in_warm_workers_on_one_blas_thread(self, probe):
        run_chains(None, HyperParams(), HIGMRF, 3)
        self.check_workers_on_one_blas_thread(IGMRF)

    def test_igmrf_chains_run_in_this_process(self, probe, fake_pool):
        # without a warm pool: igmrf chains build none
        got = run_chains(None, HyperParams(seed=3), IGMRF, 4)
        assert [(seed, pid) for seed, pid, _ in got] == [(3 + c, os.getpid()) for c in range(4)]
        # nor does a job list of igmrf chains, whatever their seeds
        got = run_jobs([(None, HyperParams(seed=seed), IGMRF) for seed in (9, 2)])
        assert [(seed, pid) for seed, pid, _ in got] == [(9, os.getpid()), (2, os.getpid())]
        assert fake_pool == []

    def test_later_calls_reuse_the_workers(self, probe):
        workers = None
        for seed, variant in ((0, HIGMRF), (10, IGMRF), (20, HIGMRF)):
            pids = {pid for _, pid, _ in run_chains(None, HyperParams(seed=seed), variant, 4)}
            workers = workers or {p.pid for p in multiprocessing.active_children()}
            assert pids <= workers and os.getpid() not in pids
        assert {p.pid for p in multiprocessing.active_children()} == workers

    def test_forked_child_builds_its_own_pool(self, probe):
        run_chains(None, HyperParams(), HIGMRF, 2)
        pid = os.fork()
        if pid == 0:  # the child: its copy of the parent's pool has no threads
            code = 1
            try:
                signal.alarm(30)  # a chain on the copy would never return
                got = run_chains(None, HyperParams(seed=3), HIGMRF, 2)
                code = 0 if [seed for seed, _, _ in got] == [3, 4] else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_one_chain_runs_in_this_process(self, probe, fake_pool):
        got = run_chains(None, HyperParams(seed=3), HIGMRF, 1)
        assert [(seed, pid) for seed, pid, _ in got] == [(3, os.getpid())]
        assert fake_pool == []

    def test_chains_run_in_this_process_on_one_cpu(self, probe, fake_pool, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        got = run_chains(None, HyperParams(seed=3), HIGMRF, 2)
        assert [(seed, pid) for seed, pid, _ in got] == [(3, os.getpid()), (4, os.getpid())]
        assert fake_pool == []

    def test_chains_run_in_this_process_without_fork(self, probe, fake_pool, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn", "forkserver"])
        got = run_chains(None, HyperParams(seed=3), HIGMRF, 2)
        assert [(seed, pid) for seed, pid, _ in got] == [(3, os.getpid()), (4, os.getpid())]
        assert fake_pool == []

    @pytest.mark.parametrize("chains, cpus", [(3, 8), (5, 2), (4, 4)])
    def test_pool_size_is_chains_or_cpus_whichever_is_fewer(self, probe, fake_pool,
                                                             monkeypatch, chains, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        got = run_chains(None, HyperParams(seed=0), HIGMRF, chains)
        assert [seed for seed, _, _ in got] == list(range(chains))
        assert fake_pool == [(min(chains, cpus), "fork", pool._init_worker, (os.getpid(),))]
        # one higmrf chain among igmrf ones builds the same pool
        pool._close_pool()
        got = run_jobs([(None, HyperParams(seed=c), HIGMRF if c == 1 else IGMRF)
                        for c in range(chains)])
        assert [seed for seed, _, _ in got] == list(range(chains))
        assert fake_pool == [(min(chains, cpus), "fork", pool._init_worker, (os.getpid(),))] * 2

    def test_pool_is_replaced_only_to_grow(self, probe, fake_pool, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        # igmrf chains never grow it either
        for variant, chains in ((HIGMRF, 2), (HIGMRF, 4), (IGMRF, 6), (HIGMRF, 3),
                                (HIGMRF, 2), (HIGMRF, 6)):
            run_chains(None, HyperParams(), variant, chains)
        assert [size for size, _, _, _ in fake_pool] == [2, 4, 6]

    def test_killed_worker_breaks_the_pool_rather_than_hanging(self, monkeypatch):
        parent = os.getpid()
        def denoise(y, hp, variant):
            if hp.seed == 1 and os.getpid() != parent:
                time.sleep(0.3)  # chain 0's result is in first
                os.kill(os.getpid(), signal.SIGKILL)
            return hp.seed
        monkeypatch.setattr(sampler, "denoise", denoise)
        with pytest.raises(BrokenProcessPool):
            run_chains(None, HyperParams(), HIGMRF, 2)
        # the broken pool is closed, and the next call builds a fresh one
        assert run_chains(None, HyperParams(seed=5), HIGMRF, 2) == [5, 6]
        # so too when the caller stops asking before the dead worker's turn
        results = run_jobs([(None, HyperParams(seed=seed), HIGMRF) for seed in (0, 1)])
        assert next(results) == 0
        results.close()
        assert run_chains(None, HyperParams(seed=5), HIGMRF, 2) == [5, 6]

    @needs_proc
    def test_pool_broken_while_idle_is_replaced_before_the_next_call(self):
        y = spot_input()
        hp = HyperParams(n_iter=10, burn_in=5, seed=2)
        run_chains(y, hp, HIGMRF, 2)
        kill_idle_worker_and_wait()
        got = run_chains(y, hp, HIGMRF, 2)
        for c, res in enumerate(got):
            want = denoise(y, replace(hp, seed=hp.seed + c), HIGMRF)
            np.testing.assert_array_equal(res.posterior_mean.data, want.posterior_mean.data)
            np.testing.assert_array_equal(res.theta_trace, want.theta_trace)
        # a fresh pool ran them
        assert len(multiprocessing.active_children()) == 2

    def test_pool_broken_at_a_later_submit_is_retried(self, probe, monkeypatch):
        # a worker that dies while a call submits breaks the pool as one
        # that died idle does: the call retries all its chains on a fresh pool
        pools = []

        class Executor:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                self.submits = 0
                pools.append(self)

            def submit(self, fn, *args):
                self.submits += 1
                if len(pools) == 1 and self.submits == 2:
                    raise BrokenProcessPool("a worker died")
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait, cancel_futures):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Executor)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        got = run_chains(None, HyperParams(seed=3), HIGMRF, 3)
        assert [seed for seed, _, _ in got] == [3, 4, 5]
        assert [p.submits for p in pools] == [2, 3]

    @needs_proc
    def test_igmrf_jobs_on_a_pool_broken_while_idle_run_here(self, probe):
        run_chains(None, HyperParams(), HIGMRF, 2)
        kill_idle_worker_and_wait()
        got = run_chains(None, HyperParams(seed=3), IGMRF, 2)
        assert [(seed, pid) for seed, pid, _ in got] == [(3, os.getpid()), (4, os.getpid())]

    def test_worker_error_reaches_the_caller_as_itself(self, monkeypatch):
        def denoise(y, hp, variant):
            if hp.seed == 1:
                raise SamplerNumericalError(f"chain {hp.seed} failed in {os.getpid()}")
            return hp.seed
        monkeypatch.setattr(sampler, "denoise", denoise)
        with pytest.raises(SamplerNumericalError, match=r"^chain 1 failed in \d+$") as err:
            run_chains(None, HyperParams(), HIGMRF, 2)
        assert int(str(err.value).rsplit(" ", 1)[1]) != os.getpid()


def running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@needs_proc
class TestPoolLifetime:
    """The pool's workers leave with the process that owns them, whether it
    exits or is killed."""

    # Runs two chains on a pool, prints the workers' pids, then exits,
    # waits to be killed, or kills one idle worker and runs two more chains.
    # Each chain sleeps, so that both workers take one.
    SCRIPT = """
import multiprocessing, os, signal, sys, time
from smfdenoise import pool, sampler
from smfdenoise.model import HyperParams
sampler.denoise = lambda y, hp, variant: time.sleep(0.2) or hp.seed
pool.run_chains(None, HyperParams(), "higmrf", 2)
workers = sorted(p.pid for p in multiprocessing.active_children())
print(*workers, flush=True)
if sys.argv[1] == "wait":
    time.sleep(60)
elif sys.argv[1] == "kill-idle":
    os.kill(workers[0], signal.SIGKILL)
    while any(os.path.exists(f"/proc/{pid}") for pid in workers):
        time.sleep(0.01)
    print(*pool.run_chains(None, HyperParams(seed=5), "higmrf", 2))
"""

    def start(self, mode):
        src = str(Path(sampler.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen([sys.executable, "-c", self.SCRIPT, mode], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        workers = [int(pid) for pid in proc.stdout.readline().split()]
        assert len(workers) == 2
        return proc, workers

    def test_normal_exit_joins_the_workers(self):
        proc, workers = self.start("exit")
        proc.communicate(timeout=30)
        assert proc.returncode == 0
        assert not any(running(pid) for pid in workers)

    def test_pool_broken_while_idle_leaves_a_clean_exit(self):
        # the second call retries on a fresh pool, and at interpreter exit
        # the broken pool's manager-thread callback prints nothing
        proc, workers = self.start("kill-idle")
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert out.split() == ["5", "6"]
        assert err == ""

    def test_idle_workers_exit_when_the_parent_is_killed(self):
        proc, workers = self.start("wait")
        proc.kill()
        proc.communicate(timeout=30)
        deadline = time.monotonic() + 5.0
        while any(running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(running(pid) for pid in workers)
