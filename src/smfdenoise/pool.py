"""One fork process pool per process, on which independent Gibbs chains run.

Which ``run_jobs`` calls may build the pool, and why, is the build rule in
README's "Chain pool" section.  The pool has min(chains, CPUs) workers, is
replaced only by a larger one, and is kept warm in between, so a process
that scores corpus after corpus forks once.  Each worker runs on one BLAS
thread for its whole life, so that two processes never spin two OpenBLAS
threads each on two cores, and exits when its parent dies; the pool is shut
down at interpreter exit, before the modules are torn down.
"""

from __future__ import annotations

import atexit
import os
from dataclasses import replace

from . import sampler
from .lattice import Raster
from .model import HyperParams

__all__ = ["run_jobs", "run_chains"]

# This process's chain pool, as (executor, workers); see _chain_pool.
_pool = None


def _forget_pool():
    global _pool
    _pool = None


# a forked child builds its own pool rather than use its copy of the parent's
os.register_at_fork(after_in_child=_forget_pool)


def _chain_pool(jobs: int, build: bool):
    """This process's fork pool for ``jobs`` jobs, or None to run them here:
    where ``fork`` is not offered, or fewer than two of them could run at
    once.  With ``build``, a pool of min(jobs, CPUs) workers is built when
    none exists or when the current one has fewer workers; without, only a
    pool that already exists is used."""
    global _pool
    if _pool is None and not build:
        return None
    # imported here, so that neither CLI start-up nor a run with no pool
    # pays for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(jobs, cpus)
    if workers < 2:
        return None
    if build and (_pool is None or _pool[1] < workers):
        _close_pool()
        # A killed worker raises BrokenProcessPool in the caller, where a
        # multiprocessing.Pool would wait for its result forever.
        _pool = (ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                     initializer=_init_worker, initargs=(os.getpid(),)),
                 workers)
    return _pool and _pool[0]


def _close_pool():
    """Shut this process's chain pool down, if there is one, and wait for
    its workers to exit; the next pooled call builds a new pool."""
    pool = _pool
    _forget_pool()
    if pool is not None:
        pool[0].shutdown(wait=True, cancel_futures=True)


# At exit, after concurrent.futures has joined the workers: an executor left
# for the module teardown to collect runs a callback there that finds
# concurrent.futures' globals gone and prints "Exception ignored".
atexit.register(_close_pool)


def _init_worker(parent: int):
    """Pool initializer: the worker runs every chain on one BLAS thread, and
    exits when ``parent`` does.  A forked worker's counts are its own, so the
    parent's are left as they were.  An idle worker waits on a queue whose
    write end every worker inherited too, so it would never see the parent
    go; a daemon thread polls for the reparenting instead."""
    import threading
    import time

    for setter in sampler._blas_setters:
        setter(1)

    def exit_with_parent():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()


def _run_chain(y: Raster, hp: HyperParams, variant: str) -> sampler.DenoiseResult:
    # pickled by reference; a forked worker calls whatever ``denoise`` the
    # parent had bound
    return sampler.denoise(y, hp, variant)


def run_jobs(jobs: list[tuple[Raster, HyperParams, str]]):
    """An iterator over the ``DenoiseResult`` of each chain of ``jobs``, given
    as (raster, hyperparameters, variant), in order.

    Two chains or more run on the pool, all submitted before this returns,
    so that the workers run while the caller does other work; whether the
    call may build or grow the pool follows from its variants, by the build
    rule (see the module docstring).  A chain that gets no pool runs here
    when its result is asked for.  A chain's exception reaches the caller as
    itself, at that chain's turn.  A pool found broken by any submit (a
    worker died, while the pool idled or since) is closed, and the chains
    are retried once, on a fresh pool or here.
    """
    build = any(variant == sampler.HIGMRF for _, _, variant in jobs)
    for retry in (True, False):
        pool = _chain_pool(len(jobs), build) if len(jobs) > 1 else None
        if pool is None:
            return (_run_chain(*job) for job in jobs)
        from concurrent.futures.process import BrokenProcessPool
        results = _pooled(pool, jobs)
        try:
            next(results)  # submits every chain
        except BrokenProcessPool:
            if not retry:
                raise
            continue
        return results


def _pooled(pool, jobs: list[tuple]):
    """Submit the chains of ``jobs`` to ``pool`` and yield once, then yield
    their results in order.  However the iteration ends (a chain's
    exception, or the caller closing the generator), the chains not yet
    started are cancelled and the running ones waited for, so the pool is
    idle afterwards.  A worker that dies breaks the pool, whether or not the
    caller was still asking: the pool is then closed, and the next call
    builds a new one."""
    from concurrent.futures import wait
    from concurrent.futures.process import BrokenProcessPool

    futures = []
    try:
        # a submit that raises leaves the futures before it in the list
        futures.extend(pool.submit(_run_chain, *job) for job in jobs)
        yield
        for future in futures:
            yield future.result()
    except BrokenProcessPool:  # from a submit or from a result
        _close_pool()
        raise
    finally:
        for future in futures:
            future.cancel()
        wait(futures)
        if any(not future.cancelled() and isinstance(future.exception(), BrokenProcessPool)
               for future in futures):
            _close_pool()


def run_chains(y: Raster, hp: HyperParams, variant: str, chains: int,
               ) -> list[sampler.DenoiseResult]:
    """Run ``chains`` independent chains on ``y``, chain c seeded with
    ``hp.seed + c``, through ``run_jobs``, and return their results in chain
    order."""
    return list(run_jobs([(y, replace(hp, seed=hp.seed + c), variant)
                          for c in range(chains)]))
