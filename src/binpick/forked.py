"""One call's work split over forked worker processes.

build_codebook renders its views, and icp_refine_many refines its
estimates, with map_forked: one child per worker, each on a fixed run of
the work, joined in worker order by the parent.
"""

from __future__ import annotations

import os

__all__ = ["map_forked"]


def map_forked(fn, workers: int, what: str, sends: str) -> list:
    """[fn(w) for w in range(workers)]; an exception from fn is raised as the
    lowest failing w would raise it in that loop.

    With one worker, fn(0) runs in this process. Otherwise fn(w) runs in a
    child forked from this process, which sends back through its own pipe,
    pickled, its result or its exception, and exits; the parent reads the
    pipes in worker order and raises the first exception it meets. A worker
    that exits without sending is a ValueError naming it: "{what} worker
    <pid> exited ... without sending its {sends}". Whatever ends this call,
    no worker outlives it: a worker whose parent is gone ends when its fn(w)
    returns, as its write to the pipe fails.

    Why a bare fork and not a process pool: fn may be a closure (nothing is
    pickled but results), nothing is imported at start-up, and a fixed
    partition leaves no pool worker waiting for tasks from a parent that was
    killed. The stages that call this start no threads of their own.
    """
    if workers == 1:
        return [fn(0)]
    import pickle  # deferred, with signal: only a forked call needs them
    import signal

    pids, fds = [], {}  # every worker not yet reaped; the read end of each pipe not yet read
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    for fd in (read_fd, *fds.values()):
                        os.close(fd)
                    try:
                        sent = (fn(w), None)
                    except Exception as err:  # sent to the parent, which raises it
                        sent = (None, err)
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(sent, pipe, protocol=pickle.HIGHEST_PROTOCOL)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            pids.append(pid)
            fds[pid] = read_fd
        out = []
        for pid in list(pids):
            with open(fds.pop(pid), "rb") as pipe:
                try:
                    result, error = pickle.load(pipe)  # streamed: the pickle is never held whole
                    cut = None
                except (EOFError, pickle.UnpicklingError) as err:  # part of a pickle, from a worker cut short
                    cut = err
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pids.remove(pid)
            if code != 0:
                how = f"on signal {-code}" if code < 0 else f"with status {code}"
                raise ValueError(f"{what} worker {pid} exited {how} without sending its {sends}")
            if cut is not None:
                raise cut
            if error is not None:
                raise error
            out.append(result)
        return out
    finally:
        for fd in fds.values():
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # a zombie takes the signal too; waitpid reaps it
            os.waitpid(pid, 0)
