"""Two pieces of work at once, one in a forked child: the delivery fold's and the writer's.

The functions are private helpers of `ingestion` and `reporting`, whose
time belongs to the caller's stage.
"""

import marshal
import os


def _can_fork() -> bool:
    """Whether a forked child can run alongside: `os.fork` exists and two CPUs are usable."""
    if not hasattr(os, "fork"):
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) >= 2


def _pickled(exc) -> bytes:
    import pickle

    try:
        data = pickle.dumps(exc)
        pickle.loads(data)  # fails where `__init__` does not take the exception's own args
        return data
    except Exception:
        return pickle.dumps((type(exc), str(exc)))


def _unpickled(data) -> BaseException:
    import pickle

    exc = pickle.loads(data)
    if isinstance(exc, tuple):  # a type and its message: build the exception without its __init__
        cls, message = exc
        exc = cls.__new__(cls)
        exc.args = (message,)
    return exc


def _in_two(child, parent):
    """Return `(child(), parent())`, running `child()` in a forked child meanwhile.

    The outcome is that of `child()` then `parent()` in one process: an
    exception `child()` raises is raised here, with its type and message,
    in place of any from `parent()`. `child()` returns what `marshal` can
    write; it comes back through a pipe, and the child ends with
    `os._exit`: it never returns, flushes no stdio and runs no cleanup.
    The child is always reaped; one that dies without its report raises
    `ChildProcessError`. If no process can be forked, both run here.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return child(), parent()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            try:
                report = b"r" + marshal.dumps(child())
            except Exception as exc:
                report = b"e" + _pickled(exc)
            while report:
                report = report[os.write(write_end, report):]
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        try:
            own, failure = parent(), None
        except Exception as exc:
            own, failure = None, exc
        report = b"".join(iter(lambda: os.read(read_end, 1 << 16), b""))
    finally:
        os.close(read_end)
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        raise ChildProcessError(f"the forked child process exited with status {code}")
    if report[:1] == b"e":
        raise _unpickled(report[1:])
    if failure:
        raise failure
    return marshal.loads(report[1:]), own
