"""Process-level plumbing: the Ray session, the work directory, peak
RSS, and the guarantee that nothing started here outlives the run."""

from __future__ import annotations

import contextlib
import logging
import os
import resource
import shutil
import signal
import sys
import time

# Ray session size: constant, so runs on hosts of different shapes
# measure the same thing, but never more CPUs than this process may use.
RAY_CPUS = 4
MIN_CPUS = 2
OBJECT_STORE_BYTES = 1_000_000_000
# Keep idle Ray workers alive for the whole run.  Each build_kg starts a
# LinkerStage actor pool whose worker processes exit with it; under
# Ray's defaults (idle workers above one per CPU killed after 1 s) the
# next build re-spawns its workers on its critical path.  Measured on
# 4 CPUs at 20k turns, median build per run: 4.9-6.3 s under the
# defaults, 3.1-3.2 s with idle workers kept.
WORKER_POOL = {"num_workers_soft_limit": 3 * RAY_CPUS,
               "idle_worker_killing_time_threshold_ms": 600_000}
# AF_UNIX socket paths are limited to 107 bytes; Ray's socket names add
# about this much under its temp dir.
_RAY_SOCKET_SUFFIX = 72


class HarnessError(RuntimeError):
    """The benchmark cannot run here (missing engine, too few CPUs)."""


def process_age_s() -> float:
    """Seconds since this process started (cold set-up is timed from
    here, interpreter start-up included)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return (time.clock_gettime(time.CLOCK_BOOTTIME)
            - start_ticks / os.sysconf("SC_CLK_TCK"))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def session_cpus() -> int:
    avail = len(os.sched_getaffinity(0))
    n = min(RAY_CPUS, avail)
    if n < MIN_CPUS:
        raise HarnessError(f"needs at least {MIN_CPUS} usable CPUs, "
                           f"this process may use {avail}")
    return n


def import_engine(root: str):
    """Make ``tera_ray`` importable here and in every Ray worker,
    whatever the working directory of the workers is."""
    if not os.path.isdir(os.path.join(root, "tera_ray")):
        raise HarnessError(f"no tera_ray package under {root}")
    sys.path.insert(0, root)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p])
    import tera_ray  # noqa: F401


def _ray_temp_dir(work: str) -> str:
    d = os.path.join(work, "ray")
    if len(d) + _RAY_SOCKET_SUFFIX > 107:
        # a deep checkout path would overflow Ray's socket paths: fall
        # back to a short private temp directory, removed with the
        # session
        import tempfile

        d = tempfile.mkdtemp(prefix="kgb")
    os.makedirs(d, exist_ok=True)
    return d


def _descendants() -> set[int]:
    """Every live process below this one in the process tree."""
    kids: dict[int, list[int]] = {}
    for p in os.listdir("/proc"):
        if not p.isdigit():
            continue
        try:
            with open(f"/proc/{p}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        kids.setdefault(ppid, []).append(int(p))
    out, todo = set(), [os.getpid()]
    while todo:
        for c in kids.get(todo.pop(), ()):
            if c not in out:
                out.add(c)
                todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _reap(pids: set[int], grace: float = 20.0) -> None:
    """Wait until every process in ``pids`` has ended: TERM after the
    shutdown had its chance, KILL after ``grace`` seconds."""
    deadline = time.monotonic() + grace
    sig = None
    while True:
        with contextlib.suppress(ChildProcessError):
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        left = [p for p in pids if _alive(p)]
        if not left:
            return
        if time.monotonic() > deadline + 10:
            raise HarnessError(f"processes still alive: {left}")
        if sig is not None:
            for pid in left:
                with contextlib.suppress(OSError):
                    os.kill(pid, sig)
        time.sleep(0.2)
        if time.monotonic() > deadline:
            sig = signal.SIGKILL
        elif sig is None and time.monotonic() > deadline - grace / 2:
            sig = signal.SIGTERM


# Ray Data actors killed by wait_idle because they still held CPUs
# after their execution had finished (reported on the detail line)
leftover_actors_killed = 0


def _cpus_free(timeout: float) -> bool:
    import ray

    total = ray.cluster_resources().get("CPU", 0)
    deadline = time.monotonic() + timeout
    while ray.available_resources().get("CPU", 0) < total:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def wait_idle(timeout: float = 10.0) -> None:
    """Block until every CPU of the session is free again.  The actor
    pool of a finished Ray Data execution keeps its CPUs until the
    actors' last references go (about 10 s later without a garbage
    collection).  Starting the next operation while they are held can
    leave a read task unschedulable behind a fresh actor pool, and the
    operation then hangs for good.  Actors still alive after
    ``timeout`` belong to a finished execution (operations run one at
    a time), so they are killed."""
    import gc

    import ray
    from ray._private import state

    global leftover_actors_killed
    gc.collect()
    if _cpus_free(timeout):
        return
    worker = ray._private.worker.global_worker.core_worker
    for a in state.actors(actor_state_name="ALIVE").values():
        if a["ActorClassName"].startswith("MapWorker"):
            worker.kill_actor(ray.ActorID.from_hex(a["ActorID"]), True)
            leftover_actors_killed += 1
    if not _cpus_free(timeout):
        raise HarnessError("session CPUs still held between operations")


@contextlib.contextmanager
def ray_session(work: str):
    """A local Ray session of :func:`session_cpus` CPUs, shut down and
    reaped on the way out, also on error."""
    import ray

    ncpu = session_cpus()
    temp = _ray_temp_dir(work)
    for name in ("ray", "ray.data"):
        logging.getLogger(name).setLevel(logging.ERROR)
    print(f"kgbench: ray session of {ncpu} CPUs", file=sys.stderr, flush=True)
    try:
        ray.init(num_cpus=ncpu, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES, _temp_dir=temp,
                 configure_logging=True, _system_config=WORKER_POOL)
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        yield ncpu
    finally:
        started = _descendants()
        with contextlib.suppress(Exception):
            ray.shutdown()
        _reap(started | _descendants())
        shutil.rmtree(temp, ignore_errors=True)
