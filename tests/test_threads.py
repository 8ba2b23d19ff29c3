"""statelab's only threads are those of its one job executor, which run
born-diffusion's walker ensembles, solid-com's walker blocks and, under
``all``, the solid-com section; they live as long as the process.  A dense
call large enough for the BLAS library to thread wakes its worker threads,
which then spin for tens of milliseconds on cores the walker jobs need;
this test measures that CPU on every thread but the caller and the
executor's, which are told apart by their thread name prefix.  Those threads
spend the sections' own time, so only a thread that statelab did not start,
such as a BLAS worker, is counted."""

import os
import threading
import time
from pathlib import Path

import pytest

from statelab import diffusion
from statelab.cli import (
    load_config, run_born_diffusion, run_dynamics, run_geometry, run_reconstruct,
)

TASKS = Path("/proc/self/task")
SECTIONS = (run_geometry, run_dynamics, run_reconstruct, run_born_diffusion)
QUIET = 0.25         # s: long enough for a woken BLAS worker to stop spinning
BOUND = 0.02         # s of CPU on other threads per section


def _other_threads_cpu() -> float:
    """utime + stime, in seconds, summed over every thread of this process
    except the calling one and the job executor's."""
    skip = {threading.get_native_id()} | {
        t.native_id for t in threading.enumerate()
        if t.name.startswith(diffusion._THREAD_NAME_PREFIX)}
    ticks = 0
    for task in TASKS.iterdir():
        if int(task.name) in skip:
            continue
        try:
            stat = (task / "stat").read_text()
        except FileNotFoundError:   # the thread exited
            continue
        # the fields after the parenthesized command name; utime and stime
        # are fields 14 and 15 of the whole line
        fields = stat[stat.rindex(")") + 2:].split()
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


@pytest.mark.skipif(not TASKS.is_dir(), reason="needs per-thread CPU times from /proc")
def test_sections_leave_no_thread_spinning():
    cfg = load_config(None, {"walkers": 2000})
    # the first call of a section pays one-off costs on other threads
    # (completeness_rank's first BLAS call starts the library's workers)
    for section in SECTIONS:
        section(cfg)
    time.sleep(QUIET)
    spent = {}
    for section in SECTIONS:
        before = _other_threads_cpu()
        section(cfg)
        time.sleep(QUIET)
        spent[section.__name__] = _other_threads_cpu() - before
    assert all(cpu < BOUND for cpu in spent.values()), spent
