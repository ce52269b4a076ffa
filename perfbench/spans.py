"""Spans measured from outside the program.

A span wraps one call into a layer's public function. It records wall
time, driver CPU (``time.process_time`` of this Python process), JVM
CPU (utime + stime of the Spark gateway JVM from ``/proc``) and the
Spark jobs, tasks and failed tasks the call ran. Jobs are attributed
through a job group that is unique per span: a reused group id would
accumulate the jobs of every span that used it.
"""
from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

_TICK = os.sysconf("SC_CLK_TCK")


def jvm_cpu_s(pid: int | None) -> float:
    """User + system CPU seconds of process ``pid`` (0 when unknown)."""
    if pid is None:
        return 0.0
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


@dataclass
class Span:
    layer: str
    wall_s: float = 0.0
    driver_cpu_s: float = 0.0
    jvm_cpu_s: float = 0.0
    jobs: int = 0
    tasks: int = 0
    failed_tasks: int = 0


class Tracer:
    """Opens spans on one SparkContext; each span gets its own job group."""

    def __init__(self, sc, jvm_pid: int | None):
        self.sc = sc
        self.jvm_pid = jvm_pid
        self._ids = itertools.count()

    @contextmanager
    def span(self, layer: str):
        s = Span(layer)
        group = f"perfbench-{os.getpid()}-{next(self._ids)}-{layer}"
        self.sc.setJobGroup(group, layer)
        jvm0, cpu0, t0 = jvm_cpu_s(self.jvm_pid), time.process_time(), time.perf_counter()
        try:
            yield s
        finally:
            s.wall_s = time.perf_counter() - t0
            s.driver_cpu_s = time.process_time() - cpu0
            s.jvm_cpu_s = jvm_cpu_s(self.jvm_pid) - jvm0
            self.sc.setLocalProperty("spark.jobGroup.id", None)
            s.jobs, s.tasks, s.failed_tasks = self._spark_counts(group)

    def _spark_counts(self, group: str) -> tuple[int, int, int]:
        # job and stage updates reach the status store through the listener bus
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        st = self.sc.statusTracker()
        jobs = st.getJobIdsForGroup(group)
        tasks = failed = 0
        for jid in jobs:
            info = st.getJobInfo(jid)
            for sid in info.stageIds if info else ():
                stage = st.getStageInfo(sid)
                if stage is not None:
                    tasks += stage.numCompletedTasks
                    failed += stage.numFailedTasks
        return len(jobs), tasks, failed
