"""Host probes and process bookkeeping: the serial CPU-burn probe, the
effective core count, summed RSS of the driver's process tree, and the
wait that makes sure every process a run started has ended."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")


def burn(n: int = 3_000_000) -> float:
    """Seconds for a fixed serial Python loop (the machine-state probe: it
    slows when the hypervisor steals cycles)."""
    t0 = time.perf_counter()
    x = 0
    for i in range(n):
        x += i * i
    return time.perf_counter() - t0


# the same loop as ``burn``, inside a function so it runs on fast locals
_BURN_CHILD = (
    "import sys, time\n"
    "def burn(n):\n"
    "    t = time.perf_counter()\n"
    "    x = 0\n"
    "    for i in range(n):\n"
    "        x += i * i\n"
    "    return time.perf_counter() - t\n"
    "print('ready', flush=True)\n"
    "sys.stdin.read(1)\n"
    "print(burn({n}))\n"
)


def effective_cores(k: int, n: int = 3_000_000) -> tuple[float, float]:
    """→ (serial burn seconds, effective cores): ``k`` child processes run
    the burn at once; a child as fast as the serial burn counts one core, a
    slower one counts serial/own."""
    serial = burn(n)
    procs = [
        subprocess.Popen([sys.executable, "-c", _BURN_CHILD.format(n=n)],
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for _ in range(k)
    ]
    for p in procs:
        p.stdout.readline()
    for p in procs:  # all started: release them together
        p.stdin.write("g")
        p.stdin.close()
    times = [float(p.stdout.read()) for p in procs]
    for p in procs:
        p.stdout.close()
        p.wait(timeout=60)
    return serial, sum(min(1.0, serial / t) for t in times)


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker (started by the reference
    pool) so that no helper process outlives the run."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def _ppid_map() -> dict[int, int]:
    out = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # comm may hold spaces: fields after the last ')' are fixed
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z":
            out[int(entry)] = int(fields[1])
    return out


def descendants(root: int) -> set[int]:
    """Live (non-zombie) descendants of ``root``."""
    children: dict[int, list[int]] = {}
    for pid, ppid in _ppid_map().items():
        children.setdefault(ppid, []).append(pid)
    out, todo = set(), [root]
    while todo:
        for c in children.get(todo.pop(), []):
            if c not in out:
                out.add(c)
                todo.append(c)
    return out


def rss_mb(pids) -> float:
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/statm") as fh:
                total += int(fh.read().split()[1])
        except (OSError, IndexError, ValueError):
            continue
    return total * _PAGE / 2**20


class RssSampler:
    """Peak summed RSS of this process and its descendants (Ray's GCS,
    raylet and workers), sampled on a thread while ``with``-active."""

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        me = os.getpid()
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, rss_mb({me} | descendants(me)))
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def wait_ended(pids: set[int], timeout_s: float = 20.0) -> None:
    """Wait until every pid has exited; SIGKILL what is left at the timeout
    and wait again. Reaps direct children."""
    deadline = time.monotonic() + timeout_s
    killed = False
    while True:
        for pid in list(pids):
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        alive = pids & set(_ppid_map())
        if not alive:
            return
        if time.monotonic() > deadline:
            if killed:
                raise RuntimeError(f"processes did not exit: {sorted(alive)}")
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed, deadline = True, time.monotonic() + 10.0
        time.sleep(0.05)
