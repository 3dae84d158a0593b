"""Processes the harness starts and watches: the gateway under test, memory of the tree."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

_READY = re.compile(r"repro-gateway ready url=(\S+)")


def _children_map() -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                # "pid (comm) state ppid ..." — comm may contain spaces/parens.
                fields = handle.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue  # the process ended while we were listing
        children.setdefault(int(fields[1]), []).append(int(entry))
    return children


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid`` (children, their children, ...)."""
    children = _children_map()
    found: List[int] = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        for child in children.get(current, ()):
            found.append(child)
            frontier.append(child)
    return found


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup", "r", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass  # the process ended while we were looking
    return 0


def tree_memory_mb() -> float:
    """Memory held right now by this process and every live descendant.

    Proportional set sizes, so pages a forked worker still shares with its
    parent count once; a sum of resident set sizes counted them once per
    process and came out 480 MB or 640 MB depending on how large the parent
    happened to be at the moment it forked.
    """
    pids = [os.getpid()] + descendants(os.getpid())
    return sum(_pss_kb(pid) for pid in pids) / 1024.0


def _gone(pid: int) -> bool:
    """True once ``pid`` has ended; an ended child of ours is collected on the way."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass  # not our child (a grandchild), or collected already
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            # A zombie is its parent's to collect and runs nothing.
            return handle.read().rsplit(b")", 1)[1].split()[0] == b"Z"
    except (OSError, IndexError):
        return True


def end_processes(pids: List[int], grace: float = 5.0) -> None:
    """SIGTERM every process of ``pids``, wait for each, SIGKILL what is left after ``grace``."""
    for signum, patience in ((signal.SIGTERM, grace), (signal.SIGKILL, grace)):
        pids = [pid for pid in pids if not _gone(pid)]
        for pid in pids:
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + patience
        while pids and time.monotonic() < deadline:
            time.sleep(0.01)
            pids = [pid for pid in pids if not _gone(pid)]


def run_child(command: List[str], env: Dict[str, str], timeout: float) -> str:
    """Standard output of a child that exited with 0; the child's whole tree is ended if not."""
    process = subprocess.Popen(command, env=env, stdin=subprocess.DEVNULL,
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        output, errors = process.communicate(timeout=timeout)
    except BaseException:
        tree = descendants(process.pid)
        process.kill()
        process.communicate()
        end_processes(tree)
        raise
    if process.returncode:
        raise RuntimeError(f"{' '.join(command)} exited with {process.returncode}:\n{errors}")
    return output


def _resource_tracker() -> Any:
    """multiprocessing's resource tracker object if this process started one, else None.

    The shm backend's segments make multiprocessing spawn a tracker process
    that ends only once its parent is gone - that is, it outlives the run by
    some milliseconds unless it is stopped by hand.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    return tracker if getattr(tracker, "_pid", None) is not None else None


def end_all_children() -> None:
    """Leave no process behind: called on every path out of a run, after the teardown.

    A clean run has ended and joined its workers and its gateway already, so
    all that is left is the resource tracker; whatever else is found (a run
    that raised half way) is ended and waited for as well.
    """
    tracker = _resource_tracker()
    tracker_pid = tracker._pid if tracker is not None else None
    end_processes([pid for pid in descendants(os.getpid()) if pid != tracker_pid])
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()  # closes its pipe and waits: it unlinks leaked segments, then ends
    end_processes(descendants(os.getpid()), grace=2.0)


class GatewayProcess:
    """``python -m repro.cli serve ...`` in its own process, stopped on exit.

    The load generator must not share an interpreter lock with the system
    under test, so the gateway is a subprocess; readiness is the
    ``repro-gateway ready url=...`` line it prints on stderr.
    """

    def __init__(self, serve_args: List[str], env: Dict[str, str],
                 ready_timeout: float = 60.0):
        self._args = [sys.executable, "-m", "repro.cli", "serve"] + serve_args
        self._env = env
        self._ready_timeout = ready_timeout
        self._process: Optional[subprocess.Popen] = None
        self._stderr_tail: List[str] = []
        self.url: Optional[str] = None

    def start(self) -> "GatewayProcess":
        self._process = subprocess.Popen(
            self._args, env=self._env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        ready = threading.Event()

        def pump() -> None:
            assert self._process is not None and self._process.stderr is not None
            for line in self._process.stderr:
                match = _READY.search(line)
                if match and self.url is None:
                    self.url = match.group(1)
                    ready.set()
                self._stderr_tail.append(line.rstrip())
                del self._stderr_tail[:-40]
            ready.set()  # EOF: the process died before (or after) readiness

        self._pump = threading.Thread(target=pump, name="gateway-stderr", daemon=True)
        self._pump.start()
        if not ready.wait(self._ready_timeout) or self.url is None:
            tail = "\n".join(self._stderr_tail)
            self.stop()
            raise RuntimeError(f"gateway did not become ready:\n{tail}")
        return self

    def stop(self) -> None:
        """SIGTERM, wait, then kill whatever is left of the process tree."""
        process = self._process
        if process is None:
            return
        self._process = None
        leftovers = descendants(process.pid)
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=15.0)
        deadline = time.monotonic() + 5.0  # shard workers normally exit with their parent
        while time.monotonic() < deadline and not all(_gone(pid) for pid in leftovers):
            time.sleep(0.02)
        end_processes(leftovers)
        self._pump.join(timeout=5.0)
