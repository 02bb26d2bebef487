"""Process harness: spawn, supervise and reap live-cluster node processes.

In the style of the per-node process-dict launchers of classic distributed
test rigs, the :class:`ProcessHarness` owns a run directory and a registry of
:class:`NodeHandle` children.  It exists to make two flake classes
structurally impossible:

* **port collisions** — nodes are never told which port to take.  Each node
  binds to port 0, lets the kernel pick, and announces the result in a
  machine-readable handshake line on stdout (:data:`READY_PREFIX`).  The
  harness tails the node's captured stdout until the handshake appears (or a
  deadline passes), so there is no pre-allocation race and no sleep-based
  readiness probe.  Only a *restart* pins a port — the one the dead
  incarnation owned, so peers' retry loops reconnect without re-discovery.
* **orphaned children** — the harness context manager reaps every child on
  exit (SIGTERM, then SIGKILL after a grace period) and
  :meth:`assert_no_orphans` lets test teardown prove the reap happened.

Logs: every node's stdout/stderr are captured to ``<run_dir>/<name>.out`` /
``.err`` — the artifacts CI uploads when a live test fails.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.errors import ReproError

#: The handshake line a node prints (and flushes) once its server is bound
#: and serving: ``REPRO-LIVE-READY {"role": ..., "name": ..., "port": ...}``.
READY_PREFIX = "REPRO-LIVE-READY "


class HarnessError(ReproError):
    """A supervised node failed to start, answer, or die."""


class NodeHandle:
    """One supervised child process and its captured logs."""

    def __init__(self, harness: "ProcessHarness", name: str, role: str,
                 args: list[str], env: dict[str, str]) -> None:
        self.harness = harness
        self.name = name
        self.role = role
        self.args = list(args)
        self.env = dict(env)
        self.stdout_path = harness.run_dir / f"{name}.out"
        self.stderr_path = harness.run_dir / f"{name}.err"
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self.ready_info: dict | None = None
        self.spawn_count = 0

    # -- lifecycle ------------------------------------------------------------

    def spawn(self, extra_args: list[str] | None = None) -> None:
        """Start (or restart) the child; appends stdout/stderr to the logs."""
        if self.process is not None and self.process.poll() is None:
            raise HarnessError(f"node {self.name!r} is already running")
        argv = [sys.executable, "-m", "repro.live.node", *self.args]
        if extra_args:
            argv.extend(extra_args)
        self.spawn_count += 1
        with open(self.stdout_path, "ab") as out, open(self.stderr_path, "ab") as err:
            self.process = subprocess.Popen(
                argv, stdout=out, stderr=err, env={**os.environ, **self.env},
                cwd=str(self.harness.run_dir),
            )

    def wait_ready(self, timeout_s: float = 30.0) -> dict:
        """Block until the node's handshake line appears on its stdout.

        Returns the parsed handshake (and records ``self.port`` from it).
        The handshake of a *restart* is the last one in the log, so the scan
        counts handshakes and waits for the ``spawn_count``-th.
        """
        deadline = time.monotonic() + timeout_s
        while True:  # look at least once: a stage's later nodes may be ready already
            if self.process is not None and self.process.poll() is not None:
                raise HarnessError(
                    f"node {self.name!r} exited with {self.process.returncode} "
                    f"before becoming ready; see {self.stderr_path}"
                )
            handshakes = self._read_handshakes()
            if len(handshakes) >= self.spawn_count:
                info = handshakes[-1]
                self.ready_info = info
                self.port = int(info["port"])
                return info
            if time.monotonic() >= deadline:
                break
            time.sleep(0.01)
        raise HarnessError(
            f"node {self.name!r} did not hand shake within {timeout_s}s; "
            f"see {self.stdout_path} / {self.stderr_path}"
        )

    def _read_handshakes(self) -> list[dict]:
        if not self.stdout_path.exists():
            return []
        handshakes = []
        with open(self.stdout_path, "r", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith(READY_PREFIX):
                    try:
                        handshakes.append(json.loads(line[len(READY_PREFIX):]))
                    except ValueError:
                        continue
        return handshakes

    def poll(self) -> int | None:
        """The child's exit code, or ``None`` while it is running."""
        return None if self.process is None else self.process.poll()

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    @property
    def pid(self) -> int | None:
        return None if self.process is None else self.process.pid

    def kill(self) -> None:
        """``kill -9``: no shutdown handler runs, nothing is flushed."""
        if self.process is not None and self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
            self.process.wait(timeout=30)

    def terminate(self, grace_s: float = 5.0) -> None:
        """SIGTERM, escalating to SIGKILL after ``grace_s``."""
        if self.process is None or self.process.poll() is not None:
            return
        self.process.terminate()
        try:
            self.process.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)

    def restart(self, *, timeout_s: float = 30.0,
                drop_args: tuple[str, ...] = ()) -> dict:
        """Respawn a dead node on the port its previous incarnation owned.

        ``drop_args`` removes flag (and value) pairs from the original spawn
        args — how the crash tests shed a ``--wedge-*`` fault flag on the
        restarted incarnation.
        """
        if self.alive:
            raise HarnessError(f"node {self.name!r} is still running")
        if self.port is None:
            raise HarnessError(f"node {self.name!r} was never ready; cannot pin its port")
        args = list(self.args)
        for flag in drop_args:
            while flag in args:
                index = args.index(flag)
                del args[index:index + 2]
        self.args = args
        self.spawn(extra_args=["--port", str(self.port)])
        return self.wait_ready(timeout_s=timeout_s)

    def __repr__(self) -> str:
        state = "alive" if self.alive else f"exit={self.poll()}"
        return f"NodeHandle(name={self.name!r}, role={self.role!r}, port={self.port}, {state})"


class ProcessHarness:
    """Supervisor for a set of live-cluster node processes."""

    def __init__(self, run_dir: str | Path | None = None, *, keep_dir: bool = False) -> None:
        if run_dir is None:
            run_dir = tempfile.mkdtemp(prefix="repro-live-")
            # A caller-provided directory is theirs to keep; an auto-created
            # one is removed on a clean exit unless asked otherwise.
            self._owns_dir = not keep_dir
        else:
            self._owns_dir = False
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.nodes: dict[str, NodeHandle] = {}

    # -- spawning -------------------------------------------------------------

    def spawn(self, role: str, name: str, args: list[str] | None = None,
              *, env: dict[str, str] | None = None, wait_ready: bool = True,
              timeout_s: float = 30.0) -> NodeHandle:
        """Launch ``python -m repro.live.node --role <role> ...`` as ``name``."""
        if name in self.nodes and self.nodes[name].alive:
            raise HarnessError(f"a node named {name!r} is already running")
        node_env = {"PYTHONPATH": self._pythonpath(), "PYTHONUNBUFFERED": "1"}
        if env:
            node_env.update(env)
        handle = NodeHandle(
            self, name, role,
            ["--role", role, "--name", name, *(args or [])],
            node_env,
        )
        self.nodes[name] = handle
        handle.spawn()
        if wait_ready:
            handle.wait_ready(timeout_s=timeout_s)
        return handle

    @staticmethod
    def _pythonpath() -> str:
        src = str(Path(__file__).resolve().parents[2])
        existing = os.environ.get("PYTHONPATH", "")
        return f"{src}{os.pathsep}{existing}" if existing else src

    # -- supervision ----------------------------------------------------------

    def node(self, name: str) -> NodeHandle:
        return self.nodes[name]

    def poll_all(self) -> dict[str, int | None]:
        return {name: node.poll() for name, node in self.nodes.items()}

    def reap_all(self, grace_s: float = 5.0) -> None:
        """Terminate every child (SIGTERM → SIGKILL) and wait for all."""
        for node in self.nodes.values():
            if node.alive:
                node.terminate(grace_s=grace_s)

    def assert_no_orphans(self) -> None:
        """Raise unless every supervised child has actually exited."""
        orphans = [node.name for node in self.nodes.values() if node.alive]
        if orphans:
            raise HarnessError(f"orphaned node processes after reap: {orphans}")

    def collect_logs(self) -> dict[str, tuple[Path, Path]]:
        return {name: (node.stdout_path, node.stderr_path)
                for name, node in self.nodes.items()}

    # -- context manager ------------------------------------------------------

    def __enter__(self) -> "ProcessHarness":
        return self

    def __exit__(self, *exc: object) -> None:
        self.reap_all()
        self.assert_no_orphans()
        if self._owns_dir and not any(exc):
            shutil.rmtree(self.run_dir, ignore_errors=True)

    def __repr__(self) -> str:
        alive = sum(1 for node in self.nodes.values() if node.alive)
        return f"ProcessHarness(run_dir={str(self.run_dir)!r}, nodes={len(self.nodes)}, alive={alive})"
