"""Subprocess entry point for one PDES shard.

Lock-step pipe protocol (synchronous; the coordinator fans a message
out to every worker, then collects every reply — the inter-process
mirror of the in-simulation window barrier):

* ``("build", spec)``            -> ``("ready", peek)``
* ``("restore", spec, calls, verify)``
                                 -> ``("restored", last_reply, peek)``
* ``("window", until, ingress, notifies)``
                                 -> ``("barrier", egress, notifies, peek)``
* ``("digest",)``                -> ``("digest", state_digest)``
* ``("finish",)``                -> ``("result", payload)``
* ``("stop",)``                  -> worker exits

``restore`` is the crash-recovery entry (see :mod:`repro.ckpt`): build
the shard fresh, replay the coordinator's logged window calls, verify
the checkpointed state digest, and hand back the last window's reply
so an in-flight window can be served without re-sending it.

Any exception is reported as ``("error", type_name, traceback_text)``
and the worker exits; the coordinator raises it as a
:class:`~repro.errors.SimulationError`.  There is no heartbeat layer —
shard workers are trusted local children of one run, and the
coordinator's blocking ``recv`` surfaces a death as pipe EOF or reset.
"""

from __future__ import annotations

import traceback

from repro.pdes.shard import ShardRuntime


def shard_worker_main(conn) -> None:
    """Run the pipe protocol until stop/EOF (the child's main)."""
    runtime = None
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                return
            op = message[0]
            if op == "build":
                runtime = ShardRuntime(message[1])
                conn.send(("ready", runtime.peek()))
            elif op == "restore":
                runtime = ShardRuntime(message[1])
                last = runtime.replay(message[2], message[3])
                conn.send(("restored", last, runtime.peek()))
            elif op == "digest":
                conn.send(("digest", runtime.state_digest()))
            elif op == "window":
                egress, notifies, peek = runtime.run_window(
                    message[1], message[2], message[3])
                conn.send(("barrier", egress, notifies, peek))
            elif op == "finish":
                conn.send(("result", runtime.finish()))
            elif op == "stop":
                return
            else:
                conn.send(("error", "ProtocolError",
                           f"unknown op {op!r}"))
                return
    except BaseException as exc:  # noqa: BLE001 - reported to parent
        try:
            conn.send(("error", type(exc).__name__,
                       traceback.format_exc()))
        except (OSError, ValueError):
            pass
    finally:
        try:
            conn.close()
        except OSError:
            pass
