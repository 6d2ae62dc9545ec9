"""Stdlib logging wiring for the repro stack.

Every module logs through ``logging.getLogger("repro.<area>")`` —
:func:`get_logger` is a thin helper that prefixes the namespace.  By
default nothing is emitted (the root ``repro`` logger gets a
``NullHandler``), matching library etiquette; :func:`configure` attaches
a stderr handler at a chosen level.

Two activation paths:

* ``REPRO_LOG=debug|info|warning|error`` in the environment — picked up
  lazily the first time any repro logger is fetched, so fork-pool
  workers inherit the setting with no plumbing;
* ``repro --log-level debug ...`` on the CLI, which calls
  :func:`configure` explicitly (and wins over the env default).

The serve tier logs predict and handler exceptions at WARNING —
previously they were counted in the error stats but their tracebacks
vanished into the wire error string.
"""

from __future__ import annotations

import logging
import os

__all__ = ["configure", "get_logger"]

_ROOT_NAME = "repro"
_configured = False


def _root() -> logging.Logger:
    return logging.getLogger(_ROOT_NAME)


def configure(level: str | int | None = None) -> None:
    """Attach a stderr handler to the ``repro`` logger at *level*.

    ``None`` falls back to ``REPRO_LOG`` (doing nothing when unset).
    Calling again replaces the level; only one handler is ever attached.
    """
    global _configured
    if level is None:
        level = os.environ.get("REPRO_LOG", "").strip()
        if not level:
            _configured = True
            return
    if isinstance(level, str):
        level = getattr(logging, level.upper(), None)
        if not isinstance(level, int):
            raise ValueError(f"unknown log level {level!r}")
    root = _root()
    if not any(
        isinstance(h, logging.StreamHandler)
        and not isinstance(h, logging.NullHandler)
        for h in root.handlers
    ):
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter(
                "%(asctime)s %(levelname)s %(name)s: %(message)s"
            )
        )
        root.addHandler(handler)
    root.setLevel(level)
    _configured = True


def get_logger(name: str) -> logging.Logger:
    """``logging.getLogger("repro.<name>")``, env-configured on first use."""
    global _configured
    if not _configured:
        _root().addHandler(logging.NullHandler())
        configure(None)
    if name.startswith(_ROOT_NAME):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")
