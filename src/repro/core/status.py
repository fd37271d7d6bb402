"""RVMA status codes (the paper's ``RVMA_Status``)."""

from __future__ import annotations

from enum import Enum


class RvmaStatus(Enum):
    """Outcome of an RVMA call (the paper's ``RVMA_Status``)."""

    SUCCESS = "success"
    ERR_NO_WINDOW = "no_window"  # mailbox was never initialised
    ERR_CLOSED = "closed"  # window closed; op discarded
    ERR_NO_RESOURCES = "no_resources"  # LUT/counter exhaustion
    ERR_NO_BUFFER = "no_buffer"  # bucket empty, no catch-all
    ERR_OUT_OF_BOUNDS = "out_of_bounds"  # offset+len beyond active buffer
    ERR_INVALID = "invalid"  # malformed arguments

    @property
    def ok(self) -> bool:
        return self is RvmaStatus.SUCCESS


class RvmaApiError(RuntimeError):
    """Raised for local misuse of the API (not for remote NACKs)."""

    def __init__(self, status: RvmaStatus, message: str = "") -> None:
        super().__init__(f"{status.value}: {message}" if message else status.value)
        self.status = status
