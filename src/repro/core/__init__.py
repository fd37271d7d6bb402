"""RVMA core: the paper's contribution as a user-facing API."""

from ..nic.lut import BufferMode, EpochType, RetiredBuffer
from .addressing import PID_SHIFT, RvmaAddress, resolve_destination
from .api import RvmaApi
from .fault_tolerance import (
    CoordinatedRewind,
    EpochJournal,
    RecoveryResult,
    RewindResult,
    coordinated_rewind,
    latest_consistent_epoch,
    mpix_rewind,
    negotiate_consistent_epoch,
    recover_on_failure,
)
from .receiver_managed import StreamClient, StreamServer
from .status import RvmaApiError, RvmaStatus
from .window import CompletionInfo, PostedRecord, Window, alloc_notification_slot

__all__ = [
    "BufferMode",
    "PID_SHIFT",
    "RvmaAddress",
    "resolve_destination",
    "CompletionInfo",
    "CoordinatedRewind",
    "EpochJournal",
    "EpochType",
    "PostedRecord",
    "RecoveryResult",
    "RetiredBuffer",
    "RewindResult",
    "recover_on_failure",
    "RvmaApi",
    "RvmaApiError",
    "RvmaStatus",
    "StreamClient",
    "StreamServer",
    "Window",
    "alloc_notification_slot",
    "coordinated_rewind",
    "latest_consistent_epoch",
    "mpix_rewind",
    "negotiate_consistent_epoch",
]
