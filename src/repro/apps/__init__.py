"""Workloads: iPerf bulk, round-robin, Nginx+wrk, and the echo benchmark."""

from .echo import EchoModel, measure_dram_swap_rate
from .iperf import BulkResult, BulkTransferModel, run_functional_bulk
from .nginx import (
    HTTP_RESPONSE,
    NginxPerformanceModel,
    RESPONSE_BYTES,
    http_get,
    simulate_closed_loop,
)
from .shortconn import ChurnResult, run_connection_churn
from .wrk import WrkResult, run_functional_wrk

__all__ = [
    "BulkResult",
    "ChurnResult",
    "BulkTransferModel",
    "EchoModel",
    "HTTP_RESPONSE",
    "NginxPerformanceModel",
    "RESPONSE_BYTES",
    "WrkResult",
    "http_get",
    "measure_dram_swap_rate",
    "run_functional_bulk",
    "run_connection_churn",
    "run_functional_wrk",
    "simulate_closed_loop",
]
