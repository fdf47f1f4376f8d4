"""Calibrated constants for the analytic performance models.

Every constant here is derived from a number the paper itself reports;
the comment on each names its source.  The end-to-end throughput figures
(Figs 8–13, 16a) are computed as the minimum of four terms — software
rate, PCIe rate, engine rate, link rate — where the engine term comes
from cycle simulation and the others from these constants.  This is the
"calibrated" category of DESIGN.md's honesty ledger: absolute values on
these axes match the paper by construction; the *shapes* (who wins,
where crossovers fall) are genuine model outputs.
"""

from __future__ import annotations

# --------------------------------------------------------------- the host
#: Intel Xeon Gold 5118 at 2.3 GHz, hyper-threading disabled (§5).
HOST_CPU_FREQ_HZ = 2.3e9

# ------------------------------------------------------------ F4T library
#: Fig 8a: one core drives 44 Mrps of 128 B bulk requests through the
#: F4T library -> 2.3e9 / 44e6 ≈ 52 cycles per send() request
#: (function call + command write + MMIO-batched doorbell).
F4T_CYCLES_PER_SEND_BULK = 52.0

#: Fig 8b: one core drives 34 Mrps in round-robin mode -> ≈ 68 cycles.
#: The extra cost is per-flow state churn (worse cache locality) and
#: more completion commands to reap (smaller packets).
F4T_CYCLES_PER_SEND_RR = 68.0

#: Echo (request+response per transaction, recv + send + epoll wait):
#: sized so 8 cores sustain ≈ 40 Mrps, matching Fig 13's 20x-over-Linux
#: plateau at 1 K flows.
F4T_CYCLES_PER_ECHO = 460.0

# ------------------------------------------------------------ Linux stack
#: Fig 8a: Linux reaches 8.3 Gbps with 8 cores at 128 B -> ≈ 1.01 Mrps
#: per core -> ≈ 2270 cycles per request through the kernel TCP stack.
LINUX_CYCLES_PER_SEND_BULK = 2270.0

#: Fig 8b: Linux round-robin reaches 0.126 Gbps on one core at 128 B ->
#: ≈ 123 Krps -> ≈ 18 700 cycles per request (per-packet processing,
#: no TSO aggregation across flows).
LINUX_CYCLES_PER_SEND_RR = 18_700.0

#: Echo transaction cost under Linux (syscall + interrupt + stack both
#: directions); sized so 8 cores give ≈ 2 Mrps at 1 K flows (Fig 13).
LINUX_CYCLES_PER_ECHO = 9_200.0

#: Connection-count penalty for Linux: epoll/table pressure degrades
#: throughput roughly logarithmically toward 64 K flows (Fig 13 shows
#: Linux declining but nonzero).
LINUX_ECHO_FLOW_PENALTY = 0.09  # fractional loss per doubling beyond 1 K

# ------------------------------------------------------------------ PCIe
#: Fig 9: 16 B requests saturate at 396 Mrps, each moving a 16 B command
#: plus a 16 B payload DMA -> 396e6 x 32 B ≈ 12.7 GB/s effective PCIe
#: Gen3 x16 bandwidth.
PCIE_EFFECTIVE_BYTES_PER_S = 12.7e9

#: Command sizes (§4.1.1 and §6): the default command is 16 B; the §6
#: experiment simplifies commands to 8 B to lift the PCIe ceiling.
COMMAND_BYTES_DEFAULT = 16
COMMAND_BYTES_SIMPLIFIED = 8

# ------------------------------------------------------------------ Nginx
#: Fig 1a: the TCP stack consumes 37% of total CPU cycles under Nginx.
NGINX_LINUX_TCP_FRACTION = 0.37
#: Fig 11 (modelled split of the remaining 63%): application work and
#: kernel-other (vfs_read and friends).  F4T removes the TCP share and
#: most kernel overhead, leaving app + filesystem + a thin library.
NGINX_LINUX_APP_FRACTION = 0.25
NGINX_LINUX_KERNEL_FRACTION = 0.38
#: Fig 11: F4T still pays filesystem access; modelled F4T-side split.
NGINX_F4T_KERNEL_FRACTION = 0.25
NGINX_F4T_LIB_FRACTION = 0.05
#: Total per-request budget under Linux, sized to put Nginx in the
#: "few million requests per second" range of Fig 1b on 24 cores.
NGINX_LINUX_CYCLES_PER_REQ = 30_000.0

# --------------------------------------------------------------- latency
LINUX_LATENCY_MEDIAN_RATIO = 3.7  # Fig 12: 3.7x shorter median on F4T
LINUX_LATENCY_P99_RATIO = 26.0  # Fig 12: 26x shorter p99 on F4T

# ------------------------------------------------------------- the engine
#: §4.2.3: an FPC handles one event per two cycles at 250 MHz.
FPC_EVENTS_PER_SECOND = 125e6

#: §6 / Fig 16b: the 24-core software submission rate in header-only
#: mode, derived from the paper's own ratios over the 14.7 M events/s
#: baseline (250 MHz / 17 cycles): bulk 63.1x -> 928 M, RR 71.3x ->
#: 1 048 M submissions/s.
F4T_HEADER_OFFERED_BULK = 63.1 * 14.7e6
F4T_HEADER_OFFERED_RR = 71.3 * 14.7e6
#: Per-core header-only submission rate (24 cores drive the above).
F4T_HEADER_RATE_PER_CORE = F4T_HEADER_OFFERED_RR / 24
