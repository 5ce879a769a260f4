// Hardware calibration constants.
//
// Values follow the paper's testbed (§5.1) and published component
// characteristics:
//  - Hosts: dual-socket Xeon Gold 5220R, 48 cores @ 2.2 GHz, 768 GB Optane PM.
//  - SmartNIC: Mellanox BlueField MBF1M332A, 16x ARMv8 A72 @ 800 MHz, 16 GB
//    DRAM (measured memory bandwidth 10 GB/s), 25 GbE (measured file-level
//    goodput 2.2 GB/s), RoCE.
//  - PCIe (host <-> SmartNIC): several microseconds latency vs ~100ns DDR
//    (§2.2 "an order of magnitude difference").
//  - The SmartNIC's L3/DRAM latency is >2x the host's (§5.2.5), captured in the
//    ARM ipc_factor together with its lower IPC.

#ifndef SRC_HW_PARAMS_H_
#define SRC_HW_PARAMS_H_

#include <cstdint>

#include "src/sim/cpu.h"
#include "src/sim/time.h"

namespace linefs::hw {

struct HostParams {
  int cores = 48;
  double freq_ghz = 2.2;
  double ipc_factor = 1.0;
  sim::Time quantum = 500 * sim::kMicrosecond;
  sim::Time context_switch_cost = 3 * sim::kMicrosecond;
  sim::Time dispatch_latency = 2 * sim::kMicrosecond;

  // Optane PM (6 interleaved DIMMs): asymmetric read/write bandwidth.
  double pm_read_bw = 30e9;
  double pm_write_bw = 9e9;
  sim::Time pm_read_latency = 300 * sim::kNanosecond;
  sim::Time pm_write_latency = 100 * sim::kNanosecond;

  // DRAM bandwidth (shared by applications and DFS buffers).
  double dram_bw = 60e9;
  sim::Time dram_latency = 90 * sim::kNanosecond;

  uint64_t pm_size = 8ULL << 30;  // Scaled-down PM capacity per node.
};

struct NicParams {
  int cores = 16;
  double freq_ghz = 0.8;
  // A72 in-order-ish cores + slow caches: ~half the per-cycle work of the Xeon.
  double ipc_factor = 0.5;
  sim::Time quantum = 500 * sim::kMicrosecond;
  sim::Time context_switch_cost = 5 * sim::kMicrosecond;
  sim::Time dispatch_latency = 3 * sim::kMicrosecond;

  uint64_t mem_capacity = 16ULL << 30;
  double mem_bw = 10e9;  // Measured SmartNIC memory bandwidth (§5.1).
  sim::Time mem_latency = 200 * sim::kNanosecond;

  // PCIe Gen3 x8-class connection to the host.
  double pcie_bw = 8e9;
  sim::Time pcie_latency = 2 * sim::kMicrosecond;

  // Network port: 25 GbE RoCE; bandwidth expressed as measured goodput.
  double net_goodput = 2.2e9;
  sim::Time net_latency = 3 * sim::kMicrosecond;
};

struct NodeParams {
  HostParams host;
  NicParams nic;
};

// RPC / verb-processing cost model (cycles; converted per-pool).
struct RdmaCosts {
  // CPU cycles to post a verb / process a completion.
  uint64_t post_cycles = 600;
  uint64_t completion_cycles = 800;
  // Extra wakeup latency for event-driven (non-polling) receivers.
  sim::Time event_wakeup = 4 * sim::kMicrosecond;
  // Request/response wire size for control RPCs.
  uint64_t control_bytes = 64;
};

// File-system processing cost model (cycles per unit, charged to whichever
// CPU pool runs the code — host cores or wimpy NIC cores).
struct FsCosts {
  // Syscall interception + log-header bookkeeping per operation in LibFS.
  uint64_t libfs_op_cycles = 1200;
  // Per-byte cost of log append bookkeeping (beyond the PM copy itself).
  double libfs_append_cycles_per_byte = 0.05;
  // Validation (permission/lease checks, namespace cycle prevention): per
  // entry + per byte scanned. This is what saturates wimpy NIC cores (§3.3.1).
  uint64_t validate_entry_cycles = 1000;
  double validate_cycles_per_byte = 0.18;
  // Coalescing scan shares the validation pass (same-core cache locality).
  uint64_t coalesce_entry_cycles = 150;
  // Publication: building the ordered copy list.
  uint64_t publish_entry_cycles = 400;
  // Index update (extent tree insert) per entry when publishing.
  uint64_t index_entry_cycles = 700;
  // Read path: per-op lookup costs.
  uint64_t read_index_cycles = 1800;
  // LZW compression throughput of one SmartNIC core: ~200 MB/s (§5.4)
  // => 0.8e9 Hz * 0.5 ipc / 200e6 B/s = 2 cycles/byte at reference speed.
  double compress_cycles_per_byte = 2.0;
  double decompress_cycles_per_byte = 0.8;
  // Optional checksum stage: CRC32C sealing of the wire image (hardware-
  // assisted on the SoC, so cheap per byte).
  double checksum_cycles_per_byte = 0.3;
  // memcpy cost charged to a CPU when the CPU itself moves data (DRAM).
  double memcpy_cycles_per_byte = 0.35;
  // memcpy into PM is slower (write-combining + clwb stalls): ~2.2 GB/s/core.
  double pm_memcpy_cycles_per_byte = 1.0;
};

}  // namespace linefs::hw

#endif  // SRC_HW_PARAMS_H_
