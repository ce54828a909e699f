// occamini: an OCCA-style portable device abstraction.
//
// NekRS runs its field data on GPU device memory through OCCA; the paper's
// Catalyst pathway must copy fields from device to host before handing them
// to SENSEI because the VTK data model is host-only.  This module reproduces
// that structure without GPU hardware:
//
//  * Backend::kSerial   — device memory is ordinary host memory.
//  * Backend::kSimGpu   — device memory lives in separate allocations
//    tracked under the "device" category; every host<->device transfer is an
//    explicit, counted memcpy, optionally throttled by a PCIe-like transfer
//    model so the copy cost is visible in per-rank busy time.
//
// "Kernels" are host callables launched through Device::Launch so per-kernel
// counts and times can be reported, mirroring OCCA's kernel objects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "core/buffer.hpp"
#include "instrument/memory_tracker.hpp"

namespace occamini {

enum class Backend { kSerial, kSimGpu };

/// Byte-count and timing statistics for host<->device traffic.
struct TransferStats {
  std::uint64_t h2d_count = 0;
  std::uint64_t d2h_count = 0;
  std::size_t h2d_bytes = 0;
  std::size_t d2h_bytes = 0;
  double h2d_seconds = 0.0;
  double d2h_seconds = 0.0;
};

/// Simulated interconnect cost per transfer: seconds = latency + bytes/bw.
///
/// The extra time is spent in a sleep, which yields the core to other rank
/// threads — modelling a DMA engine that frees the host while the copy is
/// in flight would be wrong for the paper's blocking copies, but the copy
/// still *counts* as rank busy time because mpimini only pauses the busy
/// clock inside its own waits.
struct TransferModel {
  double latency_seconds = 0.0;
  double bytes_per_second = 0.0;  // 0 => infinitely fast

  [[nodiscard]] double Cost(std::size_t bytes) const {
    double s = latency_seconds;
    if (bytes_per_second > 0.0) {
      s += static_cast<double>(bytes) / bytes_per_second;
    }
    return s;
  }
};

/// Per-kernel launch statistics.
struct KernelStats {
  std::uint64_t launches = 0;
  double seconds = 0.0;
};

namespace detail {
struct MemoryBlock;
}  // namespace detail

class Device;

/// Handle to a device allocation (copyable, shared ownership), mirroring
/// occa::memory.
class Memory {
 public:
  Memory() = default;

  [[nodiscard]] std::size_t Bytes() const;
  [[nodiscard]] bool Valid() const { return block_ != nullptr; }

  /// Copy host -> device. `offset` is a byte offset into the device buffer.
  void CopyFrom(const void* host, std::size_t bytes, std::size_t offset = 0);

  /// Copy device -> host.
  void CopyTo(void* host, std::size_t bytes, std::size_t offset = 0) const;

  /// Stage the whole allocation device -> host, landing directly in a
  /// data-plane Buffer tracked under `category`.  This is the one mandatory
  /// copy of the Catalyst path (VTK is host-only); downstream layers adopt
  /// the returned buffer instead of re-copying it.
  [[nodiscard]] core::Buffer ToHost(const std::string& category) const;

  /// ToHost variant that reuses `dest`'s allocation when it is the sole
  /// handle of a block of exactly the right size; otherwise `dest` is
  /// replaced with a fresh buffer (as ToHost).  The async pipeline's staging
  /// slots call this every step so steady-state snapshots perform zero host
  /// allocations — only the mandatory D2H copy.
  void ToHostInto(core::Buffer& dest, const std::string& category) const;

  /// Raw device pointer, for use inside kernels only (host code must go
  /// through CopyFrom/CopyTo, as with a real GPU).
  [[nodiscard]] std::byte* DevicePtr();
  [[nodiscard]] const std::byte* DevicePtr() const;

 private:
  friend class Device;
  explicit Memory(std::shared_ptr<detail::MemoryBlock> block)
      : block_(std::move(block)) {}
  std::shared_ptr<detail::MemoryBlock> block_;
};

/// Typed convenience wrapper over Memory.
template <typename T>
class Array {
 public:
  Array() = default;
  Array(Device& device, std::size_t count, const std::string& label = "device");

  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool Valid() const { return memory_.Valid(); }

  void CopyFromHost(std::span<const T> host, std::size_t element_offset = 0) {
    memory_.CopyFrom(host.data(), host.size_bytes(),
                     element_offset * sizeof(T));
  }
  void CopyToHost(std::span<T> host, std::size_t element_offset = 0) const {
    memory_.CopyTo(host.data(), host.size_bytes(), element_offset * sizeof(T));
  }

  /// Stage the whole array into a fresh host Buffer (zero-copy handoff to
  /// the rest of the data plane).
  [[nodiscard]] core::Buffer StageToHost(const std::string& category) const {
    return memory_.ToHost(category);
  }

  /// Slot-reuse staging (see Memory::ToHostInto).
  void StageToHostInto(core::Buffer& dest, const std::string& category) const {
    memory_.ToHostInto(dest, category);
  }

  /// Device-side typed pointer (kernels only).
  T* DevicePtr() { return reinterpret_cast<T*>(memory_.DevicePtr()); }
  const T* DevicePtr() const {
    return reinterpret_cast<const T*>(memory_.DevicePtr());
  }

  [[nodiscard]] Memory& Raw() { return memory_; }
  [[nodiscard]] const Memory& Raw() const { return memory_; }

 private:
  Memory memory_;
  std::size_t count_ = 0;
};

/// A compute device (one per rank in NekRS fashion).
class Device {
 public:
  explicit Device(Backend backend, TransferModel model = {});

  [[nodiscard]] Backend GetBackend() const { return backend_; }

  /// Allocate `bytes` of device memory; tracked under category "device"
  /// against the calling rank's MemoryTracker (if any).
  Memory Malloc(std::size_t bytes, const std::string& label = "device");

  /// Run a "kernel" on the device; counts and times it under `name`.
  void Launch(const std::string& name, const std::function<void()>& body);

  [[nodiscard]] const TransferStats& Transfers() const { return transfers_; }
  [[nodiscard]] const std::map<std::string, KernelStats>& Kernels() const {
    return kernels_;
  }
  [[nodiscard]] std::size_t AllocatedBytes() const { return allocated_; }

  void ResetStats();

 private:
  friend class Memory;
  friend struct detail::MemoryBlock;

  Backend backend_;
  TransferModel model_;
  TransferStats transfers_;
  std::map<std::string, KernelStats> kernels_;
  std::size_t allocated_ = 0;
};

template <typename T>
Array<T>::Array(Device& device, std::size_t count, const std::string& label)
    : memory_(device.Malloc(count * sizeof(T), label)), count_(count) {}

}  // namespace occamini
