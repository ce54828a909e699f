// mpimini: a message-passing runtime with MPI semantics, where ranks are
// threads of one process.
//
// The paper's runs use MPI across hundreds of GPU nodes; this reproduction
// runs on one multi-core host without MPI.  mpimini reproduces the
// *programming model* (see DESIGN.md §2): each rank owns its own heap
// allocations, all data exchange goes through explicit typed messages with
// (source, tag) matching, and collectives (barrier, bcast, reduce,
// allreduce, gather, allgatherv, alltoall) plus communicator Split are built
// on the same mailbox machinery.
//
// Blocking waits pause the calling rank's BusyClock, so per-rank busy time
// measures compute + copy work and excludes synchronization idling — the
// per-node quantity the paper's figures plot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/buffer.hpp"

namespace mpimini {

/// Matches any source rank in Recv/Probe.
inline constexpr int kAnySource = -1;
/// Matches any tag in Recv/Probe.
inline constexpr int kAnyTag = -1;

/// Reduction operator for Reduce/AllReduce.
enum class Op { kSum, kMin, kMax, kProd };

/// A received message: payload bytes plus envelope.  The payload is a
/// data-plane buffer that moved through the mailbox by ownership transfer —
/// receiving it never copies.
struct Message {
  core::Buffer payload;
  int source = kAnySource;
  int tag = kAnyTag;
};

namespace detail {
struct CommState;  // shared mailbox/barrier state, defined in comm.cpp
}  // namespace detail

/// One rank's handle onto a communicator.
///
/// Comm is a lightweight value: copying it aliases the same communicator.
/// All collective calls must be made by every rank of the communicator in
/// the same order (MPI semantics).
class Comm {
 public:
  Comm() = default;

  [[nodiscard]] int Rank() const { return rank_; }
  [[nodiscard]] int Size() const;
  [[nodiscard]] bool Valid() const { return state_ != nullptr; }

  // ---- Point-to-point ----------------------------------------------------

  /// Buffered send: copies `bytes` into the destination mailbox and returns.
  /// Buffered sends cannot deadlock; ordering per (source,dest,tag) is FIFO.
  void SendBytes(int dest, int tag, const void* data, std::size_t bytes);

  /// Zero-copy send: moves an owned data-plane buffer into the destination
  /// mailbox.  Tracking is detached first (the bytes leave this rank's
  /// books; trackers are per-rank and the block may now be freed by the
  /// receiving rank's thread).
  void SendBuffer(int dest, int tag, core::Buffer buffer);

  /// Scatter-gather send: packs the chain's segments into one contiguous
  /// mailbox buffer — THE single transport-boundary copy of the zero-copy
  /// data plane.
  void SendGather(int dest, int tag, const core::BufferChain& chain);

  /// Blocking receive of a message matching (source, tag); either may be the
  /// kAny* wildcard. Returns payload + envelope (ownership moves; no copy).
  Message RecvBytes(int source = kAnySource, int tag = kAnyTag);

  /// Blocking receive returning just the payload buffer (zero-copy).
  core::Buffer RecvBuffer(int source = kAnySource, int tag = kAnyTag);

  /// Blocks until a matching message is available; returns its byte count
  /// without consuming it.
  std::size_t Probe(int source = kAnySource, int tag = kAnyTag);

  /// True if a matching message is already waiting (non-blocking).
  bool HasMessage(int source = kAnySource, int tag = kAnyTag);

  /// Typed send of trivially copyable elements.
  template <typename T>
  void Send(int dest, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    SendBytes(dest, tag, data.data(), data.size_bytes());
  }

  template <typename T>
  void SendValue(int dest, int tag, const T& value) {
    Send<T>(dest, tag, std::span<const T>(&value, 1));
  }

  /// Typed receive; message size must be a multiple of sizeof(T).
  template <typename T>
  std::vector<T> Recv(int source = kAnySource, int tag = kAnyTag) {
    static_assert(std::is_trivially_copyable_v<T>);
    Message m = RecvBytes(source, tag);
    if (m.payload.size() % sizeof(T) != 0) {
      throw std::runtime_error("mpimini::Recv: size mismatch");
    }
    std::vector<T> out(m.payload.size() / sizeof(T));
    std::memcpy(out.data(), m.payload.data(), m.payload.size());
    return out;
  }

  template <typename T>
  T RecvValue(int source = kAnySource, int tag = kAnyTag) {
    auto v = Recv<T>(source, tag);
    if (v.size() != 1) throw std::runtime_error("mpimini::RecvValue: count");
    return v[0];
  }

  // ---- Collectives -------------------------------------------------------

  /// Synchronize all ranks of this communicator.
  void Barrier();

  /// Broadcast `data` (same length everywhere) from `root` to all ranks.
  template <typename T>
  void Bcast(std::span<T> data, int root);

  /// Elementwise reduction onto `root`; other ranks' `inout` is unchanged.
  template <typename T>
  void Reduce(std::span<T> inout, Op op, int root);

  /// Elementwise reduction, result available on all ranks.
  template <typename T>
  void AllReduce(std::span<T> inout, Op op);

  /// Scalar AllReduce convenience.
  template <typename T>
  T AllReduceValue(T value, Op op) {
    AllReduce(std::span<T>(&value, 1), op);
    return value;
  }

  /// Gather equal-size contributions to `root` (rank order). Non-root ranks
  /// receive an empty vector.
  template <typename T>
  std::vector<T> Gather(std::span<const T> mine, int root);

  /// Gather variable-size byte blobs to `root` (rank order, zero-copy for
  /// remote contributions). Non-root ranks receive an empty vector.
  std::vector<core::Buffer> GatherBytes(std::span<const std::byte> mine,
                                        int root);

  /// Variable-size all-to-all: element d of `outgoing` is delivered to rank
  /// d; returns the blobs received, indexed by source rank. Every rank must
  /// call it (empty blobs are fine).
  std::vector<std::vector<std::byte>> AllToAllBytes(
      const std::vector<std::vector<std::byte>>& outgoing);

  /// Equal-size allgather (rank order, available on all ranks).
  template <typename T>
  std::vector<T> AllGather(std::span<const T> mine);

  /// Split into disjoint sub-communicators: ranks with equal `color` end up
  /// in the same child communicator, ordered by (key, parent rank).
  Comm Split(int color, int key);

 private:
  friend class Runtime;
  friend struct detail::CommState;
  Comm(std::shared_ptr<detail::CommState> state, int rank)
      : state_(std::move(state)), rank_(rank) {}

  void CollectiveBytes(const std::function<void()>& root_work);

  std::shared_ptr<detail::CommState> state_;
  int rank_ = -1;
};

// ---- templated collective implementations (tree-free, mailbox based) -----

namespace detail {
/// Internal tags live below kUserTagFloor; user code must use tags >= 0.
inline constexpr int kTagBcast = -2;
inline constexpr int kTagReduce = -3;
inline constexpr int kTagGather = -4;
inline constexpr int kTagAllGather = -5;
inline constexpr int kTagSplit = -6;
inline constexpr int kTagAllToAll = -7;
inline constexpr int kTagAllReduce = -8;
inline constexpr int kTagClockSync = -9;

template <typename T>
void ApplyOp(Op op, std::span<T> acc, std::span<const T> in) {
  for (std::size_t i = 0; i < acc.size(); ++i) {
    switch (op) {
      case Op::kSum: acc[i] += in[i]; break;
      case Op::kProd: acc[i] *= in[i]; break;
      case Op::kMin: acc[i] = in[i] < acc[i] ? in[i] : acc[i]; break;
      case Op::kMax: acc[i] = in[i] > acc[i] ? in[i] : acc[i]; break;
    }
  }
}
}  // namespace detail

template <typename T>
void Comm::Bcast(std::span<T> data, int root) {
  if (Rank() == root) {
    for (int r = 0; r < Size(); ++r) {
      if (r == root) continue;
      Send<T>(r, detail::kTagBcast, data);
    }
  } else {
    auto recv = Recv<T>(root, detail::kTagBcast);
    if (recv.size() != data.size()) {
      throw std::runtime_error("mpimini::Bcast: length mismatch");
    }
    std::memcpy(data.data(), recv.data(), data.size_bytes());
  }
}

// Collectives receive from each source explicitly (never a wildcard): FIFO
// ordering per (source, tag) channel then guarantees that back-to-back
// collectives cannot consume each other's messages even when ranks run far
// ahead of one another.
template <typename T>
void Comm::Reduce(std::span<T> inout, Op op, int root) {
  if (Rank() == root) {
    for (int src = 0; src < Size(); ++src) {
      if (src == root) continue;
      Message m = RecvBytes(src, detail::kTagReduce);
      std::vector<T> in(m.payload.size() / sizeof(T));
      std::memcpy(in.data(), m.payload.data(), m.payload.size());
      if (in.size() != inout.size()) {
        throw std::runtime_error("mpimini::Reduce: length mismatch");
      }
      detail::ApplyOp<T>(op, inout, in);
    }
  } else {
    Send<T>(root, detail::kTagReduce, std::span<const T>(inout.data(),
                                                         inout.size()));
  }
}

// AllReduce is its own collective on a dedicated tag, not Reduce+Bcast
// composed: composing the two interleaves kTagReduce/kTagBcast traffic of
// back-to-back collectives and doubles the number of mailbox round trips on
// the scalar hot path (flow-solver residual norms call AllReduceValue every
// iteration).  Root accumulates from every rank and sends the result back.
template <typename T>
void Comm::AllReduce(std::span<T> inout, Op op) {
  constexpr int kRoot = 0;
  if (Rank() == kRoot) {
    for (int src = 0; src < Size(); ++src) {
      if (src == kRoot) continue;
      Message m = RecvBytes(src, detail::kTagAllReduce);
      if (m.payload.size() != inout.size_bytes()) {
        throw std::runtime_error("mpimini::AllReduce: length mismatch");
      }
      std::vector<T> in(inout.size());
      std::memcpy(in.data(), m.payload.data(), m.payload.size());
      detail::ApplyOp<T>(op, inout,
                         std::span<const T>(in.data(), in.size()));
    }
    for (int dest = 0; dest < Size(); ++dest) {
      if (dest == kRoot) continue;
      Send<T>(dest, detail::kTagAllReduce,
              std::span<const T>(inout.data(), inout.size()));
    }
  } else {
    Send<T>(kRoot, detail::kTagAllReduce,
            std::span<const T>(inout.data(), inout.size()));
    Message m = RecvBytes(kRoot, detail::kTagAllReduce);
    if (m.payload.size() != inout.size_bytes()) {
      throw std::runtime_error("mpimini::AllReduce: length mismatch");
    }
    std::memcpy(inout.data(), m.payload.data(), m.payload.size());
  }
}

template <typename T>
std::vector<T> Comm::Gather(std::span<const T> mine, int root) {
  if (Rank() == root) {
    std::vector<T> all(mine.size() * static_cast<std::size_t>(Size()));
    std::memcpy(all.data() + mine.size() * static_cast<std::size_t>(root),
                mine.data(), mine.size_bytes());
    for (int src = 0; src < Size(); ++src) {
      if (src == root) continue;
      Message m = RecvBytes(src, detail::kTagGather);
      if (m.payload.size() != mine.size_bytes()) {
        throw std::runtime_error("mpimini::Gather: length mismatch");
      }
      std::memcpy(all.data() + mine.size() * static_cast<std::size_t>(src),
                  m.payload.data(), m.payload.size());
    }
    return all;
  }
  Send<T>(root, detail::kTagGather, mine);
  return {};
}

template <typename T>
std::vector<T> Comm::AllGather(std::span<const T> mine) {
  std::vector<T> all = Gather(mine, /*root=*/0);
  if (Rank() != 0) all.resize(mine.size() * static_cast<std::size_t>(Size()));
  Bcast(std::span<T>(all.data(), all.size()), /*root=*/0);
  return all;
}

}  // namespace mpimini
