// Internal: shared communicator state. Included only by mpimini .cpp files.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/lock_ranks.hpp"
#include "core/thread_annotations.hpp"
#include "mpimini/comm.hpp"

namespace mpimini::detail {

// Shared state of one communicator: one mailbox per destination rank plus a
// central barrier and split rendezvous, all guarded by a single annotated
// mutex and one condition variable that every send notifies.  Ranks are
// threads running in parallel on the host's cores, so waking every waiting
// rank per message has a real cost; finer-grained wakeups are an open
// optimisation.  Every field below the mutex is NSM_GUARDED_BY it, so the
// Clang thread-safety analysis proves each access in comm.cpp holds the
// lock — the mailbox is the highest-traffic shared structure in the system.
struct CommState {
  explicit CommState(int n)
      : size(n),
        boxes(static_cast<std::size_t>(n)),
        split_seq(static_cast<std::size_t>(n), 0) {}

  struct SplitOp {
    // rank -> (color, key)
    std::map<int, std::pair<int, int>> entries;
    bool ready = false;
    // rank -> (child state, child rank); absent for color < 0.
    std::map<int, std::pair<std::shared_ptr<CommState>, int>> result;
    int taken = 0;
  };

  const int size;
  core::Mutex mutex{core::lock_rank::kMpiminiCommMutex};
  core::CondVar cv;
  std::vector<std::deque<Message>> boxes NSM_GUARDED_BY(mutex);

  int barrier_count NSM_GUARDED_BY(mutex) = 0;
  std::uint64_t barrier_generation NSM_GUARDED_BY(mutex) = 0;

  std::vector<std::uint64_t> split_seq NSM_GUARDED_BY(mutex);
  std::map<std::uint64_t, SplitOp> splits NSM_GUARDED_BY(mutex);
};

}  // namespace mpimini::detail
