// Seeded cross-scope blocking-under-lock for the nsm_analyze
// `blocking-under-lock` check: the blocking mpimini call sits in a helper,
// so no single brace scope contains both the guard and the call — the
// shape a line-oriented lint passes clean.  The analyzer must fail it
// (inverted nsm_analyze_cross_scope_fixture ctest).  Analyzer input only.
#include "core/thread_annotations.hpp"
#include "mpimini/comm.hpp"

namespace fixture {

struct Shared {
  core::Mutex mutex;
  int epoch = 0;
};

void WaitForPeers(mpimini::Comm& comm) {
  comm.Barrier();  // no guard in sight — this scope looks innocent
}

void PublishEpoch(Shared& shared, mpimini::Comm& comm) {
  core::MutexLock lock(shared.mutex);
  shared.epoch++;
  WaitForPeers(comm);  // blocks under shared.mutex, one call away
}

}  // namespace fixture
