// nsm_analyze model: per-file extraction of the facts the checks consume.
//
// From each translation unit's token stream the extractor produces:
//
//   - every function *definition* (free function, member function defined
//     in-class or out-of-line), with its ordered event list:
//       guard acquisitions  (core::MutexLock / std::lock_guard /
//                            std::unique_lock / std::scoped_lock), with the
//                            brace depth at which the guard lives;
//       condvar waits       (.Wait(...) — the CondVar vocabulary);
//       blocking mpimini    (collectives, receives, probes — method calls
//                            and, inside comm's own implementation, bare
//                            member calls);
//       plain calls         (for one-level call-graph propagation);
//   - every span/metric name literal (registry extraction, multi-line safe);
//   - every rank-conditional (`if`/`switch` testing rank/Rank()) with the
//     collective call names on each branch (collective-divergence check);
//   - every `core::Mutex` declaration carrying a lock-rank spec constant
//     (rank-binding validation);
//   - the hygiene facts: `#include`s, raw `new`/`delete` expressions,
//     `std::ofstream`s on a line naming JSON, and the `std::` names used.
//
// Lock identity: a guard names its mutex by the *member* it locks (the last
// identifier of the first constructor argument), qualified by the acquiring
// file — "mpimini/comm::mutex", "core/async_pipeline::mutex_".  Two members
// with the same name locked from the same file would alias; the repo's
// convention of one mutex-bearing structure per translation unit keeps the
// identity exact, and DESIGN.md §6 documents the rule.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace nsm_analyze {

enum class EventKind {
  kGuardAcquire,  // a scoped guard came alive
  kCondWait,      // .Wait(mutex) — blocks until notified
  kBlockingCall,  // blocking mpimini call (collective / receive / probe)
  kCall,          // plain call, candidate for callee propagation
  kScopeClose,    // a '}' closed a scope; guards declared deeper die here
};

struct Event {
  EventKind kind;
  int line = 0;
  int depth = 0;          // brace depth inside the function body (body = 1);
                          // kScopeClose: the depth AFTER the close — guards
                          // with depth > this are dead
  std::string name;       // guard: lock id; calls: callee name
  bool collective = false;  // kBlockingCall: one of the true collectives
  bool core_guard = false;  // kGuardAcquire: core::MutexLock (rankable) vs
                            // std:: guard over a plain std::mutex
};

struct Function {
  std::string name;        // unqualified name (last component)
  std::string qualified;   // as written, e.g. "Comm::Barrier"
  std::string file;        // display path, e.g. "src/mpimini/comm.cpp"
  int line = 0;
  std::vector<Event> events;  // in source order
};

enum class NameKind { kSpan, kMetric };

struct NameUse {
  NameKind kind;
  std::string name;
  std::string file;
  int line = 0;
};

/// One collective call site inside a rank-conditional branch.
struct BranchCollective {
  std::string name;
  int line = 0;
};

struct RankConditional {
  std::string file;
  int line = 0;
  bool is_switch = false;
  bool has_else = false;
  std::vector<BranchCollective> then_branch;
  std::vector<BranchCollective> else_branch;
};

/// A `core::Mutex` declaration.  `spec_constant` is the referenced
/// `core::lock_rank::k...` constant, or empty for an unranked declaration
/// (`core::Mutex m;`) — the lock-rank gate requires a spec on every mutex
/// the code actually acquires.
struct RankedMutexDecl {
  std::string file;
  int line = 0;
  std::string member;         // declared member name
  std::string spec_constant;  // e.g. "kMpiminiCommMutex"; empty = unranked
};

/// An `#include`'s header, or a raw `new`/`delete` keyword, with its line.
struct LineFact {
  std::string text;
  int line = 0;
};

struct FileModel {
  std::string file;  // display path
  std::vector<Function> functions;
  std::vector<NameUse> names;
  std::vector<RankConditional> rank_conditionals;
  std::vector<RankedMutexDecl> ranked_decls;
  std::vector<LineFact> includes;
  std::vector<LineFact> raw_allocations;  // `new`/`delete` expressions
  std::vector<int> json_write_lines;      // std::ofstream on a JSON line
  std::set<std::string> std_names;        // X of every `std::X`
};

/// True for the mpimini calls that block until a peer rank acts.
bool IsBlockingCall(const std::string& name);
/// True for the subset that are collectives (every rank must call them).
bool IsCollectiveCall(const std::string& name);

/// Extract the model from one file's tokens.  `display_path` is the
/// repo-relative path used for findings and lock identities.
FileModel ExtractFile(const std::string& display_path,
                      const std::vector<Token>& tokens);

/// Lock identity for a guard in `display_path` locking `member`:
/// "<dir>/<stem>::<member>" (e.g. "mpimini/comm::mutex").
std::string LockId(const std::string& display_path, const std::string& member);

}  // namespace nsm_analyze
