// Rule configuration for nsm_analyze.
//
// tools/nsm_rules.cfg is the single source of truth for per-file allowlists
// and name-prefix rules.  Line-oriented format, `#` comments:
//
//   raw-new-allowed <path>              file may use raw new/delete
//   blocking-under-lock-allowed <path>  file may block while holding a guard
//                                       (the condvar-under-own-mutex pattern)
//   divergence-allowed <path>           file exempt from collective-divergence
//   lock-rank-last <lock-id>            force this lock to the highest rank
//                                       (crash-dump paths must be acquirable
//                                       while anything else is held)
//   prefix <dir> <tags|*> <prefixes>    span/metric names in files under
//                                       <dir> whose basename contains one of
//                                       the comma-separated <tags> must start
//                                       with one of the comma-separated
//                                       <prefixes>
#pragma once

#include <string>
#include <unordered_set>
#include <vector>

namespace nsm_analyze {

struct PrefixRule {
  std::string dir;                     // path fragment, e.g. "src/codec/"
  std::vector<std::string> tags;       // basename substrings; empty = any
  std::vector<std::string> prefixes;   // allowed name prefixes, e.g. "codec."
};

struct Config {
  std::unordered_set<std::string> raw_new_allowed;
  std::unordered_set<std::string> blocking_under_lock_allowed;
  std::unordered_set<std::string> divergence_allowed;
  std::vector<std::string> lock_rank_last;  // lock ids, in forced order
  std::vector<PrefixRule> prefix_rules;
};

/// Parse `path`.  Returns false (with *error set) on I/O failure or a
/// malformed directive — a config typo must fail the gate, not silently
/// drop an allowlist entry.
bool LoadConfig(const std::string& path, Config* config, std::string* error);

}  // namespace nsm_analyze
