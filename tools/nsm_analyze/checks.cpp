#include "checks.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

namespace nsm_analyze {

namespace {

std::string Location(const std::string& file, int line) {
  return file + ":" + std::to_string(line);
}

/// Basename of a display path.
std::string Basename(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Directory component of a lock id or decl file used to disambiguate
/// same-named members: "mpimini/comm::mutex" -> "mpimini",
/// "src/mpimini/comm_state.hpp" -> "mpimini".
std::string DirComponent(const std::string& path_or_id) {
  std::string s = path_or_id;
  if (s.rfind("src/", 0) == 0) s = s.substr(4);
  const std::size_t cut = s.find_first_of("/:");
  return cut == std::string::npos ? s : s.substr(0, cut);
}

std::string MemberOf(const std::string& lock_id) {
  const std::size_t sep = lock_id.rfind("::");
  return sep == std::string::npos ? lock_id : lock_id.substr(sep + 2);
}

}  // namespace

std::string RankConstantName(const std::string& lock_id) {
  std::string name = "k";
  bool upper_next = true;
  for (std::size_t i = 0; i < lock_id.size(); ++i) {
    const char c = lock_id[i];
    if (c == '/' || c == ':' || c == '_' || c == '.' || c == '-') {
      upper_next = true;
      continue;
    }
    if (upper_next && c >= 'a' && c <= 'z') {
      name.push_back(static_cast<char>(c - 'a' + 'A'));
    } else {
      name.push_back(c);
    }
    upper_next = false;
  }
  return name;
}

bool MatchesNameTaxonomy(const std::string& name) {
  if (name.empty() || name.front() == '.' || name.back() == '.') return false;
  bool saw_dot = false;
  char prev = '\0';
  for (char c : name) {
    const bool word = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                      c == '_';
    if (c == '.') {
      if (prev == '.' || prev == '\0') return false;
      saw_dot = true;
    } else if (!word) {
      return false;
    }
    prev = c;
  }
  return saw_dot;
}

// ---- index / graph ---------------------------------------------------------

struct Analysis::Summary {
  struct Acquire {
    std::string lock;
    int line;
    bool core;
  };
  struct Blocker {
    std::string name;
    int line;
  };
  std::vector<Acquire> acquires;
  std::vector<Blocker> blockers;  // blocking mpimini calls and condvar waits
};

Analysis::Analysis(std::vector<FileModel> files, Config config)
    : files_(std::move(files)), config_(std::move(config)) {}

const Function* Analysis::Resolve(const std::string& callee,
                                  const std::string& caller_file) const {
  const Function* same_file = nullptr;
  const Function* unique = nullptr;
  int count = 0;
  for (const FileModel& fm : files_) {
    for (const Function& f : fm.functions) {
      if (f.name != callee) continue;
      if (fm.file == caller_file) {
        if (same_file != nullptr) return nullptr;  // ambiguous in-file
        same_file = &f;
      }
      unique = &f;
      ++count;
    }
  }
  if (same_file != nullptr) return same_file;
  return count == 1 ? unique : nullptr;  // ambiguous across files: skip
}

void Analysis::BuildGraph() {
  if (graph_built_) return;
  graph_built_ = true;

  // Pass 1: per-function summaries (what each function acquires / where it
  // blocks), the facts one-level callee propagation consumes.
  std::unordered_map<const Function*, Summary> summaries;
  for (const FileModel& fm : files_) {
    for (const Function& f : fm.functions) {
      Summary s;
      for (const Event& e : f.events) {
        if (e.kind == EventKind::kGuardAcquire) {
          s.acquires.push_back({e.name, e.line, e.core_guard});
        } else if (e.kind == EventKind::kBlockingCall) {
          s.blockers.push_back({e.name, e.line});
        } else if (e.kind == EventKind::kCondWait) {
          s.blockers.push_back({"CondVar::Wait", e.line});
        }
      }
      summaries.emplace(&f, std::move(s));
    }
  }

  std::map<std::pair<std::string, std::string>, std::string> edge_witness;
  std::set<std::string> locks;
  std::set<std::string> core_locks;

  struct Live {
    std::string lock;
    int depth;
    int line;
  };

  for (const FileModel& fm : files_) {
    const bool blocking_allowed =
        config_.blocking_under_lock_allowed.count(fm.file) != 0;
    for (const Function& f : fm.functions) {
      std::vector<Live> live;
      for (const Event& e : f.events) {
        switch (e.kind) {
          case EventKind::kScopeClose:
            while (!live.empty() && live.back().depth > e.depth) {
              live.pop_back();
            }
            break;
          case EventKind::kGuardAcquire: {
            locks.insert(e.name);
            if (e.core_guard) core_locks.insert(e.name);
            for (const Live& held : live) {
              if (held.lock == e.name) continue;
              edge_witness.emplace(
                  std::make_pair(held.lock, e.name),
                  Location(fm.file, e.line) + " (" + f.qualified + "): `" +
                      e.name + "` acquired while `" + held.lock +
                      "` held since line " + std::to_string(held.line));
            }
            live.push_back({e.name, e.depth, e.line});
            break;
          }
          case EventKind::kCondWait:
          case EventKind::kBlockingCall: {
            if (live.empty() || blocking_allowed) break;
            const char* what = e.kind == EventKind::kCondWait
                                   ? "condition-variable wait"
                                   : (e.collective ? "collective"
                                                   : "blocking mpimini call");
            Finding fi;
            fi.file = fm.file;
            fi.line = e.line;
            fi.rule = "blocking-under-lock";
            fi.message = std::string(what) + " `" + e.name + "` in " +
                         f.qualified + " while guard on `" +
                         live.back().lock + "` (acquired line " +
                         std::to_string(live.back().line) +
                         ") is live: a peer rank needing the mutex "
                         "deadlocks the call";
            blocking_findings_.push_back(std::move(fi));
            break;
          }
          case EventKind::kCall: {
            const Function* callee = Resolve(e.name, fm.file);
            if (callee == nullptr || callee == &f || live.empty()) break;
            const Summary& cs = summaries.at(callee);
            for (const Summary::Acquire& a : cs.acquires) {
              locks.insert(a.lock);
              if (a.core) core_locks.insert(a.lock);
              for (const Live& held : live) {
                if (held.lock == a.lock) continue;
                edge_witness.emplace(
                    std::make_pair(held.lock, a.lock),
                    Location(fm.file, e.line) + " (" + f.qualified +
                        ") holds `" + held.lock + "` and calls " +
                        callee->qualified + ", which acquires `" + a.lock +
                        "` at " + Location(callee->file, a.line));
              }
            }
            if (!blocking_allowed) {
              for (const Summary::Blocker& b : cs.blockers) {
                Finding fi;
                fi.file = fm.file;
                fi.line = e.line;
                fi.rule = "blocking-under-lock";
                fi.message =
                    f.qualified + " holds guard on `" + live.back().lock +
                    "` (acquired line " +
                    std::to_string(live.back().line) + ") across a call to " +
                    callee->qualified + ", which reaches blocking `" +
                    b.name + "` at " + Location(callee->file, b.line) +
                    " (cross-scope)";
                blocking_findings_.push_back(std::move(fi));
              }
            }
            break;
          }
        }
      }
    }
  }

  locks_.assign(locks.begin(), locks.end());
  core_locks_.assign(core_locks.begin(), core_locks.end());
  for (const auto& [edge, witness] : edge_witness) {
    edges_.push_back({edge.first, edge.second, witness});
  }
}

// ---- check 1 + 2 -----------------------------------------------------------

void Analysis::CheckLockOrderAndBlocking(bool lock_order, bool blocking,
                                         std::vector<Finding>* findings) {
  BuildGraph();
  if (blocking) {
    findings->insert(findings->end(), blocking_findings_.begin(),
                     blocking_findings_.end());
  }
  if (!lock_order) return;

  // Cycle detection over the acquired-before graph.  Any cycle is a
  // deadlock schedule; for the classic ABBA two-cycle the two witnesses
  // are exactly the "two paths" the finding must print.
  std::map<std::string, std::vector<const LockEdge*>> adj;
  for (const LockEdge& e : edges_) adj[e.from].push_back(&e);

  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<const LockEdge*> path;
  std::set<std::string> reported;  // canonical cycle keys

  struct Dfs {
    std::map<std::string, std::vector<const LockEdge*>>& adj;
    std::map<std::string, int>& color;
    std::vector<const LockEdge*>& path;
    std::set<std::string>& reported;
    std::vector<Finding>* findings;

    void Visit(const std::string& u) {
      color[u] = 1;
      for (const LockEdge* e : adj[u]) {
        if (color[e->to] == 1) {
          Report(e);
        } else if (color[e->to] == 0) {
          path.push_back(e);
          Visit(e->to);
          path.pop_back();
        }
      }
      color[u] = 2;
    }

    void Report(const LockEdge* back) {
      // The cycle: the suffix of `path` starting where `back->to` was
      // entered, plus the back edge itself.
      std::vector<const LockEdge*> cycle;
      bool in_cycle = path.empty();
      for (const LockEdge* e : path) {
        if (e->from == back->to) in_cycle = true;
        if (in_cycle) cycle.push_back(e);
      }
      cycle.push_back(back);

      std::set<std::string> members;
      for (const LockEdge* e : cycle) members.insert(e->from);
      std::string key;
      for (const std::string& m : members) key += m + "|";
      if (!reported.insert(key).second) return;

      std::ostringstream msg;
      msg << "lock-order cycle (" << cycle.size()
          << " witness path(s) — a schedule interleaving them deadlocks):";
      for (const LockEdge* e : cycle) {
        msg << "\n    `" << e->from << "` -> `" << e->to << "`  "
            << e->witness;
      }
      Finding fi;
      const std::string& loc = cycle.front()->witness;
      const std::size_t colon = loc.find(':');
      fi.file = colon == std::string::npos ? "" : loc.substr(0, colon);
      fi.line = 0;
      fi.rule = "lock-order";
      fi.message = msg.str();
      findings->push_back(std::move(fi));
    }
  } dfs{adj, color, path, reported, findings};

  for (const std::string& lock : locks_) {
    if (color[lock] == 0) dfs.Visit(lock);
  }
}

// ---- check 3 ---------------------------------------------------------------

void Analysis::CheckCollectiveDivergence(std::vector<Finding>* findings) {
  for (const FileModel& fm : files_) {
    if (config_.divergence_allowed.count(fm.file) != 0) continue;
    for (const RankConditional& rc : fm.rank_conditionals) {
      // Compare the multisets of collective names on the two branches.
      std::multiset<std::string> then_names;
      std::multiset<std::string> else_names;
      for (const BranchCollective& c : rc.then_branch) {
        then_names.insert(c.name);
      }
      for (const BranchCollective& c : rc.else_branch) {
        else_names.insert(c.name);
      }
      if (then_names == else_names) continue;

      auto describe = [](const std::vector<BranchCollective>& branch) {
        if (branch.empty()) return std::string("nothing");
        std::string out;
        for (const BranchCollective& c : branch) {
          if (!out.empty()) out += ", ";
          out += "`" + c.name + "` (line " + std::to_string(c.line) + ")";
        }
        return out;
      };

      Finding fi;
      fi.file = fm.file;
      fi.line = rc.line;
      fi.rule = "collective-divergence";
      if (rc.is_switch) {
        fi.message =
            "collective call inside a switch on the rank: " +
            describe(rc.then_branch) +
            " runs on some ranks only — every rank must make the same "
            "collective calls in the same order or the others hang";
      } else {
        fi.message =
            "rank-conditional collective: then-branch calls " +
            describe(rc.then_branch) + ", " +
            (rc.has_else ? "else-branch calls " + describe(rc.else_branch)
                         : std::string("and there is no else branch")) +
            " — ranks taking the other path never enter the collective and "
            "the callers hang";
      }
      findings->push_back(std::move(fi));
    }
  }
}

// ---- check 4: registry -----------------------------------------------------

namespace {

struct NameInfo {
  std::set<std::string> kinds;  // "span" / "metric"
  std::set<std::string> files;
  std::string first_file;
  int first_line = 0;
};

std::map<std::string, NameInfo> CollectNames(
    const std::vector<FileModel>& files) {
  std::map<std::string, NameInfo> names;
  for (const FileModel& fm : files) {
    for (const NameUse& use : fm.names) {
      NameInfo& info = names[use.name];
      info.kinds.insert(use.kind == NameKind::kSpan ? "span" : "metric");
      info.files.insert(use.file);
      if (info.first_line == 0) {
        info.first_file = use.file;
        info.first_line = use.line;
      }
    }
  }
  return names;
}

/// Names registered in a REGISTRY.md: the first backticked cell of each
/// table row.
std::set<std::string> ParseRegistry(const std::string& text) {
  std::set<std::string> names;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::size_t i = line.find_first_not_of(" \t");
    if (i == std::string::npos || line[i] != '|') continue;
    const std::size_t open = line.find('`', i);
    if (open == std::string::npos) continue;
    const std::size_t close = line.find('`', open + 1);
    if (close == std::string::npos) continue;
    names.insert(line.substr(open + 1, close - open - 1));
  }
  return names;
}

}  // namespace

void Analysis::CheckRegistry(const std::string* registry_text,
                             std::vector<Finding>* findings) {
  const std::map<std::string, NameInfo> names = CollectNames(files_);

  for (const auto& [name, info] : names) {
    if (!MatchesNameTaxonomy(name)) {
      Finding fi;
      fi.file = info.first_file;
      fi.line = info.first_line;
      fi.rule = "registry";
      fi.message = "\"" + name +
                   "\" does not match the dotted lowercase layer.phase "
                   "taxonomy (DESIGN.md §5)";
      findings->push_back(std::move(fi));
      continue;
    }
    // Per-directory prefix rules (`prefix` directives in nsm_rules.cfg).
    for (const std::string& file : info.files) {
      const std::string base = Basename(file);
      for (const PrefixRule& rule : config_.prefix_rules) {
        if (file.find(rule.dir) == std::string::npos) continue;
        if (!rule.tags.empty()) {
          bool tagged = false;
          for (const std::string& tag : rule.tags) {
            if (base.find(tag) != std::string::npos) tagged = true;
          }
          if (!tagged) continue;
        }
        bool ok = false;
        for (const std::string& prefix : rule.prefixes) {
          if (name.rfind(prefix, 0) == 0) ok = true;
        }
        if (!ok) {
          std::string allowed;
          for (const std::string& prefix : rule.prefixes) {
            if (!allowed.empty()) allowed += " or ";
            allowed += "`" + prefix + "`";
          }
          Finding fi;
          fi.file = file;
          fi.line = info.first_line;
          fi.rule = "registry";
          fi.message = "name \"" + name + "\" recorded under " + rule.dir +
                       " must carry the " + allowed + " prefix";
          findings->push_back(std::move(fi));
        }
      }
    }
  }

  if (registry_text == nullptr) return;
  const std::set<std::string> registered = ParseRegistry(*registry_text);
  for (const auto& [name, info] : names) {
    if (registered.count(name) == 0) {
      Finding fi;
      fi.file = info.first_file;
      fi.line = info.first_line;
      fi.rule = "registry";
      fi.message = "name \"" + name +
                   "\" is not in docs/REGISTRY.md — regenerate with "
                   "`nsm_analyze --write-registry`";
      findings->push_back(std::move(fi));
    }
  }
  for (const std::string& name : registered) {
    if (names.count(name) == 0) {
      Finding fi;
      fi.file = "docs/REGISTRY.md";
      fi.line = 0;
      fi.rule = "registry";
      fi.message = "registry entry \"" + name +
                   "\" is no longer recorded anywhere in the scanned tree — "
                   "regenerate with `nsm_analyze --write-registry`";
      findings->push_back(std::move(fi));
    }
  }
}

std::string Analysis::GenerateRegistry() {
  const std::map<std::string, NameInfo> names = CollectNames(files_);
  std::ostringstream out;
  out << "# Span & metric name registry\n"
      << "\n"
      << "Generated by `nsm_analyze --write-registry` from every span, "
         "instant-event,\n"
      << "and metric name literal in `src/`.  CI fails when a recorded name "
         "is absent\n"
      << "here or an entry below is no longer recorded anywhere "
         "(`nsm_analyze`'s\n"
      << "registry check) — regenerate after adding or retiring "
         "instrumentation:\n"
      << "\n"
      << "    ./build/tools/nsm_analyze/nsm_analyze --write-registry\n"
      << "\n"
      << "Every span is also a histogram: with the metrics plane on, a "
         "span's close\n"
      << "observes its duration in seconds into the histogram of the same "
         "name\n"
      << "(`metrics.json` `histograms`, `/metrics` `nsm_<name>`), so a "
         "timed region\n"
      << "has one name in the trace and in the metrics.\n"
      << "\n"
      << "| Name | Kind | Recorded in |\n"
      << "|------|------|-------------|\n";
  for (const auto& [name, info] : names) {
    out << "| `" << name << "` | ";
    std::string kinds;
    for (const std::string& k : info.kinds) {
      if (!kinds.empty()) kinds += ", ";
      kinds += k;
    }
    out << kinds << " | ";
    std::string files;
    for (const std::string& f : info.files) {
      if (!files.empty()) files += ", ";
      files += f;
    }
    out << files << " |\n";
  }
  return out.str();
}

// ---- lock ranks ------------------------------------------------------------

std::string Analysis::GenerateRanks(std::vector<Finding>* findings) {
  BuildGraph();

  // Kahn's algorithm over the rankable (core::Mutex) locks, alphabetical
  // tie-break so emission is deterministic; `lock-rank-last` locks are held
  // back until everything else is ranked (crash-dump mutexes must be
  // acquirable while anything is held).
  std::set<std::string> last(config_.lock_rank_last.begin(),
                             config_.lock_rank_last.end());
  std::map<std::string, std::set<std::string>> out_edges;
  std::map<std::string, int> in_degree;
  std::set<std::string> core(core_locks_.begin(), core_locks_.end());
  for (const std::string& lock : core_locks_) in_degree[lock] = 0;
  for (const LockEdge& e : edges_) {
    if (core.count(e.from) == 0 || core.count(e.to) == 0) continue;
    if (out_edges[e.from].insert(e.to).second) ++in_degree[e.to];
  }
  for (const std::string& lock : config_.lock_rank_last) {
    if (core.count(lock) != 0 && !out_edges[lock].empty()) {
      Finding fi;
      fi.file = "tools/nsm_rules.cfg";
      fi.rule = "lock-rank";
      fi.message = "lock-rank-last lock `" + lock +
                   "` has outgoing acquired-before edges — it cannot be "
                   "ranked last";
      findings->push_back(std::move(fi));
    }
  }

  std::vector<std::string> order;
  std::set<std::string> pending(core_locks_.begin(), core_locks_.end());
  while (!pending.empty()) {
    std::string next;
    for (const std::string& lock : pending) {  // alphabetical (set order)
      if (in_degree[lock] == 0 && last.count(lock) == 0) {
        next = lock;
        break;
      }
    }
    if (next.empty()) {
      for (const std::string& lock : config_.lock_rank_last) {
        if (pending.count(lock) != 0 && in_degree[lock] == 0) {
          next = lock;
          break;
        }
      }
    }
    if (next.empty()) {
      Finding fi;
      fi.rule = "lock-rank";
      fi.message =
          "cannot assign lock ranks: the acquired-before graph has a cycle "
          "(see the lock-order findings)";
      findings->push_back(std::move(fi));
      break;
    }
    order.push_back(next);
    pending.erase(next);
    for (const std::string& to : out_edges[next]) {
      if (pending.count(to) != 0) --in_degree[to];
    }
  }

  std::set<std::string> constants;
  std::ostringstream out;
  out << "// Generated by `nsm_analyze --write-ranks` - DO NOT EDIT.\n"
      << "//\n"
      << "// Lock-rank constants for the compile-time-gated "
         "(-DNSM_LOCK_RANK=ON)\n"
      << "// acquisition-order assertion in core::Mutex.  Rank order is the\n"
      << "// topological order of the analyzer's acquired-before graph\n"
      << "// (DESIGN.md §6): a thread may only acquire a mutex whose rank "
         "is\n"
      << "// strictly greater than that of every ranked mutex it already "
         "holds,\n"
      << "// so any interleaving the graph does not approve aborts naming "
         "both\n"
      << "// locks.  CI fails when this file drifts from what the analyzer\n"
      << "// would emit.\n"
      << "#pragma once\n"
      << "\n"
      << "#include \"core/thread_annotations.hpp\"\n"
      << "\n"
      << "namespace core::lock_rank {\n"
      << "\n";
  int rank = 10;
  for (const std::string& lock : order) {
    const std::string constant = RankConstantName(lock);
    if (!constants.insert(constant).second) {
      Finding fi;
      fi.rule = "lock-rank";
      fi.message = "rank constant name collision: two locks map to `" +
                   constant + "`";
      findings->push_back(std::move(fi));
    }
    out << "inline constexpr LockRankSpec " << constant << "{" << rank
        << ", \"" << lock << "\"};\n";
    rank += 10;
  }
  out << "\n"
      << "}  // namespace core::lock_rank\n";
  return out.str();
}

void Analysis::CheckLockRanks(const std::string* committed_ranks,
                              std::vector<Finding>* findings) {
  BuildGraph();

  if (committed_ranks != nullptr) {
    std::vector<Finding> generation;
    const std::string expected = GenerateRanks(&generation);
    findings->insert(findings->end(), generation.begin(), generation.end());
    if (*committed_ranks != expected) {
      Finding fi;
      fi.file = "src/core/lock_ranks.hpp";
      fi.rule = "lock-rank";
      fi.message =
          "src/core/lock_ranks.hpp is stale — regenerate with "
          "`nsm_analyze --write-ranks`";
      findings->push_back(std::move(fi));
    }
  }

  // Every acquired core::Mutex must have exactly one declaration carrying
  // its own constant.  A declaration is matched to a lock id by member name
  // plus directory (the declaring header and the acquiring .cpp share a
  // directory in this repo's layout).
  std::vector<const RankedMutexDecl*> decls;
  for (const FileModel& fm : files_) {
    for (const RankedMutexDecl& d : fm.ranked_decls) decls.push_back(&d);
  }
  for (const std::string& lock : core_locks_) {
    const std::string member = MemberOf(lock);
    const std::string dir = DirComponent(lock);
    std::vector<const RankedMutexDecl*> matches;
    for (const RankedMutexDecl* d : decls) {
      if (d->member == member && DirComponent(d->file) == dir) {
        matches.push_back(d);
      }
    }
    if (matches.empty()) {
      Finding fi;
      fi.rule = "lock-rank";
      fi.message = "no core::Mutex declaration found for acquired lock `" +
                   lock + "` (member `" + member +
                   "` in directory `" + dir + "`)";
      findings->push_back(std::move(fi));
      continue;
    }
    if (matches.size() > 1) {
      Finding fi;
      fi.file = matches[1]->file;
      fi.line = matches[1]->line;
      fi.rule = "lock-rank";
      fi.message = "ambiguous declarations for lock `" + lock +
                   "`: two `core::Mutex " + member +
                   "` members in directory `" + dir +
                   "` — rename one (DESIGN.md §6 lock-identity rule)";
      findings->push_back(std::move(fi));
      continue;
    }
    const RankedMutexDecl* d = matches.front();
    const std::string expected = RankConstantName(lock);
    if (d->spec_constant.empty()) {
      Finding fi;
      fi.file = d->file;
      fi.line = d->line;
      fi.rule = "lock-rank";
      fi.message = "`core::Mutex " + member +
                   "` is acquired but carries no lock-rank spec — declare "
                   "it as `core::Mutex " + member +
                   "{core::lock_rank::" + expected + "};`";
      findings->push_back(std::move(fi));
    } else if (d->spec_constant != expected) {
      Finding fi;
      fi.file = d->file;
      fi.line = d->line;
      fi.rule = "lock-rank";
      fi.message = "`core::Mutex " + member + "` is bound to `" +
                   d->spec_constant + "` but its lock id `" + lock +
                   "` maps to `" + expected + "`";
      findings->push_back(std::move(fi));
    }
  }
}

// ---- hygiene ---------------------------------------------------------------

void Analysis::CheckHygiene(std::vector<Finding>* findings) {
  // Headers that belong only where their std:: vocabulary is used, with the
  // name prefixes that count as a use (`std::memory_order_relaxed` uses
  // <atomic>).
  static const std::map<std::string, std::vector<std::string>> kVocabulary = {
      {"mutex",
       {"mutex", "lock_guard", "unique_lock", "scoped_lock", "timed_mutex",
        "recursive_mutex", "call_once", "once_flag"}},
      {"condition_variable", {"condition_variable"}},
      {"atomic", {"atomic", "memory_order"}},
      {"thread", {"thread", "this_thread"}},
      {"deque", {"deque"}}};
  for (const FileModel& fm : files_) {
    std::map<std::string, int> first_line;
    for (const LineFact& inc : fm.includes) {
      const auto [first, fresh] = first_line.emplace(inc.text, inc.line);
      if (!fresh) {
        findings->push_back({fm.file, inc.line, "include-hygiene",
                             "duplicate include of <" + inc.text +
                                 "> (first at line " +
                                 std::to_string(first->second) + ")"});
      }
      const auto vocabulary = kVocabulary.find(inc.text);
      if (vocabulary == kVocabulary.end()) continue;
      // Names starting with `word` sort first among those >= `word`.
      const auto used = [&](const std::string& word) {
        const auto name = fm.std_names.lower_bound(word);
        return name != fm.std_names.end() && name->rfind(word, 0) == 0;
      };
      if (std::none_of(vocabulary->second.begin(), vocabulary->second.end(),
                       used)) {
        findings->push_back({fm.file, inc.line, "include-hygiene",
                             "<" + inc.text +
                                 "> included but none of its std:: names "
                                 "are used"});
      }
    }
    if (config_.raw_new_allowed.count(fm.file) == 0) {
      for (const LineFact& alloc : fm.raw_allocations) {
        findings->push_back({fm.file, alloc.line, "raw-new",
                             "raw `" + alloc.text +
                                 "` outside raw-new-allowed files: use "
                                 "core::Buffer or a container"});
      }
    }
    for (int line : fm.json_write_lines) {
      findings->push_back(
          {fm.file, line, "json-atomic-write",
           "JSON artifacts must go through instrument::AtomicFile (temp + "
           "rename), not a plain ofstream"});
    }
  }
}

std::string Analysis::GenerateDot() {
  BuildGraph();
  std::ostringstream out;
  out << "// Acquired-before graph emitted by `nsm_analyze --dot`.\n"
      << "// Nodes: every lock acquired in the scanned tree; an edge A -> B\n"
      << "// means some thread acquires B while holding A.  A cycle here is\n"
      << "// a deadlock schedule.\n"
      << "digraph lock_order {\n"
      << "  rankdir=LR;\n"
      << "  node [shape=box, fontname=\"monospace\"];\n";
  for (const std::string& lock : locks_) {
    out << "  \"" << lock << "\";\n";
  }
  for (const LockEdge& e : edges_) {
    std::string label = e.witness;
    const std::size_t paren = label.find(" (");
    if (paren != std::string::npos) label.resize(paren);  // file:line only
    out << "  \"" << e.from << "\" -> \"" << e.to << "\" [label=\"" << label
        << "\"];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace nsm_analyze
