#include "lint/linter.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "util/string_util.h"

namespace sqlog::lint {

namespace {

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool MatchesAnyPrefix(const std::vector<std::string>& prefixes, std::string_view path) {
  for (const auto& prefix : prefixes) {
    if (StartsWith(path, prefix)) return true;
  }
  return false;
}

/// Inline suppressions for one file, rebuilt from the fact table.
struct Suppressions {
  std::map<size_t, std::set<std::string, std::less<>>> allowed_by_line;

  explicit Suppressions(const FileFacts& facts) {
    for (const auto& supp : facts.suppressions) {
      allowed_by_line[supp.line].emplace(supp.rule);
    }
  }

  bool Allows(std::string_view rule, size_t line) const {
    auto it = allowed_by_line.find(line);
    return it != allowed_by_line.end() && it->second.count(rule) > 0;
  }
};

void Report(std::vector<Finding>& findings, const Suppressions& supp,
            const std::string& rel_path, size_t line, std::string_view rule,
            std::string message) {
  if (supp.Allows(rule, line)) return;
  findings.push_back({rel_path, line, std::string(rule), std::move(message)});
}

// --- single-file rule-site checks (R1, R2, R3, R4, R6, R7) ---------------

bool InDeterministicScope(std::string_view rel_path) {
  return StartsWith(rel_path, "src/core/") || StartsWith(rel_path, "src/log/") ||
         StartsWith(rel_path, "tests/");
}

void CheckRuleSites(const LintConfig& config, const std::string& rel_path,
                    const FileFacts& facts, const Suppressions& supp,
                    std::vector<Finding>& findings) {
  const bool r1_scoped = !MatchesAnyPrefix(config.r1_allow, rel_path);
  const bool deterministic = InDeterministicScope(rel_path);
  const bool r4_scoped = !EndsWith(rel_path, "util/thread_annotations.h");
  const bool r6_scoped =
      StartsWith(rel_path, "src/") && !MatchesAnyPrefix(config.r6_allow, rel_path);
  const bool r7_scoped =
      StartsWith(rel_path, "src/") && !MatchesAnyPrefix(config.r7_allow, rel_path);

  for (const auto& site : facts.rule_sites) {
    if (site.rule == "R1") {
      if (!r1_scoped) continue;
      Report(findings, supp, rel_path, site.line, "R1",
             StrFormat("direct SQL-parser call '%s' outside the parse-avoidance "
                       "allowlist; route statements through core::StreamingParser / the "
                       "parse cache, or extend r1-allow in the lint config",
                       site.detail.c_str()));
    } else if (site.rule == "R2") {
      if (!deterministic) continue;
      Report(findings, supp, rel_path, site.line, "R2",
             StrFormat("nondeterminism source '%s' in pipeline code (src/core, "
                       "src/log, tests must be bit-deterministic); use sqlog::Rng "
                       "with a fixed seed, or take timestamps from the input records",
                       site.detail.c_str()));
    } else if (site.rule == "R3") {
      if (!deterministic) continue;
      Report(findings, supp, rel_path, site.line, "R3",
             StrFormat("range-for over unordered container '%s': iteration order is "
                       "not deterministic; sort a copy first, or assert the order "
                       "cannot reach output or hashed state with a "
                       "deterministic-merge(reason) tag",
                       site.detail.c_str()));
    } else if (site.rule == "R4") {
      if (!r4_scoped) continue;
      Report(findings, supp, rel_path, site.line, "R4",
             StrFormat("raw '%s' — use the annotated sqlog::util::Mutex / "
                       "MutexLock / CondVarLock wrappers (util/thread_annotations.h) "
                       "so -Wthread-safety and lint rule R5 can check the guarded "
                       "state",
                       site.detail.c_str()));
    } else if (site.rule == "R6") {
      if (!r6_scoped) continue;
      Report(findings, supp, rel_path, site.line, "R6",
             "class derives from core::Detector outside the registration unit; "
             "implement detectors in src/core/detectors.cc next to "
             "RegisterBuiltinDetectors() so the global registry stays the single "
             "catalog, or extend r6-allow in the lint config");
    } else if (site.rule == "R7") {
      if (!r7_scoped) continue;
      Report(findings, supp, rel_path, site.line, "R7",
             StrFormat("locale-dependent <cctype> call '%s'; use the "
                       "byte-class helpers from util/byte_class.h (IsAlphaByte, "
                       "ToLowerByte, ...) so classification cannot vary with the "
                       "host locale, or extend r7-allow in the lint config",
                       site.detail.c_str()));
    }
  }
}

// --- R5: concurrency-manifest annotations -------------------------------

void CheckR5(const LintConfig& config, const std::string& rel_path,
             const FileFacts& facts, const Suppressions& supp,
             std::vector<Finding>& findings) {
  static const std::set<std::string, std::less<>> kSkipLeading = {
      "using", "typedef", "friend", "static", "constexpr", "const",
      "class",  "struct", "enum",   "explicit"};
  for (const auto& entry : config.manifest) {
    if (!EndsWith(rel_path, entry.path_suffix)) continue;
    bool type_found = false;
    for (const auto& type : facts.types) {
      if (type.name == entry.type_name) type_found = true;
    }
    if (!type_found) {
      findings.push_back({rel_path, 1, "config",
                          StrFormat("concurrency-manifest type '%s' not found in this "
                                    "file; update the lint config",
                                    entry.type_name.c_str())});
      continue;
    }
    for (const auto& member : facts.members) {
      if (member.type_name != entry.type_name) continue;
      if (member.annotated) continue;
      if (kSkipLeading.count(member.leading) > 0) continue;
      if (member.leading == "Mutex") continue;  // the capability itself
      if (member.declarator.empty() || member.declarator.back() != '_') continue;
      Report(findings, supp, rel_path, member.line, "R5",
             StrFormat("mutable member '%s' of concurrency-manifest type '%s' has no "
                       "annotation; add SQLOG_GUARDED_BY(mu), SQLOG_SHARD_LOCAL, "
                       "SQLOG_CONST_AFTER_INIT, or SQLOG_SELF_SYNCHRONIZED "
                       "(util/thread_annotations.h)",
                       member.declarator.c_str(), entry.type_name.c_str()));
    }
  }
}

// --- R8: layering DAG ----------------------------------------------------

/// The layer a repo-relative path belongs to, or nullptr.
const LintConfig::Layer* LayerOf(const LintConfig& config, std::string_view path) {
  for (const auto& layer : config.layers) {
    if (StartsWith(path, layer.prefix)) return &layer;
  }
  return nullptr;
}

/// Resolves an include target to a repo-relative path. Quoted includes
/// resolve against the two include roots (src/, tools/) the build uses;
/// the raw target is tried last so fixture files can name repo paths
/// directly.
std::vector<std::string> IncludeCandidates(const std::string& target) {
  return {"src/" + target, "tools/" + target, target};
}

const LintConfig::Layer* IncludeTargetLayer(const LintConfig& config,
                                            const std::string& target) {
  for (const auto& cand : IncludeCandidates(target)) {
    if (const auto* layer = LayerOf(config, cand)) return layer;
  }
  return nullptr;
}

/// layer name → set of layer names it may (transitively) depend on.
using LayerClosure = std::map<std::string, std::set<std::string>>;

LayerClosure BuildLayerClosure(const LintConfig& config) {
  LayerClosure allowed;
  for (const auto& [from, to] : config.layer_edges) allowed[from].insert(to);
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [from, tos] : allowed) {
      std::set<std::string> next = tos;
      for (const auto& to : tos) {
        auto it = allowed.find(to);
        if (it == allowed.end()) continue;
        next.insert(it->second.begin(), it->second.end());
      }
      if (next.size() != tos.size()) {
        tos = std::move(next);
        changed = true;
      }
    }
  }
  return allowed;
}

void CheckR8Edges(const LintConfig& config, const LayerClosure& closure,
                  const std::string& rel_path, const FileFacts& facts,
                  const Suppressions& supp, std::vector<Finding>& findings) {
  const LintConfig::Layer* from = LayerOf(config, rel_path);
  if (from == nullptr) return;  // unlayered files are unconstrained
  auto it = closure.find(from->name);
  const std::set<std::string>* allowed = it == closure.end() ? nullptr : &it->second;
  for (const auto& inc : facts.includes) {
    if (inc.angled) continue;  // system headers are outside the DAG
    const LintConfig::Layer* to = IncludeTargetLayer(config, inc.target);
    if (to == nullptr || to->name == from->name) continue;
    if (allowed != nullptr && allowed->count(to->name) > 0) continue;
    Report(findings, supp, rel_path, inc.line, "R8",
           StrFormat("include \"%s\" is a layering back-edge: layer '%s' may not "
                     "depend on layer '%s' (declared DAG: util ← sql ← {log, "
                     "catalog} ← core ← {engine, analysis} ← tools); invert the "
                     "dependency or declare a layer-edge in the lint config",
                     inc.target.c_str(), from->name.c_str(), to->name.c_str()));
  }
}

/// Cross-file half of R8: cycles in the include graph restricted to
/// files present in the database. Each cycle is reported once, anchored
/// at its lexicographically-first member, with the full include chain.
void CheckR8Cycles(const FactDb& db,
                   const std::map<std::string, Suppressions>& supps,
                   std::vector<Finding>& findings) {
  // file → (resolved include target file, line of the #include)
  std::map<std::string, std::vector<std::pair<std::string, size_t>>> graph;
  for (const auto& [file, facts] : db) {
    for (const auto& inc : facts.includes) {
      if (inc.angled) continue;
      for (const auto& cand : IncludeCandidates(inc.target)) {
        auto it = db.find(cand);
        if (it == db.end()) continue;
        graph[file].push_back({cand, inc.line});
        break;
      }
    }
  }

  std::set<std::string> reported;  // canonical cycle keys
  std::vector<std::pair<std::string, size_t>> stack;  // (file, include line into next)
  std::set<std::string> on_stack;
  std::set<std::string> done;

  std::function<void(const std::string&)> visit = [&](const std::string& file) {
    on_stack.insert(file);
    for (const auto& [next, line] : graph[file]) {
      if (on_stack.count(next) > 0) {
        // Found a cycle: the stack suffix from `next` plus this edge.
        std::vector<std::string> cycle;
        size_t begin = 0;
        for (size_t k = 0; k < stack.size(); ++k) {
          if (stack[k].first == next) begin = k;
        }
        for (size_t k = begin; k < stack.size(); ++k) cycle.push_back(stack[k].first);
        cycle.push_back(file);
        // Canonicalize: rotate so the smallest file leads.
        size_t smallest = 0;
        for (size_t k = 1; k < cycle.size(); ++k) {
          if (cycle[k] < cycle[smallest]) smallest = k;
        }
        std::rotate(cycle.begin(), cycle.begin() + smallest, cycle.end());
        std::string key;
        std::string chain;
        for (const auto& f : cycle) {
          key += f + "|";
          chain += f + " -> ";
        }
        chain += cycle.front();
        if (!reported.insert(key).second) continue;
        auto supp_it = supps.find(file);
        if (supp_it != supps.end() && supp_it->second.Allows("R8", line)) continue;
        findings.push_back(
            {file, line, "R8",
             StrFormat("include cycle between layered translation units: %s; break "
                       "the cycle with a forward declaration or by moving the "
                       "shared pieces down a layer",
                       chain.c_str())});
        continue;
      }
      if (done.count(next) > 0) continue;
      stack.push_back({file, line});
      visit(next);
      stack.pop_back();
    }
    on_stack.erase(file);
    done.insert(file);
  };
  for (const auto& [file, _] : graph) {
    if (done.count(file) == 0) visit(file);
  }
}

// --- R9: lock-order graph ------------------------------------------------

struct LockWitness {
  std::string file;
  size_t line = 0;
  std::string via;  // "in <func>" or "call to <callee> from <func>"
  bool suppressed = false;
};

using LockEdges = std::map<std::pair<std::string, std::string>,
                           std::vector<LockWitness>>;

/// Resolves a call-site name to a unique function in the database.
/// Returns (file, function index) or nullopt when the name is unknown or
/// ambiguous — one-level resolution only ever follows certain matches.
struct ResolvedFn {
  const std::string* file = nullptr;
  size_t func = kNoFunction;
};

ResolvedFn ResolveCallee(const FactDb& db, const std::string& callee) {
  ResolvedFn out;
  size_t matches = 0;
  for (const auto& [file, facts] : db) {
    for (size_t k = 0; k < facts.functions.size(); ++k) {
      const auto& fn = facts.functions[k];
      bool match = fn.qual == callee || fn.name == callee ||
                   EndsWith(fn.qual, "::" + callee);
      if (!match) continue;
      ++matches;
      out.file = &file;
      out.func = k;
    }
  }
  if (matches != 1) return {};
  return out;
}

LockEdges BuildLockEdges(const FactDb& db,
                         const std::map<std::string, Suppressions>& supps) {
  LockEdges edges;
  auto supp_allows = [&](const std::string& file, size_t line) {
    auto it = supps.find(file);
    return it != supps.end() && it->second.Allows("R9", line);
  };
  for (const auto& [file, facts] : db) {
    for (const auto& acq : facts.acquisitions) {
      if (acq.held.empty()) continue;
      LockWitness witness{file, acq.line,
                          StrFormat("in %s", acq.func == kNoFunction
                                                 ? "<file scope>"
                                                 : facts.functions[acq.func].qual.c_str()),
                          supp_allows(file, acq.line)};
      for (const auto& held : acq.held) {
        edges[{held, acq.mutex}].push_back(witness);
      }
    }
    for (const auto& call : facts.locked_calls) {
      ResolvedFn target = ResolveCallee(db, call.callee);
      if (target.file == nullptr) continue;
      const FileFacts& callee_facts = db.at(*target.file);
      for (const auto& acq : callee_facts.acquisitions) {
        if (acq.func != target.func) continue;
        bool suppressed = supp_allows(file, call.line) ||
                          supp_allows(*target.file, acq.line);
        LockWitness witness{
            file, call.line,
            StrFormat("call to %s from %s",
                      callee_facts.functions[target.func].qual.c_str(),
                      call.func == kNoFunction
                          ? "<file scope>"
                          : facts.functions[call.func].qual.c_str()),
            suppressed};
        for (const auto& held : call.held) {
          edges[{held, acq.mutex}].push_back(witness);
        }
      }
    }
  }
  return edges;
}

void CheckR9(const FactDb& db, const std::map<std::string, Suppressions>& supps,
             std::vector<Finding>& findings) {
  LockEdges all_edges = BuildLockEdges(db, supps);

  // Active edges: at least one unsuppressed witness (shown in reports).
  std::map<std::pair<std::string, std::string>, LockWitness> edges;
  for (const auto& [key, witnesses] : all_edges) {
    for (const auto& w : witnesses) {
      if (w.suppressed) continue;
      edges.emplace(key, w);
      break;
    }
  }
  if (edges.empty()) return;

  // Self-edges are re-acquisition deadlocks on their own.
  std::set<std::string> nodes;
  for (const auto& [key, _] : edges) {
    nodes.insert(key.first);
    nodes.insert(key.second);
  }
  for (const auto& [key, witness] : edges) {
    if (key.first != key.second) continue;
    findings.push_back(
        {witness.file, witness.line, "R9",
         StrFormat("potential deadlock: lock '%s' is acquired while already held "
                   "(%s); the annotated wrappers do not support recursive "
                   "acquisition",
                   key.first.c_str(), witness.via.c_str())});
  }

  // Strongly connected components over the remaining edges; any SCC with
  // more than one node is a lock-order cycle.
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [key, _] : edges) {
    if (key.first != key.second) adj[key.first].push_back(key.second);
  }
  std::map<std::string, size_t> index, low;
  std::vector<std::string> stack;
  std::set<std::string> on_stack;
  size_t counter = 0;
  std::vector<std::vector<std::string>> sccs;
  std::function<void(const std::string&)> strongconnect = [&](const std::string& v) {
    index[v] = low[v] = counter++;
    stack.push_back(v);
    on_stack.insert(v);
    for (const auto& w : adj[v]) {
      if (index.count(w) == 0) {
        strongconnect(w);
        low[v] = std::min(low[v], low[w]);
      } else if (on_stack.count(w) > 0) {
        low[v] = std::min(low[v], index[w]);
      }
    }
    if (low[v] == index[v]) {
      std::vector<std::string> scc;
      while (true) {
        std::string w = stack.back();
        stack.pop_back();
        on_stack.erase(w);
        scc.push_back(w);
        if (w == v) break;
      }
      if (scc.size() > 1) {
        std::sort(scc.begin(), scc.end());
        sccs.push_back(std::move(scc));
      }
    }
  };
  for (const auto& node : nodes) {
    if (index.count(node) == 0) strongconnect(node);
  }
  std::sort(sccs.begin(), sccs.end());

  for (const auto& scc : sccs) {
    std::set<std::string> members(scc.begin(), scc.end());
    // Every edge inside the SCC is a witness path of the cycle.
    std::string paths;
    const LockWitness* anchor = nullptr;
    for (const auto& [key, witness] : edges) {
      if (key.first == key.second) continue;
      if (members.count(key.first) == 0 || members.count(key.second) == 0) continue;
      if (!paths.empty()) paths += "; ";
      paths += StrFormat("%s -> %s at %s:%zu (%s)", key.first.c_str(),
                         key.second.c_str(), witness.file.c_str(), witness.line,
                         witness.via.c_str());
      if (anchor == nullptr) anchor = &witness;
    }
    if (anchor == nullptr) continue;
    std::string cycle;
    for (const auto& node : scc) {
      if (!cycle.empty()) cycle += ", ";
      cycle += node;
    }
    findings.push_back(
        {anchor->file, anchor->line, "R9",
         StrFormat("potential deadlock: lock-order cycle among {%s}; witness "
                   "paths: %s — acquire these locks in one global order",
                   cycle.c_str(), paths.c_str())});
  }
}

// --- R10: hot-path allocations ------------------------------------------

void CheckR10(const LintConfig& config, const std::string& rel_path,
              const FileFacts& facts, const Suppressions& supp,
              std::vector<Finding>& findings) {
  const bool hot_file = MatchesAnyPrefix(config.hot, rel_path);
  for (const auto& alloc : facts.allocations) {
    if (alloc.func == kNoFunction) continue;  // static init runs once
    const FunctionFact& fn = facts.functions[alloc.func];
    if (!hot_file && !fn.hot) continue;
    if (supp.Allows("R10", alloc.line)) continue;
    if (supp.Allows("R10", fn.line)) continue;  // function-level suppression
    Report(findings, supp, rel_path, alloc.line, "R10",
           StrFormat("allocation '%s' in hot function '%s' (%s); reuse a caller or "
                     "member buffer, or justify with // sqlog-lint: allow(R10 "
                     "reason) on the line or the function signature",
                     alloc.what.c_str(), fn.qual.c_str(),
                     hot_file ? "hot file" : "marked sqlog-hot"));
  }
}

}  // namespace

std::string Finding::ToString() const {
  return StrFormat("%s:%zu: %s: %s", file.c_str(), line, rule.c_str(),
                   message.c_str());
}

Result<LintConfig> ParseConfig(std::string_view text, const std::string& origin) {
  LintConfig config;
  std::istringstream in{std::string(text)};
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::istringstream fields(line);
    std::string directive;
    if (!(fields >> directive) || directive[0] == '#') continue;
    auto one_path = [&](std::vector<std::string>* out) -> Status {
      std::string prefix;
      if (!(fields >> prefix)) {
        return Status::InvalidArgument(StrFormat("%s:%zu: %s needs a path prefix",
                                                 origin.c_str(), line_number,
                                                 directive.c_str()));
      }
      out->push_back(std::move(prefix));
      return Status::OK();
    };
    if (directive == "r1-allow") {
      SQLOG_RETURN_IF_ERROR_R(one_path(&config.r1_allow));
      continue;
    }
    if (directive == "r6-allow") {
      SQLOG_RETURN_IF_ERROR_R(one_path(&config.r6_allow));
      continue;
    }
    if (directive == "r7-allow") {
      SQLOG_RETURN_IF_ERROR_R(one_path(&config.r7_allow));
      continue;
    }
    if (directive == "hot") {
      SQLOG_RETURN_IF_ERROR_R(one_path(&config.hot));
      continue;
    }
    if (directive == "exclude") {
      SQLOG_RETURN_IF_ERROR_R(one_path(&config.exclude));
      continue;
    }
    if (directive == "manifest") {
      LintConfig::ManifestEntry entry;
      if (!(fields >> entry.path_suffix >> entry.type_name)) {
        return Status::InvalidArgument(
            StrFormat("%s:%zu: manifest needs <path-suffix> <TypeName>",
                      origin.c_str(), line_number));
      }
      config.manifest.push_back(std::move(entry));
      continue;
    }
    if (directive == "layer") {
      LintConfig::Layer layer;
      if (!(fields >> layer.name >> layer.prefix)) {
        return Status::InvalidArgument(
            StrFormat("%s:%zu: layer needs <name> <rel-path-prefix>",
                      origin.c_str(), line_number));
      }
      for (const auto& existing : config.layers) {
        if (existing.name == layer.name) {
          return Status::InvalidArgument(StrFormat("%s:%zu: duplicate layer '%s'",
                                                   origin.c_str(), line_number,
                                                   layer.name.c_str()));
        }
      }
      config.layers.push_back(std::move(layer));
      continue;
    }
    if (directive == "layer-edge") {
      std::string from, to;
      if (!(fields >> from >> to)) {
        return Status::InvalidArgument(StrFormat(
            "%s:%zu: layer-edge needs <from> <to>", origin.c_str(), line_number));
      }
      for (const std::string& name : {from, to}) {
        bool declared = false;
        for (const auto& layer : config.layers) {
          if (layer.name == name) declared = true;
        }
        if (!declared) {
          return Status::InvalidArgument(
              StrFormat("%s:%zu: layer-edge references undeclared layer '%s' "
                        "(declare it with `layer %s <prefix>` first)",
                        origin.c_str(), line_number, name.c_str(), name.c_str()));
        }
      }
      config.layer_edges.emplace_back(std::move(from), std::move(to));
      continue;
    }
    return Status::InvalidArgument(StrFormat("%s:%zu: unknown directive '%s'",
                                             origin.c_str(), line_number,
                                             directive.c_str()));
  }
  // The declared layer graph must be a DAG: the transitive closure may
  // not put any layer in its own dependency set.
  LayerClosure closure = BuildLayerClosure(config);
  for (const auto& [from, tos] : closure) {
    if (tos.count(from) > 0) {
      return Status::InvalidArgument(
          StrFormat("%s: layer-edge declarations form a cycle through '%s'; the "
                    "layer graph must be a DAG",
                    origin.c_str(), from.c_str()));
    }
  }
  return config;
}

Result<LintConfig> LoadConfig(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError(StrFormat("cannot open lint config %s", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseConfig(buffer.str(), path);
}

std::vector<Finding> LintDb(const LintConfig& config, const FactDb& db) {
  std::vector<Finding> findings;
  std::map<std::string, Suppressions> supps;
  for (const auto& [file, facts] : db) {
    supps.emplace(file, Suppressions(facts));
  }
  LayerClosure closure = BuildLayerClosure(config);

  for (const auto& [file, facts] : db) {
    const Suppressions& supp = supps.at(file);
    for (const auto& err : facts.config_errors) {
      findings.push_back({file, err.line, "config", err.detail});
    }
    CheckRuleSites(config, file, facts, supp, findings);
    CheckR5(config, file, facts, supp, findings);
    CheckR8Edges(config, closure, file, facts, supp, findings);
    CheckR10(config, file, facts, supp, findings);
  }
  CheckR8Cycles(db, supps, findings);
  CheckR9(db, supps, findings);

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return findings;
}

std::vector<Finding> LintSource(const LintConfig& config, const std::string& rel_path,
                                std::string_view content) {
  FactDb db;
  db[rel_path] = ExtractFacts(content);
  return LintDb(config, db);
}

Result<std::vector<Finding>> LintFile(const LintConfig& config, const std::string& root,
                                      const std::string& rel_path,
                                      const std::string& assume_path) {
  std::string full = root.empty() ? rel_path : root + "/" + rel_path;
  std::ifstream in(full, std::ios::binary);
  if (!in) {
    return Status::IoError(StrFormat("cannot open %s", full.c_str()));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LintSource(config, assume_path.empty() ? rel_path : assume_path, buffer.str());
}

}  // namespace sqlog::lint
