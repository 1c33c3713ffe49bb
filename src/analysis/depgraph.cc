#include "analysis/depgraph.h"

#include <algorithm>
#include <unordered_set>

namespace mcm::analysis {

using dl::DiagCode;
using graph::NodeId;

graph::NodeId DependencyInfo::IdOf(const std::string& name) const {
  auto it = id_of.find(name);
  return it == id_of.end() ? graph::kInvalidNode : it->second;
}

bool DependencyInfo::DependsOn(const std::string& a,
                               const std::string& b) const {
  NodeId u = IdOf(a), v = IdOf(b);
  if (u == graph::kInvalidNode || v == graph::kInvalidNode) return false;
  return graph.HasArc(u, v);
}

std::string DependencyInfo::ToString() const {
  std::string out = "dependency graph (" +
                    std::to_string(predicates.size()) + " predicates, " +
                    std::to_string(graph.NumArcs()) + " arcs):\n";
  for (NodeId u = 0; u < predicates.size(); ++u) {
    out += "  " + predicates[u] + "/" + std::to_string(arities[u]);
    out += is_idb[u] ? " [idb]" : " [edb]";
    if (!graph.OutNeighbors(u).empty()) {
      out += " ->";
      for (NodeId v : graph.OutNeighbors(u)) {
        out += " " + predicates[v];
      }
    }
    out += "\n";
  }
  return out;
}

namespace {

/// First source position at which each predicate occurs (head preferred).
struct FirstSeen {
  dl::Span span;
  bool in_head = false;
};

}  // namespace

DependencyInfo AnalyzeDependencies(const dl::Program& program,
                                   const Database* db,
                                   dl::DiagnosticBag* bag) {
  DependencyInfo info;
  std::unordered_map<std::string, FirstSeen> first_seen;

  auto node = [&info](const dl::Atom& a) -> NodeId {
    auto [it, inserted] = info.id_of.emplace(
        a.predicate, static_cast<NodeId>(info.predicates.size()));
    if (inserted) {
      info.predicates.push_back(a.predicate);
      info.arities.push_back(a.arity());
      info.is_idb.push_back(false);
      info.graph.AddNode();
    }
    return it->second;
  };
  auto remember = [&first_seen](const dl::Atom& a, bool in_head) {
    auto [it, inserted] = first_seen.emplace(a.predicate,
                                             FirstSeen{a.span, in_head});
    if (!inserted && in_head && !it->second.in_head) {
      it->second = FirstSeen{a.span, true};
    }
  };

  // Arcs head -> body predicate; negated arcs are remembered for the
  // stratifiability check.
  std::vector<std::pair<NodeId, NodeId>> negated_arcs;
  for (const dl::Rule& r : program.rules) {
    NodeId h = node(r.head);
    info.is_idb[h] = true;
    remember(r.head, true);
    for (const dl::Literal& l : r.body) {
      if (l.kind != dl::Literal::Kind::kAtom) continue;
      NodeId b = node(l.atom);
      remember(l.atom, false);
      info.graph.AddArc(h, b);
      if (l.negated) negated_arcs.emplace_back(h, b);
    }
  }
  for (const dl::Query& q : program.queries) {
    node(q.goal);
    remember(q.goal, false);
  }

  // E101: a stored relation the program uses at another arity, which no
  // evaluation path could read. W201: body predicates that nothing
  // defines. Without a database we assume they are EDB relations the
  // caller will load (reported once as a note, so lint runs without fact
  // files stay quiet).
  std::vector<std::string> assumed_edb;
  for (NodeId u = 0; u < info.predicates.size(); ++u) {
    const std::string& name = info.predicates[u];
    const Relation* stored = db != nullptr ? db->Find(name) : nullptr;
    if (stored != nullptr && stored->arity() != info.arities[u]) {
      bag->Add(DiagCode::kArityConflict, first_seen[name].span,
               "relation '" + name + "' is stored with arity " +
                   std::to_string(stored->arity()) +
                   ", the program uses it with arity " +
                   std::to_string(info.arities[u]));
    }
    if (info.is_idb[u]) continue;
    if (db != nullptr) {
      if (stored == nullptr) {
        bag->Add(DiagCode::kUndefinedPredicate, first_seen[name].span,
                 "predicate '" + name +
                     "' has no rules, no facts, and no stored relation");
      }
    } else {
      assumed_edb.push_back(name);
    }
  }
  if (!assumed_edb.empty()) {
    std::sort(assumed_edb.begin(), assumed_edb.end());
    std::string list;
    for (const std::string& p : assumed_edb) {
      if (!list.empty()) list += ", ";
      list += p;
    }
    bag->Add(DiagCode::kAssumedEdb, dl::Span{},
             "assuming database (EDB) predicates: " + list);
  }

  // Reachability from the query goals.
  info.reachable.assign(info.predicates.size(), false);
  if (!program.queries.empty()) {
    std::vector<NodeId> stack;
    for (const dl::Query& q : program.queries) {
      NodeId g = info.IdOf(q.goal.predicate);
      if (g != graph::kInvalidNode && !info.reachable[g]) {
        info.reachable[g] = true;
        stack.push_back(g);
      }
    }
    while (!stack.empty()) {
      NodeId u = stack.back();
      stack.pop_back();
      for (NodeId v : info.graph.OutNeighbors(u)) {
        if (!info.reachable[v]) {
          info.reachable[v] = true;
          stack.push_back(v);
        }
      }
    }

    // W202 / W203: defined predicates the query can never touch. A
    // predicate nothing references at all is "unused"; one referenced only
    // from other unreachable rules is "unreachable".
    for (NodeId u = 0; u < info.predicates.size(); ++u) {
      if (!info.is_idb[u] || info.reachable[u]) continue;
      const std::string& name = info.predicates[u];
      dl::Span span = first_seen[name].span;
      if (info.graph.InDegree(u) == 0) {
        bag->Add(DiagCode::kUnusedPredicate, span,
                 "predicate '" + name +
                     "' is defined but never used by a query or another rule");
      } else {
        bag->Add(DiagCode::kUnreachablePredicate, span,
                 "predicate '" + name +
                     "' is not reachable from any query goal");
      }
    }
  } else {
    // No query: everything is considered reachable (library-style program).
    info.reachable.assign(info.predicates.size(), true);
  }

  // W204: a negated arc inside a strongly connected component means
  // negation through recursion — no stratification exists.
  if (!negated_arcs.empty()) {
    std::vector<size_t> scc_of(info.predicates.size(), 0);
    size_t scc_index = 0;
    for (const std::vector<NodeId>& scc : info.graph.Sccs()) {
      for (NodeId u : scc) scc_of[u] = scc_index;
      ++scc_index;
    }
    for (auto [h, b] : negated_arcs) {
      if (scc_of[h] == scc_of[b]) {
        bag->Add(DiagCode::kNegationCycle, first_seen[info.predicates[h]].span,
                 "predicate '" + info.predicates[h] +
                     "' depends negatively on '" + info.predicates[b] +
                     "' within a recursive cycle; the program is not "
                     "stratifiable");
      }
    }
  }

  return info;
}

}  // namespace mcm::analysis
