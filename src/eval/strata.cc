#include "eval/strata.h"

#include "graph/digraph.h"

namespace mcm::eval {

Result<Stratification> Stratify(const dl::Program& program) {
  // Collect IDB predicates (those with rules).
  std::vector<std::string> preds;
  std::unordered_map<std::string, size_t> pred_id;
  for (const dl::Rule& r : program.rules) {
    if (pred_id.emplace(r.head.predicate, preds.size()).second) {
      preds.push_back(r.head.predicate);
    }
  }

  const size_t n = preds.size();
  graph::Digraph deps(n);
  // (head, body) pairs with negative dependency, for the stratification
  // check after SCCs are known.
  std::vector<std::pair<size_t, size_t>> neg_edges;

  for (const dl::Rule& r : program.rules) {
    size_t h = pred_id[r.head.predicate];
    for (const dl::Literal& l : r.body) {
      if (l.kind != dl::Literal::Kind::kAtom) continue;
      auto it = pred_id.find(l.atom.predicate);
      if (it == pred_id.end()) continue;  // EDB predicate
      deps.AddArc(static_cast<graph::NodeId>(h),
                  static_cast<graph::NodeId>(it->second));
      if (l.negated) neg_edges.emplace_back(h, it->second);
    }
  }

  // Tarjan's order: a component comes after every component it depends on.
  std::vector<std::vector<graph::NodeId>> comps = deps.Sccs();

  std::vector<size_t> comp_of(n, 0);
  for (size_t c = 0; c < comps.size(); ++c) {
    for (graph::NodeId v : comps[c]) comp_of[v] = c;
  }

  // Negation must cross strata downward.
  for (auto [h, b] : neg_edges) {
    if (comp_of[h] == comp_of[b]) {
      return Status::InvalidArgument(
          "program is not stratifiable: '" + preds[h] +
          "' depends negatively on '" + preds[b] +
          "' inside a recursive component");
    }
  }

  Stratification out;
  out.strata.resize(comps.size());
  for (size_t c = 0; c < comps.size(); ++c) {
    Stratum& s = out.strata[c];
    for (graph::NodeId v : comps[c]) {
      s.predicates.push_back(preds[v]);
      out.stratum_of[preds[v]] = c;
    }
  }

  // Attach rules to the stratum of their head; detect recursion.
  for (size_t ri = 0; ri < program.rules.size(); ++ri) {
    const dl::Rule& r = program.rules[ri];
    size_t c = comp_of[pred_id[r.head.predicate]];
    out.strata[c].rule_indices.push_back(ri);
    for (const dl::Literal& l : r.body) {
      if (l.kind != dl::Literal::Kind::kAtom || l.negated) continue;
      auto it = pred_id.find(l.atom.predicate);
      if (it != pred_id.end() && comp_of[it->second] == c) {
        out.strata[c].recursive = true;
      }
    }
  }
  // A predicate depending on itself in a single-node component also counts
  // as recursive (self-loop); handled above since comp_of matches.

  return out;
}

}  // namespace mcm::eval
