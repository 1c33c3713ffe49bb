#include "rewrite/strongly_linear.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "eval/engine.h"

namespace mcm::rewrite {

namespace {

std::vector<std::string> VarsOfLiteral(const dl::Literal& lit) {
  std::vector<std::string> vars;
  auto visit = [&vars](const dl::Term& t) {
    if (t.IsVariable() || t.IsAffine()) vars.push_back(t.name);
  };
  if (lit.kind == dl::Literal::Kind::kAtom) {
    for (const dl::Term& t : lit.atom.args) visit(t);
  } else {
    visit(lit.cmp.lhs);
    visit(lit.cmp.rhs);
  }
  return vars;
}

/// True if `lits` is a single positive binary atom over exactly
/// (first_var, second_var).
bool IsCanonicalAtom(const std::vector<dl::Literal>& lits,
                     const std::string& first_var,
                     const std::string& second_var) {
  if (lits.size() != 1 || !lits[0].IsPositiveAtom()) return false;
  const dl::Atom& atom = lits[0].atom;
  return atom.arity() == 2 && atom.args[0].IsVariable() &&
         atom.args[0].name == first_var && atom.args[1].IsVariable() &&
         atom.args[1].name == second_var;
}

}  // namespace

std::string StronglyLinearQuery::ToString() const {
  std::string constant = (reverse ? " b=" : " a=") + source.ToString() + "}";
  if (AllAtoms()) {
    return "CSL{P=" + p + " E=" + exit_body[0].atom.predicate +
           " L=" + prefix[0].atom.predicate +
           " R=" + suffix[0].atom.predicate + constant;
  }
  return "SL{P=" + p + " |prefix|=" + std::to_string(prefix.size()) +
         " |suffix|=" + std::to_string(suffix.size()) +
         " |exit|=" + std::to_string(exit_body.size()) + constant;
}

Result<StronglyLinearQuery> RecognizeStronglyLinear(
    const dl::Program& program) {
  if (program.queries.size() != 1) {
    return Status::Unsupported("expected exactly one query");
  }
  const dl::Atom& goal = program.queries[0].goal;
  auto bound_at = [&goal](size_t i) {
    return goal.arity() == 2 && goal.args[i].IsConstant() &&
           goal.args[1 - i].IsVariable();
  };
  if (!bound_at(0) && !bound_at(1)) {
    return Status::Unsupported("goal must be P(a, Y) or P(X, b)");
  }

  // Every binary P atom is read from its bound column `b` to its free
  // column `f`: as written for P(a, Y)?, mirrored for P(X, b)?.
  StronglyLinearQuery out;
  out.reverse = bound_at(1);
  const size_t b = out.reverse ? 1 : 0;
  const size_t f = 1 - b;
  out.p = goal.predicate;
  out.source = goal.args[b];
  out.answer_var = goal.args[f].name;

  const dl::Rule* exit_rule = nullptr;
  const dl::Rule* rec_rule = nullptr;
  for (const dl::Rule& rule : program.rules) {
    if (rule.head.predicate != out.p) {
      return Status::Unsupported("program defines extra predicate '" +
                                 rule.head.predicate + "'");
    }
    bool recursive = false;
    for (const dl::Literal& lit : rule.body) {
      if (lit.kind == dl::Literal::Kind::kAtom &&
          lit.atom.predicate == out.p) {
        recursive = true;
      }
    }
    if (recursive) {
      if (rec_rule != nullptr) {
        return Status::Unsupported("more than one recursive rule");
      }
      rec_rule = &rule;
    } else {
      if (exit_rule != nullptr) {
        return Status::Unsupported("more than one exit rule");
      }
      exit_rule = &rule;
    }
  }
  if (exit_rule == nullptr || rec_rule == nullptr) {
    return Status::Unsupported("need exactly one exit and one recursive rule");
  }

  // Heads: P(X, Y) with distinct variables, shared by both rules (after
  // renaming we simply require each rule's own head variables).
  auto head_vars = [b, f](const dl::Rule& r,
                          std::string* hx, std::string* hy) -> bool {
    if (r.head.arity() != 2 || !r.head.args[0].IsVariable() ||
        !r.head.args[1].IsVariable() ||
        r.head.args[0].name == r.head.args[1].name) {
      return false;
    }
    *hx = r.head.args[b].name;
    *hy = r.head.args[f].name;
    return true;
  };
  if (!head_vars(*exit_rule, &out.exit_x, &out.exit_y) ||
      !head_vars(*rec_rule, &out.x, &out.y)) {
    return Status::Unsupported("rule heads must be P(X, Y)");
  }
  out.exit_body = exit_rule->body;
  // Normalize the exit body to use the recursive rule's head variable
  // names? Not needed: the exit composition rule is emitted with the exit
  // rule's own variables.

  // Locate the recursive atom; it must be linear with variable arguments.
  const dl::Atom* rec_atom = nullptr;
  std::vector<dl::Literal> others;
  for (const dl::Literal& lit : rec_rule->body) {
    if (lit.kind == dl::Literal::Kind::kAtom &&
        lit.atom.predicate == out.p) {
      if (lit.negated || rec_atom != nullptr) {
        return Status::Unsupported("recursive rule must be linear");
      }
      rec_atom = &lit.atom;
    } else {
      others.push_back(lit);
    }
  }
  if (rec_atom == nullptr || rec_atom->arity() != 2 ||
      !rec_atom->args[0].IsVariable() || !rec_atom->args[1].IsVariable()) {
    return Status::Unsupported("recursive atom must be P(Xr, Yr)");
  }
  out.xr = rec_atom->args[b].name;
  out.yr = rec_atom->args[f].name;
  // X, Y, Xr and Yr must be pairwise distinct. X != Y holds by the head
  // check; Xr = Y or Yr = X joins the two sides and is rejected below.
  if (out.xr == out.x || out.yr == out.y || out.xr == out.yr) {
    return Status::Unsupported(
        "degenerate variable pattern in recursive rule");
  }

  // Partition the remaining literals into the X-side (prefix) and Y-side
  // (suffix) connected components of the variable-sharing graph.
  // Union-find over variable names seeded with the four anchors.
  std::unordered_map<std::string, std::string> parent;
  std::function<std::string(const std::string&)> find =
      [&](const std::string& v) -> std::string {
    auto it = parent.find(v);
    if (it == parent.end() || it->second == v) {
      parent[v] = v;
      return v;
    }
    std::string root = find(it->second);
    parent[v] = root;
    return root;
  };
  auto unite = [&](const std::string& a, const std::string& b) {
    parent[find(a)] = find(b);
  };
  unite(out.x, out.xr);  // the L side
  unite(out.y, out.yr);  // the R side
  for (const dl::Literal& lit : others) {
    std::vector<std::string> vars = VarsOfLiteral(lit);
    for (size_t i = 1; i < vars.size(); ++i) unite(vars[0], vars[i]);
  }
  std::string x_root = find(out.x);
  std::string y_root = find(out.y);
  if (x_root == y_root) {
    return Status::Unsupported(
        "prefix and suffix share variables (not strongly linear)");
  }
  for (const dl::Literal& lit : others) {
    std::vector<std::string> vars = VarsOfLiteral(lit);
    if (vars.empty()) {
      return Status::Unsupported("ground literal in recursive rule body");
    }
    std::string root = find(vars[0]);
    if (root == x_root) {
      out.prefix.push_back(lit);
    } else if (root == y_root) {
      out.suffix.push_back(lit);
    } else {
      return Status::Unsupported(
          "body literal connected to neither side: " + lit.ToString());
    }
  }
  if (out.prefix.empty() || out.suffix.empty()) {
    return Status::Unsupported(
        "empty prefix or suffix (identity L/R is outside the supported "
        "fragment)");
  }
  // dl::Validate's binding rule: X and Xr occur as plain variables in a
  // positive prefix atom, Y and Yr in a positive suffix atom, so every
  // composition MaterializeStronglyLinear emits is range-restricted.
  auto binds = [](const std::vector<dl::Literal>& lits, const std::string& v) {
    return std::any_of(lits.begin(), lits.end(), [&v](const dl::Literal& lit) {
      return lit.IsPositiveAtom() &&
             std::any_of(lit.atom.args.begin(), lit.atom.args.end(),
                         [&v](const dl::Term& t) {
                           return t.IsVariable() && t.name == v;
                         });
    });
  };
  if (!binds(out.prefix, out.x) || !binds(out.prefix, out.xr) ||
      !binds(out.suffix, out.y) || !binds(out.suffix, out.yr)) {
    return Status::Unsupported(
        "the prefix must bind X and Xr, and the suffix Y and Yr");
  }

  out.prefix_is_atom = IsCanonicalAtom(out.prefix, out.x, out.xr);
  out.suffix_is_atom = IsCanonicalAtom(out.suffix, out.y, out.yr);
  out.exit_is_atom = IsCanonicalAtom(out.exit_body, out.exit_x, out.exit_y);
  return out;
}

Result<RecognizedQuery> RecognizeQuery(const dl::Program& program) {
  if (program.queries.size() != 1) {
    return Status::Unsupported("expected exactly one query");
  }
  const std::string& p = program.queries[0].goal.predicate;

  dl::Program goal_part;
  RecognizedQuery out;
  for (const dl::Rule& r : program.rules) {
    if (r.head.predicate == p) {
      goal_part.rules.push_back(r);
      continue;
    }
    for (const dl::Literal& lit : r.body) {
      if (lit.kind == dl::Literal::Kind::kAtom && lit.atom.predicate == p) {
        return Status::Unsupported("predicate '" + r.head.predicate +
                                   "' depends on the query predicate");
      }
    }
    out.support.rules.push_back(r);
  }
  goal_part.queries = program.queries;

  MCM_ASSIGN_OR_RETURN(out.query, RecognizeStronglyLinear(goal_part));
  return out;
}

Result<CslQuery> MaterializeStronglyLinear(Database* db,
                                           const StronglyLinearQuery& slq,
                                           const eval::EvalOptions& options,
                                           const SlNames& names) {
  dl::Program comp;
  // One part of the signature: the atom's relation, or a fresh composition
  // `star(from, to) :- body` (a stale one from an earlier call is cleared).
  auto part = [db, &comp](const std::vector<dl::Literal>& body, bool is_atom,
                          const std::string& star, const std::string& from,
                          const std::string& to) {
    if (is_atom) return body[0].atom.predicate;
    if (Relation* stale = db->Find(star)) stale->Clear();
    comp.rules.push_back(dl::Rule{
        dl::Atom{star, {dl::Term::Var(from), dl::Term::Var(to)}, dl::Span{}},
        body});
    return star;
  };
  CslQuery csl;
  csl.p = slq.p;
  csl.source = slq.source;
  csl.answer_var = slq.answer_var;
  csl.l = part(slq.prefix, slq.prefix_is_atom, names.l_star, slq.x, slq.xr);
  csl.r = part(slq.suffix, slq.suffix_is_atom, names.r_star, slq.y, slq.yr);
  // The exit composition keeps the exit rule's own head variables, in the
  // query's orientation: e*(Y, X) :- E(X, Y) for a mirrored canonical E.
  csl.e = part(slq.exit_body, slq.exit_is_atom, names.e_star, slq.exit_x,
               slq.exit_y);

  if (!comp.rules.empty()) {
    eval::Engine engine(db, options);
    MCM_RETURN_NOT_OK(engine.Run(comp));
  }
  return csl;
}

}  // namespace mcm::rewrite
