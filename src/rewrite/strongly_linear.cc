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

std::optional<CslQuery> StronglyLinearQuery::Canonical() const {
  if (!prefix_is_atom || !suffix_is_atom || !exit_is_atom) return std::nullopt;
  CslQuery csl;
  csl.p = p;
  csl.e = exit_body[0].atom.predicate;
  csl.l = prefix[0].atom.predicate;
  csl.r = suffix[0].atom.predicate;
  csl.source = source;
  csl.answer_var = answer_var;
  return csl;
}

std::string StronglyLinearQuery::ToString() const {
  return "SL{P=" + p + " |prefix|=" + std::to_string(prefix.size()) +
         " |suffix|=" + std::to_string(suffix.size()) +
         " |exit|=" + std::to_string(exit_body.size()) +
         " a=" + source.ToString() + "}";
}

Result<StronglyLinearQuery> RecognizeStronglyLinear(
    const dl::Program& program) {
  if (program.queries.size() != 1) {
    return Status::Unsupported("expected exactly one query");
  }
  const dl::Query& query = program.queries[0];
  if (query.goal.arity() != 2 || !query.goal.args[0].IsConstant() ||
      !query.goal.args[1].IsVariable()) {
    return Status::Unsupported("goal must be P(a, Y)");
  }

  StronglyLinearQuery out;
  out.p = query.goal.predicate;
  out.source = query.goal.args[0];
  out.answer_var = query.goal.args[1].name;

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
  auto head_vars = [](const dl::Rule& r,
                      std::string* hx, std::string* hy) -> bool {
    if (r.head.arity() != 2 || !r.head.args[0].IsVariable() ||
        !r.head.args[1].IsVariable() ||
        r.head.args[0].name == r.head.args[1].name) {
      return false;
    }
    *hx = r.head.args[0].name;
    *hy = r.head.args[1].name;
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
  out.xr = rec_atom->args[0].name;
  out.yr = rec_atom->args[1].name;
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

  // The all-atom case needs nothing materialized; a goal bound only in its
  // second argument is the mirrored forward query.
  if (Result<StronglyLinearQuery> slq = RecognizeStronglyLinear(goal_part);
      slq.ok()) {
    if (std::optional<CslQuery> csl = slq->Canonical()) {
      out.form = std::move(*csl);
    } else {
      out.form = std::move(*slq);
    }
  } else {
    MCM_ASSIGN_OR_RETURN(out.form, RecognizeReverseCsl(goal_part, "mcm_eswap"));
  }
  return out;
}

Result<CslQuery> MaterializeStronglyLinear(Database* db,
                                           const StronglyLinearQuery& slq,
                                           const eval::EvalOptions& options,
                                           const SlNames& names) {
  dl::Program comp;
  CslQuery csl;
  csl.p = "mcm_p";
  csl.source = slq.source;
  csl.answer_var = slq.answer_var;

  if (slq.prefix_is_atom) {
    csl.l = slq.prefix[0].atom.predicate;
  } else {
    csl.l = names.l_star;
    dl::Rule r;
    r.head = dl::Atom{names.l_star,
                      {dl::Term::Var(slq.x), dl::Term::Var(slq.xr)},
                      dl::Span{}};
    r.body = slq.prefix;
    comp.rules.push_back(std::move(r));
  }

  if (slq.suffix_is_atom) {
    csl.r = slq.suffix[0].atom.predicate;
  } else {
    csl.r = names.r_star;
    dl::Rule r;
    r.head = dl::Atom{names.r_star,
                      {dl::Term::Var(slq.y), dl::Term::Var(slq.yr)},
                      dl::Span{}};
    r.body = slq.suffix;
    comp.rules.push_back(std::move(r));
  }

  if (slq.exit_is_atom) {
    csl.e = slq.exit_body[0].atom.predicate;
  } else {
    csl.e = names.e_star;
    dl::Rule r;
    // The composition keeps the exit rule's own head variables.
    r.head = dl::Atom{names.e_star,
                      {dl::Term::Var(slq.exit_x), dl::Term::Var(slq.exit_y)},
                      dl::Span{}};
    r.body = slq.exit_body;
    comp.rules.push_back(std::move(r));
  }

  if (!comp.rules.empty()) {
    eval::Engine engine(db, options);
    MCM_RETURN_NOT_OK(engine.Run(comp));
  }
  return csl;
}

}  // namespace mcm::rewrite
